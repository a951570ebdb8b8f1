#!/usr/bin/env python3
"""Factor and solve cost of every mode-block operator on annulus grids.

For each size N given, a fresh process per operator builds the solver of an
N x N annulus (r = 1..2) once and reports:

- factor_ms: best of REPEATS `splu` calls on the operator's block matrix
- solve_ms: best of REPEATS solves of one vector through the solver
- lu_nnz: nonzeros of L plus U
- rss_rise_mb: resident high-water mark (VmHWM) after the solver's first
  `splu` call, less the resident size (VmRSS) at its entry: the call's own
  peak above its entry RSS, or an upper bound on it where building the
  block matrix just before the call peaked higher
- hwm_rise_mb: VmHWM after that call less VmHWM at its entry: how far the
  call alone lifts the process's peak (Linux only, as rss_rise_mb)

The operators are the velocity operator of the implicit step under backward
Euler and Crank-Nicolson (mu = 0.01, dt = 1e-3, as `stokes_annulus_fine`),
the Neumann FV Laplacian and the Dirichlet Laplacian.  scipy.sparse.linalg
is imported before anything is measured, so no figure carries its one-time
import, and BLAS runs on one thread unless the environment says otherwise.

    PYTHONPATH=src python scripts/factor_profile.py 96 192 288
"""

import argparse
import json
import os
import subprocess
import sys
import time

OPERATORS = ("velocity-be", "velocity-cn", "neumann", "dirichlet")
MU, DT = 0.01, 1e-3
REPEATS = 5


def _status_kb(field):
    with open("/proc/self/status", encoding="ascii") as f:
        return next(int(line.split()[1]) for line in f if line.startswith(field))


def _best_ms(fn):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def profile(op, n):
    """The figures of one operator on an n x n annulus, in this process."""
    import numpy as np
    import scipy.sparse.linalg  # noqa: F401  imported before any measurement

    from vortibc import DomainKind, DomainSpec, build_grid, elliptic, stepping

    grid = build_grid(DomainSpec(DomainKind.ANNULUS, r_inner=1.0, r_outer=2.0), n, n)
    splu, calls = elliptic.splu, []

    def measured(A):
        rss, hwm = _status_kb("VmRSS:"), _status_kb("VmHWM:")
        lu = splu(A)
        after = _status_kb("VmHWM:")
        calls.append((A, lu, after - rss, after - hwm))
        return lu

    elliptic.splu = stepping.splu = measured
    if op.startswith("velocity"):
        solver = stepping.VelocityStepper(grid, MU, DT, 1.0 if op == "velocity-be" else 0.5).solver
    elif op == "neumann":
        solver = elliptic._assemble_neumann(grid)[1]
    else:
        solver = elliptic._assemble_dirichlet(grid)[0]
    (A, lu, rss_rise_kb, hwm_rise_kb), = calls
    b = np.random.default_rng(0).standard_normal(int(np.prod(solver.layout)))
    return {"factor_ms": _best_ms(lambda: splu(A)),
            "solve_ms": _best_ms(lambda: solver.solve(b)),
            "lu_nnz": int(lu.L.nnz + lu.U.nnz),
            "rss_rise_mb": rss_rise_kb / 1024, "hwm_rise_mb": hwm_rise_kb / 1024}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("sizes", nargs="*", type=int, default=[96, 192])
    ap.add_argument("--child", nargs=2, metavar=("OPERATOR", "N"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(profile(args.child[0], int(args.child[1]))))
        return
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    print(f"{'N':>5} {'operator':<12} {'factor_ms':>10} {'solve_ms':>9} {'lu_nnz':>9} "
          f"{'rss_rise_mb':>12} {'hwm_rise_mb':>12}")
    for n in args.sizes:
        for op in OPERATORS:
            out = subprocess.run([sys.executable, __file__, "--child", op, str(n)],
                                 env=env, capture_output=True, text=True, check=True)
            r = json.loads(out.stdout)
            print(f"{n:>5} {op:<12} {r['factor_ms']:>10.2f} {r['solve_ms']:>9.3f} "
                  f"{r['lu_nnz']:>9} {r['rss_rise_mb']:>12.1f} {r['hwm_rise_mb']:>12.1f}")


if __name__ == "__main__":
    main()
