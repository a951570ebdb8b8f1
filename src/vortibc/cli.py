"""Command-line front end.

Subcommands: verify (identity/inequality suite), stokes, ns, euler, sweep.
Exit codes: 0 success, 1 verify-suite failure, 2 configuration error,
3 no contraction, 4 solver failure or internal error, 5 partial sweep.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import errors
from .config import RunConfig, check_ranges, load_config
from .fields import div, l2, step_count
from .generators import make_boundary_data, make_initial_condition
from .geometry import boundary_frame, build_grid
from .io import atomic_write_text, format_float, scalar_checkpoint, vector_checkpoint, write_csv

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NO_CONTRACTION = 3
EXIT_SOLVER = 4
EXIT_PARTIAL_SWEEP = 5


def _build_parser():
    p = argparse.ArgumentParser(prog="vortibc",
                                description="Navier-Stokes with vorticity "
                                            "boundary conditions: solvers and checks")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", required=True, help="path to key=value config")
        sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument("--resolution-override", default=None, metavar="N1,N2")
        sp.add_argument("--seed", type=int, default=None, help="random seed override")
    return p


def _prepare(args):
    cfg = load_config(args.config)
    if args.out:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    if args.resolution_override:
        try:
            cfg.n1, cfg.n2 = (int(p) for p in args.resolution_override.split(","))
        except ValueError:
            raise errors.ConfigError(
                f"--resolution-override expects N1,N2, got {args.resolution_override!r}")
    check_ranges(cfg)
    return cfg


def _setup_run(cfg: RunConfig):
    # refuse, before any solve, an output directory that cannot be made or
    # written; nothing is created here, so a failed run leaves no directory
    ancestor = os.path.abspath(cfg.out_dir)
    while not os.path.lexists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not (os.path.isdir(ancestor) and os.access(ancestor, os.W_OK | os.X_OK)):
        raise errors.ConfigError(
            f"output directory {cfg.out_dir!r} is unusable: {ancestor!r} "
            "is not a writable directory")
    grid = build_grid(cfg.domain_spec(), cfg.n1, cfg.n2)
    frame = boundary_frame(grid)
    rng = np.random.default_rng(cfg.seed)
    u0 = make_initial_condition(cfg.initial_condition, grid, cfg.ic_params, rng)
    a = make_boundary_data(cfg.boundary_data, frame, cfg.bd_params, rng, u0=u0)
    return grid, frame, u0, a


def _stream(cfg, rows, nt, tags, csv_name, columns, diag_row):
    """Consume nt snapshots of fields as they pass: checkpoint each field
    under its tag at every checkpoint_stride-th snapshot (stride 0: the last
    one only), then write the rows diag_row(k, *fields) under `columns` to
    the CSV csv_name.  A field given as a function that makes it is made
    only to be checkpointed.  Returns the fields of the last snapshot."""
    stride = cfg.checkpoint_stride
    table = []
    for k, fields in enumerate(rows):
        table.append(diag_row(k, *fields))
        if k == nt - 1 if stride <= 0 else k % stride == 0:
            for tag, snap in zip(tags, fields):
                snap = snap() if callable(snap) else snap
                path = os.path.join(cfg.out_dir, f"{tag}_{k:06d}.vbf")
                if hasattr(snap, "ux"):
                    vector_checkpoint(path, snap)
                else:
                    scalar_checkpoint(path, snap)
    write_csv(os.path.join(cfg.out_dir, csv_name), columns, table)
    return fields


def cmd_verify(cfg: RunConfig) -> int:
    from .verify import run_identity_suite, run_solonnikov_ensemble

    spec = cfg.domain_spec()
    base = min(cfg.n1, cfg.n2)
    resolutions = [base, 2 * base, 4 * base] if base <= 40 else [base // 2, base, 2 * base]
    report = run_identity_suite(spec, resolutions, seed=cfg.seed)
    for line in report.table_lines():
        print(line)
    print(f"suite elapsed: {report.elapsed:.1f}s")
    worst, ok = (0.0, True)
    if spec.kind.value != "torus":
        worst, ok = run_solonnikov_ensemble(spec, resolution=max(base, 32),
                                            n_samples=20, seed=cfg.seed + 1)
        print(f"{'gradient_bound_ratio':<28}{worst:>12.4f}"
              f"{'':>12}{'':>8}  {'ok' if ok else 'FAIL'}")
    if not report.all_passed:
        bad = report.first_failure()
        print(f"FAILED: {bad.name}")
        return EXIT_VERIFY_FAIL
    if not ok:
        print("FAILED: gradient_bound_ratio")
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_stokes(cfg: RunConfig) -> int:
    from .stokes import STOKES_COLUMNS, normalize_boundary_data, stokes_row, stokes_rows

    grid, frame, u0, a = _setup_run(cfg)
    dt = cfg.effective_dt(grid)
    sample_a, _ = normalize_boundary_data(a, frame)
    rows = stokes_rows(u0, a, cfg.mu, cfg.T, dt, cfg.scheme)
    w, _ = _stream(cfg, rows, step_count(cfg.T, dt) + 1, ("w", "q"),
                   "stokes_diagnostics.csv", STOKES_COLUMNS,
                   lambda k, w, q: stokes_row(k * dt, w, q, sample_a(k * dt)))
    print(f"final ||w||_2 = {format_float(l2(w))}")
    print(f"final ||div w||_2 = {format_float(l2(div(w)))}")
    return EXIT_OK


NS_TRACE_COLUMNS = ("iter", "delta_WT", "ratio")


def cmd_ns(cfg: RunConfig) -> int:
    from .fixedpoint import PicardConfig, ns_rows, picard_solve
    from .linearized import F_COLUMNS, EnergyDiagnostics

    grid, frame, u0, a = _setup_run(cfg)
    dt = cfg.effective_dt(grid)
    pc = PicardConfig(tol_fix=cfg.tol_fix, max_iter=cfg.max_iter,
                      contraction_window=cfg.contraction_window)
    sol = picard_solve(u0, a, cfg.mu, cfg.T, dt, pc, scheme=cfg.scheme)
    write_csv(os.path.join(cfg.out_dir, "ns_trace.csv"), NS_TRACE_COLUMNS,
              [(it, d, r) for it, d, r in sol.trace])
    nt = len(sol.v)
    div_l2, terms = [], []

    def diag_row(k, u, p, div_v, *energy_terms):
        div_l2.append(l2(div_v))
        terms.append(energy_terms)
        return k * dt, l2(u), l2(sol.v[k]), div_l2[-1]

    u, *_ = _stream(cfg, ns_rows(sol), nt, ("u", "p"), "ns_diagnostics.csv",
                    ("t", "l2_u", "l2_v", "l2_div_v"), diag_row)
    if terms[0]:   # ns_rows yields the energy terms from 3 snapshots on
        diag = EnergyDiagnostics.from_terms(dt, *map(np.array, zip(*terms)))
        write_csv(os.path.join(cfg.out_dir, "ns_energy.csv"), F_COLUMNS, list(diag.rows()))
    print(f"final ||u||_2 = {format_float(l2(u))}")
    print(f"max_t ||div v||_2 = {format_float(float(np.max(div_l2)))}")
    print(f"picard iterations = {len(sol.trace)}")
    if cfg.initial_condition == "taylor_green" and not grid.has_boundary():
        decay = math.exp(-2.0 * cfg.mu * (nt - 1) * dt)
        err = l2(u - decay * u0) / max(decay * l2(u0), 1e-300)
        print(f"final L2 error vs analytic decay = {format_float(err)}")
    return EXIT_OK


def cmd_euler(cfg: RunConfig) -> int:
    from .euler import euler_rows, kinetic_energy

    grid, frame, u0, a = _setup_run(cfg)
    dt = cfg.effective_dt(grid)
    rows = ((u,) for u in euler_rows(u0, cfg.T, dt))
    u, = _stream(cfg, rows, step_count(cfg.T, dt) + 1, ("u",), "euler_diagnostics.csv",
                 ("t", "l2_u", "energy"), lambda k, u: (k * dt, l2(u), kinetic_energy(u)))
    print(f"final ||u||_2 = {format_float(l2(u))}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    from .euler import SWEEP_COLUMNS, SweepConfig, sweep_mu

    grid, frame, u0, a = _setup_run(cfg)
    dt = cfg.effective_dt(grid)
    if not cfg.mu_list:
        raise errors.ConfigError("sweep needs physics.mu_list")
    try:
        sc = SweepConfig(mu_list=[float(m) for m in cfg.mu_list], u0=u0, a=a,
                         T=cfg.T, dt=dt)
    except ValueError as exc:
        raise errors.ConfigError(f"physics.mu_list: {exc}")
    rep = sweep_mu(sc)
    write_csv(os.path.join(cfg.out_dir, "sweep.csv"), SWEEP_COLUMNS, rep.csv_rows())
    slope_text = "n/a" if rep.slope is None else format_float(rep.slope)
    lines = [f"slope = {slope_text}", f"slope_note = {rep.slope_note}"]
    if rep.e_grad_ratio is not None:
        lines.append(f"e_grad_ratio = {format_float(rep.e_grad_ratio)}")
    atomic_write_text(os.path.join(cfg.out_dir, "sweep_summary.txt"),
                      "\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return EXIT_PARTIAL_SWEEP if rep.partial else EXIT_OK


# each subcommand: its function and its help line
_COMMANDS = {
    "verify": (cmd_verify, "run the identity/inequality suite"),
    "stokes": (cmd_stokes, "unsteady Stokes run"),
    "ns": (cmd_ns, "full Navier-Stokes fixed-point run"),
    "euler": (cmd_euler, "inviscid reference run"),
    "sweep": (cmd_sweep, "vanishing-viscosity sweep"),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _prepare(args)
        return _COMMANDS[args.command][0](cfg)
    except (errors.ConfigError, errors.InvalidSpec, errors.ResolutionTooLow) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except errors.NoContraction as exc:
        print(f"no contraction: {exc}", file=sys.stderr)
        return EXIT_NO_CONTRACTION
    except errors.VortibcError as exc:
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except Exception as exc:  # noqa: BLE001 - exit 1 means a failed verify suite
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
