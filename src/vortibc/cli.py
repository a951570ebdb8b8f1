"""Command-line front end.

Subcommands: verify (identity/inequality suite), stokes, ns, euler, sweep.
Exit codes: 0 success, 1 verify-suite failure, 2 configuration error,
3 no contraction, 4 solver failure, 5 partial sweep.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import errors
from .config import RunConfig, check_ranges, load_config
from .diagnostics import DiagnosticsRecord
from .fields import div, l2
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
    for name, help_ in (("verify", "run the identity/inequality suite"),
                        ("stokes", "unsteady Stokes run"),
                        ("ns", "full Navier-Stokes fixed-point run"),
                        ("euler", "inviscid reference run"),
                        ("sweep", "vanishing-viscosity sweep")):
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
    grid = build_grid(cfg.domain_spec(), cfg.n1, cfg.n2)
    frame = boundary_frame(grid) if grid.has_boundary() else None
    rng = np.random.default_rng(cfg.seed)
    u0 = make_initial_condition(cfg.initial_condition, grid, cfg.ic_params, rng)
    a = make_boundary_data(cfg.boundary_data, frame, cfg.bd_params, rng, u0=u0)
    return grid, frame, u0, a


def _write_history(cfg, hist, tag):
    stride = cfg.checkpoint_stride
    os.makedirs(cfg.out_dir, exist_ok=True)
    idxs = [len(hist) - 1] if stride <= 0 else list(range(0, len(hist), stride))
    for k in idxs:
        snap = hist[k]
        path = os.path.join(cfg.out_dir, f"{tag}_{k:06d}.vbf")
        if hasattr(snap, "ux"):
            vector_checkpoint(path, snap)
        else:
            scalar_checkpoint(path, snap)


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
    from .stokes import solve_stokes, stokes_diagnostics

    grid, frame, u0, a = _setup_run(cfg)
    w_hist, q_hist = solve_stokes(u0, a, cfg.mu, cfg.T, cfg.effective_dt(grid), cfg.scheme)
    os.makedirs(cfg.out_dir, exist_ok=True)
    diag = stokes_diagnostics(w_hist, q_hist, a, frame)
    diag.write_csv(os.path.join(cfg.out_dir, "stokes_diagnostics.csv"))
    _write_history(cfg, w_hist, "w")
    _write_history(cfg, q_hist, "q")
    print(f"final ||w||_2 = {format_float(l2(w_hist[-1]))}")
    print(f"final ||div w||_2 = {format_float(l2(div(w_hist[-1])))}")
    return EXIT_OK


NS_TRACE_COLUMNS = ("iter", "delta_WT", "ratio")


def cmd_ns(cfg: RunConfig) -> int:
    from .fixedpoint import PicardConfig, picard_solve, verify_incompressibility
    from .linearized import F_COLUMNS, compute_F

    grid, frame, u0, a = _setup_run(cfg)
    dt = cfg.effective_dt(grid)
    pc = PicardConfig(tol_fix=cfg.tol_fix, max_iter=cfg.max_iter,
                      contraction_window=cfg.contraction_window)
    sol = picard_solve(u0, a, cfg.mu, cfg.T, dt, pc, scheme=cfg.scheme)
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_csv(os.path.join(cfg.out_dir, "ns_trace.csv"), NS_TRACE_COLUMNS,
              [(it, d, r) for it, d, r in sol.trace])
    # div v of every snapshot, computed once for all three outputs below
    inc = verify_incompressibility(sol)
    rec = DiagnosticsRecord(("t", "l2_u", "l2_v", "l2_div_v"))
    for k, (u, v) in enumerate(zip(sol.u, sol.v)):
        rec.add(k * dt, l2(u), l2(v), inc.div_l2[k])
    rec.write_csv(os.path.join(cfg.out_dir, "ns_diagnostics.csv"))
    if len(sol.v) >= 3:
        diag = compute_F(sol.v, sol.v, sol.w, cfg.mu, frame, div_v=inc.div)
        write_csv(os.path.join(cfg.out_dir, "ns_energy.csv"), F_COLUMNS,
                  list(diag.rows()))
    _write_history(cfg, sol.u, "u")
    _write_history(cfg, sol.p, "p")
    print(f"final ||u||_2 = {format_float(l2(sol.u[-1]))}")
    print(f"max_t ||div v||_2 = {format_float(inc.max_div)}")
    print(f"picard iterations = {len(sol.trace)}")
    if cfg.initial_condition == "taylor_green" and not grid.has_boundary():
        import math

        decay = math.exp(-2.0 * cfg.mu * (len(sol.u) - 1) * dt)
        err = l2(sol.u[-1] - decay * u0) / max(decay * l2(u0), 1e-300)
        print(f"final L2 error vs analytic decay = {format_float(err)}")
    return EXIT_OK


def cmd_euler(cfg: RunConfig) -> int:
    from .euler import kinetic_energy, solve_euler

    grid, frame, u0, a = _setup_run(cfg)
    dt = cfg.effective_dt(grid)
    hist = solve_euler(u0, cfg.T, dt, grid)
    os.makedirs(cfg.out_dir, exist_ok=True)
    rec = DiagnosticsRecord(("t", "l2_u", "energy"))
    for k in range(len(hist)):
        rec.add(k * dt, l2(hist[k]), kinetic_energy(hist[k]))
    rec.write_csv(os.path.join(cfg.out_dir, "euler_diagnostics.csv"))
    _write_history(cfg, hist, "u")
    print(f"final ||u||_2 = {format_float(l2(hist[-1]))}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    from .euler import SWEEP_COLUMNS, SweepConfig, sweep_mu

    grid, frame, u0, a = _setup_run(cfg)
    dt = cfg.effective_dt(grid)
    if not cfg.mu_list:
        raise errors.ConfigError("sweep needs physics.mu_list")
    try:
        sc = SweepConfig(mu_list=[float(m) for m in cfg.mu_list], u0=u0, a=a,
                         T=cfg.T, dt=dt, grid=grid)
    except ValueError as exc:
        raise errors.ConfigError(f"physics.mu_list: {exc}")
    rep = sweep_mu(sc)
    os.makedirs(cfg.out_dir, exist_ok=True)
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


_COMMANDS = {
    "verify": cmd_verify,
    "stokes": cmd_stokes,
    "ns": cmd_ns,
    "euler": cmd_euler,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _prepare(args)
        return _COMMANDS[args.command](cfg)
    except (errors.ConfigError, errors.InvalidSpec, errors.ResolutionTooLow) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except errors.NoContraction as exc:
        print(f"no contraction: {exc}", file=sys.stderr)
        return EXIT_NO_CONTRACTION
    except errors.VortibcError as exc:
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
