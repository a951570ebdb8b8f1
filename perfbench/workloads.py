"""The benchmark's three workloads: generated config, CLI command, set-up and
output checks.

Each workload is one `vortibc` CLI command on a fixed config.  The seed only
draws the initial-condition amplitude from AMPLITUDE_RANGE; the program sees
the written config and nothing else.  `config_text` needs only the standard
library, so the parent process can call it without importing the package.
"""

from __future__ import annotations

import csv
import glob
import math
import operator
import os
import random
from dataclasses import dataclass

# Every check holds on [0.9, 1.1], but ns_torus_tg needs 14 Picard iterations
# below amplitude ~0.89, 15 up to ~1.01 and 16 above: this range keeps its
# work fixed, so the spread across seeds is timing noise, not a 7% work step.
AMPLITUDE_RANGE = (0.9, 1.0)


@dataclass(frozen=True)
class Workload:
    command: str        # CLI subcommand
    solver_module: str  # module the command imports lazily
    keys: tuple         # config lines before the seeded ones


WORKLOADS = {
    # Criterion 4's scenario: many steps times ~15 Picard sweeps on a small
    # grid, so stencils, norms, wt_norm and Neumann backsolves carry the time
    # and factorization stays under 5%.
    "ns_torus_tg": Workload("ns", "vortibc.fixedpoint", (
        ("domain.kind", "torus"),
        ("domain.n1", "64"),
        ("domain.n2", "64"),
        ("physics.mu", "0.01"),
        ("physics.T", "0.5"),
        ("physics.dt", "0.005"),
        ("physics.initial_condition", "taylor_green"),
        ("solver.tol_fix", "1e-9"),
        ("solver.max_iter", "25"),
    )),
    # One large polar factorization plus the Neumann one take ~80% of the
    # run; few steps, no Picard, ~4 MB of checkpoint writes.
    "stokes_annulus_fine": Workload("stokes", "vortibc.stokes", (
        ("domain.kind", "annulus"),
        ("domain.n1", "192"),
        ("domain.n2", "192"),
        ("physics.mu", "0.01"),
        ("physics.T", "0.02"),
        ("physics.dt", "0.001"),
        ("physics.initial_condition", "modulated_shear"),
        ("physics.boundary_data", "from_initial"),
        ("output.checkpoint_stride", "5"),
    )),
    # Criterion 8 scaled down: curved-boundary vorticity condition in the NS
    # path, one factorization per viscosity, the Euler Dirichlet solves and
    # the per-viscosity loop.
    "sweep_annulus": Workload("sweep", "vortibc.euler", (
        ("domain.kind", "annulus"),
        ("domain.n1", "48"),
        ("domain.n2", "48"),
        ("physics.T", "0.1"),
        ("physics.dt", "0.001"),
        ("physics.mu_list", "0.1, 0.03, 0.01"),
        ("physics.initial_condition", "shear_layer"),
        ("physics.boundary_data", "zero"),
        ("solver.tol_fix", "1e-6"),
        ("solver.max_iter", "25"),
    )),
}


def amplitude_for(seed: int) -> float:
    return random.Random(seed).uniform(*AMPLITUDE_RANGE)


def config_text(name: str, seed: int) -> str:
    """The config file the program receives for this workload and seed."""
    lines = [f"{k} = {v}" for k, v in WORKLOADS[name].keys]
    lines.append(f"physics.ic.amplitude = {amplitude_for(seed)!r}")
    lines.append(f"solver.seed = {seed}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# set-up (child process only)

def build_setup(name: str, cfg) -> None:
    """Build everything the command needs before its first time step."""
    import numpy as np

    from vortibc.elliptic import NeumannProblem, solve_dirichlet, solve_neumann
    from vortibc.fields import ScalarField
    from vortibc.generators import make_boundary_data, make_initial_condition
    from vortibc.geometry import boundary_frame, build_grid
    from vortibc.stepping import VelocityStepper

    grid = build_grid(cfg.domain_spec(), cfg.n1, cfg.n2)
    frame = boundary_frame(grid) if grid.has_boundary() else None
    rng = np.random.default_rng(cfg.seed)
    u0 = make_initial_condition(cfg.initial_condition, grid, cfg.ic_params, rng)
    make_boundary_data(cfg.boundary_data, frame, cfg.bd_params, rng, u0=u0)
    dt = cfg.effective_dt(grid)
    theta = 1.0 if cfg.scheme == "backward-euler" else 0.5
    for mu in cfg.mu_list or [cfg.mu]:
        VelocityStepper(grid, float(mu), dt, theta)
    flux = [np.zeros(c.n_nodes) for c in frame] if frame is not None else []
    solve_neumann(NeumannProblem(grid, ScalarField.zeros(grid), flux))
    if WORKLOADS[name].command == "sweep":
        solve_dirichlet(grid, np.zeros(grid.shape), 0.0, 0.0)


# ---------------------------------------------------------------------------
# output checks (child process only)

_RELATIONS = {
    "<=": operator.le,
    ">": operator.gt,
    "==": operator.eq,
    "in": lambda value, bound: bound[0] <= value <= bound[1],
}


def _check(name, value, relation, bound):
    return {"name": name, "value": value, "relation": relation, "bound": bound,
            "ok": bool(_RELATIONS[relation](value, bound))}


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _check_ns(cfg, out_dir):
    import numpy as np

    from vortibc.generators import make_initial_condition
    from vortibc.geometry import build_grid
    from vortibc.io import read_vbf

    grid = build_grid(cfg.domain_spec(), cfg.n1, cfg.n2)
    u0 = make_initial_condition(cfg.initial_condition, grid, cfg.ic_params)
    final = sorted(glob.glob(os.path.join(out_dir, "u_*.vbf")))[-1]
    step = int(os.path.basename(final)[2:-4])
    u, _ = read_vbf(final)
    decay = math.exp(-2.0 * cfg.mu * step * cfg.effective_dt(grid))
    ref = (decay * u0.ux, decay * u0.uy)
    err = np.sqrt(grid.integrate((u[..., 0] - ref[0]) ** 2 + (u[..., 1] - ref[1]) ** 2))
    err /= np.sqrt(grid.integrate(ref[0] ** 2 + ref[1] ** 2))
    trace = _read_csv(os.path.join(out_dir, "ns_trace.csv"))
    return [
        _check("final_step", step, "==", round(cfg.T / cfg.dt)),
        _check("final_rel_l2_err", float(err), "<=", 0.01),
        _check("last_delta_WT", float(trace[-1]["delta_WT"]), "<=", cfg.tol_fix),
    ]


def _check_stokes(cfg, out_dir):
    from vortibc.geometry import build_grid

    grid = build_grid(cfg.domain_spec(), cfg.n1, cfg.n2)
    rows = _read_csv(os.path.join(out_dir, "stokes_diagnostics.csv"))
    amplitude = float(cfg.ic_params["amplitude"])
    nsteps = round(cfg.T / cfg.dt)
    n_ckpt = nsteps // cfg.checkpoint_stride + 1
    return [
        _check("diagnostic_rows", len(rows), "==", nsteps + 1),
        _check("max_w_perp", max(float(r["max_w_perp"]) for r in rows), "<=", 1e-10),
        # tier-1's 100 h1^2 rule, scaled by the data amplitude
        _check("max_vort_bc_err", max(float(r["max_vort_bc_err"]) for r in rows),
               "<=", 100.0 * grid.h1 ** 2 * amplitude),
        _check("w_checkpoints", len(glob.glob(os.path.join(out_dir, "w_*.vbf"))),
               "==", n_ckpt),
        _check("q_checkpoints", len(glob.glob(os.path.join(out_dir, "q_*.vbf"))),
               "==", n_ckpt),
    ]


def _check_sweep(cfg, out_dir):
    rows = _read_csv(os.path.join(out_dir, "sweep.csv"))
    e_sup = [float(r["e_sup"]) for r in rows]
    margin = min(e - float(r["noise_floor"]) for e, r in zip(e_sup, rows))
    rises = max(b - a for a, b in zip(e_sup, e_sup[1:]))
    with open(os.path.join(out_dir, "sweep_summary.txt"), encoding="utf-8") as f:
        summary = dict(line.split(" = ", 1) for line in f.read().splitlines())
    return [
        _check("rows", len(rows), "==", len(cfg.mu_list)),
        _check("unconverged_rows", sum(r["converged"] != "1" for r in rows), "==", 0),
        _check("max_e_sup_rise", rises, "<=", 0.0),
        _check("min_e_sup_minus_floor", margin, ">", 0.0),
        _check("slope", float(summary["slope"]), "in", [0.45, 1.1]),
    ]


_CHECKS = {"ns": _check_ns, "stokes": _check_stokes, "sweep": _check_sweep}


def check_outputs(name: str, cfg, out_dir: str, exit_code) -> list:
    """Correctness checks for one run; each carries its value and bound."""
    checks = [_check("exit_code", exit_code, "==", 0)]
    if exit_code == 0:
        checks += _CHECKS[WORKLOADS[name].command](cfg, out_dir)
    return checks
