"""Acceptance criteria, one test per criterion, with a printed pass/fail
line each.  Run with -s to see the lines; tolerances are pinned here and
nowhere else.  Criterion 8's e_grad uniformity clause is a known red; the
docstring of test_criterion_8_egrad_uniformity carries the analysis.
"""

import math
import time
import warnings

import numpy as np
import pytest

from conftest import circulation_field, shear_field, taylor_green
from frozen import (GRONWALL_C1, GRONWALL_C2, GRONWALL_SLACK,
                    VISCOUS_GRONWALL_C)
from vortibc import (DomainKind, DomainSpec, VectorField, boundary_frame,
                     build_grid, curl2d, div)
from vortibc.fields import boundary_scalar_values, h2, l2
from vortibc.fixedpoint import PicardConfig, picard_solve
from vortibc.stokes import solve_stokes, stokes_energy_report

ANNULUS = DomainSpec(DomainKind.ANNULUS, r_inner=1.0, r_outer=2.0)
CHANNEL = DomainSpec(DomainKind.CHANNEL, length_x=2 * math.pi, length_y=2.0)
TORUS = DomainSpec(DomainKind.TORUS, length_x=2 * math.pi, length_y=2 * math.pi)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:>3}] {status}: {detail}")
    return ok


# ---------------------------------------------------------------------------

def test_criterion_1_identity_suite():
    from vortibc.verify import run_identity_suite

    t0 = time.time()
    rep = run_identity_suite(ANNULUS, (32, 64, 128), seed=7)
    elapsed = time.time() - t0
    orders = {c.name: c.order for c in rep.checks if c.order is not None}
    ok = rep.all_passed and elapsed < 60.0
    assert report(1, ok,
                  f"identity residual orders >= 1.8 at 32/64/128 "
                  f"(min {min(orders.values()):.2f}), {elapsed:.1f}s < 60s")


def test_criterion_2_gradient_bound():
    from vortibc.elliptic import solonnikov_ratio
    from vortibc.generators import random_vector

    t0 = time.time()
    worst = 0.0
    for spec in (ANNULUS, CHANNEL):
        grid = build_grid(spec, 48, 48)
        rng = np.random.default_rng(11)
        for _ in range(50):
            f = VectorField.from_function(grid, random_vector(spec, rng))
            worst = max(worst, solonnikov_ratio(f))
    elapsed = time.time() - t0
    ok = worst <= 1.05 and elapsed < 60.0
    assert report(2, ok,
                  f"gradient bound ratio {worst:.4f} <= 1.05 over 2x50 "
                  f"samples, {elapsed:.1f}s < 60s")


def test_criterion_3_stationary_circulation():
    grid = build_grid(ANNULUS, 64, 64)
    u0 = circulation_field(grid, c=1.0)
    w_hist, _ = solve_stokes(u0, None, 0.1, 1.0, 0.01)
    drift = max(l2(w - u0) for w in w_hist)
    ok = drift <= 1e-6
    assert report(3, ok, f"circulation steady state drift {drift:.2e} <= 1e-6")


@pytest.fixture(scope="module")
def criterion4_solution():
    grid = build_grid(TORUS, 64, 64)
    t0 = time.time()
    sol = picard_solve(taylor_green(grid), None, 0.01, 0.5, 0.005,
                       PicardConfig(tol_fix=1e-9, max_iter=25))
    return grid, sol, time.time() - t0


def test_criterion_4_taylor_green(criterion4_solution):
    grid, sol, elapsed = criterion4_solution
    u0 = taylor_green(grid)
    worst = 0.0
    for k, u in enumerate(sol.u):
        ex = math.exp(-2 * 0.01 * k * 0.005)
        worst = max(worst, l2(u - ex * u0) / (ex * l2(u0)))
    ratios = [r for _, _, r in sol.trace[1:] if np.isfinite(r)]
    ok = worst <= 0.01 and max(ratios) <= 2.0 / 3.0 and elapsed < 300.0
    assert report(4, ok,
                  f"Taylor-Green sup_t rel err {worst:.4f} <= 1%, "
                  f"max ratio {max(ratios):.3f} <= 2/3, {elapsed:.0f}s < 300s")


def test_criterion_5_incompressibility_order():
    vals = []
    for n in (32, 64, 128):
        grid = build_grid(TORUS, n, n)
        dt = grid.min_spacing() ** 2 / 2.0   # tie dt to h^2: spatial order
        sol = picard_solve(taylor_green(grid), None, 0.01, 0.5, dt,
                           PicardConfig(tol_fix=1e-7, max_iter=25))
        vals.append(max(l2(div(v)) for v in sol.v))
    orders = [math.log2(a / b) for a, b in zip(vals[:-1], vals[1:])]
    ok = min(orders) >= 1.8
    assert report(5, ok,
                  f"div recovery {[f'{v:.2e}' for v in vals]} orders "
                  f"{[f'{o:.2f}' for o in orders]} >= 1.8")


def test_criterion_6_energy_balance():
    residual_scaled = []
    detail = []
    for n, dt in ((32, 0.01), (64, 0.005)):
        grid = build_grid(TORUS, n, n)
        mu = 0.01
        w_hist, _ = solve_stokes(taylor_green(grid), None, mu, 0.5, dt)
        rep = stokes_energy_report(w_hist, None, mu)
        e0 = rep["g_sq"][0]
        bal = max(max(abs(v) for v in rep["balance_g"]),
                  max(abs(v) for v in rep["balance_h"]) / max(e0, 1.0))
        bal_g = max(abs(v) for v in rep["balance_g"])
        budget = 5.0 * (dt + grid.h1**2) * e0
        residual_scaled.append(bal_g)
        detail.append(f"{n}^2: {bal_g:.2e} <= {budget:.2e}")
        assert bal_g <= budget
    ok = residual_scaled[1] < residual_scaled[0]
    assert report(6, ok, "energy balance " + "; ".join(detail)
                  + ", decreasing under refinement")


def test_criterion_7_mu_uniformity():
    grid = build_grid(ANNULUS, 32, 64)
    frame = boundary_frame(grid)
    u0 = shear_field(grid, amp=0.5)
    a = boundary_scalar_values(curl2d(u0), frame)
    sups = []
    for mu in (1e-1, 1e-2, 1e-3):
        w_hist, _ = solve_stokes(u0, a, mu, 0.2, 0.005)
        sups.append(max(h2(w) for w in w_hist))
    spread = max(sups) / min(sups)
    ok = spread < 2.0
    assert report(7, ok,
                  f"sup_t ||w||_H2 spread {spread:.3f}x < 2x across "
                  f"mu in {{1e-1, 1e-2, 1e-3}} with static a")


@pytest.fixture(scope="module")
def criterion8_sweep():
    from vortibc.euler import SweepConfig, sweep_mu

    grid = build_grid(ANNULUS, 96, 96)
    prof = np.sin(math.pi * (grid.r - 1.0))
    u0 = VectorField(grid, -prof * np.sin(grid.theta), prof * np.cos(grid.theta))
    a = [np.zeros(96), np.zeros(96)]   # mismatched boundary vorticity
    cfg = SweepConfig(mu_list=[1e-1, 3e-2, 1e-2, 3e-3], u0=u0, a=a,
                      T=0.25, dt=5e-4)
    t0 = time.time()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = sweep_mu(cfg)
    return rep, time.time() - t0


def test_criterion_8_inviscid_limit_slope(criterion8_sweep):
    rep, elapsed = criterion8_sweep
    e_sups = [r.e_sup for r in rep.rows]
    above_floor = all(r.e_sup > r.noise_floor for r in rep.rows)
    monotone = all(a >= b for a, b in zip(e_sups, e_sups[1:]))
    ok = (rep.slope is not None and 0.45 <= rep.slope <= 1.1
          and above_floor and monotone and elapsed < 900.0)
    assert report("8a", ok,
                  f"sweep slope {rep.slope:.3f} in [0.45, 1.1], e_sup "
                  f"{[f'{v:.3e}' for v in e_sups]} above floor "
                  f"{rep.rows[0].noise_floor:.2e} and monotone, "
                  f"{elapsed:.0f}s < 900s")


def test_criterion_8_egrad_uniformity(criterion8_sweep):
    """Known red.  The viscous-minus-inviscid deviation is a diffusive
    boundary layer (width sqrt(mu t)), so the gradient-energy integral
    scales like sqrt(mu) and its max/min over a 33x viscosity span floors
    at sqrt(33) = 5.77; every other deviation channel decays faster, and
    narrowing the annulus gap to saturate the large-mu layer drags the
    fitted slope below its window before this ratio reaches 5.  The
    sequence decreases toward small mu, i.e. the gradient-energy integral
    is uniformly bounded in the meaningful sense; the literal max/min here
    measures benign decay depth, not blow-up."""
    rep, _ = criterion8_sweep
    e_grads = [r.e_grad for r in rep.rows]
    decreasing = all(a >= b for a, b in zip(e_grads, e_grads[1:]))
    print(f"\n[criterion  8b] e_grad {[f'{v:.3e}' for v in e_grads]} "
          f"(decreasing: {decreasing})")
    ok = rep.e_grad_ratio is not None and rep.e_grad_ratio <= 5.0
    assert report("8b", ok,
                  f"e_grad max/min {rep.e_grad_ratio:.2f} <= 5")


def test_criterion_9_gronwall_regressions():
    from vortibc.euler import check_gronwall_viscous, solve_euler
    from vortibc.linearized import (check_gronwall_regression, compute_F,
                                    gronwall_envelope)

    # --- integrated envelope on its calibration scenario
    grid = build_grid(ANNULUS, 32, 64)
    amp = 0.6
    prof = amp * np.sin(math.pi * (grid.r - 1.0))
    u0 = VectorField(grid, -prof * np.sin(grid.theta), prof * np.cos(grid.theta))
    a = [np.full(64, amp * math.pi), np.full(64, -amp * math.pi)]
    sol = picard_solve(u0, a, 0.05, 0.2, 2e-3,
                       PicardConfig(tol_fix=1e-8, max_iter=20))
    diag = compute_F(sol.v, sol.v, sol.w)
    holds, _ = check_gronwall_regression(diag, GRONWALL_C1, GRONWALL_C2)
    halved_fails = not check_gronwall_regression(diag, GRONWALL_C1 / 2.0,
                                                 GRONWALL_C2)[0]
    env1 = gronwall_envelope(diag, 1.0, GRONWALL_C2)
    slack = float(np.max((diag.F / env1)[1:]))
    slack_ok = GRONWALL_SLACK / 10.0 <= slack <= 10.0 * GRONWALL_SLACK

    # --- viscous-difference inequality on its calibration scenario
    grid2 = build_grid(ANNULUS, 48, 48)
    u0v = shear_field(grid2, amp=1.0)
    av = [np.zeros(48), np.zeros(48)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        solv = picard_solve(u0v, av, 0.03, 0.1, 1e-3,
                            PicardConfig(tol_fix=1e-7, max_iter=20))
    ref = solve_euler(u0v, 0.1, 1e-3)
    visc = check_gronwall_viscous(solv.u, ref, av, 0.03, 0.1,
                                  C=VISCOUS_GRONWALL_C)
    visc_halved = check_gronwall_viscous(solv.u, ref, av, 0.03, 0.1,
                                         C=VISCOUS_GRONWALL_C / 2.0)
    visc_no_mu = check_gronwall_viscous(solv.u, ref, av, 0.03, 0.1,
                                        C=VISCOUS_GRONWALL_C,
                                        include_mu_term=False)
    ok = (holds and halved_fails and slack_ok and visc.ok
          and not visc_halved.ok and not visc_no_mu.ok)
    assert report(9, ok,
                  "frozen envelope holds, halved-constant variants fail "
                  f"(envelope slack {slack:.2e} within regression band; "
                  "viscous inequality holds, halved-C and dropped-mu-term fail)")


def test_criterion_10_formats(tmp_path):
    from vortibc.cli import main
    from vortibc.config import parse_config, serialize_config
    from vortibc.io import read_vbf, write_vbf

    cfg_text = ("domain.kind = annulus\ndomain.r_inner = 1\n"
                "domain.r_outer = 2\ndomain.n1 = 16\ndomain.n2 = 16\n"
                "physics.mu = 0.05\nphysics.T = 0.04\nphysics.dt = 0.004\n"
                "physics.initial_condition = random_smooth\n"
                "physics.boundary_data = from_initial\n"
                "solver.tol_fix = 1e-8\nsolver.seed = 5\n")
    cfg = parse_config(cfg_text)
    round_trip = parse_config(serialize_config(cfg)) == cfg

    rng = np.random.default_rng(2)
    arr = rng.normal(size=(6, 5, 2))
    p = str(tmp_path / "x.vbf")
    write_vbf(p, arr, components=2)
    back, comps = read_vbf(p)
    vbf_ok = comps == 2 and np.array_equal(back, arr)

    outs = []
    for tag in ("r1", "r2"):
        d = tmp_path / tag
        path = tmp_path / f"{tag}.cfg"
        path.write_text(cfg_text + f"output.directory = {d}\n")
        assert main(["ns", "--config", str(path), "--seed", "5"]) == 0
        outs.append((d / "ns_diagnostics.csv").read_bytes()
                    + (d / "ns_trace.csv").read_bytes())
    csv_ok = outs[0] == outs[1]
    ok = round_trip and vbf_ok and csv_ok
    assert report(10, ok,
                  "config and VBF1 round-trips bit-identical; CSV outputs "
                  "reproduce bit-identically under fixed seed")
