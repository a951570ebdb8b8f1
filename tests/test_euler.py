import math
import warnings

import numpy as np
import pytest

from conftest import circulation_field, fail_march_at, shear_field, taylor_green
from frozen import VISCOUS_GRONWALL_C
from vortibc import (DomainKind, DomainSpec, VectorField, boundary_frame,
                     build_grid, curl2d, div)
from vortibc.errors import CFLViolation
from vortibc.euler import (SweepConfig, check_gronwall_viscous, circulation,
                           kinetic_energy, solve_euler, sweep_mu)
from vortibc.fields import boundary_scalar_values, l2, normal_component
from vortibc.fixedpoint import PicardConfig, picard_solve


def test_zero_initial_data(annulus_grid):
    hist = solve_euler(VectorField.zeros(annulus_grid), T=0.05, dt=0.01)
    assert max(l2(u) for u in hist) == 0.0


def test_stationary_circulation_preserved(annulus_spec):
    grid = build_grid(annulus_spec, 48, 96)
    u0 = circulation_field(grid, c=0.8)
    hist = solve_euler(u0, T=1.0, dt=0.005)
    assert max(l2(u - u0) for u in hist) <= 50 * (grid.h1**2 + 0.005**2)
    frame = boundary_frame(grid)
    inner = frame.components[0]
    c0 = circulation(hist[0], inner)
    cT = circulation(hist[-1], inner)
    assert cT == pytest.approx(-2 * math.pi * 0.8, rel=1e-8)
    assert cT == pytest.approx(c0, rel=1e-10)


def test_taylor_green_is_steady(torus_spec):
    grid = build_grid(torus_spec, 48, 48)
    u0 = taylor_green(grid)
    hist = solve_euler(u0, T=0.5, dt=0.005)
    assert max(l2(u - hist[0]) for u in hist) <= 1e-10   # frozen transport
    assert max(l2(u - u0) for u in hist) <= 20 * (grid.h1**2 + 0.005**2) * l2(u0)


def test_energy_conserved_on_torus(torus_spec):
    grid = build_grid(torus_spec, 32, 32)
    rng = np.random.default_rng(5)
    from vortibc.generators import random_absolute_bc_field
    u0 = random_absolute_bc_field(grid, rng, amplitude=1.0)
    T, dt = 0.5, 0.005
    hist = solve_euler(u0, T=T, dt=dt)
    e = [kinetic_energy(u) for u in hist]
    drift = abs(e[-1] - e[0]) / max(e[0], 1e-30)
    assert drift <= 20 * (dt**2 + grid.h1**2)


def test_kinematic_bc_exact(annulus_spec):
    grid = build_grid(annulus_spec, 32, 64)
    frame = boundary_frame(grid)
    u0 = shear_field(grid, amp=1.0)
    hist = solve_euler(u0, T=0.1, dt=0.002)
    for u in list(hist)[:: len(hist) // 4]:
        worst = max(float(np.max(np.abs(v))) for v in normal_component(u, frame))
        assert worst <= 1e-10   # exact modulo fp dust


def test_channel_shear_steady(channel_grid):
    # parallel shear is a steady Euler flow; the through-flux pins the
    # streamfunction offset
    grid = channel_grid
    u0 = VectorField(grid, 0.5 + 0.3 * np.sin(math.pi * grid.y / 2.0),
                     np.zeros(grid.shape))
    hist = solve_euler(u0, T=0.2, dt=0.005)
    assert max(l2(u - hist[0]) for u in hist) <= 1e-10
    assert l2(hist[0] - u0) <= 30 * (grid.h1**2 + grid.h2**2)


def test_cfl_violation_raises(annulus_grid):
    u0 = circulation_field(annulus_grid, c=1.0)
    with pytest.raises(CFLViolation):
        solve_euler(u0, T=1.0, dt=0.2)


def test_cfl_error_names_first_violating_step(annulus_spec, monkeypatch):
    # the check reads the state before each step: with the limit between
    # the CFL numbers of steps k - 1 and k of a run whose speed grows, the
    # error names step k
    import vortibc.euler as euler
    from conftest import streamfunction_shear
    from vortibc.fields import max_speed

    grid = build_grid(annulus_spec, 16, 32)
    u0 = streamfunction_shear(grid, amp=1.0)
    T, dt, k = 0.2, 0.01, 10
    cfl = dt * max_speed(solve_euler(u0, T, dt).data) / grid.min_spacing()
    assert cfl[:k].max() < cfl[k]
    monkeypatch.setattr(euler, "CFL_LIMIT", 0.5 * (cfl[:k].max() + cfl[k]))
    with pytest.raises(CFLViolation, match=f"at step {k}$"):
        solve_euler(u0, T, dt)


def test_sweep_rows_match_history_path(annulus_spec):
    # the sweep reads each march and the Euler reference as they pass; its
    # rows equal those built from the whole march and Euler histories bit
    # for bit
    from conftest import streamfunction_shear
    from vortibc.fields import boundary_scalar_values, grad_l2
    from vortibc.fixedpoint import march_solve

    grid = build_grid(annulus_spec, 16, 32)
    u0 = streamfunction_shear(grid, amp=0.6)
    a = boundary_scalar_values(curl2d(u0), boundary_frame(grid))
    cfg = SweepConfig(mu_list=[1e-1, 3e-2, 1e-2], u0=u0, a=a, T=0.05, dt=2e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = sweep_mu(cfg).csv_rows()
        ref = solve_euler(u0, cfg.T, cfg.dt)
        want = []
        for mu in cfg.mu_list:
            diff = march_solve(u0, a, mu, cfg.T, cfg.dt) - ref
            e_grad = np.trapezoid([grad_l2(d) ** 2 for d in diff], dx=cfg.dt)
            want.append((mu, max(l2(d) for d in diff), float(e_grad), 1))
    assert [(mu, e_sup, e_grad, ok) for mu, e_sup, e_grad, _, ok in rows] == want


def test_sweep_deterministic(annulus_spec):
    grid = build_grid(annulus_spec, 24, 48)
    u0 = shear_field(grid, amp=0.8)
    a = [np.zeros(48), np.zeros(48)]
    cfg = SweepConfig(mu_list=[3e-2, 1e-2], u0=u0, a=a, T=0.05, dt=2e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r1 = sweep_mu(cfg)
        r2 = sweep_mu(cfg)
    assert r1.csv_rows() == r2.csv_rows()
    assert r1.slope == r2.slope


def test_sweep_noise_floor_flag(annulus_spec):
    # Euler-stationary data with matching a: deviations sit at the
    # discretization floor and the report must say so
    grid = build_grid(annulus_spec, 24, 48)
    u0 = circulation_field(grid, c=0.5)
    a = [np.zeros(48), np.zeros(48)]   # omega(u0) = 0: b = 0
    cfg = SweepConfig(mu_list=[3e-2, 1e-2, 3e-3], u0=u0, a=a, T=0.05, dt=2e-3)
    rep = sweep_mu(cfg)
    assert all(r.converged for r in rep.rows)
    assert rep.slope_note == "noise floor"
    assert all(r.e_sup < r.noise_floor for r in rep.rows)


def test_sweep_partial_on_failure(annulus_spec):
    # fault injection: the smallest viscosity's march raises inside the
    # batch, when it is created, mid-run at its Stokes step, or through a
    # non-finite carrier row in the stacked pressure solve.  Each time its
    # row is NaN, the report is marked partial, and the completed row equals
    # the row of a sweep without the failing viscosity bit for bit
    from conftest import MARCH_FAULTS, streamfunction_shear
    grid = build_grid(annulus_spec, 16, 32)
    u0 = streamfunction_shear(grid, amp=2.0)
    frame = boundary_frame(grid)
    from vortibc.fields import boundary_scalar_values
    a = boundary_scalar_values(curl2d(u0), frame)
    bad = SweepConfig(mu_list=[2e-1, 1e-3], u0=u0, a=a, T=0.3, dt=1e-3)
    good = SweepConfig(mu_list=[2e-1], u0=u0, a=a, T=0.3, dt=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = sweep_mu(good).rows[0]
        for snapshot, nonfinite in MARCH_FAULTS:
            with pytest.MonkeyPatch.context() as mp:
                fail_march_at(mp, 1e-3, snapshot, nonfinite)
                rep = sweep_mu(bad)
            assert rep.partial
            assert rep.rows[0] == want
            failed = rep.rows[1]
            assert (failed.mu, failed.converged) == (1e-3, False)
            assert math.isnan(failed.e_sup) and math.isnan(failed.e_grad)
            assert failed.noise_floor == want.noise_floor


def test_sweep_stacks_pressure_solves(annulus_spec, monkeypatch):
    # a sweep of k viscosities over n steps makes n stacked pressure solves
    # with one row per viscosity still marching, not k n one-row solves
    from vortibc import linearized

    rows = []
    solve = linearized.solve_transport
    monkeypatch.setattr(linearized, "solve_transport",
                        lambda grid, s, *args, **kwargs: rows.append(len(s))
                        or solve(grid, s, *args, **kwargs))
    grid = build_grid(annulus_spec, 16, 32)
    cfg = SweepConfig(mu_list=[1e-1, 3e-2, 1e-2], u0=circulation_field(grid, c=0.3),
                      a=[np.zeros(32), np.zeros(32)], T=0.02, dt=2e-3)
    sweep_mu(cfg)
    assert rows == [3] * 10
    # a viscosity whose Stokes snapshot 4 fails leaves the solves of steps 4..10
    rows.clear()
    fail_march_at(monkeypatch, 3e-2, 4)
    assert sweep_mu(cfg).partial
    assert rows == [3] * 3 + [2] * 7


def test_march_batch_failures_are_per_viscosity(annulus_spec):
    # each viscosity dropped from the batch carries the exception and
    # message of its one-viscosity march, and a non-finite carrier fails
    # only its own row of the stacked pressure solve
    from conftest import streamfunction_shear
    from vortibc.errors import SolverDiverged
    from vortibc.fixedpoint import march_solve
    from vortibc.linearized import march

    grid = build_grid(annulus_spec, 16, 32)
    u0 = streamfunction_shear(grid, amp=2.0)
    a = boundary_scalar_values(curl2d(u0), boundary_frame(grid))
    mus, T, dt = [2e-1, 1e-2, 1e-3], 0.01, 1e-3

    def run(*fault):
        with pytest.MonkeyPatch.context() as mp:
            fail_march_at(mp, 1e-2, *fault)
            failed = {}
            rows = [(live, u.copy()) for live, u in march(u0, a, mus, T, dt, failed)]
            with pytest.raises(SolverDiverged) as one:
                march_solve(u0, a, 1e-2, T, dt)
        return rows, failed, one.value

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        clean = [u for _, u in march(u0, a, mus, T, dt, {})]
        # (fault, first snapshot without the viscosity, words of its error)
        for fault, n_fail, what in (((4,), 4, "snapshot 4"), ((4, True), 5, "non-finite")):
            rows, failed, one = run(*fault)
            assert list(failed) == [1e-2]
            assert (type(failed[1e-2]), str(failed[1e-2])) == (type(one), str(one))
            assert what in str(one)
            assert len(rows) == len(clean)
            for n, (live, u) in enumerate(rows):
                assert live == (mus if n < n_fail else [2e-1, 1e-3])
                assert np.array_equal(u[[0, -1]], clean[n][[0, -1]])


def test_march_lane_whose_step_raises_fails_alone(annulus_spec):
    # a viscosity whose implicit step to snapshot 4 raises leaves the batch
    # from that snapshot on with the raised error in failed; the other
    # lanes' rows are those of the march without the fault, bit for bit
    from conftest import streamfunction_shear
    from vortibc.errors import SolverDiverged
    from vortibc.linearized import march

    grid = build_grid(annulus_spec, 16, 32)
    u0 = streamfunction_shear(grid, amp=2.0)
    a = boundary_scalar_values(curl2d(u0), boundary_frame(grid))
    mus, T, dt = [2e-1, 1e-2, 1e-3], 0.01, 1e-3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        clean = [u for _, u in march(u0, a, mus, T, dt, {})]
        with pytest.MonkeyPatch.context() as mp:
            fail_march_at(mp, 1e-2, 4, step=True)
            failed = {}
            rows = [(live, u.copy()) for live, u in march(u0, a, mus, T, dt, failed)]
    assert list(failed) == [1e-2]
    assert isinstance(failed[1e-2], SolverDiverged)
    assert str(failed[1e-2]) == "injected failure at mu=0.01, step to snapshot 4"
    assert len(rows) == len(clean)
    for n, (live, u) in enumerate(rows):
        assert live == (mus if n < 4 else [2e-1, 1e-3])
        assert np.array_equal(u[[0, -1]], clean[n][[0, -1]])


def test_sweep_euler_failure_raises(annulus_spec, monkeypatch):
    # the Euler reference fails mid-run, after the marches have advanced in
    # lockstep with it: the sweep has no reference, so the failure raises
    # (the CLI exits 4) instead of marking rows
    from conftest import raise_at
    from vortibc import euler

    rows = euler.euler_rows
    monkeypatch.setattr(euler, "euler_rows", lambda *args: raise_at(
        rows(*args), 3, CFLViolation("injected Euler failure at step 3")))
    grid = build_grid(annulus_spec, 16, 32)
    cfg = SweepConfig(mu_list=[1e-1, 1e-2], u0=circulation_field(grid, c=0.3),
                      a=[np.zeros(32), np.zeros(32)], T=0.02, dt=2e-3)
    with pytest.raises(CFLViolation, match="injected"):
        sweep_mu(cfg)


def test_single_mu_slope_na(annulus_spec):
    grid = build_grid(annulus_spec, 16, 32)
    u0 = circulation_field(grid, c=0.3)
    cfg = SweepConfig(mu_list=[1e-2], u0=u0, a=[np.zeros(32), np.zeros(32)],
                      T=0.02, dt=2e-3)
    rep = sweep_mu(cfg)
    assert rep.slope is None
    assert rep.slope_note == "n/a"


# ---------------------------------------------------------------------------
# viscous-difference inequality (frozen regression)

def _viscous_scenario():
    grid = build_grid(DomainSpec(DomainKind.ANNULUS, r_inner=1.0, r_outer=2.0),
                      48, 48)
    u0 = shear_field(grid, amp=1.0)
    a = [np.zeros(48), np.zeros(48)]
    mu, mu0, T, dt = 0.03, 0.1, 0.1, 1e-3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = picard_solve(u0, a, mu, T, dt, PicardConfig(tol_fix=1e-7, max_iter=20))
    ref = solve_euler(u0, T, dt)
    return sol, ref, a, mu, mu0


def test_viscous_gronwall_frozen():
    sol, ref, a, mu, mu0 = _viscous_scenario()
    rep = check_gronwall_viscous(sol.u, ref, a, mu, mu0,
                                 C=VISCOUS_GRONWALL_C)
    assert rep.ok
    halved = check_gronwall_viscous(sol.u, ref, a, mu, mu0,
                                    C=VISCOUS_GRONWALL_C / 2.0)
    assert not halved.ok
    no_mu = check_gronwall_viscous(sol.u, ref, a, mu, mu0,
                                   C=VISCOUS_GRONWALL_C, include_mu_term=False)
    assert not no_mu.ok
    # the mu-term removal bites at early steps where ||v|| is still tiny
    first_bad = int(np.argmax(no_mu.lhs > no_mu.rhs))
    assert first_bad < len(no_mu.times) // 4


def test_viscous_gronwall_zero_difference(annulus_grid):
    hist = solve_euler(circulation_field(annulus_grid, c=0.4), T=0.03, dt=0.003)
    rep = check_gronwall_viscous(hist, hist, [np.zeros(64), np.zeros(64)],
                                 0.01, 0.1, C=VISCOUS_GRONWALL_C)
    assert rep.ok
    assert np.all(rep.lhs <= 1e-12)
