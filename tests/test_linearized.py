import math

import numpy as np
import pytest

from conftest import (circulation_field, energy_rows_from_histories,
                      streamfunction_shear, taylor_green)
from frozen import GRONWALL_C1, GRONWALL_C2, GRONWALL_SLACK
from vortibc import (DomainKind, DomainSpec, FieldHistory, ScalarField,
                     VectorField, advect, boundary_frame, build_grid, curl2d,
                     grad, normal_component)
from vortibc.elliptic import solve_pressure_linearized
from vortibc.errors import CFLViolation
from vortibc.fields import boundary_scalar_values, l2
from vortibc.linearized import (EnergyDiagnostics, apply_velocity_map,
                                check_gronwall_regression, compute_F,
                                gronwall_envelope, initial_energy_direct,
                                pressure_gradients)
from vortibc.stepping import VelocityStepper
from vortibc.stokes import solve_stokes


def _zero_hist(grid, dt, count):
    return FieldHistory.zeros(grid, dt, count)


def _const_hist(field, dt, count):
    return FieldHistory(field.grid, dt, [[field.ux, field.uy]] * count)


def test_zero_inputs_give_zero(annulus_grid):
    dt, n = 0.01, 6
    v = apply_velocity_map(
        beta=_zero_hist(annulus_grid, dt, n), w=_zero_hist(annulus_grid, dt, n),
        mu=0.1, dt=dt)
    assert max(l2(vk) for vk in v) == 0.0


def test_one_step_matches_hand_assembly(annulus_grid, annulus_frame):
    # single backward-Euler step assembled independently from the same
    # primitives: v1 solves (I - mu dt L) v1 = -dt (w.grad w + grad p0)
    grid = annulus_grid
    dt, mu = 0.005, 0.05
    w0 = circulation_field(grid, c=0.8)
    w = _const_hist(w0, dt, 2)
    beta = _zero_hist(grid, dt, 2)
    v = apply_velocity_map(beta=beta, w=w, mu=mu, dt=dt)
    p0 = solve_pressure_linearized(VectorField.zeros(grid), w0)
    rhs = (advect(w0, w0) + grad(p0)) * (-1.0)
    stepper = VelocityStepper(grid, mu, dt, theta=1.0)
    a0 = [np.zeros(c.n_nodes) for c in annulus_frame]
    expected = stepper.step(VectorField.zeros(grid), rhs, a0)
    assert l2(v[1] - expected) < 1e-13 * max(1.0, l2(expected))


def test_one_step_taylor_green(torus_grid):
    grid = torus_grid
    dt, mu = 0.005, 0.01
    u0 = taylor_green(grid)
    w = _const_hist(u0, dt, 2)
    v = apply_velocity_map(beta=_zero_hist(grid, dt, 2), w=w, mu=mu, dt=dt)
    p0 = solve_pressure_linearized(VectorField.zeros(grid), u0)
    rhs = (advect(u0, u0) + grad(p0)) * (-1.0)
    stepper = VelocityStepper(grid, mu, dt, theta=1.0)
    expected = stepper.step(VectorField.zeros(grid), rhs, None)
    assert l2(v[1] - expected) < 1e-13 * max(1.0, l2(expected))
    # TG advection is a pure gradient: the correction stays O(h^2)
    assert l2(v[1]) < 10 * grid.h1**2


def test_cfl_guard(annulus_grid):
    dt = 0.5   # grossly violates dt |w| / h <= 0.9
    w0 = circulation_field(annulus_grid, c=1.0)
    # every step violates; the first one is named, though its pressure is
    # solved in a chunk with the next ones
    with pytest.raises(CFLViolation, match="at step 0$"):
        apply_velocity_map(
            beta=_zero_hist(annulus_grid, dt, 3), w=_const_hist(w0, dt, 3),
            mu=0.1, dt=dt)


def test_cfl_names_the_step_of_the_row(annulus_grid):
    # the rows of one stacked pressure call are consecutive steps of a
    # Picard sweep or the viscosities of a batched march at one step; the
    # error names the step given for the first violating row
    s = np.stack([[f.ux, f.uy] for f in (circulation_field(annulus_grid, c=0.01),
                                         circulation_field(annulus_grid, c=1.0))])
    with pytest.raises(CFLViolation, match="at step 4$"):
        pressure_gradients(annulus_grid, 0.5, s, range(3, 5))
    with pytest.raises(CFLViolation, match="at step 7$"):
        pressure_gradients(annulus_grid, 0.5, s, [7, 7])


def test_beta_zero_invariant_enforced(annulus_grid):
    dt = 0.01
    bad = _const_hist(circulation_field(annulus_grid, c=1.0), dt, 3)
    with pytest.raises(ValueError):
        apply_velocity_map(beta=bad, w=_zero_hist(annulus_grid, dt, 3),
                           mu=0.1, dt=dt)


def test_absolute_bc_preserved(annulus_spec):
    grid = build_grid(annulus_spec, 32, 64)
    frame = boundary_frame(grid)
    u0 = streamfunction_shear(grid, amp=0.6, moduln=0.3)
    a = boundary_scalar_values(curl2d(u0), frame)
    w_hist, _ = solve_stokes(u0, a, 0.05, 0.1, 0.005)
    beta = _zero_hist(grid, 0.005, len(w_hist))
    v = apply_velocity_map(beta=beta, w=w_hist, mu=0.05, dt=0.005)
    v_t = v.time_derivative()
    for hist in (v, v_t):
        for snap in hist:
            perp = max(float(np.max(np.abs(p)))
                       for p in normal_component(snap, frame))
            assert perp <= 1e-10 * max(1.0, snap.max_abs())
    for snap in v:
        om_b = boundary_scalar_values(curl2d(snap), frame)
        worst = max(float(np.max(np.abs(o))) for o in om_b)
        assert worst <= 100 * grid.h1**2 * max(1.0, snap.max_abs())


def test_map_affine_in_initial_data(annulus_grid):
    # with (beta, w) fixed the map is affine in the initial value of v
    grid = annulus_grid
    dt, mu, n = 0.005, 0.1, 5
    w = _const_hist(circulation_field(grid, c=0.5), dt, n)
    beta = _zero_hist(grid, dt, n)
    rng = np.random.default_rng(7)
    from vortibc.generators import random_absolute_bc_field
    va = random_absolute_bc_field(grid, rng, amplitude=0.3)
    vb = random_absolute_bc_field(grid, rng, amplitude=0.2)

    def run(v_init):
        return apply_velocity_map(beta=beta, w=w, mu=mu, dt=dt, v_init=v_init)

    base = run(None)
    sa = run(va)
    sb = run(vb)
    sab = run(va + vb)
    for k in range(n):
        lhs = sab[k] - base[k]
        rhs = (sa[k] - base[k]) + (sb[k] - base[k])
        assert l2(lhs - rhs) <= 1e-10 * max(1.0, l2(sab[k]))


# ---------------------------------------------------------------------------
# F(t), Q(t)

def _small_run(grid, frame, mu=0.05, T=0.1, dt=0.005, amp=0.6):
    u0 = streamfunction_shear(grid, amp=amp, moduln=0.3)
    a = boundary_scalar_values(curl2d(u0), frame)
    w_hist, _ = solve_stokes(u0, a, mu, T, dt)
    beta = _zero_hist(grid, dt, len(w_hist))
    v = apply_velocity_map(beta=beta, w=w_hist, mu=mu, dt=dt)
    return v, beta, w_hist


def test_compute_F_zero_run(annulus_grid):
    dt, n = 0.01, 5
    z = _zero_hist(annulus_grid, dt, n)
    diag = compute_F(z, z, z)
    assert np.allclose(diag.F, 0.0)
    assert np.allclose(diag.Q, dt * np.arange(n))   # integrand is exactly 1


def test_Q_nondecreasing_and_F_nonnegative(annulus_spec):
    grid = build_grid(annulus_spec, 24, 48)
    frame = boundary_frame(grid)
    v, beta, w = _small_run(grid, frame)
    diag = compute_F(v, beta, w)
    assert np.all(np.diff(diag.Q) >= 0)
    assert np.all(diag.F >= 0)


@pytest.mark.parametrize("nt", [3, 9, 17])
def test_compute_F_matches_whole_history_assembly(annulus_spec, nt, monkeypatch):
    # compute_F takes its time derivatives, div and curl a chunk of rows at
    # a time; every row must equal the whole-history assembly, with beta
    # apart from v (a second map application).  At the fixed point beta = v
    # the divergence coupling has zero data, and compute_F skips its solve
    import vortibc.linearized
    grid = build_grid(annulus_spec, 12, 16)
    frame = boundary_frame(grid)
    dt = 0.005
    v1, _, w = _small_run(grid, frame, T=(nt - 1) * dt, dt=dt)
    v2 = apply_velocity_map(beta=v1, w=w, mu=0.05, dt=dt)
    want = energy_rows_from_histories(v2, v1, w)
    assert list(compute_F(v2, v1, w).rows()) == want
    want = energy_rows_from_histories(v1, v1, w)
    monkeypatch.setattr(vortibc.linearized, "solve_transport", None)
    assert list(compute_F(v1, v1, w).rows()) == want


def test_F0_dual_path(annulus_spec):
    # discrete F(0) built from the history agrees with the direct assembly
    # of the initial momentum residual norms; the gap is the O(h^2)
    # divergence commutator plus a small initial-layer dt floor
    grid = build_grid(annulus_spec, 48, 96)
    frame = boundary_frame(grid)
    mu, T, dt = 0.05, 0.04, 0.002
    v, beta, w = _small_run(grid, frame, mu=mu, T=T, dt=dt)
    diag = compute_F(v, beta, w)
    direct = initial_energy_direct(w[0])
    assert diag.F[0] == pytest.approx(direct, rel=0.05)


def test_gronwall_regression_frozen(annulus_spec):
    # calibration scenario of scripts/calibrate_constants.py
    grid = build_grid(annulus_spec, 32, 64)
    amp = 0.6
    prof = amp * np.sin(math.pi * (grid.r - 1.0))
    u0 = VectorField(grid, -prof * np.sin(grid.theta), prof * np.cos(grid.theta))
    a = [np.full(64, amp * math.pi), np.full(64, -amp * math.pi)]
    from vortibc.fixedpoint import PicardConfig, picard_solve
    sol = picard_solve(u0, a, 0.05, 0.2, 2e-3,
                       PicardConfig(tol_fix=1e-8, max_iter=20))
    diag = compute_F(sol.v, sol.v, sol.w)
    ok, max_ratio = check_gronwall_regression(diag, GRONWALL_C1, GRONWALL_C2)
    assert ok
    # halving C1 must fail (the t = 0 envelope value is C1 F(0))
    bad, _ = check_gronwall_regression(diag, GRONWALL_C1 / 2.0, GRONWALL_C2)
    assert not bad
    # envelope slack after t = 0 is a regression too: catches any blow-up of
    # F against the forcing integral.  The exponential factor never binds at
    # desk scale (the forcing term squares already-squared norms and dwarfs
    # every reachable F), so C2 itself cannot carry the sensitivity.
    env1 = gronwall_envelope(diag, 1.0, GRONWALL_C2)
    slack = float(np.max((diag.F / env1)[1:]))
    assert slack <= 10.0 * GRONWALL_SLACK
    assert slack >= GRONWALL_SLACK / 10.0


def test_gronwall_zero_run_trivial(annulus_grid):
    dt, n = 0.01, 5
    z = _zero_hist(annulus_grid, dt, n)
    diag = compute_F(z, z, z)
    ok, ratio = check_gronwall_regression(diag, GRONWALL_C1, GRONWALL_C2)
    assert ok and ratio == 0.0


@pytest.mark.parametrize("spec", [
    DomainSpec(DomainKind.ANNULUS, r_inner=1.0, r_outer=2.0),
    DomainSpec(DomainKind.DISK, r_outer=1.0),
], ids=lambda s: s.kind.value)
def test_polar_operator_annihilates_circulation(spec):
    """u_r = 0, u_theta = c/r lies in the exact discrete kernel of the polar
    vector Laplacian, ghost rows included: every row vanishes to roundoff."""
    grid = build_grid(spec, 24, 40)
    L = VelocityStepper(grid, 1.0, 0.1).L
    z = np.concatenate([np.zeros(grid.nnodes), (2.5 / grid.r).ravel()])
    assert np.all(np.abs(L @ z) <= 1e-14 * (abs(L) @ np.abs(z)))
