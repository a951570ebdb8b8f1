import math

import numpy as np
import pytest

from conftest import circulation_field, shear_field, taylor_green
from frozen import PROP43_BOUND
from vortibc import (DomainKind, DomainSpec, VectorField,
                     boundary_frame, build_grid, curl2d, div, grad,
                     normal_component)
from vortibc.errors import BCViolation
from vortibc.fields import boundary_scalar_values, h2, l2
from vortibc.stokes import (solve_stokes, stokes_diagnostics, stokes_energy_report,
                            verify_prop43)


def test_zero_run_stays_zero(annulus_grid):
    w_hist, q_hist = solve_stokes(VectorField.zeros(annulus_grid), None, 0.1, 0.1, 0.01)
    assert max(l2(w) for w in w_hist) == 0.0
    assert max(l2(q) for q in q_hist) == 0.0


def test_stationary_circulation_preserved(annulus_spec):
    # harmonic, divergence-free, BC-compatible: an exact steady state
    grid = build_grid(annulus_spec, 64, 128)
    u0 = circulation_field(grid, c=1.0)
    w_hist, _ = solve_stokes(u0, None, 0.1, 1.0, 0.01)
    assert max(l2(w - u0) for w in w_hist) <= 1e-6


def test_taylor_green_decay(torus_spec):
    grid = build_grid(torus_spec, 64, 64)
    mu = 0.01
    u0 = taylor_green(grid)
    w_hist, q_hist = solve_stokes(u0, None, mu, 0.5, 0.005)
    worst = 0.0
    for k, w in enumerate(w_hist):
        ex = math.exp(-2 * mu * k * 0.005)
        worst = max(worst, l2(w - ex * u0) / (ex * l2(u0)))
    assert worst < 0.01
    assert max(l2(q) for q in q_hist) == 0.0   # no boundary: q stays zero


def test_crank_nicolson_more_accurate(torus_spec):
    grid = build_grid(torus_spec, 32, 32)
    mu, T, dt = 0.05, 0.5, 0.01
    u0 = taylor_green(grid)
    errs = {}
    for scheme in ("backward-euler", "crank-nicolson"):
        w_hist, _ = solve_stokes(u0, None, mu, T, dt, scheme=scheme)
        # compare against the exact decay of the discrete eigenmode is
        # overkill: the analytic decay suffices to rank the schemes
        ex = math.exp(-2 * mu * T)
        errs[scheme] = l2(w_hist[-1] - ex * u0)
    assert errs["crank-nicolson"] < errs["backward-euler"]


def test_channel_linear_shear_steady():
    grid = build_grid(DomainSpec(DomainKind.CHANNEL, length_x=2 * math.pi,
                                 length_y=2.0), 24, 24)
    frame = boundary_frame(grid)
    s = 0.8
    u0 = VectorField(grid, -s * (grid.y - 1.0), np.zeros(grid.shape))
    a = [np.full(c.n_nodes, s) for c in frame]   # omega = -du/dy = s
    w_hist, _ = solve_stokes(u0, a, 0.2, 0.5, 0.01)
    assert max(l2(w - u0) for w in w_hist) <= 1e-10


def test_bc_enforced_every_step(annulus_spec):
    grid = build_grid(annulus_spec, 32, 64)
    frame = boundary_frame(grid)
    u0 = shear_field(grid, amp=0.5)
    a = boundary_scalar_values(curl2d(u0), frame)
    w_hist, q_hist = solve_stokes(u0, a, 0.05, 0.2, 0.005)
    diag = stokes_diagnostics(w_hist, q_hist, a)
    perp = diag["max_w_perp"]
    vort_err = diag["max_vort_bc_err"]
    assert max(perp) <= 1e-10
    assert max(vort_err) <= 100 * grid.h1**2


def test_divergence_preservation_refines(annulus_spec):
    # theta-modulated streamfunction data so the harmonic forcing and ghost
    # rows genuinely exercise the divergence budget
    from conftest import streamfunction_shear
    worst = []
    for n, dt in ((24, 0.02), (48, 0.005)):
        grid = build_grid(annulus_spec, n, 2 * n)
        frame = boundary_frame(grid)
        u0 = streamfunction_shear(grid, amp=0.5, moduln=0.4)
        a = boundary_scalar_values(curl2d(u0), frame)
        w_hist, _ = solve_stokes(u0, a, 0.05, 0.1, dt)
        worst.append(max(l2(div(w)) for w in w_hist))
    assert worst[0] < 0.05
    assert worst[1] < worst[0] / 3.0


def test_backward_euler_energy_monotone(torus_spec):
    grid = build_grid(torus_spec, 32, 32)
    rng = np.random.default_rng(12)
    from vortibc.generators import random_absolute_bc_field
    u0 = random_absolute_bc_field(grid, rng)
    w_hist, _ = solve_stokes(u0, None, 0.05, 0.2, 0.01)
    norms = [l2(w) for w in w_hist]
    diffs = np.diff(norms)
    assert np.all(diffs <= 1e-12)


def test_time_dependent_boundary_data_as_history(annulus_spec):
    # a sampled per step: the nearest stored per-component snapshot
    grid = build_grid(annulus_spec, 24, 48)
    frame = boundary_frame(grid)
    dt, T = 0.01, 0.1
    nt = int(round(T / dt)) + 1
    base = [np.full(c.n_nodes, 1.0) for c in frame]
    snaps = [[b * math.cos(3 * k * dt) for b in base] for k in range(nt)]

    def a_hist(t):
        return snaps[min(max(int(round(t / dt)), 0), nt - 1)]

    with pytest.warns(UserWarning, match="initial vorticity"):
        w_hist, q_hist = solve_stokes(VectorField.zeros(grid), a_hist, 0.1, T, dt)
    diag = stokes_diagnostics(w_hist, q_hist, a_hist)
    # the run must have tracked the sampled data, not the t = 0 slice;
    # the first steps carry the incompatible-start layer, later ones lag
    # the oscillation only at O(h^2 + dt)
    errs = diag["max_vort_bc_err"]
    assert errs[0] == pytest.approx(1.0)
    assert max(errs[3:]) < 0.05
    assert l2(w_hist[-1]) > 0.0


@pytest.mark.parametrize("scheme", ["backward-euler", "crank-nicolson"])
def test_stokes_forcing_once_for_static_data(annulus_spec, monkeypatch, scheme):
    # the forcing -grad q is built once for static a and once per step for
    # a callable a; a callable returning the static data gives the same
    # history bit for bit, Crank-Nicolson's midpoint 0.5 (q + q) being q
    from vortibc import stokes

    grid = build_grid(annulus_spec, 16, 32)
    base = [np.full(c.n_nodes, 1.0) for c in boundary_frame(grid)]
    calls = []
    monkeypatch.setattr(stokes, "grad", lambda f: calls.append(f) or grad(f))
    hists = []
    for a, builds in ((base, 1), (lambda t: base, 5)):
        calls.clear()
        w_hist, _ = solve_stokes(VectorField.zeros(grid), a, 0.1, 0.05, 0.01, scheme)
        assert len(calls) == builds
        hists.append(w_hist.data)
    assert np.array_equal(*hists)


def test_disk_rigid_rotation_steady():
    # disk path: the artificial pole-hole component carries the same data
    grid = build_grid(DomainSpec(DomainKind.DISK, r_outer=1.0), 24, 48)
    frame = boundary_frame(grid)
    om0 = 0.8
    u0 = VectorField(grid, -om0 * grid.y, om0 * grid.x)
    a = [np.full(c.n_nodes, 2 * om0) for c in frame]
    w_hist, _ = solve_stokes(u0, a, 0.1, 0.2, 0.01)
    assert max(l2(w - u0) for w in w_hist) < 1e-10


def test_bad_initial_data_raises(annulus_grid):
    bad = VectorField(annulus_grid, np.cos(annulus_grid.theta),
                      np.sin(annulus_grid.theta))
    with pytest.raises(BCViolation):
        solve_stokes(bad, None, 0.1, 0.1, 0.01)


# ---------------------------------------------------------------------------
# energy balances

def test_energy_report_constant_curl(annulus_grid):
    # rigid rotation: g = 2 Omega exactly (linear field), h = 0, a = 2 Omega:
    # every balance term is zero up to fp dust
    om0 = 0.6
    grid = annulus_grid
    frame = boundary_frame(grid)
    u0 = VectorField(grid, -om0 * grid.y, om0 * grid.x)
    a = [np.full(c.n_nodes, 2 * om0) for c in frame]
    w_hist, _ = solve_stokes(u0, a, 0.1, 0.05, 0.01)
    assert max(l2(w - u0) for w in w_hist) < 1e-10   # exactly steady
    rep = stokes_energy_report(w_hist, a, 0.1)
    assert max(abs(v) for v in rep["balance_g"]) < 1e-8
    assert max(abs(v) for v in rep["h_sq"]) < 1e-12


def test_energy_balance_taylor_green_refines(torus_spec):
    residuals = []
    for n, dt in ((32, 0.01), (64, 0.005)):
        grid = build_grid(torus_spec, n, n)
        u0 = taylor_green(grid)
        mu = 0.01
        w_hist, _ = solve_stokes(u0, None, mu, 0.5, dt)
        rep = stokes_energy_report(w_hist, None, mu)
        e0 = rep["g_sq"][0]
        bal = max(abs(v) for v in rep["balance_g"])
        assert bal <= 5.0 * (dt + grid.h1**2) * e0
        residuals.append(bal)
    assert residuals[1] < residuals[0]


def test_energy_balance_boundary_driven(annulus_spec):
    # compatible boundary data: both balances shrink under refinement
    residuals = []
    for n, dt in ((32, 0.02), (64, 0.01)):
        grid = build_grid(annulus_spec, n, 2 * n)
        frame = boundary_frame(grid)
        u0 = shear_field(grid, amp=0.5)
        a = boundary_scalar_values(curl2d(u0), frame)
        w_hist, _ = solve_stokes(u0, a, 0.1, 0.3, dt)
        rep = stokes_energy_report(w_hist, a, 0.1)
        residuals.append((max(abs(v) for v in rep["balance_g"]),
                          max(abs(v) for v in rep["balance_h"])))
    assert residuals[1][0] < residuals[0][0]
    assert residuals[1][1] < residuals[0][1]


def test_energy_report_time_dependent_boundary_term(annulus_spec):
    # a(t) = a0 + t a1 has da/dt = a1 exactly, so the h-balance boundary
    # term is the trapezoid of oint a1 dg/dnu dS over the snapshots
    from vortibc import surface_integrate
    from vortibc.fields import cumulative_trapezoid, normal_derivative

    grid = build_grid(annulus_spec, 16, 32)
    frame = boundary_frame(grid)
    u0 = shear_field(grid, amp=0.5)
    a0 = boundary_scalar_values(curl2d(u0), frame)
    a1 = [np.full(c.n_nodes, rate) for c, rate in zip(frame, (0.5, -0.3))]

    def a(t):
        return [v0 + t * v1 for v0, v1 in zip(a0, a1)]

    dt = 0.01
    w_hist, _ = solve_stokes(u0, a, 0.1, 0.05, dt)
    rep = stokes_energy_report(w_hist, a, 0.1)
    flux = [surface_integrate(frame, [r * d for r, d in
                                      zip(a1, normal_derivative(curl2d(w), frame))])
            for w in w_hist]
    want = cumulative_trapezoid(np.array(flux), dt)
    assert abs(want[-1]) > 1e-3
    np.testing.assert_allclose(rep["bterm_h_cum"], want, rtol=1e-9, atol=0.0)


# ---------------------------------------------------------------------------
# mu-uniformity

def test_mu_uniform_h2_bound(annulus_spec):
    # time-independent a: sup_t ||w||_H2 varies by < 2x across three decades
    grid = build_grid(annulus_spec, 32, 64)
    frame = boundary_frame(grid)
    u0 = shear_field(grid, amp=0.5)
    a = boundary_scalar_values(curl2d(u0), frame)
    sups = []
    for mu in (1e-1, 1e-2, 1e-3):
        w_hist, _ = solve_stokes(u0, a, mu, 0.2, 0.005)
        sups.append(max(h2(w) for w in w_hist))
    assert max(sups) / min(sups) < 2.0


def test_prop43_branch_i_regression(annulus_spec):
    grid = build_grid(annulus_spec, 32, 64)
    frame = boundary_frame(grid)
    amp = 0.5
    u0 = shear_field(grid, amp=amp)
    a = boundary_scalar_values(curl2d(u0), frame)
    rep = verify_prop43(u0, a, [1e-1, 1e-2, 1e-3], T=0.2, dt=2e-3)
    assert rep.branch == "i"
    assert all(r <= PROP43_BOUND for r in rep.ratios)


def test_prop43_branch_ii_finite(annulus_spec):
    grid = build_grid(annulus_spec, 24, 48)
    frame = boundary_frame(grid)
    u0 = shear_field(grid, amp=0.3)
    base = boundary_scalar_values(curl2d(u0), frame)

    def a_of_t(t):
        return [b * (1.0 + 0.5 * math.sin(4 * t)) for b in base]

    rep = verify_prop43(u0, a_of_t, [1e-1, 1e-2], T=0.1, dt=2e-3)
    assert rep.branch == "ii"
    assert all(np.isfinite(r) and r > 0 for r in rep.ratios)


def test_prop43_singleton_sweep(annulus_spec):
    grid = build_grid(annulus_spec, 24, 48)
    u0 = circulation_field(grid, c=0.5)
    rep = verify_prop43(u0, None, [1e-2], T=0.05, dt=5e-3)
    assert len(rep.ratios) == 1 and np.isfinite(rep.ratios[0])


def test_prop43_homogeneous_data_ratio_stable(annulus_spec):
    # a = 0: the bound reduces to pure initial-energy scaling and the ratio
    # barely moves across viscosities
    from conftest import streamfunction_shear
    grid = build_grid(annulus_spec, 24, 48)
    u0 = streamfunction_shear(grid, amp=0.4, moduln=0.0)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = verify_prop43(u0, None, [1e-1, 1e-2], T=0.1, dt=2e-3)
    assert max(rep.ratios) / min(rep.ratios) < 1.5


def test_prop43_boundary_driven_finite(annulus_spec):
    # u0 = 0 with constant a: the flow is built purely by the boundary data
    grid = build_grid(annulus_spec, 24, 48)
    frame = boundary_frame(grid)
    a = [np.full(c.n_nodes, 1.0) for c in frame]
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = verify_prop43(VectorField.zeros(grid), a, [1e-1, 1e-2],
                            T=0.1, dt=2e-3)
    assert all(np.isfinite(r) and r > 0 for r in rep.ratios)
