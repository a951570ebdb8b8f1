import math
import warnings

import numpy as np
import pytest

from conftest import circulation_field, streamfunction_shear, taylor_green
from vortibc import (FieldHistory, ScalarField, VectorField, boundary_frame,
                     build_grid, curl2d, div, grad)
from vortibc.errors import NoContraction
from vortibc.fields import boundary_scalar_values, l2
from vortibc.fixedpoint import (NSSolution, PicardConfig, compare_pressures,
                                ns_residual, picard_solve,
                                verify_incompressibility, wt_norm)
from vortibc.linearized import VelocityMapInput, apply_velocity_map


def test_zero_data_single_iteration(annulus_grid):
    sol = picard_solve(VectorField.zeros(annulus_grid), None, 0.1, 0.05, 0.01,
                       PicardConfig(tol_fix=1e-10))
    assert len(sol.trace) == 1
    assert max(l2(u) for u in sol.u) == 0.0
    assert sol.trace[0][1] == 0.0


def test_stationary_circulation_close(annulus_spec):
    grid = build_grid(annulus_spec, 48, 96)
    u0 = circulation_field(grid, c=0.3)
    a = [np.zeros(96), np.zeros(96)]
    for mu in (0.1, 0.01):
        sol = picard_solve(u0, a, mu, T=0.1, dt=0.002,
                           cfg=PicardConfig(tol_fix=1e-9, max_iter=20))
        assert max(l2(u - u0) for u in sol.u) <= 1e-3
        assert l2(sol.u[0] - u0) <= 1e-12


def test_fixed_point_consistency(annulus_spec):
    # one extra map application moves the converged iterate by <= 2 tol_fix
    grid = build_grid(annulus_spec, 24, 48)
    u0 = streamfunction_shear(grid, amp=0.4)
    frame = boundary_frame(grid)
    a = boundary_scalar_values(curl2d(u0), frame)
    tol = 1e-7
    sol = picard_solve(u0, a, 0.05, 0.05, 0.0025,
                       PicardConfig(tol_fix=tol, max_iter=25))
    extra = apply_velocity_map(VelocityMapInput(
        beta=sol.v, w=sol.w, mu=sol.mu, dt=sol.dt, T=0.05))
    moved = wt_norm(extra - sol.v)
    assert moved <= 2 * tol


def test_contraction_ratios_taylor_green(torus_spec):
    grid = build_grid(torus_spec, 32, 32)
    sol = picard_solve(taylor_green(grid), None, 0.01, 0.25, 0.01,
                       PicardConfig(tol_fix=1e-8, max_iter=25))
    ratios = [r for _, _, r in sol.trace[1:] if np.isfinite(r)]
    assert ratios and max(ratios) <= 2.0 / 3.0


def test_no_contraction_triggers(annulus_spec):
    # strong data converge on a short horizon; stretching T past the
    # contraction threshold must raise rather than silently return
    grid = build_grid(annulus_spec, 16, 32)
    u0 = streamfunction_shear(grid, amp=2.0)
    frame = boundary_frame(grid)
    a = boundary_scalar_values(curl2d(u0), frame)
    cfg = PicardConfig(tol_fix=1e-6, max_iter=25, contraction_window=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = picard_solve(u0, a, 1e-3, T=0.05, dt=1e-3, cfg=cfg)
        assert sol.trace[-1][1] <= cfg.tol_fix
        with pytest.raises(NoContraction):
            picard_solve(u0, a, 1e-3, T=0.6, dt=1e-3,
                         cfg=PicardConfig(tol_fix=1e-12, max_iter=25,
                                          contraction_window=3))


def test_incompatible_initial_data_warns(annulus_grid, annulus_frame):
    u0 = streamfunction_shear(annulus_grid, amp=0.3)
    a = [np.full(c.n_nodes, 5.0) for c in annulus_frame]   # != omega(u0)
    with pytest.warns(UserWarning, match="initial vorticity"):
        picard_solve(u0, a, 0.1, 0.02, 0.005, PicardConfig(tol_fix=1e-6))


def test_verify_incompressibility_zero(annulus_grid):
    sol = picard_solve(VectorField.zeros(annulus_grid), None, 0.1, 0.05, 0.01,
                       PicardConfig(tol_fix=1e-10))
    assert verify_incompressibility(sol).max_div == 0.0


def test_verify_incompressibility_flags_corruption(annulus_spec):
    grid = build_grid(annulus_spec, 24, 48)
    u0 = streamfunction_shear(grid, amp=0.4)
    frame = boundary_frame(grid)
    a = boundary_scalar_values(curl2d(u0), frame)
    sol = picard_solve(u0, a, 0.05, 0.05, 0.0025,
                       PicardConfig(tol_fix=1e-7, max_iter=25))
    clean = verify_incompressibility(sol).max_div
    noise = grad(ScalarField(grid, 0.05 * (grid.x**2 + grid.y**2)))
    corrupted = FieldHistory(grid, sol.dt, sol.v.data + [noise.ux, noise.uy])
    dirty_sol = NSSolution(v=corrupted, w=sol.w, u=sol.u, q=sol.q, p=sol.p,
                           trace=sol.trace, mu=sol.mu, dt=sol.dt, u0=sol.u0)
    dirty = verify_incompressibility(dirty_sol).max_div
    assert dirty > 10 * max(clean, 1e-10)


def test_ns_residual_zero_run(annulus_grid, annulus_frame):
    sol = picard_solve(VectorField.zeros(annulus_grid), None, 0.1, 0.05, 0.01,
                       PicardConfig(tol_fix=1e-10))
    rep = ns_residual(sol, None, 0.1, annulus_frame)
    assert rep.interior_l2_max == 0.0
    assert rep.bc_perp_max == 0.0
    assert rep.bc_vorticity_max == 0.0
    assert rep.initial_l2 == 0.0


def test_ns_residual_refines_taylor_green(torus_spec):
    vals = []
    for n, dt in ((24, 0.01), (48, 0.0025)):
        grid = build_grid(torus_spec, n, n)
        sol = picard_solve(taylor_green(grid), None, 0.01, 0.1, dt,
                           PicardConfig(tol_fix=1e-9, max_iter=25))
        rep = ns_residual(sol, None, 0.01, None)
        vals.append(rep.interior_l2_max)
    assert vals[1] < vals[0] / 2.5


def test_compare_pressures_stationary(annulus_spec):
    grid = build_grid(annulus_spec, 32, 64)
    frame = boundary_frame(grid)
    u0 = circulation_field(grid, c=0.3)
    a = [np.zeros(64), np.zeros(64)]
    sol = picard_solve(u0, a, 0.05, 0.05, 0.0025,
                       PicardConfig(tol_fix=1e-9, max_iter=20))
    assert compare_pressures(sol, a, 0.05, frame) <= 50 * grid.h1**2
    rep = ns_residual(sol, a, 0.05, frame)
    assert rep.interior_l2_max <= 50 * grid.h1**2   # steady state: pure truncation
    assert rep.initial_l2 == 0.0


def test_compare_pressures_taylor_green(torus_spec):
    grid = build_grid(torus_spec, 32, 32)
    dt = 0.005
    sol = picard_solve(taylor_green(grid), None, 0.01, 0.05, dt,
                       PicardConfig(tol_fix=1e-9, max_iter=20))
    # no boundary: q = 0 and both pressure routes see u = v + w
    assert compare_pressures(sol, None, 0.01, None) <= 1e-8
