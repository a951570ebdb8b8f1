import math

import numpy as np
import pytest

from conftest import circulation_field, ls_order
from frozen import ANNULUS_NORM_RATIOS, CHANNEL_NORM_RATIOS
from vortibc import (DomainKind, DomainSpec, ScalarField, VectorField,
                     boundary_frame, build_grid)
from vortibc.errors import BCViolation, DegenerateInput
from vortibc.generators import (random_absolute_bc_field, random_scalar,
                                random_vector)
from vortibc.identities import (absolute_bc_norm_ratios,
                                advection_identity_residuals,
                                advection_normal_trace_residual,
                                boundary_flux_residuals, check_absolute_bc,
                                curl_curl_normal_trace, curl_green_residual,
                                energy_identity_residuals,
                                laplacian_decomposition_residual,
                                trace_inequality_constant)


def _sample(spec, n, fns):
    grid = build_grid(spec, n, n)
    frame = boundary_frame(grid)
    fields = []
    for kind, fn in fns:
        if kind == "v":
            fields.append(VectorField.from_function(grid, fn))
        else:
            fields.append(ScalarField.from_function(grid, fn))
    return grid, frame, fields


# ---------------------------------------------------------------------------
# advective normal trace (full boundary expansion)

def test_advection_trace_zero_field(annulus_grid, annulus_frame):
    z = VectorField.zeros(annulus_grid)
    assert advection_normal_trace_residual(z, z, annulus_frame) == 0.0


def test_advection_trace_circular_flow():
    # u_perp = 0 flow: <u.grad u, nu> = -pi(u,u) = -1 on the unit outer circle
    res = []
    for n in (48, 96):
        grid = build_grid(DomainSpec(DomainKind.ANNULUS, r_inner=0.5, r_outer=1.0),
                          n, 2 * n)
        frame = boundary_frame(grid)
        u = circulation_field(grid, c=1.0)
        res.append(advection_normal_trace_residual(u, u, frame))
        from vortibc import advect, normal_component
        outer = dict(zip((c.name for c in frame),
                         normal_component(advect(u, u), frame)))["outer"]
        assert np.max(np.abs(outer + 1.0)) < 30 * grid.h1**2
    assert res[0] < 0.01
    assert res[1] < res[0] / 3.2   # order >= ~1.7 on the pair


def test_advection_trace_convergence(annulus_spec):
    rng = np.random.default_rng(3)
    ufn, wfn = random_vector(annulus_spec, rng), random_vector(annulus_spec, rng)
    res = [advection_normal_trace_residual(
        *(_sample(annulus_spec, n, [("v", ufn), ("v", wfn)])[2]),
        _sample(annulus_spec, n, [])[1]) for n in (32, 64, 128)]
    assert ls_order(res) >= 1.8


# ---------------------------------------------------------------------------
# normal-trace formulas for derived fields

def test_boundary_flux_zero(annulus_grid, annulus_frame):
    z = VectorField.zeros(annulus_grid)
    assert boundary_flux_residuals(z, annulus_frame) == (0.0, 0.0)


def test_boundary_flux_harmonic_gradient(annulus_spec):
    # u = grad(phi), phi harmonic: both sides of (i) vanish at O(h^2)
    res = []
    for n in (32, 64):
        grid = build_grid(annulus_spec, n, n)
        frame = boundary_frame(grid)
        phi_x = grid.x / (grid.x**2 + grid.y**2)   # harmonic on the annulus
        phi_y = -grid.y / (grid.x**2 + grid.y**2)
        # grad of x/r^2 computed analytically
        r2 = grid.x**2 + grid.y**2
        ux = (r2 - 2 * grid.x**2) / r2**2
        uy = -2 * grid.x * grid.y / r2**2
        u = VectorField(grid, ux, uy)
        res.append(boundary_flux_residuals(u, frame)[0])
    assert res[0] < 0.2
    assert res[1] < res[0] / 3.0


def test_boundary_flux_convergence(annulus_spec):
    rng = np.random.default_rng(5)
    ufn = random_vector(annulus_spec, rng)
    r_i, r_ii = [], []
    for n in (32, 64, 128):
        grid = build_grid(annulus_spec, n, n)
        frame = boundary_frame(grid)
        u = VectorField.from_function(grid, ufn)
        a, b = boundary_flux_residuals(u, frame)
        r_i.append(a)
        r_ii.append(b)
    assert ls_order(r_i) >= 1.8
    assert ls_order(r_ii) >= 1.8


# ---------------------------------------------------------------------------
# integration by parts (curl pair)

def test_curl_green_zero(annulus_grid, annulus_frame):
    z = VectorField.zeros(annulus_grid)
    s = ScalarField.from_function(annulus_grid, lambda x, y: np.sin(x))
    assert curl_green_residual(z, s, annulus_frame) == 0.0
    assert curl_green_residual(
        VectorField.from_function(annulus_grid, lambda x, y: (y, x)),
        ScalarField.zeros(annulus_grid), annulus_frame) == 0.0


def test_curl_green_convergence(annulus_spec):
    rng = np.random.default_rng(11)
    ufn, sfn = random_vector(annulus_spec, rng), random_scalar(annulus_spec, rng)
    res = []
    for n in (32, 64, 128):
        grid = build_grid(annulus_spec, n, n)
        frame = boundary_frame(grid)
        res.append(curl_green_residual(VectorField.from_function(grid, ufn),
                                       ScalarField.from_function(grid, sfn), frame))
    assert ls_order(res) >= 1.8


# ---------------------------------------------------------------------------
# energy identities

def test_energy_identities_zero_and_const(annulus_grid, annulus_frame, torus_grid):
    z = VectorField.zeros(annulus_grid)
    assert energy_identity_residuals(z, annulus_frame) == (0.0, 0.0)
    c = VectorField(torus_grid, np.full(torus_grid.shape, 1.5),
                    np.full(torus_grid.shape, -0.5))
    r1, r2 = energy_identity_residuals(c, boundary_frame(torus_grid))
    assert r1 < 1e-12 and r2 < 1e-12


def test_energy_identity_absolute_bc(annulus_grid, annulus_frame):
    # with absolute BCs the grad identity reduces to
    # ||grad u||^2 = ||omega||^2 + ||div u||^2 - oint pi(u,u) dS
    rng = np.random.default_rng(17)
    u = random_absolute_bc_field(annulus_grid, rng, circulation=0.4)
    r1, r2 = energy_identity_residuals(u, annulus_frame)
    scale = max(1.0, np.max(np.abs(u.ux)))
    assert r2 < 50 * annulus_grid.h1**2 * scale


def test_energy_identity_convergence(annulus_spec):
    rng = np.random.default_rng(23)
    ufn = random_vector(annulus_spec, rng)
    r1s, r2s = [], []
    for n in (32, 64, 128):
        grid = build_grid(annulus_spec, n, n)
        frame = boundary_frame(grid)
        r1, r2 = energy_identity_residuals(VectorField.from_function(grid, ufn), frame)
        r1s.append(r1)
        r2s.append(r2)
    assert ls_order(r1s) >= 1.8
    assert ls_order(r2s) >= 1.8


# ---------------------------------------------------------------------------
# advection identities

def test_advection_identities_const_and_rotation(torus_grid):
    c = VectorField(torus_grid, np.full(torus_grid.shape, 2.0),
                    np.full(torus_grid.shape, 1.0))
    r1, _ = advection_identity_residuals(c, c, c)
    assert r1 < 1e-12

    u = VectorField.from_function(torus_grid, lambda x, y: (-y, x))
    r1, _ = advection_identity_residuals(u, u, u)
    # rigid rotation: omega x u = -2(x, y) balances the kinetic gradient;
    # residual away from the wrap seam is machine-level, seam rows excluded
    # by the interior mask only on bounded grids, so allow truncation there
    grid = build_grid(DomainSpec(DomainKind.ANNULUS, r_inner=1.0, r_outer=2.0), 48, 96)
    ua = VectorField(grid, -grid.y, grid.x)
    r1a, _ = advection_identity_residuals(ua, ua, ua)
    assert r1a < 1e-10


def test_advection_identities_convergence(annulus_spec):
    rng = np.random.default_rng(29)
    ufn, xfn, yfn = (random_vector(annulus_spec, rng) for _ in range(3))
    r1s, r2s = [], []
    for n in (32, 64, 128):
        grid = build_grid(annulus_spec, n, n)
        u = VectorField.from_function(grid, ufn)
        X = VectorField.from_function(grid, xfn)
        Y = VectorField.from_function(grid, yfn)
        r1, r2 = advection_identity_residuals(u, X, Y)
        r1s.append(r1)
        r2s.append(r2)
    assert ls_order(r1s) >= 1.8
    assert ls_order(r2s) >= 1.8


def test_laplacian_decomposition_convergence(annulus_spec):
    rng = np.random.default_rng(31)
    ufn = random_vector(annulus_spec, rng)
    res = []
    for n in (32, 64, 128):
        grid = build_grid(annulus_spec, n, n)
        res.append(laplacian_decomposition_residual(VectorField.from_function(grid, ufn)))
    assert ls_order(res) >= 1.8


def test_div_curl_exact_on_torus(torus_grid):
    from vortibc import curl_scalar, div
    w = ScalarField.from_function(torus_grid, lambda x, y: np.cos(x) * np.sin(2 * y))
    assert np.max(np.abs(div(curl_scalar(w)).values)) < 1e-12


# ---------------------------------------------------------------------------
# inequality suite (frozen regressions)

def _annulus_ensemble(grid, seed=777, count=20):
    rng = np.random.default_rng(seed)
    return [random_absolute_bc_field(grid, rng,
                                     circulation=(0.5 if k % 3 == 0 else 0.0))
            for k in range(count)]


def test_norm_ratios_regression():
    grid = build_grid(DomainSpec(DomainKind.ANNULUS, r_inner=1.0, r_outer=2.0), 48, 48)
    frame = boundary_frame(grid)
    rep = absolute_bc_norm_ratios(_annulus_ensemble(grid), frame)
    assert rep.count == 20
    assert rep.h1_ratio == pytest.approx(ANNULUS_NORM_RATIOS["h1_ratio"], rel=0.05)
    assert rep.hessian_ratio == pytest.approx(ANNULUS_NORM_RATIOS["hessian_ratio"], rel=0.05)
    assert rep.h2_ratio == pytest.approx(ANNULUS_NORM_RATIOS["h2_ratio"], rel=0.05)


def test_norm_ratios_channel_regression(channel_grid):
    grid = build_grid(DomainSpec(DomainKind.CHANNEL, length_x=2 * math.pi,
                                 length_y=2.0), 48, 48)
    frame = boundary_frame(grid)
    rng = np.random.default_rng(777)
    ens = [random_absolute_bc_field(grid, rng) for _ in range(20)]
    rep = absolute_bc_norm_ratios(ens, frame)
    assert rep.h1_ratio == pytest.approx(CHANNEL_NORM_RATIOS["h1_ratio"], rel=0.05)
    assert rep.h2_ratio == pytest.approx(CHANNEL_NORM_RATIOS["h2_ratio"], rel=0.05)


def test_norm_ratios_rejects_zero_field(annulus_grid, annulus_frame):
    with pytest.raises(DegenerateInput):
        absolute_bc_norm_ratios([VectorField.zeros(annulus_grid)], annulus_frame)


def test_norm_ratios_rejects_bc_violation(annulus_grid, annulus_frame):
    bad = VectorField(annulus_grid, np.cos(annulus_grid.theta),
                      np.sin(annulus_grid.theta))   # u = nu on the boundary
    with pytest.raises(BCViolation):
        absolute_bc_norm_ratios([bad], annulus_frame)


@pytest.mark.parametrize("spec_kwargs,frozen", [
    (dict(kind=DomainKind.ANNULUS, r_inner=1.0, r_outer=2.0),
     ANNULUS_NORM_RATIOS["trace_c"]),
    (dict(kind=DomainKind.CHANNEL, length_x=2 * math.pi, length_y=2.0),
     CHANNEL_NORM_RATIOS["trace_c"]),
])
def test_trace_inequality_regression(spec_kwargs, frozen):
    # frozen C carries a 5% margin over the calibration ensemble (seed 99);
    # a fresh ensemble stays within 2x of it
    spec = DomainSpec(**spec_kwargs)
    grid = build_grid(spec, 48, 48)
    frame = boundary_frame(grid)
    rng = np.random.default_rng(99)
    ens = [VectorField.from_function(grid, random_vector(spec, rng))
           for _ in range(20)]
    c = trace_inequality_constant(ens, frame, (0.1, 0.5, 1.0))
    assert c <= frozen
    rng2 = np.random.default_rng(1555)
    ens2 = [VectorField.from_function(grid, random_vector(spec, rng2))
            for _ in range(20)]
    c2 = trace_inequality_constant(ens2, frame, (0.1, 0.5, 1.0))
    assert c2 <= 3.0 * frozen


def test_curl_curl_trace_decay(annulus_spec):
    # discrete <curl(curl u), nu> trace shrinks at order >= 1 for
    # absolute-BC fields
    vals = []
    for n in (32, 64, 128):
        grid = build_grid(annulus_spec, n, n)
        frame = boundary_frame(grid)
        rng = np.random.default_rng(9)
        u = random_absolute_bc_field(grid, rng)
        vals.append(curl_curl_normal_trace(u, frame))
    assert ls_order(vals) >= 1.0


def test_check_absolute_bc_passes_construction(annulus_grid, annulus_frame):
    rng = np.random.default_rng(41)
    u = random_absolute_bc_field(annulus_grid, rng, circulation=1.0)
    check_absolute_bc(u, annulus_frame)
