import json
import logging
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import splu

import reference_operators as oracle
from conftest import circulation_field, ls_order, zero_mean
from vortibc import (DomainKind, DomainSpec, ScalarField, VectorField,
                     boundary_frame, build_grid, grad)
from vortibc import elliptic, stepping
from vortibc.elliptic import (_PRESSURE_ROWS, ModeBlockSolve, NeumannProblem,
                              _assemble_dirichlet, _assemble_neumann, _solve_neumann_rows,
                              generator_rows, pin_rows,
                              solonnikov_ratio, solve_divergence_coupling,
                              solve_harmonic_q, solve_neumann, solve_pressure_euler,
                              solve_pressure_linearized, solve_pressure_ns, solve_transport)
from vortibc.errors import (BCViolation, DegenerateInput, IncompatibleData, LinearSolveFailed,
                            SolverDiverged)
from vortibc.fields import advect, boundary_vector_values, div, l2, surface_curl
from vortibc.geometry import second_fundamental_form
from vortibc.generators import (random_absolute_bc_field, random_boundary_scalar,
                                random_vector)
from vortibc.stepping import VelocityStepper


def test_zero_data_gives_zero(annulus_grid, annulus_frame):
    prob = NeumannProblem(annulus_grid, ScalarField.zeros(annulus_grid),
                          [np.zeros(c.n_nodes) for c in annulus_frame])
    phi = solve_neumann(prob)
    assert l2(phi) == 0.0


def test_mms_quadratic_convergence(annulus_spec):
    errs = []
    for n in (16, 32, 64):
        grid = build_grid(annulus_spec, n, 2 * n)
        frame = boundary_frame(grid)
        src = ScalarField(grid, np.full(grid.shape, 4.0))
        flux = [np.full(c.n_nodes, -2.0 if c.name == "inner" else 4.0)
                for c in frame]
        phi = solve_neumann(NeumannProblem(grid, src, flux))
        exact = zero_mean(grid, grid.x**2 + grid.y**2)
        errs.append(float(np.sqrt(grid.integrate((phi.values - exact) ** 2))))
    assert ls_order(errs) >= 1.8


def test_incompatible_data_raises(annulus_grid, annulus_frame):
    src = ScalarField(annulus_grid, np.ones(annulus_grid.shape))
    flux = [np.zeros(c.n_nodes) for c in annulus_frame]
    with pytest.raises(IncompatibleData):
        solve_neumann(NeumannProblem(annulus_grid, src, flux))


def _defect_and_size(grid, frame, source, flux):
    """Compatibility defect of Neumann data and the weighted L1 data size
    that its tolerance is relative to."""
    pairs = list(zip(frame, flux))
    defect = float(np.sum(grid.weights * source)) - sum(float(np.sum(c.ds * g)) for c, g in pairs)
    size = (float(np.sum(grid.weights * np.abs(source)))
            + sum(float(np.sum(c.ds * np.abs(g))) for c, g in pairs))
    return defect, size


def _neumann_default_site(monkeypatch):
    grid = build_grid(DomainSpec(DomainKind.ANNULUS, r_inner=1.0, r_outer=2.0), 16, 16)
    frame = boundary_frame(grid)
    z = zero_mean(grid, np.random.default_rng(5).normal(size=grid.shape))
    flux = [np.zeros(c.n_nodes) for c in frame]
    return (1e-8, lambda c: _defect_and_size(grid, frame, z + c, flux),
            lambda c: solve_neumann(NeumannProblem(grid, ScalarField(grid, z + c), flux)).values)


def _streamfunction_site(monkeypatch):
    # the torus Euler streamfunction solves lap s = -omega, finite-difference data
    from vortibc.euler import StreamfunctionSolver

    grid = build_grid(DomainSpec(DomainKind.TORUS, length_x=1.0, length_y=1.0), 32, 32)
    solver = StreamfunctionSolver(VectorField.zeros(grid))
    z = zero_mean(grid, np.random.default_rng(6).normal(size=grid.shape))
    return (max(1e-8, 100.0 * max(grid.h1, grid.h2) ** 2),
            lambda c: _defect_and_size(grid, boundary_frame(grid), -(z + c), []),
            lambda c: solver.velocity(ScalarField(grid, z + c)).ux)


def _harmonic_q_site(monkeypatch):
    # da/ds telescopes exactly, so the defect is put in by offsetting it
    grid = build_grid(DomainSpec(DomainKind.ANNULUS, r_inner=1.0, r_outer=2.0), 16, 16)
    frame = boundary_frame(grid)
    a = random_boundary_scalar(frame, np.random.default_rng(7))
    mu, exact_curl, offset = 0.5, elliptic.surface_curl, [0.0]
    monkeypatch.setattr(elliptic, "surface_curl",
                        lambda a, frame: [s + offset[0] for s in exact_curl(a, frame)])

    def solve(c):
        offset[0] = c
        return solve_harmonic_q(a, mu, frame).values

    return (1e-10, lambda c: _defect_and_size(grid, frame, np.zeros(grid.shape),
                                              [-mu * (s + c) for s in exact_curl(a, frame)]),
            solve)


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("site", [_neumann_default_site, _streamfunction_site,
                                  _harmonic_q_site])
def test_compatibility_threshold_per_site(monkeypatch, caplog, site, factor):
    # each Neumann solve site allows a compatibility defect of its relative
    # factor times the data size: half of that is repaired and solved, twice
    # that raises
    rtol, data, solve = site(monkeypatch)
    # the defect is affine in the shift c; the size moves with c only slightly
    d0, slope, c = data(0.0)[0], data(1.0)[0] - data(0.0)[0], 0.0
    for _ in range(5):
        c = (factor * rtol * data(c)[1] - d0) / slope
    defect, size = data(c)
    assert defect == pytest.approx(factor * rtol * size, rel=1e-6)
    if factor > 1.0:
        with pytest.raises(IncompatibleData):
            solve(c)
        return
    with caplog.at_level(logging.DEBUG, logger="vortibc.elliptic"):
        assert np.isfinite(solve(c)).all()
    assert "repairing Neumann data" in caplog.text


def test_zero_mean_invariant(annulus_grid, annulus_frame):
    rng = np.random.default_rng(3)
    # exactly compatible source: weighted mean removed
    raw = rng.normal(size=annulus_grid.shape)
    raw -= np.sum(annulus_grid.weights * raw) / np.sum(annulus_grid.weights)
    src = ScalarField(annulus_grid, raw)
    phi = solve_neumann(NeumannProblem(
        annulus_grid, src, [np.zeros(c.n_nodes) for c in annulus_frame],
        tol_compat=1e-6))
    mean = annulus_grid.integrate(phi.values)
    assert abs(mean) <= 1e-12 * max(l2(phi), 1e-30)


@settings(max_examples=10, deadline=None)
@given(alpha=st.floats(-3.0, 3.0))
def test_linearity(annulus_grid, annulus_frame, alpha):
    g = annulus_grid
    def mk(fn):
        raw = fn(g.x, g.y)
        raw = raw - np.sum(g.weights * raw) / np.sum(g.weights)
        return ScalarField(g, raw)
    s1 = mk(lambda x, y: np.sin(x) * np.cos(y))
    s2 = mk(lambda x, y: x * y / 5.0)
    zf = [np.zeros(c.n_nodes) for c in annulus_frame]
    p1 = solve_neumann(NeumannProblem(g, s1, zf, tol_compat=1.0))
    p2 = solve_neumann(NeumannProblem(g, s2, zf, tol_compat=1.0))
    p3 = solve_neumann(NeumannProblem(g, ScalarField(g, alpha * s1.values + s2.values),
                                      zf, tol_compat=1.0))
    diff = l2(p3 - (alpha * p1 + p2))
    assert diff <= 1e-9 * max(1.0, l2(p3))


# ---------------------------------------------------------------------------
# pressure problems

def test_pressure_zero(annulus_grid, annulus_frame):
    z = VectorField.zeros(annulus_grid)
    a = [np.zeros(c.n_nodes) for c in annulus_frame]
    assert l2(solve_pressure_ns(z, a, 0.5)) == 0.0
    assert l2(solve_pressure_euler(z)) == 0.0
    assert l2(solve_pressure_linearized(z, z)) == 0.0


def test_pressure_rigid_rotation(annulus_spec):
    om0 = 0.7
    errs = []
    for n in (24, 48):
        grid = build_grid(annulus_spec, n, 2 * n)
        frame = boundary_frame(grid)
        u = VectorField(grid, -om0 * grid.y, om0 * grid.x)
        a = [np.full(c.n_nodes, 2 * om0) for c in frame]
        p = solve_pressure_ns(u, a, 0.3)   # constant a: mu term vanishes
        exact = zero_mean(grid, 0.5 * om0**2 * (grid.x**2 + grid.y**2))
        errs.append(float(np.sqrt(grid.integrate((p.values - exact) ** 2))))
        p_e = solve_pressure_euler(u)
        assert l2(p_e - p) < 1e-8 * max(1.0, l2(p))
    assert errs[1] < errs[0] / 3.0


def test_pressure_viscous_boundary_term(annulus_grid, annulus_frame):
    # a = sin(theta): the viscous correction changes the Neumann data by
    # -mu da/ds; verify against independently assembled data
    mu = 0.1
    g = annulus_grid
    u = circulation_field(g, c=0.5)
    a = [np.sin(g.c2) for _ in annulus_frame]
    p_vis = solve_pressure_ns(u, a, mu)
    # hand-assembled: same problem via solve_neumann with explicit flux
    from vortibc.fields import advect, div, boundary_vector_values
    from vortibc import second_fundamental_form, surface_curl
    src = ScalarField(g, -div(advect(u, u)).values)
    ub = boundary_vector_values(u, annulus_frame)
    flux = [p.copy() for p in second_fundamental_form(annulus_frame, ub, ub)]
    for fk, sk in zip(flux, surface_curl(a, annulus_frame)):
        fk -= mu * sk
    p_hand = solve_neumann(NeumannProblem(g, src, flux, tol_compat=1.0))
    assert l2(p_vis - p_hand) < 1e-10 * max(1.0, l2(p_vis))
    # and the mu term actually moves the solution
    p_inv = solve_pressure_ns(u, a, 0.0)
    assert l2(p_vis - p_inv) > 1e-4


def test_pressure_bc_violation(annulus_grid, annulus_frame):
    bad = VectorField(annulus_grid, np.cos(annulus_grid.theta),
                      np.sin(annulus_grid.theta))
    with pytest.raises(BCViolation):
        solve_pressure_euler(bad)


def test_linearized_pressure_reductions(annulus_grid, annulus_frame):
    g = annulus_grid
    w = VectorField(g, -0.4 * g.y, 0.4 * g.x)   # rigid rotation
    z = VectorField.zeros(g)
    p_lin = solve_pressure_linearized(z, w)
    p_eul = solve_pressure_euler(w)
    assert l2(p_lin - p_eul) < 1e-10 * max(1.0, l2(p_eul))
    # beta = -w kills the advected field
    p_zero = solve_pressure_linearized(-1.0 * w, w)
    assert l2(p_zero) < 1e-12


# ---------------------------------------------------------------------------
# harmonic part of the Stokes decoupling

def test_harmonic_q_trivial_cases(annulus_frame):
    a_const = [np.full(c.n_nodes, 3.0) for c in annulus_frame]
    assert l2(solve_harmonic_q(a_const, 0.7, annulus_frame)) == 0.0
    a_sin = [np.sin(np.linspace(0, 2 * math.pi, c.n_nodes, endpoint=False))
             for c in annulus_frame]
    assert l2(solve_harmonic_q(a_sin, 0.0, annulus_frame)) == 0.0


def test_harmonic_q_disk_oracle():
    # a = sin(theta) on the outer circle of the disk: the exact solution is
    # the spectral harmonic extension -mu (r + eps^2/r) cos(theta)/(1-eps^2)
    mu = 0.1
    errs = []
    for n in (24, 48):
        grid = build_grid(DomainSpec(DomainKind.DISK, r_outer=1.0), n, 2 * n)
        frame = boundary_frame(grid)
        a = [np.sin(grid.c2) if c.name == "outer" else np.zeros(c.n_nodes)
             for c in frame]
        q = solve_harmonic_q(a, mu, frame)
        eps = grid.r_inner_eff
        exact = zero_mean(grid, -mu * (grid.r + eps**2 / grid.r)
                          * np.cos(grid.theta) / (1 - eps**2))
        errs.append(float(np.sqrt(grid.integrate((q.values - exact) ** 2))))
        # boundary flux matches -mu cos(theta)
        from vortibc.fields import normal_derivative
        dn = dict(zip((c.name for c in frame), normal_derivative(q, frame)))
        assert np.max(np.abs(dn["outer"] + mu * np.cos(grid.c2))) < 50 * grid.h1**2
    assert errs[1] < errs[0] / 3.0


# ---------------------------------------------------------------------------
# gradient bound (Solonnikov ratio)

def test_solonnikov_zero_raises(annulus_grid):
    with pytest.raises(DegenerateInput):
        solonnikov_ratio(VectorField.zeros(annulus_grid))


def test_solonnikov_potential_equality(annulus_grid):
    pot = ScalarField.from_function(annulus_grid,
                                    lambda x, y: np.sin(x) * y + 0.3 * x * x)
    ratio = solonnikov_ratio(grad(pot))
    assert 0.9 < ratio <= 1.0 + 0.05


def test_solonnikov_divfree_zero(annulus_grid):
    f = circulation_field(annulus_grid, c=1.0)   # div-free, f.nu = 0
    assert solonnikov_ratio(f) < 0.05


@pytest.mark.parametrize("spec_kwargs", [
    dict(kind=DomainKind.ANNULUS, r_inner=1.0, r_outer=2.0),
    dict(kind=DomainKind.CHANNEL, length_x=2 * math.pi, length_y=2.0),
])
def test_solonnikov_ensemble(spec_kwargs):
    spec = DomainSpec(**spec_kwargs)
    grid = build_grid(spec, 32, 32)
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(50):
        f = VectorField.from_function(grid, random_vector(spec, rng))
        worst = max(worst, solonnikov_ratio(f))
    assert worst <= 1.05


@pytest.mark.parametrize("grid_name", ["annulus_grid", "channel_grid"])
def test_divergence_coupling_matches_hand_assembled(grid_name, request):
    """q of the divergence diagnostics solves lap(q) = -div(s . grad e),
    d_nu q = pi(s, e) with s = beta + w, e = beta - v."""
    grid = request.getfixturevalue(grid_name)
    frame = boundary_frame(grid)
    rng = np.random.default_rng(11)
    beta, w, v = (VectorField.from_function(grid, random_vector(grid.spec, rng))
                  for _ in range(3))
    q = solve_divergence_coupling(beta, w, v)

    s, e = beta + w, beta - v
    src = ScalarField(grid, -div(advect(s, e)).values)
    flux = second_fundamental_form(frame, boundary_vector_values(s, frame),
                                   boundary_vector_values(e, frame))
    ref = solve_neumann(NeumannProblem(grid, src, flux, tol_compat=np.inf))
    assert l2(ref) > 0.0
    np.testing.assert_allclose(q.values, ref.values, rtol=0.0,
                               atol=1e-12 * np.max(np.abs(ref.values)))


SPECS = [
    DomainSpec(DomainKind.ANNULUS, r_inner=1.0, r_outer=2.0),
    DomainSpec(DomainKind.DISK, r_outer=1.0),
    DomainSpec(DomainKind.CHANNEL, length_x=2 * math.pi, length_y=2.0),
    DomainSpec(DomainKind.TORUS, length_x=2 * math.pi, length_y=2 * math.pi),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind.value)
def test_neumann_operator_symmetric_with_constant_kernel(spec):
    """Each FV face writes the same transmissibility to both off-diagonal
    entries, and the rows sum to zero."""
    grid = build_grid(spec, 12, 20)
    A = elliptic.expand_rows(_assemble_neumann(grid)[0], grid)
    assert abs(A - A.T).max() == 0.0
    ones = np.ones(grid.nnodes)
    assert np.max(np.abs(A @ ones)) <= 1e-14 * np.max(abs(A) @ ones)


@pytest.mark.parametrize("n1, n2", [(24, 40), (33, 20)])
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind.value)
def test_neumann_stencil_terms_match_full_operator(spec, n1, n2):
    # the residual test applies the FV Laplacian as stencil terms by shifted
    # slices; on a stack of rows they agree with the reference matvec
    grid = build_grid(spec, n1, n2)
    x = np.random.default_rng(9).normal(size=(3, *grid.shape))
    got = elliptic.apply_terms(grid, elliptic._neumann_terms(grid), x)
    A = oracle.fv_laplacian(grid)
    for row, xi in zip(got, x):
        ref = A @ xi.ravel()
        assert np.max(np.abs(row.ravel() - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("spec", [SPECS[0], SPECS[3]], ids=lambda s: s.kind.value)
def test_neumann_residual_test_catches_bad_solve(spec, monkeypatch):
    # a solver result off by a small amount at one node misses the 1e-10
    # relative residual, and the solve raises instead of returning it
    grid = build_grid(spec, 24, 40)
    src = np.random.default_rng(10).normal(size=grid.shape)
    src -= np.sum(grid.weights * src) / np.sum(grid.weights)
    flux = [np.zeros(c.n_nodes) for c in boundary_frame(grid)]
    prob = NeumannProblem(grid, ScalarField(grid, src), flux)
    solve_neumann(prob)
    solver_type = type(_assemble_neumann(grid)[1])
    solve = solver_type.solve

    def perturbed(self, b, work=None):
        x = solve(self, b, work)
        x.reshape(-1)[grid.nnodes // 2] += 1e-6 * np.max(np.abs(x))
        return x

    monkeypatch.setattr(solver_type, "solve", perturbed)
    with pytest.raises(SolverDiverged, match="Neumann residual"):
        solve_neumann(prob)


@pytest.mark.parametrize("spec", SPECS[:3], ids=lambda s: s.kind.value)
def test_dirichlet_identity_rows_exactly_on_walls(spec, monkeypatch):
    # the wall rows are pinned on the generator rows, so every mode block
    # the solver factors has identity rows at the two wall nodes and nowhere else
    grid = build_grid(spec, 12, 20)
    B = _recorded_block(monkeypatch, elliptic, lambda: _assemble_dirichlet(grid)).tocsr()
    nr = grid.n2 if grid.periodic1 else grid.n1
    wall = np.isin(np.arange(nr), [0, nr - 1])
    identity_row = (np.diff(B.indptr) == 1) & (B.diagonal() == 1.0)
    np.testing.assert_array_equal(identity_row, np.tile(wall, B.shape[0] // nr))


def test_non_finite_data_raises_typed_errors(annulus_grid, annulus_frame):
    # NaN passes `abs(defect) > tol` and the CFL test silently, so the solves
    # and the solver entry points check finiteness themselves
    from vortibc.elliptic import solve_dirichlet
    from vortibc.errors import LinearSolveFailed, SolverDiverged
    from vortibc.euler import solve_euler
    from vortibc.stokes import solve_stokes

    grid = annulus_grid
    bad = np.zeros(grid.shape)
    bad[5, 7] = np.nan
    with pytest.raises(SolverDiverged):
        solve_neumann(NeumannProblem(grid, ScalarField(grid, bad),
                                     [np.zeros(c.n_nodes) for c in annulus_frame]))
    flux = [np.zeros(c.n_nodes) for c in annulus_frame]
    flux[1][3] = np.inf
    with pytest.raises(SolverDiverged):
        solve_neumann(NeumannProblem(grid, ScalarField.zeros(grid), flux))
    with pytest.raises(LinearSolveFailed):
        solve_dirichlet(grid, bad, 0.0, 0.0)
    with pytest.raises(LinearSolveFailed):
        solve_dirichlet(grid, np.zeros(grid.shape), np.nan, 0.0)
    u0 = VectorField(grid, bad, np.zeros(grid.shape))
    with pytest.raises(SolverDiverged):
        solve_stokes(u0, None, 0.1, 0.02, 0.01)
    with pytest.raises(SolverDiverged):
        solve_euler(u0, T=0.02, dt=0.01)


# the torus solves by 2-D FFT; sparse LU of the same assembled matrices is the oracle
TORUS_GRIDS = [
    (DomainSpec(DomainKind.TORUS, length_x=2 * math.pi, length_y=2 * math.pi), 32, 32),
    (DomainSpec(DomainKind.TORUS, length_x=2 * math.pi, length_y=3.0), 24, 40),
]


@pytest.mark.parametrize("spec, n1, n2", TORUS_GRIDS, ids=["square", "oblong"])
def test_torus_neumann_fft_matches_pinned_lu(spec, n1, n2):
    _check_neumann_against_pinned_lu(build_grid(spec, n1, n2))


def _check_neumann_against_pinned_lu(grid):
    """The Neumann solve of compatible random data, with zero flux, matches
    the mean-shifted solve of splu(pin_rows(A, [0])) and warns of nothing."""
    A = oracle.fv_laplacian(grid)
    raw = np.random.default_rng(5).normal(size=grid.shape)
    raw -= np.sum(grid.weights * raw) / np.sum(grid.weights)
    flux = [np.zeros(c.n_nodes) for c in boundary_frame(grid)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi = solve_neumann(NeumannProblem(grid, ScalarField(grid, raw), flux,
                                           tol_compat=1e-6)).values.ravel()
    b = (grid.weights * raw).ravel()
    rhs = b.copy()
    rhs[0] = 0.0
    ref = splu(pin_rows(A, [0]).tocsc()).solve(rhs)
    ref -= grid.integrate(ref.reshape(grid.shape)) / np.sum(grid.weights)
    assert np.max(np.abs(phi - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.linalg.norm(A @ phi - b) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize("spec, n1, n2", TORUS_GRIDS, ids=["square", "oblong"])
def test_torus_velocity_fft_matches_splu(spec, n1, n2, theta):
    grid = build_grid(spec, n1, n2)
    mu, dt = 1.0, 0.1   # theta*mu*dt/h^2 of order 1, far from the identity
    stepper = VelocityStepper(grid, mu, dt, theta)
    L = oracle.velocity_operator(grid)
    M = sparse.identity(2 * grid.nnodes, format="csc") - (theta * mu * dt) * L
    z = np.random.default_rng(6).normal(size=2 * grid.nnodes)
    ref = splu(M.tocsc()).solve(z)
    assert np.max(np.abs(stepper.solver.solve(z) - ref)) <= 1e-12 * np.max(np.abs(ref))


# the bounded grids solve by mode blocks along the periodic axis; sparse LU of
# the same assembled matrices is the oracle
BOUNDED_GRIDS = [(spec, n1, n2) for spec in SPECS[:3] for n1, n2 in ((24, 40), (48, 48))]
BOUNDED_IDS = [f"{spec.kind.value}-{n1}x{n2}" for spec, n1, n2 in BOUNDED_GRIDS]


def _rel_diff(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


def _refined_splu(A, b):
    """splu of A plus one step of iterative refinement."""
    lu = splu(A.tocsc())
    x = lu.solve(b)
    return x + lu.solve(b - A @ x)


@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize("spec, n1, n2", BOUNDED_GRIDS, ids=BOUNDED_IDS)
def test_bounded_velocity_mode_blocks_match_splu(spec, n1, n2, theta):
    # raw splu of the stiff disk system is itself 1.3e-12 from its refined
    # solution at 48^2, so the oracle takes one refinement step
    grid = build_grid(spec, n1, n2)
    mu, dt = 1.0, 0.1
    stepper = VelocityStepper(grid, mu, dt, theta)
    assert isinstance(stepper.solver, ModeBlockSolve)
    L = oracle.velocity_operator(grid)
    M = pin_rows(sparse.identity(2 * grid.nnodes) - (theta * mu * dt) * L, stepper.normal_dofs)
    z = np.random.default_rng(6).normal(size=2 * grid.nnodes)
    z[stepper.normal_dofs] = 0.0
    assert _rel_diff(stepper.solver.solve(z), _refined_splu(M, z)) <= 1e-12


@pytest.mark.parametrize("spec, n1, n2", BOUNDED_GRIDS, ids=BOUNDED_IDS)
def test_bounded_neumann_mode_blocks_match_pinned_lu(spec, n1, n2):
    _check_neumann_against_pinned_lu(build_grid(spec, n1, n2))


@pytest.mark.parametrize("spec, n1, n2", BOUNDED_GRIDS, ids=BOUNDED_IDS)
def test_bounded_dirichlet_mode_blocks_match_refined_lu(spec, n1, n2):
    # raw splu drifts from its own refined solution as the grid grows (6.6e-12
    # on the 192^2 annulus for random data), so it is refined once first
    grid = build_grid(spec, n1, n2)
    solver, _ = _assemble_dirichlet(grid)
    assert isinstance(solver, ModeBlockSolve)
    A = pin_rows(oracle.dirichlet_laplacian(grid), np.flatnonzero(grid.wall_mask))
    b = np.random.default_rng(7).normal(size=grid.nnodes)
    assert _rel_diff(solver.solve(b), _refined_splu(A, b)) <= 1e-12


def _recorded_block(monkeypatch, module, build):
    """The one block matrix that build() hands to `module.splu`."""
    seen = []
    with monkeypatch.context() as m:
        m.setattr(module, "splu", seen.append)
        build()
    (B,) = seen
    return B


@pytest.mark.parametrize("spec, n1, n2", BOUNDED_GRIDS, ids=BOUNDED_IDS)
def test_mode_blocks_built_from_generator_rows_match_full_operator(spec, n1, n2, monkeypatch):
    # each solver forms and pins only its operator's generator rows; the
    # block matrix it factors equals the one built from the full pinned
    # reference matrix, bit for bit
    grid = build_grid(spec, n1, n2)
    mu, dt = 1.0, 0.1
    L = oracle.velocity_operator(grid)
    for theta in (1.0, 0.5):
        B = _recorded_block(monkeypatch, stepping, lambda: VelocityStepper(grid, mu, dt, theta))
        stepper = VelocityStepper(grid, mu, dt, theta)   # cached: factors nothing
        M = pin_rows(sparse.identity(2 * grid.nnodes, format="csr")
                     - (theta * mu * dt) * L, stepper.normal_dofs)
        oracle.assert_same_sparse(B, oracle.mode_blocks(M, grid), "velocity blocks")
    B = _recorded_block(monkeypatch, elliptic, lambda: _assemble_neumann(grid))
    A = oracle.fv_laplacian(grid)
    oracle.assert_same_sparse(B, oracle.mode_blocks(A, grid, pin=True), "Neumann blocks")
    B = _recorded_block(monkeypatch, elliptic, lambda: _assemble_dirichlet(grid))
    A = pin_rows(oracle.dirichlet_laplacian(grid), np.flatnonzero(grid.wall_mask))
    oracle.assert_same_sparse(B, oracle.mode_blocks(A, grid), "Dirichlet blocks")


@pytest.mark.parametrize("n1, n2", [(24, 40), (33, 20)])
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind.value)
def test_operators_equal_full_assembly(spec, n1, n2):
    """Each operator is assembled as its generator rows.  They equal those
    rows of the full reference assembly bit for bit, and so do the torus
    symbols; the shift expansion of the rows equals the full operator entry
    for entry (which makes it exactly circulant), so the lazily expanded L
    applies Crank-Nicolson's explicit half bit for bit."""
    grid = build_grid(spec, n1, n2)
    L = oracle.velocity_operator(grid)
    stepper = VelocityStepper(grid, 1.0, 0.1, 0.5)
    oracle.assert_same_sparse(stepper.L0, L[generator_rows(grid, 2)], "velocity rows")
    oracle.assert_same_sparse(stepper.L, L, "velocity operator")
    z = np.random.default_rng(8).normal(size=2 * grid.nnodes)
    np.testing.assert_array_equal(stepper.L @ z, L @ z)

    A = oracle.fv_laplacian(grid).tocsr()
    A0, solver = _assemble_neumann(grid)
    oracle.assert_same_sparse(A0, A[generator_rows(grid)], "Neumann rows")
    oracle.assert_same_sparse(elliptic.expand_rows(A0, grid), A, "Neumann operator")
    if grid.has_boundary():
        D = oracle.dirichlet_laplacian(grid)
        D0 = elliptic._dirichlet_laplacian(grid)
        oracle.assert_same_sparse(D0, D[generator_rows(grid)], "Dirichlet rows")
        oracle.assert_same_sparse(elliptic.expand_rows(D0, grid), D, "Dirichlet operator")
        return
    # the torus symbols, from column 0 of the full operators
    np.testing.assert_array_equal(solver.inverse,
                                  oracle.periodic_inverse(A[:, [0]].toarray(), grid.shape))
    for theta in (1.0, 0.5):
        column = (sparse.identity(grid.nnodes, format="csr")[:, [0]]
                  - theta * 0.1 * L[:grid.nnodes, [0]])
        np.testing.assert_array_equal(VelocityStepper(grid, 1.0, 0.1, theta).solver.inverse,
                                      oracle.periodic_inverse(column.toarray(), grid.shape))


def test_mode_blocks_reject_non_circulant_operator(annulus_grid):
    # the exact oracle sees one perturbed entry of a full operator
    A = oracle.dirichlet_laplacian(annulus_grid).tolil()
    oracle.check_circulant(A.tocsr(), annulus_grid)
    row = annulus_grid.n2 + 3          # an interior node at periodic index 3
    A[row, row] *= 1.5
    with pytest.raises(AssertionError):
        oracle.check_circulant(A.tocsr(), annulus_grid)


def _stepper_peak(grid, mu):
    """Peak traced bytes of building VelocityStepper(grid, mu, 1e-3), over
    the bytes of the full velocity operator."""
    import tracemalloc

    L = oracle.velocity_operator(grid)
    L_bytes = L.data.nbytes + L.indices.nbytes + L.indptr.nbytes
    del L
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        VelocityStepper(grid, mu, 1e-3)
        return (tracemalloc.get_traced_memory()[1] - base) / L_bytes
    finally:
        tracemalloc.stop()


def test_velocity_factorization_memory(annulus_spec):
    # one more factorization on a cached operator forms I - theta mu dt L and
    # its pins on the generator rows only: no full-size copy of L
    grid = build_grid(annulus_spec, 96, 96)
    VelocityStepper(grid, 0.01, 1e-3)
    assert _stepper_peak(grid, 0.02) <= 4


def test_first_velocity_factorization_memory(annulus_spec):
    # the first backward-Euler stepper of a grid assembles the velocity
    # operator as its generator rows, never in full, and frees the phased
    # mode-block entries before the LU: 2.6 full operators at the peak,
    # against 4.2 when the full operator was assembled
    assert _stepper_peak(build_grid(annulus_spec, 96, 96), 0.01) <= 3.4


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_velocity_factorization_rss():
    # SuperLU allocates outside numpy, so tracemalloc cannot see the LU's
    # workspace: scripts/factor_profile.py builds a backward-Euler stepper in
    # a fresh process, with the sparse LU imported beforehand, and reads how
    # far its one splu call lifts the resident high-water mark (VmHWM after
    # less VmHWM at entry), here in units of the complex LU's bytes (16-byte
    # values and 4-byte indices).  Growth in the mode-block build before the
    # call raises the entry mark and cannot fail this.  One-column panels
    # keep it below 1; the default panels of 10 columns took it above 4.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, os.path.join(root, "scripts", "factor_profile.py"),
                           "--child", "velocity-be", "128"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    r = json.loads(proc.stdout)
    assert r["hwm_rise_mb"] * 2**20 / (r["lu_nnz"] * 20) <= 2.5


# ---------------------------------------------------------------------------
# the stacked transport kernel against one snapshot at a time

def _transport_by_hand(s, e, mu=0.0, a=None):
    """One snapshot's transport solve assembled from the single-field
    operators: lap(q) = -div(s . grad e), d_nu q = pi(s, e) - mu da/ds."""
    grid = s.grid
    flux = []
    if grid.has_boundary():
        frame = boundary_frame(grid)
        flux = second_fundamental_form(frame, boundary_vector_values(s, frame),
                                       boundary_vector_values(e, frame))
        if a is not None:
            flux = [g - mu * sk for g, sk in zip(flux, surface_curl(a, frame))]
    src = ScalarField(grid, -div(advect(s, e)).values)
    return solve_neumann(NeumannProblem(grid, src, flux, tol_compat=np.inf)).values


def _carrier_block(grid, rows, seed):
    """(rows, 2, n1, n2) block of distinct fields with u_perp = 0."""
    rng = np.random.default_rng(seed)
    fields = [random_absolute_bc_field(grid, rng, amplitude=1.0 + 0.1 * k) for k in range(rows)]
    return np.stack([np.stack((f.ux, f.uy)) for f in fields])


def _row(grid, block, k):
    return VectorField(grid, block[k, 0], block[k, 1])


@pytest.mark.parametrize("rows", [1, 3, 2 * _PRESSURE_ROWS + 3])
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind.value)
def test_transport_rows_equal_single_snapshots(spec, rows):
    """Every row of a stacked solve equals the one-snapshot solve bit for
    bit: pressures (e = s, with and without boundary vorticity) and the
    divergence coupling (e != s); the last case spans a partial chunk."""
    grid = build_grid(spec, 16, 24)
    s = _carrier_block(grid, rows, 1)
    e = s - _carrier_block(grid, rows, 2)
    a = None
    if grid.has_boundary():
        a = random_boundary_scalar(boundary_frame(grid), np.random.default_rng(3))
    pressures = solve_transport(grid, s)
    viscous = solve_transport(grid, s, None, 0.3, a)
    coupling = solve_transport(grid, s, e)
    for k in range(rows):
        sk, ek = _row(grid, s, k), _row(grid, e, k)
        assert np.array_equal(pressures[k], _transport_by_hand(sk, sk))
        assert np.array_equal(viscous[k], _transport_by_hand(sk, sk, 0.3, a))
        assert np.array_equal(coupling[k], _transport_by_hand(sk, ek))
        assert np.array_equal(pressures[k], solve_pressure_euler(sk).values)
        assert np.array_equal(viscous[k], solve_pressure_ns(sk, a, 0.3).values)
        assert np.array_equal(coupling[k], solve_divergence_coupling(
            sk, VectorField.zeros(grid), sk - ek).values)


@pytest.mark.parametrize("spec", [SPECS[0], SPECS[3]], ids=lambda s: s.kind.value)
def test_transport_block_with_nan_row_raises(spec):
    grid = build_grid(spec, 16, 24)
    s = _carrier_block(grid, 3, 4)
    s[1, 0, 5, 7] = np.nan
    with pytest.raises(SolverDiverged):
        solve_transport(grid, s)


def test_neumann_block_with_incompatible_row_raises(annulus_grid, annulus_frame):
    grid = annulus_grid
    source = np.zeros((3, *grid.shape))
    source[2] = 1.0
    flux = [np.zeros(c.n_nodes) for c in annulus_frame]
    with pytest.raises(IncompatibleData):
        _solve_neumann_rows(grid, source, flux, 1e-8)
    # the compatible rows alone solve
    assert np.all(_solve_neumann_rows(grid, source[:2], flux, 1e-8) == 0.0)


def test_pressure_block_with_normal_trace_raises(annulus_spec):
    grid = build_grid(annulus_spec, 16, 24)
    s = _carrier_block(grid, 3, 5)
    s[1, 0] += np.cos(grid.theta)     # a radial flow e_r through both circles
    s[1, 1] += np.sin(grid.theta)
    with pytest.raises(BCViolation):
        solve_transport(grid, s)
