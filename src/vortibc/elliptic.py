"""Neumann problems for the Poisson equation: pressure recovery, the
harmonic part of the Stokes decoupling, and the Solonnikov ratio.

The discretization is a node-centered finite-volume scheme whose summed
equations telescope exactly, so the discrete solvability condition is
precisely  sum(W * source) = sum(dS * flux)  with the grid's own quadrature
weights.  Mean mismatches below tolerance are repaired by a uniform shift
of the boundary flux (logged); larger mismatches raise IncompatibleData.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import BCViolation, DegenerateInput, IncompatibleData, SolverDiverged
from .fields import (
    ScalarField,
    VectorField,
    advect,
    boundary_vector_values,
    div,
    grad,
    l2,
    normal_component,
    surface_curl,
)
from .geometry import BoundaryFrame, Grid, boundary_frame, second_fundamental_form

log = logging.getLogger(__name__)

_RESIDUAL_TOL = 1e-10


@dataclass
class NeumannProblem:
    """Poisson problem -sum of fluxes form: lap(phi) = source, d_nu phi = flux.

    `flux` is a list of per-boundary-component arrays (None or [] when the
    domain has no boundary).  `tol_compat` bounds the allowed compatibility
    defect |int(source) - oint(flux)|; None selects 1e-8 * data scale.
    """

    grid: Grid
    source: ScalarField
    flux: list | None = None
    tol_compat: float | None = None


def _assemble_neumann(grid: Grid):
    """Weighted FV Laplacian A (symmetric, null space = constants) plus the
    LU factorization of the matrix with node 0 pinned."""
    cached = grid._cache.get("neumann")
    if cached is not None:
        return cached
    n1, n2 = grid.shape
    N = n1 * n2
    rows, cols, vals = [], [], []

    def add(i0, j0, i1, j1, t):
        a, b = i0 * n2 + j0, i1 * n2 + j1
        rows.extend((a, a, b, b))
        cols.extend((a, b, b, a))
        vals.extend((-t, t, -t, t))

    if grid.polar:
        r = grid.c1
        h1, h2 = grid.h1, grid.h2
        # radial faces
        for i in range(n1 - 1):
            t = (r[i] + 0.5 * h1) * h2 / h1
            for j in range(n2):
                add(i, j, i + 1, j, t)
        # angular faces (periodic)
        dr = np.full(n1, h1)
        dr[0] = dr[-1] = 0.5 * h1
        for i in range(n1):
            t = dr[i] / (r[i] * h2)
            for j in range(n2):
                add(i, j, i, (j + 1) % n2, t)
    else:
        h1, h2 = grid.h1, grid.h2
        w2 = np.full(n2, h2)
        if not grid.periodic2:
            w2[0] = w2[-1] = 0.5 * h2
        # x faces (axis 0, periodic for channel/torus)
        ilast = n1 if grid.periodic1 else n1 - 1
        for i in range(ilast):
            for j in range(n2):
                add(i, j, (i + 1) % n1, j, w2[j] / h1)
        # y faces
        jlast = n2 if grid.periodic2 else n2 - 1
        for j in range(jlast):
            t = h1 / h2
            for i in range(n1):
                add(i, j, i, (j + 1) % n2, t)

    A = sparse.csr_matrix((vals, (rows, cols)), shape=(N, N))
    A_pinned = A.tolil()
    A_pinned[0, :] = 0.0
    A_pinned[0, 0] = 1.0
    lu = splu(A_pinned.tocsc())
    cached = (A.tocsc(), lu)
    grid._cache["neumann"] = cached
    return cached


def _data_scale(grid, frame, source_vals, flux):
    s = float(np.sum(grid.weights * np.abs(source_vals)))
    if frame is not None and flux:
        s += float(sum(np.sum(c.ds * np.abs(f)) for c, f in zip(frame, flux)))
    return s


def solve_neumann(prob: NeumannProblem) -> ScalarField:
    """Solve the Neumann problem; returns the zero-mean solution.

    Raises IncompatibleData when the discrete compatibility defect exceeds
    tolerance, SolverDiverged when the linear residual misses 1e-10 relative.
    """
    grid = prob.grid
    frame = boundary_frame(grid) if grid.has_boundary() else None
    A, lu = _assemble_neumann(grid)

    b = (grid.weights * prob.source.values).ravel().copy()
    flux = prob.flux if prob.flux is not None else []
    if frame is not None:
        if len(flux) != len(frame.components):
            raise ValueError("flux must supply one array per boundary component")
        for comp, g in zip(frame, flux):
            b[comp.nodes] -= comp.ds * g

    defect = float(np.sum(b))
    tol = prob.tol_compat
    if tol is None:
        tol = 1e-8 * max(_data_scale(grid, frame, prob.source.values, flux), 1e-14)
    if abs(defect) > tol:
        raise IncompatibleData(
            f"compatibility defect {defect:.3e} exceeds tolerance {tol:.3e}"
        )
    if defect != 0.0:
        if frame is not None:
            # Uniform shift of the boundary flux, by defect per unit arc length.
            log.debug("repairing Neumann data: defect %.3e spread over boundary", defect)
            per = frame.perimeter()
            for comp in frame:
                b[comp.nodes] -= comp.ds * (defect / per)
        else:
            log.debug("repairing Neumann data: defect %.3e spread over volume", defect)
            b -= grid.weights.ravel() * (defect / float(np.sum(grid.weights)))

    rhs = b.copy()
    rhs[0] = 0.0
    phi = lu.solve(rhs)
    res = A @ phi - b
    bnorm = float(np.linalg.norm(b))
    if bnorm > 0 and float(np.linalg.norm(res)) > _RESIDUAL_TOL * bnorm:
        raise SolverDiverged(
            f"Neumann residual {np.linalg.norm(res):.3e} vs rhs norm {bnorm:.3e}"
        )
    phi = phi.reshape(grid.shape)
    phi = phi - grid.integrate(phi) / float(np.sum(grid.weights))
    return ScalarField(grid, phi)


def _pressure_tol(grid, scale):
    # Discrete data from FD advection/divergence is compatible only to O(h^2);
    # well-posed runs must not crash on that mismatch.
    h = max(grid.h1, grid.h2)
    return max(1e-8, 100.0 * h * h) * max(scale, 1e-14)


def solve_neumann_fd(grid: Grid, source: np.ndarray, flux: list,
                     frame: BoundaryFrame | None) -> ScalarField:
    """Solve lap(phi) = source, d_nu phi = flux for data assembled from finite
    differences, allowing its O(h^2) compatibility defect.

    The one Neumann entry for the pressures, the divergence coupling, the
    Solonnikov ratio and the torus streamfunction (frame None, flux []).
    """
    tol = _pressure_tol(grid, _data_scale(grid, frame, source, flux))
    return solve_neumann(NeumannProblem(grid, ScalarField(grid, source), flux, tol_compat=tol))


def _solve_transport(s: VectorField, e: VectorField, frame: BoundaryFrame | None,
                     mu: float = 0.0, a=None) -> ScalarField:
    """The Neumann problem behind every pressure-like scalar:
    lap(q) = -div(s . grad e) with d_nu q = pi(s, e) - mu * da/ds."""
    src = -div(advect(s, e)).values
    g = []
    if frame is not None:
        g = second_fundamental_form(frame, boundary_vector_values(s, frame),
                                    boundary_vector_values(e, frame))
        if mu != 0.0 and a is not None:
            g = [gk - mu * sk for gk, sk in zip(g, surface_curl(a, frame))]
    return solve_neumann_fd(s.grid, src, g, frame)


def _check_normal_trace(u, frame, tol, what):
    if frame is None:
        return
    worst = max(float(np.max(np.abs(vals))) for vals in normal_component(u, frame))
    scale = max(u.max_abs(), 1.0)
    if worst > tol * scale:
        raise BCViolation(f"{what}: |u_perp| = {worst:.3e} exceeds {tol:.1e} * scale")


def solve_pressure_ns(u: VectorField, a, mu: float, frame: BoundaryFrame | None,
                      bc_tol: float = 1e-6) -> ScalarField:
    """Pressure for the viscous problem with a prescribed boundary vorticity.

    Solves lap(p) = -div(u . grad u) with d_nu p = pi(u, u) - mu * da/ds,
    normalized to zero mean.  Requires u_perp ~ 0 on the boundary.
    """
    _check_normal_trace(u, frame, bc_tol, "solve_pressure_ns")
    return _solve_transport(u, u, frame, mu, a)


def solve_pressure_euler(u: VectorField, frame: BoundaryFrame,
                         bc_tol: float = 1e-6) -> ScalarField:
    """Pressure for the inviscid problem: the mu = 0 case."""
    return solve_pressure_ns(u, None, 0.0, frame, bc_tol=bc_tol)


def solve_pressure_linearized(beta: VectorField, w: VectorField,
                              frame: BoundaryFrame | None,
                              bc_tol: float = 1e-6) -> ScalarField:
    """Pressure driving the linearized parabolic step.

    Solves lap(p) = -div(s . grad s) with d_nu p = pi(s, s) for s = beta + w,
    zero mean; requires s_perp ~ 0 on the boundary.
    """
    s = beta + w
    _check_normal_trace(s, frame, bc_tol, "solve_pressure_linearized")
    return _solve_transport(s, s, frame)


def solve_divergence_coupling(beta: VectorField, w: VectorField, v: VectorField,
                              frame: BoundaryFrame | None) -> ScalarField:
    """Auxiliary Neumann solve for the divergence diagnostics:
    lap(q) = -div(s . grad e), d_nu q = pi(s, e) with s = beta + w, e = beta - v."""
    return _solve_transport(beta + w, beta - v, frame)


def solve_harmonic_q(a, mu: float, frame: BoundaryFrame) -> ScalarField:
    """Harmonic part of the Stokes decoupling: lap(q) = 0 with
    d_nu q = -mu * da/ds, zero mean.  Compatibility is automatic because the
    closed-loop integral of da/ds telescopes to zero exactly."""
    grid = frame.grid
    src = ScalarField.zeros(grid)
    if mu == 0.0:
        return src
    g = [-mu * sk for sk in surface_curl(a, frame)]
    scale = _data_scale(grid, frame, src.values, g)
    prob = NeumannProblem(grid, src, g, tol_compat=max(1e-10 * max(scale, 1e-14), 1e-13))
    return solve_neumann(prob)


def solonnikov_ratio(f: VectorField, frame: BoundaryFrame | None = None) -> float:
    """||grad phi||_2 / ||f||_2 for the Neumann problem lap(phi) = div f,
    d_nu phi = <f, nu>; the continuous estimate bounds this by 1."""
    fnorm = l2(f)
    if fnorm == 0.0:
        raise DegenerateInput("solonnikov_ratio: f is identically zero")
    grid = f.grid
    if frame is None and grid.has_boundary():
        frame = boundary_frame(grid)
    flux = normal_component(f, frame) if frame is not None else []
    phi = solve_neumann_fd(grid, div(f).values, flux, frame)
    return l2(grad(phi)) / fnorm


# ---------------------------------------------------------------------------
# Dirichlet helper shared with the streamfunction solver

def _assemble_dirichlet(grid: Grid):
    """FD Laplacian with identity rows at the non-periodic boundary nodes."""
    cached = grid._cache.get("dirichlet")
    if cached is not None:
        return cached
    n1, n2 = grid.shape
    N = n1 * n2
    mask = grid.wall_mask
    rows, cols, vals = [], [], []

    def put(a, i, j, v):
        rows.append(a)
        cols.append(i * n2 + j)
        vals.append(v)

    h1, h2 = grid.h1, grid.h2
    for i in range(n1):
        for j in range(n2):
            k = i * n2 + j
            if mask[i, j]:
                put(k, i, j, 1.0)
                continue
            if grid.polar:
                r = grid.c1[i]
                ct = 1.0 / (r * h2) ** 2
                put(k, i + 1, j, 1.0 / h1**2 + 1.0 / (2.0 * h1 * r))
                put(k, i - 1, j, 1.0 / h1**2 - 1.0 / (2.0 * h1 * r))
                put(k, i, (j + 1) % n2, ct)
                put(k, i, (j - 1) % n2, ct)
                put(k, i, j, -2.0 / h1**2 - 2.0 * ct)
            else:
                ip = (i + 1) % n1 if grid.periodic1 else i + 1
                im = (i - 1) % n1 if grid.periodic1 else i - 1
                put(k, ip, j, 1.0 / h1**2)
                put(k, im, j, 1.0 / h1**2)
                put(k, i, (j + 1) % n2, 1.0 / h2**2)
                put(k, i, (j - 1) % n2, 1.0 / h2**2)
                put(k, i, j, -2.0 / h1**2 - 2.0 / h2**2)

    A = sparse.csr_matrix((vals, (rows, cols)), shape=(N, N)).tocsc()
    cached = (splu(A), [c.nodes for c in boundary_frame(grid)])
    grid._cache["dirichlet"] = cached
    return cached


def solve_dirichlet(grid: Grid, source: np.ndarray, bc_low, bc_high) -> np.ndarray:
    """Solve lap(phi) = source with Dirichlet data on the two walls.

    The walls are the boundary components in frame order (inner/bottom, then
    outer/top); bc_low / bc_high are per-node arrays or scalars.
    """
    lu, walls = _assemble_dirichlet(grid)
    vals = np.array(source, dtype=float)
    for nodes, bc in zip(walls, (bc_low, bc_high)):
        vals.flat[nodes] = bc
    return lu.solve(vals.ravel()).reshape(grid.shape)
