"""Implicit diffusion steps for velocity fields with kinematic and
vorticity boundary conditions.

The step solves (I - theta mu dt Lap) u_new = rhs with the normal velocity
pinned to zero at boundary nodes and the boundary vorticity prescribed
through ghost values: the vorticity condition converts into a constraint on
the tangential-velocity ghost node (a curved-boundary generalization of
Thom's formula).  On polar grids the radial part acts on the circulation
variable m = r * u_theta in flux form,

    (Lap u)_theta  =  d/dr[ (1/r) d(r u_theta)/dr ] + theta-terms,

so circulation-type fields c/r lie in the exact discrete kernel and the
1/r metric terms of the ghost relation are built in.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .elliptic import (circulant_solver, expand_rows, generator_index, generator_rows,
                       kron_sum, pin_rows, second_difference, splu, stencil, wall_rows)
from .errors import BCEnforcementFailed, LinearSolveFailed
from .fields import VectorField, require_finite
from .geometry import Grid, boundary_frame


def to_native(grid: Grid, u: VectorField, k: int, out, tmp):
    """Grid-native component k of u (u_r, u_theta on polar grids, u_x, u_y
    otherwise) written into out; tmp is scratch of the same shape.
    u_theta = (-st ux) + ct uy, where (-st) ux is -(st ux) exactly."""
    if not grid.polar:
        return np.copyto(out, (u.ux, u.uy)[k])
    ct, st = grid.cos_theta, grid.sin_theta
    if k == 0:
        np.multiply(ct, u.ux, out=out)
        out += np.multiply(st, u.uy, out=tmp)
    else:
        np.negative(np.multiply(st, u.ux, out=out), out=out)
        out += np.multiply(ct, u.uy, out=tmp)


def from_native(grid: Grid, c1, c2) -> VectorField:
    if not grid.polar:
        return VectorField(grid, c1, c2)
    ct, st = grid.cos_theta, grid.sin_theta
    return VectorField(grid, ct * c1 - st * c2, st * c1 + ct * c2)


def _polar_operator(grid: Grid):
    """Generator rows of the vector Laplacian in (u_r, u_theta) components
    with ghost BC rows.

    Returns (L0, normal_dofs, aterm_idx, aterm_coef): L0 holds the rows
    generator_rows(grid, 2) of L, which covers every node; rows listed in
    normal_dofs (u_r at the boundary nodes) are zero (they become identity
    rows of the implicit matrix), and the boundary-vorticity data a enters
    the rhs as mu*dt * aterm_coef * a at the aterm_idx dofs (u_theta at the
    boundary nodes, in frame order).
    """
    n1, n2 = grid.shape
    r = grid.c1
    h, k = grid.h1, grid.h2
    rp, rm = r + 0.5 * h, r - 0.5 * h
    s = 1.0 / rp + 1.0 / rm
    # radial rows in flux form on m = r u_theta; the end rows eliminate the
    # ghost m_g = m_in + 2 h r a into the inward coefficient and a-term
    up = r[1:] / (h * h * rp[:-1])
    dn = r[:-1] / (h * h * rm[1:])
    up[0] = r[1] * s[0] / (h * h)
    dn[-1] = r[-2] * s[-1] / (h * h)
    R = stencil(n1, {-1: np.r_[0.0, dn], 0: -r * s / (h * h), 1: np.r_[up, 0.0]}, False)
    K = kron_sum(R, second_difference(n2, 1.0, True), grid, 1.0 / (r * k) ** 2)
    # u_theta rows carry +(2/r^2) d_theta u_r, u_r rows -(2/r^2) d_theta u_theta
    C = sparse.kron(sparse.diags(2.0 / (r * r) / (2.0 * k)),
                    stencil(n2, {-1: -1.0, 1: 1.0}, True)[generator_index(grid)[1]],
                    format="csr")
    nodes = boundary_frame(grid).nodes
    walls = wall_rows(grid)
    L0 = sparse.bmat([[pin_rows(K, walls, 0.0), -pin_rows(C, walls, 0.0)], [C, K]],
                     format="csr")
    a_coef = np.repeat([-2.0 * r[0] / (h * rm[0]), 2.0 * r[-1] / (h * rp[-1])], n2)
    return L0, nodes, grid.nnodes + nodes, a_coef


def _cartesian_operator(grid: Grid):
    """Generator rows of the componentwise Laplacian with channel-wall ghost
    rows (empty BC data structures on the torus).  On the channel the normal
    dofs are u_y and the vorticity-data dofs u_x at the wall nodes, in frame
    order."""
    n1, n2 = grid.shape
    h, k = grid.h1, grid.h2
    if grid.has_boundary():
        # u_x rows at the walls: vorticity BC omega = -du_x/dy = a via ghost
        up, dn = np.full(n2, 1.0 / k**2), np.full(n2, 1.0 / k**2)
        up[0] = dn[-1] = 2.0 / k**2
        D2 = stencil(n2, {-1: dn, 0: -2.0 / k**2, 1: up}, False)
        nodes = boundary_frame(grid).nodes
        a_coef = np.repeat([2.0 / k, -2.0 / k], n1)
    else:
        D2 = second_difference(n2, k, True)
        nodes, a_coef = np.array([], dtype=int), np.array([])
    K = kron_sum(second_difference(n1, h, True), D2, grid)
    L0 = sparse.block_diag([K, pin_rows(K, wall_rows(grid), 0.0)], format="csr")
    return L0, grid.nnodes + nodes, nodes, a_coef


class VelocityStepper:
    """Cached implicit solver for one grid and one (mu, dt, theta) setting.

    theta = 1 is backward Euler; theta = 0.5 is Crank-Nicolson, with the
    boundary data evaluated at the new time level on both halves (an O(dt)
    bias only when the data is time dependent).  Instances are reused across
    time steps and Picard iterations; the factorization (the mode-block LU,
    or the FFT symbol on the torus) is computed once.
    """

    def __init__(self, grid: Grid, mu: float, dt: float, theta: float = 1.0):
        self.grid = grid
        self.mu = float(mu)
        self.dt = float(dt)
        self.theta = float(theta)
        self.frame = boundary_frame(grid)

        self.L0, self.normal_dofs, self.aterm_idx, self.aterm_coef = grid.cached(
            "vel_op", lambda: (_polar_operator if grid.polar else _cartesian_operator)(grid))
        self.solver = grid.cached(("vel_lu", self.mu * self.dt, self.theta), self._factor)

    @property
    def L(self):
        """The full operator, built from L0 on first use, once per grid:
        only the explicit half of Crank-Nicolson applies it."""
        return self.grid.cached("vel_full_op", lambda: expand_rows(self.L0, self.grid))

    def _factor(self):
        """The solver of M = I - theta mu dt L with the normal-dof rows
        pinned, formed on its generator rows, which are all its solver reads."""
        g, c = self.grid, self.theta * self.mu * self.dt
        rows = generator_rows(g, 2)
        identity = sparse.csr_matrix((np.ones(rows.size), rows, np.arange(rows.size + 1)),
                                     shape=self.L0.shape)   # the rows `rows` of I
        pinned = np.flatnonzero(np.isin(rows, self.normal_dofs))
        M0 = pin_rows(identity - c * self.L0, pinned, cols=rows[pinned])
        try:
            return circulant_solver(M0, g, splu)
        except RuntimeError as exc:
            raise BCEnforcementFailed(f"implicit boundary system singular: {exc}")

    def step(self, u: VectorField, forcing: VectorField | None, a) -> VectorField:
        """Advance one step: (I - theta mu dt Lap) u_new = u + dt*forcing (+ CN
        explicit part), with boundary data a at the new time level."""
        g = self.grid
        native, tmp = np.empty((2, *g.shape)), np.empty(g.shape)
        for k in (0, 1):
            to_native(g, u, k, native[k], tmp)
        rhs = native.reshape(-1)
        # the explicit half of Crank-Nicolson reads the native u again
        z = None if self.theta == 1.0 else rhs.copy()
        if forcing is not None:
            f = np.empty(g.shape)
            for k in (0, 1):
                to_native(g, forcing, k, f, tmp)
                f *= self.dt
                native[k] += f
        coefs = [self.theta * self.mu * self.dt]
        if self.theta != 1.0:
            expl = (1.0 - self.theta) * self.mu * self.dt
            rhs += expl * (self.L @ z)
            coefs.insert(0, expl)
        if self.frame and a is not None:
            # the data, in frame order, enters as rhs += c * contrib for a
            # contrib that holds it at the aterm_idx dofs and zeros elsewhere;
            # one rhs += 0.0 off those dofs keeps that sum's bits (it turns
            # -0.0 into 0.0, and a second c * 0.0 changes nothing) without
            # forming contrib
            vals = self.aterm_coef * np.concatenate(a)
            first = rhs[self.aterm_idx] + coefs[0] * vals
            rhs += 0.0
            rhs[self.aterm_idx] = first
            for c in coefs[1:]:
                rhs[self.aterm_idx] += c * vals
        if len(self.normal_dofs):
            rhs[self.normal_dofs] = 0.0
        out = self.solver.solve(rhs)
        require_finite(LinearSolveFailed, "implicit velocity solve", out)
        n = g.nnodes
        return from_native(g, out[:n].reshape(g.shape), out[n:].reshape(g.shape))
