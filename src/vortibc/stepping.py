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
from scipy.sparse.linalg import splu

from .errors import BCEnforcementFailed, LinearSolveFailed
from .fields import VectorField
from .geometry import Grid, boundary_frame


def to_native(grid: Grid, u: VectorField):
    """Cartesian components -> grid-native components (u_r, u_theta on polar)."""
    if not grid.polar:
        return u.ux.copy(), u.uy.copy()
    ct, st = np.cos(grid.theta), np.sin(grid.theta)
    return ct * u.ux + st * u.uy, -st * u.ux + ct * u.uy


def from_native(grid: Grid, c1, c2) -> VectorField:
    if not grid.polar:
        return VectorField(grid, c1, c2)
    ct, st = np.cos(grid.theta), np.sin(grid.theta)
    return VectorField(grid, ct * c1 - st * c2, st * c1 + ct * c2)


def _polar_operator(grid: Grid):
    """Vector Laplacian in (u_r, u_theta) components with ghost BC rows.

    Returns (L, normal_dofs, aterm_idx, aterm_coef): L covers every node;
    rows listed in normal_dofs (u_r at the boundary nodes) are zero (they
    become identity rows of the implicit matrix), and the boundary-vorticity
    data a enters the rhs as mu*dt * aterm_coef * a at the aterm_idx dofs
    (u_theta at the boundary nodes, in frame order).
    """
    n1, n2 = grid.shape
    N = n1 * n2
    r = grid.c1
    h, k = grid.h1, grid.h2
    rows, cols, vals = [], [], []

    def put(a, b, v):
        rows.append(a)
        cols.append(b)
        vals.append(v)

    def kr(i, j):
        return i * n2 + j % n2

    def kt(i, j):
        return N + i * n2 + j % n2

    # interior rows, both components
    for i in range(1, n1 - 1):
        ri = r[i]
        rp, rm = ri + 0.5 * h, ri - 0.5 * h
        c_up = r[i + 1] / (h * h * rp)
        c_dn = r[i - 1] / (h * h * rm)
        c_ct = -ri * (1.0 / rp + 1.0 / rm) / (h * h)
        ct2 = 1.0 / (ri * k) ** 2
        cpl = 2.0 / (ri * ri) / (2.0 * k)
        for j in range(n2):
            a = kr(i, j)
            put(a, kr(i + 1, j), c_up)
            put(a, kr(i - 1, j), c_dn)
            put(a, kr(i, j + 1), ct2)
            put(a, kr(i, j - 1), ct2)
            put(a, a, c_ct - 2.0 * ct2)
            # -(2/r^2) d_theta u_theta
            put(a, kt(i, j + 1), -cpl)
            put(a, kt(i, j - 1), +cpl)

            b = kt(i, j)
            put(b, kt(i + 1, j), c_up)
            put(b, kt(i - 1, j), c_dn)
            put(b, kt(i, j + 1), ct2)
            put(b, kt(i, j - 1), ct2)
            put(b, b, c_ct - 2.0 * ct2)
            # +(2/r^2) d_theta u_r
            put(b, kr(i, j + 1), +cpl)
            put(b, kr(i, j - 1), -cpl)

    # boundary tangential rows via ghost elimination on m = r u_theta
    aterm_coef = []
    for side, i in (("inner", 0), ("outer", n1 - 1)):
        ri = r[i]
        rin = r[1] if side == "inner" else r[n1 - 2]
        i_in = 1 if side == "inner" else n1 - 2
        rp, rm = ri + 0.5 * h, ri - 0.5 * h
        if side == "outer":
            # G_out uses the ghost: coef pattern from m_g = m_in + 2 h r a
            c_in = rin * (1.0 / rp + 1.0 / rm) / (h * h)
            c_self = -ri * (1.0 / rp + 1.0 / rm) / (h * h)
            a_coef = 2.0 * ri / (h * rp)
        else:
            c_in = rin * (1.0 / rp + 1.0 / rm) / (h * h)
            c_self = -ri * (1.0 / rp + 1.0 / rm) / (h * h)
            a_coef = -2.0 * ri / (h * rm)
        ct2 = 1.0 / (ri * k) ** 2
        cpl = 2.0 / (ri * ri) / (2.0 * k)
        for j in range(n2):
            b = kt(i, j)
            put(b, kt(i_in, j), c_in)
            put(b, b, c_self - 2.0 * ct2)
            put(b, kt(i, j + 1), ct2)
            put(b, kt(i, j - 1), ct2)
            put(b, kr(i, j + 1), +cpl)
            put(b, kr(i, j - 1), -cpl)
            aterm_coef.append(a_coef)

    nodes = boundary_frame(grid).nodes
    L = sparse.csr_matrix((vals, (rows, cols)), shape=(2 * N, 2 * N))
    return L, nodes, N + nodes, np.array(aterm_coef)


def _cartesian_operator(grid: Grid):
    """Componentwise Laplacian with channel-wall ghost rows (empty BC data
    structures on the torus).  On the channel the normal dofs are u_y and the
    vorticity-data dofs u_x at the wall nodes, in frame order."""
    n1, n2 = grid.shape
    N = n1 * n2
    h, k = grid.h1, grid.h2
    rows, cols, vals = [], [], []

    def put(a, b, v):
        rows.append(a)
        cols.append(b)
        vals.append(v)

    def kx(i, j):
        return (i % n1) * n2 + j

    def ky(i, j):
        return N + (i % n1) * n2 + j

    walls = grid.has_boundary()
    jlo, jhi = (1, n2 - 1) if walls else (0, n2)
    for i in range(n1):
        for j in range(jlo, jhi):
            jp = (j + 1) % n2
            jm = (j - 1) % n2
            for kk in (kx, ky):
                a = kk(i, j)
                put(a, kk(i + 1, j), 1.0 / h**2)
                put(a, kk(i - 1, j), 1.0 / h**2)
                put(a, (kk(i, jp)), 1.0 / k**2)
                put(a, (kk(i, jm)), 1.0 / k**2)
                put(a, a, -2.0 / h**2 - 2.0 / k**2)

    aterm_coef = []
    normal_dofs = aterm_idx = np.array([], dtype=int)
    if walls:
        # u_x rows at the walls: vorticity BC omega = -du_x/dy = a via ghost
        for j, j_in, sgn in ((0, 1, +1.0), (n2 - 1, n2 - 2, -1.0)):
            for i in range(n1):
                a = kx(i, j)
                put(a, kx(i + 1, j), 1.0 / h**2)
                put(a, kx(i - 1, j), 1.0 / h**2)
                put(a, kx(i, j_in), 2.0 / k**2)
                put(a, a, -2.0 / h**2 - 2.0 / k**2)
                aterm_coef.append(sgn * 2.0 / k)
        nodes = boundary_frame(grid).nodes
        normal_dofs, aterm_idx = N + nodes, nodes

    L = sparse.csr_matrix((vals, (rows, cols)), shape=(2 * N, 2 * N))
    return L, normal_dofs, aterm_idx, np.array(aterm_coef)


class VelocityStepper:
    """Cached implicit solver for one grid and one (mu, dt, theta) setting.

    theta = 1 is backward Euler; theta = 0.5 is Crank-Nicolson, with the
    boundary data evaluated at the new time level on both halves (an O(dt)
    bias only when the data is time dependent).  Instances are reused across
    time steps and Picard iterations; the factorization is computed once.
    """

    def __init__(self, grid: Grid, mu: float, dt: float, theta: float = 1.0):
        self.grid = grid
        self.mu = float(mu)
        self.dt = float(dt)
        self.theta = float(theta)
        self.frame = boundary_frame(grid) if grid.has_boundary() else None

        key = ("vel_op", grid.polar)
        op = grid._cache.get(key)
        if op is None:
            op = _polar_operator(grid) if grid.polar else _cartesian_operator(grid)
            grid._cache[key] = op
        self.L, self.normal_dofs, self.aterm_idx, self.aterm_coef = op

        mkey = ("vel_lu", self.mu * self.dt, self.theta)
        cached = grid._cache.get(mkey)
        if cached is None:
            N2 = self.L.shape[0]
            M = (sparse.identity(N2, format="csr")
                 - (self.theta * self.mu * self.dt) * self.L).tolil()
            for d in self.normal_dofs:
                M.rows[d] = [int(d)]
                M.data[d] = [1.0]
            try:
                cached = splu(M.tocsc())
            except RuntimeError as exc:
                raise BCEnforcementFailed(f"implicit boundary system singular: {exc}")
            grid._cache[mkey] = cached
        self.lu = cached

    def step(self, u: VectorField, forcing: VectorField | None, a) -> VectorField:
        """Advance one step: (I - theta mu dt Lap) u_new = u + dt*forcing (+ CN
        explicit part), with boundary data a at the new time level."""
        g = self.grid
        c1, c2 = to_native(g, u)
        z = np.concatenate([c1.ravel(), c2.ravel()])
        rhs = z.copy()
        if forcing is not None:
            f1, f2 = to_native(g, forcing)
            rhs += self.dt * np.concatenate([f1.ravel(), f2.ravel()])
        contrib = None
        if self.frame is not None and a is not None:
            # per-component data in frame order, matching aterm_idx
            contrib = np.zeros_like(rhs)
            contrib[self.aterm_idx] = self.aterm_coef * np.concatenate(a)
        if self.theta != 1.0:
            expl = (1.0 - self.theta) * self.mu * self.dt
            rhs += expl * (self.L @ z)
            if contrib is not None:
                rhs += expl * contrib
        if contrib is not None:
            rhs += (self.theta * self.mu * self.dt) * contrib
        if len(self.normal_dofs):
            rhs[self.normal_dofs] = 0.0
        out = self.lu.solve(rhs)
        if not np.all(np.isfinite(out)):
            raise LinearSolveFailed("implicit velocity solve produced non-finite values")
        n = g.nnodes
        return from_native(g, out[:n].reshape(g.shape), out[n:].reshape(g.shape))
