"""Discrete fields and vector calculus on structured grids.

Vector fields store Cartesian components everywhere, including on polar
grids; differential operators apply the polar chain rule internally.
Stencils are second-order centered in the interior and second-order
one-sided at non-periodic ends.  All operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingTimeDerivative
from .geometry import BoundaryFrame, Grid

__all__ = [
    "ScalarField", "VectorField", "FieldHistory",
    "grad", "div", "curl2d", "curl_scalar", "laplacian", "advect",
    "normal_component", "tangential_part", "boundary_vector_values",
    "surface_curl", "normal_derivative",
    "l2", "h1", "h2", "n_norm",
]


@dataclass
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(f"shape {self.values.shape} != grid {self.grid.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite values in ScalarField")

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def from_function(cls, grid, fn):
        return cls(grid, np.asarray(fn(grid.x, grid.y), dtype=float) * np.ones(grid.shape))

    def copy(self):
        return ScalarField(self.grid, self.values.copy())

    def __add__(self, other):
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other):
        return ScalarField(self.grid, self.values - other.values)

    def __mul__(self, c):
        return ScalarField(self.grid, self.values * c)

    __rmul__ = __mul__


@dataclass
class VectorField:
    grid: Grid
    ux: np.ndarray
    uy: np.ndarray

    def __post_init__(self):
        self.ux = np.asarray(self.ux, dtype=float)
        self.uy = np.asarray(self.uy, dtype=float)
        for comp in (self.ux, self.uy):
            if comp.shape != self.grid.shape:
                raise ValueError(f"shape {comp.shape} != grid {self.grid.shape}")
            if not np.all(np.isfinite(comp)):
                raise ValueError("non-finite values in VectorField")

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape), np.zeros(grid.shape))

    @classmethod
    def from_function(cls, grid, fn):
        ux, uy = fn(grid.x, grid.y)
        one = np.ones(grid.shape)
        return cls(grid, np.asarray(ux, dtype=float) * one,
                   np.asarray(uy, dtype=float) * one)

    def copy(self):
        return VectorField(self.grid, self.ux.copy(), self.uy.copy())

    def max_abs(self) -> float:
        return float(np.max(np.hypot(self.ux, self.uy)))

    def __add__(self, other):
        return VectorField(self.grid, self.ux + other.ux, self.uy + other.uy)

    def __sub__(self, other):
        return VectorField(self.grid, self.ux - other.ux, self.uy - other.uy)

    def __mul__(self, c):
        return VectorField(self.grid, self.ux * c, self.uy * c)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# core difference stencils

def _d1(values, axis, h, periodic):
    """First derivative: centered interior, one-sided ends whose leading
    truncation (-h^2/6 f''') matches the centered stencil.

    A smooth truncation field across the end nodes keeps composed operators
    (Hessians, grad of div) second-order accurate up to the boundary; plain
    higher-order ends leave an O(h^2) kink there that a second pass would
    differentiate into O(h).
    """
    if periodic:
        return (np.roll(values, -1, axis) - np.roll(values, 1, axis)) / (2.0 * h)
    out = np.empty_like(values)
    v = np.moveaxis(values, axis, 0)
    o = np.moveaxis(out, axis, 0)
    o[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    o[0] = (-4.0 * v[0] + 7.0 * v[1] - 4.0 * v[2] + v[3]) / (2.0 * h)
    o[-1] = (4.0 * v[-1] - 7.0 * v[-2] + 4.0 * v[-3] - v[-4]) / (2.0 * h)
    return out


def _d2(values, axis, h, periodic):
    """Second derivative: centered interior, one-sided ends whose leading
    truncation (+h^2/12 f'''') matches the centered stencil."""
    if periodic:
        return (np.roll(values, -1, axis) - 2.0 * values + np.roll(values, 1, axis)) / h**2
    out = np.empty_like(values)
    v = np.moveaxis(values, axis, 0)
    o = np.moveaxis(out, axis, 0)
    o[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    o[0] = (3.0 * v[0] - 9.0 * v[1] + 10.0 * v[2] - 5.0 * v[3] + v[4]) / h**2
    o[-1] = (3.0 * v[-1] - 9.0 * v[-2] + 10.0 * v[-3] - 5.0 * v[-4] + v[-5]) / h**2
    return out


def _dx_dy(grid, values):
    """Cartesian partials of nodal values on any grid family."""
    d1 = _d1(values, 0, grid.h1, grid.periodic1)
    d2 = _d1(values, 1, grid.h2, grid.periodic2)
    if grid.polar:
        ct, st = grid.cos_theta, grid.sin_theta
        dthet = d2 / grid.r
        return ct * d1 - st * dthet, st * d1 + ct * dthet
    return d1, d2


def _laplacian_values(grid, values):
    """Scalar Laplacian with the polar metric terms where applicable."""
    if grid.polar:
        rr = _d2(values, 0, grid.h1, False)
        dr = _d1(values, 0, grid.h1, False)
        tt = _d2(values, 1, grid.h2, True)
        return rr + dr / grid.r + tt / grid.r**2
    return (_d2(values, 0, grid.h1, grid.periodic1)
            + _d2(values, 1, grid.h2, grid.periodic2))


# ---------------------------------------------------------------------------
# vector calculus operators

def grad(f: ScalarField) -> VectorField:
    gx, gy = _dx_dy(f.grid, f.values)
    return VectorField(f.grid, gx, gy)


def div(u: VectorField) -> ScalarField:
    dxux, _ = _dx_dy(u.grid, u.ux)
    _, dyuy = _dx_dy(u.grid, u.uy)
    return ScalarField(u.grid, dxux + dyuy)


def curl2d(u: VectorField) -> ScalarField:
    dxuy, _ = _dx_dy(u.grid, u.uy)
    _, dyux = _dx_dy(u.grid, u.ux)
    return ScalarField(u.grid, dxuy - dyux)


def curl_scalar(w: ScalarField) -> VectorField:
    """Rotated gradient of a scalar: curl(w e_z) = (dw/dy, -dw/dx)."""
    gx, gy = _dx_dy(w.grid, w.values)
    return VectorField(w.grid, gy, -gx)


def laplacian(field):
    if isinstance(field, ScalarField):
        return ScalarField(field.grid, _laplacian_values(field.grid, field.values))
    return VectorField(field.grid,
                       _laplacian_values(field.grid, field.ux),
                       _laplacian_values(field.grid, field.uy))


def advect(X: VectorField, Y: VectorField) -> VectorField:
    """(X . grad) Y componentwise."""
    g = X.grid
    dxYx, dyYx = _dx_dy(g, Y.ux)
    dxYy, dyYy = _dx_dy(g, Y.uy)
    return VectorField(g, X.ux * dxYx + X.uy * dyYx,
                       X.ux * dxYy + X.uy * dyYy)


# ---------------------------------------------------------------------------
# boundary traces

def boundary_vector_values(u: VectorField, frame: BoundaryFrame) -> list[np.ndarray]:
    """Per-component (m, 2) Cartesian values of u at boundary nodes."""
    return [np.stack([np.take(u.ux, comp.nodes), np.take(u.uy, comp.nodes)], axis=1)
            for comp in frame]


def boundary_scalar_values(f: ScalarField, frame: BoundaryFrame) -> list[np.ndarray]:
    return [np.take(f.values, comp.nodes) for comp in frame]


def normal_component(u: VectorField, frame: BoundaryFrame) -> list[np.ndarray]:
    """u_perp = <u, nu> at boundary nodes, per component."""
    out = []
    for comp, vals in zip(frame, boundary_vector_values(u, frame)):
        out.append(vals[:, 0] * comp.nu[:, 0] + vals[:, 1] * comp.nu[:, 1])
    return out


def tangential_part(u: VectorField, frame: BoundaryFrame) -> list[np.ndarray]:
    """u_par = <u, tau> at boundary nodes (2D reduction), per component."""
    out = []
    for comp, vals in zip(frame, boundary_vector_values(u, frame)):
        out.append(vals[:, 0] * comp.tau[:, 0] + vals[:, 1] * comp.tau[:, 1])
    return out


def surface_curl(a, frame: BoundaryFrame) -> list[np.ndarray]:
    """Arc-length derivative da/ds along each closed component.

    Periodic central differences oriented by tau; the closed-loop integral
    of the result vanishes to machine precision by exact telescoping.
    """
    out = []
    for comp, vals in zip(frame, a):
        deriv = (np.roll(vals, -1) - np.roll(vals, 1)) / (2.0 * comp.spacing)
        out.append(comp.orientation * deriv)
    return out


def normal_derivative(f: ScalarField, frame: BoundaryFrame) -> list[np.ndarray]:
    """One-sided third-order d f / d nu at boundary nodes: minus the
    derivative along the inward grid line."""
    out = []
    for comp in frame:
        v0, v1, v2, v3 = (np.take(f.values, comp.nodes + k * comp.inward)
                          for k in range(4))
        inward = (-11.0 * v0 + 18.0 * v1 - 9.0 * v2 + 2.0 * v3) / (6.0 * comp.normal_spacing)
        out.append(-inward)
    return out


# ---------------------------------------------------------------------------
# norms

def _component_arrays(field):
    if isinstance(field, ScalarField):
        return (field.values,)
    return (field.ux, field.uy)


def l2(field) -> float:
    g = field.grid
    total = sum(g.integrate(a**2) for a in _component_arrays(field))
    return float(np.sqrt(total))


def h1(field) -> float:
    g = field.grid
    total = 0.0
    for a in _component_arrays(field):
        gx, gy = _dx_dy(g, a)
        total += g.integrate(a**2) + g.integrate(gx**2) + g.integrate(gy**2)
    return float(np.sqrt(total))


def h2(field) -> float:
    g = field.grid
    total = 0.0
    for a in _component_arrays(field):
        gx, gy = _dx_dy(g, a)
        gxx, gxy = _dx_dy(g, gx)
        gyx, gyy = _dx_dy(g, gy)
        total += g.integrate(a**2) + g.integrate(gx**2) + g.integrate(gy**2)
        total += sum(g.integrate(s**2) for s in (gxx, gxy, gyx, gyy))
    return float(np.sqrt(total))


def hessian_seminorm(field) -> float:
    """sqrt of the integral of |second derivatives|^2 (all components)."""
    g = field.grid
    total = 0.0
    for a in _component_arrays(field):
        gx, gy = _dx_dy(g, a)
        gxx, gxy = _dx_dy(g, gx)
        gyx, gyy = _dx_dy(g, gy)
        total += sum(g.integrate(s**2) for s in (gxx, gxy, gyx, gyy))
    return float(np.sqrt(total))


def grad_l2(field) -> float:
    """L2 norm of the full gradient/Jacobian of a field."""
    g = field.grid
    total = 0.0
    for a in _component_arrays(field):
        gx, gy = _dx_dy(g, a)
        total += g.integrate(gx**2) + g.integrate(gy**2)
    return float(np.sqrt(total))


def n_norm(v: VectorField, v_t) -> float:
    """sqrt(||v||_H2^2 + ||v_t||_H1^2); v_t = None raises."""
    if v_t is None:
        raise MissingTimeDerivative("n_norm requires the time derivative v_t")
    return float(np.sqrt(h2(v) ** 2 + h1(v_t) ** 2))


# ---------------------------------------------------------------------------
# time series

class FieldHistory:
    """Uniformly spaced snapshots of a scalar or vector field."""

    def __init__(self, dt: float, snapshots, t0: float = 0.0):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.dt = float(dt)
        self.t0 = float(t0)
        self.snapshots = list(snapshots)

    def __len__(self):
        return len(self.snapshots)

    def __getitem__(self, i):
        return self.snapshots[i]

    def __iter__(self):
        return iter(self.snapshots)

    @property
    def times(self):
        return self.t0 + self.dt * np.arange(len(self.snapshots))

    def append(self, snap):
        self.snapshots.append(snap)

    def time_derivative(self) -> "FieldHistory":
        """Centered differences in the interior, one-sided at the endpoints."""
        n = len(self.snapshots)
        if n < 2:
            raise MissingTimeDerivative("need >= 2 snapshots for a time derivative")
        s = self.snapshots
        dt = self.dt
        if n == 2:
            d = (s[1] - s[0]) * (1.0 / dt)
            return FieldHistory(dt, [d, d.copy()], self.t0)
        out = []
        out.append((s[0] * (-3.0) + s[1] * 4.0 - s[2]) * (1.0 / (2.0 * dt)))
        for k in range(1, n - 1):
            out.append((s[k + 1] - s[k - 1]) * (1.0 / (2.0 * dt)))
        out.append((s[-1] * 3.0 - s[-2] * 4.0 + s[-3]) * (1.0 / (2.0 * dt)))
        return FieldHistory(dt, out, self.t0)
