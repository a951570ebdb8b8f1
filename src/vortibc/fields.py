"""Discrete fields and vector calculus on structured grids.

Vector fields store Cartesian components everywhere, including on polar
grids; differential operators apply the polar chain rule internally.
Stencils are second-order centered in the interior and second-order
one-sided at non-periodic ends.  Field operations are pure; a
FieldHistory holds its snapshots in one array that producers fill row by row.
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import MemoryBudgetExceeded, MissingTimeDerivative
from .geometry import BoundaryFrame, Grid, project


@dataclass
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(f"shape {self.values.shape} != grid {self.grid.shape}")

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def from_function(cls, grid, fn):
        return cls(grid, np.asarray(fn(grid.x, grid.y), dtype=float) * np.ones(grid.shape))

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

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape), np.zeros(grid.shape))

    @classmethod
    def from_function(cls, grid, fn):
        ux, uy = fn(grid.x, grid.y)
        one = np.ones(grid.shape)
        return cls(grid, np.asarray(ux, dtype=float) * one,
                   np.asarray(uy, dtype=float) * one)

    def max_abs(self) -> float:
        return float(np.max(np.hypot(self.ux, self.uy)))

    def __add__(self, other):
        return VectorField(self.grid, self.ux + other.ux, self.uy + other.uy)

    def __sub__(self, other):
        return VectorField(self.grid, self.ux - other.ux, self.uy - other.uy)

    def __mul__(self, c):
        return VectorField(self.grid, self.ux * c, self.uy * c)

    __rmul__ = __mul__


class Workspace:
    """A stack of scratch blocks in one buffer, which a loop allocates once
    and lends to the kernels it calls, so that their block temporaries are
    not mapped and faulted in again on every call.

    block() carves the next block off the top of the stack.  Inside a
    `with work.frame():` the blocks carved there give their room back when
    the frame ends, so a block lives until the innermost frame around its
    carving ends: a kernel leaves its result in a block that its caller
    carved, or the caller consumes it before the caller's frame ends.  When
    a block does not fit, the buffer is replaced by one at least twice its
    size; the blocks carved before stay valid in the old one, and after the
    first pass of a loop every block fits.  Only the deepest stack's pages
    are ever touched.
    """

    _ALIGN = 8          # doubles: blocks start on 64-byte boundaries

    def __init__(self):
        self._buffer = np.empty(0)
        self._top = 0
        # (start, shape, dtype) -> (block, end): a loop carves the same
        # blocks at the same places on every pass
        self._blocks = {}

    def block(self, shape: tuple, dtype=float) -> np.ndarray:
        """An uninitialized C-contiguous array carved off the stack."""
        start = -(-self._top // self._ALIGN) * self._ALIGN
        key = (start, shape, dtype)
        if key not in self._blocks:
            end = start + -(-math.prod(shape) * np.dtype(dtype).itemsize // 8)
            if end > self._buffer.size:
                # malloc aligns to 16 bytes only: start the buffer further in
                raw = np.empty(max(end, 2 * self._buffer.size) + self._ALIGN)
                self._buffer = raw[-raw.ctypes.data % 64 // 8:]
                self._blocks.clear()
            self._blocks[key] = np.ndarray(shape, dtype, self._buffer, 8 * start), end
        block, self._top = self._blocks[key]
        return block

    def frame(self) -> "_Frame":
        return _Frame(self)


class _Frame:
    """A Workspace frame: the stack's top on entry, restored on exit."""

    __slots__ = ("work", "top")

    def __init__(self, work: Workspace):
        self.work = work

    def __enter__(self):
        self.top = self.work._top
        return self.work

    def __exit__(self, *exc):
        self.work._top = self.top


def _scratch(work, shape, dtype=float):
    """A block of the workspace, or a fresh array without one."""
    return np.empty(shape, dtype) if work is None else work.block(shape, dtype)


def _frame(work):
    """work's frame, or no frame without a workspace."""
    return nullcontext() if work is None else work.frame()


def max_speed(u, work: Workspace | None = None):
    """max |u| over the grid for each (2, n1, n2) row of a (..., 2, n1, n2)
    block, as the root of max |u|^2: within an ulp of the max of np.hypot,
    which costs about 12x more.  work lends the squares their blocks."""
    shape = u.shape[:-3] + u.shape[-2:]
    with _frame(work):
        sq = np.square(u[..., 0, :, :], out=_scratch(work, shape))
        sq += np.square(u[..., 1, :, :], out=_scratch(work, shape))
        return np.sqrt(np.max(sq, axis=(-2, -1)))


def require_finite(exc, what: str, *arrays):
    """Raise exc unless every array is finite: the check the solvers make
    on their input data and results."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise exc(f"{what}: non-finite values")


# ---------------------------------------------------------------------------
# core difference stencils

def _last(a, axis):
    """View of an (..., n1, n2) array with grid axis `axis` last."""
    return a if axis == 1 else a.swapaxes(-1, -2)


def _flat(values, axis, out=None):
    """(v, out, s): values as a C-contiguous array, the result array (out,
    or an empty one of v's shape) and the stride s of grid axis `axis` in
    the flattened array (1 for axis 1, n2 for axis 0)."""
    v = np.ascontiguousarray(values)
    return v, np.empty_like(v) if out is None else out, 1 if axis == 1 else v.shape[-1]


def _d1(values, axis, h, periodic, out=None):
    """First derivative: centered interior, one-sided ends whose leading
    truncation (-h^2/6 f''') matches the centered stencil; periodic ends wrap.

    A smooth truncation field across the end nodes keeps composed operators
    (Hessians, grad of div) second-order accurate up to the boundary; plain
    higher-order ends leave an O(h^2) kink there that a second pass would
    differentiate into O(h).

    Stencil form: the interior is one difference of the flattened array at
    the axis stride, written straight into the result.  It also runs across
    the seams between grid lines and between leading batch slices; the two
    end nodes of every line are then overwritten by their own formulas.
    Input may be 1-D, carry leading batch axes or be a non-contiguous view
    (copied once).  out, a C-contiguous array of the input's shape that
    does not overlap it, receives the result.
    """
    v, out, s = _flat(values, axis, out)
    flat, inner, d = v.reshape(-1), out.reshape(-1)[s:-s], 2.0 * h
    np.divide(np.subtract(flat[2 * s:], flat[:-2 * s], out=inner), d, out=inner)
    v, o = _last(v, axis), _last(out, axis)
    if periodic:
        o[..., 0] = (v[..., 1] - v[..., -1]) / d
        o[..., -1] = (v[..., 0] - v[..., -2]) / d
    else:
        o[..., 0] = (-4.0 * v[..., 0] + 7.0 * v[..., 1] - 4.0 * v[..., 2] + v[..., 3]) / d
        o[..., -1] = (4.0 * v[..., -1] - 7.0 * v[..., -2] + 4.0 * v[..., -3] - v[..., -4]) / d
    return out


def _d2(values, axis, h, periodic):
    """Second derivative: centered interior, one-sided ends whose leading
    truncation (+h^2/12 f'''') matches the centered stencil; periodic ends
    wrap.  Same stencil form as _d1."""
    v, out, s = _flat(values, axis)
    flat, inner, hh = v.reshape(-1), out.reshape(-1)[s:-s], h**2
    np.subtract(flat[2 * s:], np.multiply(flat[s:-s], 2.0, out=inner), out=inner)
    np.divide(np.add(inner, flat[:-2 * s], out=inner), hh, out=inner)
    v, o = _last(v, axis), _last(out, axis)
    if periodic:
        o[..., 0] = (v[..., 1] - 2.0 * v[..., 0] + v[..., -1]) / hh
        o[..., -1] = (v[..., 0] - 2.0 * v[..., -1] + v[..., -2]) / hh
    else:
        for e, k in ((0, 1), (-1, -1)):   # end node, step inward
            o[..., e] = (3.0 * v[..., e] - 9.0 * v[..., e + k] + 10.0 * v[..., e + 2 * k]
                         - 5.0 * v[..., e + 3 * k] + v[..., e + 4 * k]) / hh
    return out


def _block(field):
    """The components of a field as one (c, n1, n2) array."""
    if isinstance(field, ScalarField):
        return field.values[np.newaxis]
    return np.stack((field.ux, field.uy))


def _dx_dy(grid, values, out=None):
    """Cartesian partials of nodal values on any grid family, written into
    the pair of arrays out (as for _d1) when given."""
    dx, dy = (None, None) if out is None else out
    if not grid.polar:
        return (_d1(values, 0, grid.h1, grid.periodic1, dx),
                _d1(values, 1, grid.h2, grid.periodic2, dy))
    # ct d1 - st dthet and st d1 + ct dthet: d1 goes where dy ends up and
    # dthet where dx does, each overwritten once it is no longer read
    d1 = _d1(values, 0, grid.h1, grid.periodic1, dy)
    dthet = _d1(values, 1, grid.h2, grid.periodic2, dx)
    ct, st = grid.cos_theta, grid.sin_theta
    np.divide(dthet, grid.r, out=dthet)
    st_dthet, ct_dthet = st * dthet, ct * dthet
    dx = np.multiply(ct, d1, out=dthet)
    dx -= st_dthet
    dy = np.multiply(st, d1, out=d1)
    dy += ct_dthet
    return dx, dy


def _partial(grid, values, axis, work: Workspace | None = None, out=None):
    """The one Cartesian partial d/dx (axis 0) or d/dy (axis 1): a single
    _d1 on a Cartesian grid, the chain rule through _dx_dy on a polar one.
    out receives it when given, else with work a block carved from it; work
    also lends a contiguous copy of values (and on a polar grid both
    partials) their blocks."""
    if work is not None:
        copy = work.block(values.shape)
        np.copyto(copy, values)
        values = copy
        if out is None:
            out = work.block(values.shape)
    if grid.polar:
        d = _dx_dy(grid, values, _pair(work, values.shape))[axis]
        if out is None:
            return d
        np.copyto(out, d)
        return out
    if axis == 0:
        return _d1(values, 0, grid.h1, grid.periodic1, out)
    return _d1(values, 1, grid.h2, grid.periodic2, out)


def _pair(work, shape):
    """Two blocks of the workspace, as the out of _dx_dy; None without one."""
    return None if work is None else (work.block(shape), work.block(shape))


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


def _div(grid, ux, uy, work: Workspace | None = None, out=None):
    """Divergence values from the two component arrays, which may carry
    leading batch axes.  out receives them when given, as it must be with
    work, which lends the temporaries blocks that it hands back."""
    with _frame(work):
        d = _partial(grid, ux, 0, work, out)
    with _frame(work):
        d += _partial(grid, uy, 1, work)
    return d


def _curl(grid, ux, uy):
    """Scalar curl values from the two component arrays, which may carry
    leading batch axes."""
    return _partial(grid, uy, 0) - _partial(grid, ux, 1)


def div(u: VectorField) -> ScalarField:
    return ScalarField(u.grid, _div(u.grid, u.ux, u.uy))


def curl2d(u: VectorField) -> ScalarField:
    return ScalarField(u.grid, _curl(u.grid, u.ux, u.uy))


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


def _advect(grid, x, y, out=None):
    """(x . grad) y componentwise for (..., 2, n1, n2) blocks; out is a pair
    of scratch blocks of y's shape (as for _dx_dy), the first of which
    receives the result."""
    dx, dy = _dx_dy(grid, y, out)
    # in place on the fresh partials: x_x * dx + x_y * dy, in that order
    dx *= x[..., 0:1, :, :]
    dy *= x[..., 1:2, :, :]
    dx += dy
    return dx


def advect(X: VectorField, Y: VectorField) -> VectorField:
    """(X . grad) Y componentwise."""
    return VectorField(X.grid, *_advect(X.grid, _block(X), _block(Y)))


# ---------------------------------------------------------------------------
# boundary traces

def boundary_rows(u, frame: BoundaryFrame) -> list[np.ndarray]:
    """Per boundary component, the (..., m, 2) values of a (..., 2, n1, n2)
    block at its nodes."""
    flat = u.reshape(*u.shape[:-2], -1)
    return [np.take(flat, c.nodes, axis=-1).swapaxes(-1, -2) for c in frame]


def boundary_vector_values(u: VectorField, frame: BoundaryFrame) -> list[np.ndarray]:
    """Per-component (m, 2) Cartesian values of u at boundary nodes."""
    return boundary_rows(_block(u), frame)


def boundary_scalar_values(f: ScalarField, frame: BoundaryFrame) -> list[np.ndarray]:
    return [np.take(f.values, comp.nodes) for comp in frame]


def normal_component(u: VectorField, frame: BoundaryFrame) -> list[np.ndarray]:
    """u_perp = <u, nu> at boundary nodes, per component."""
    return project(frame, boundary_vector_values(u, frame), "nu")


def max_normal_trace(u: VectorField, frame: BoundaryFrame | None) -> float:
    """max |u_perp| over the boundary nodes; 0 without a boundary."""
    if frame is None:
        return 0.0
    return max(float(np.max(np.abs(v))) for v in normal_component(u, frame))


def max_vorticity_defect(u: VectorField, frame: BoundaryFrame | None, a) -> float:
    """max |curl(u) - a| over the boundary nodes, with a per component;
    a = None reads as zero data.  0 without a boundary."""
    if frame is None:
        return 0.0
    return max_trace_defect(curl2d(u), frame, a)


def max_trace_defect(f: ScalarField, frame: BoundaryFrame, a) -> float:
    """max |f - a| over the boundary nodes, with a per component; a = None
    reads as zero data."""
    defect = boundary_scalar_values(f, frame)
    if a is not None:
        defect = [ob - av for ob, av in zip(defect, a)]
    return max(float(np.max(np.abs(d))) for d in defect)


def tangential_part(u: VectorField, frame: BoundaryFrame) -> list[np.ndarray]:
    """u_par = <u, tau> at boundary nodes (2D reduction), per component."""
    return project(frame, boundary_vector_values(u, frame), "tau")


def surface_curl(a, frame: BoundaryFrame) -> list[np.ndarray]:
    """Arc-length derivative da/ds along each closed component.

    Periodic central differences oriented by tau; the closed-loop integral
    of the result vanishes to machine precision by exact telescoping.
    """
    return [comp.orientation * _d1(np.asarray(vals, dtype=float), 1, comp.spacing, True)
            for comp, vals in zip(frame, a)]


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

# history rows per N-norm or divergence evaluation.  On a 64^2 grid each
# temporary of a 4-row chunk is 256 KB and stays in cache; 8 or 16 rows were
# no faster and raised the peak RSS of a Picard run by 2-5 MB.
_NORM_ROWS = 4


def _squared_integrals(grid, a, lo: int, hi: int, partials=None,
                       work: Workspace | None = None) -> list:
    """For each derivative order m = lo..hi (at most 2) of a (..., c, n1, n2)
    block: the integrals of the squares of its partial derivatives of that
    order, one (..., c) array each, in the order x, y (xx, xy, yx, yy);
    orders below lo are None.  partials = _dx_dy(grid, a) when the caller
    has them; work lends the squares and partials their blocks."""
    with _frame(work):
        sq = None if work is None else work.block(a.shape)
        second = _pair(work, a.shape)

        def integral(d):
            sq_d = np.square(d, out=sq)
            return np.sum(np.multiply(sq_d, grid.weights, out=sq_d), axis=(-2, -1))

        orders = [[integral(a)] if lo == 0 else None]
        if hi >= 1:
            first = _dx_dy(grid, a, _pair(work, a.shape)) if partials is None else partials
            orders.append([integral(d) for d in first] if lo <= 1 else None)
        if hi == 2:
            orders.append([integral(s) for d in first for s in _dx_dy(grid, d, second)])
        return orders


def _sobolev_sum(orders, lo: int, hi: int):
    """The squared Sobolev norm of orders lo..hi from _squared_integrals
    (which reached hi or beyond), for each leading index.  Per component in
    turn, orders 0 and 1 add as one term and order 2 as another; another
    grouping would move the last bits of every norm the diagnostics CSVs
    print."""
    terms = []
    if lo <= 1:
        terms.append(sum(x for order in orders[lo:min(hi, 1) + 1] for x in order))
    if hi == 2:
        terms.append(sum(orders[2]))
    total = 0.0
    for c in range(terms[0].shape[-1]):
        for t in terms:
            total = total + t[..., c]
    return total


def _sobolev_sq(grid, a, lo: int, hi: int, work: Workspace | None = None):
    """For each leading index of a (..., c, n1, n2) block: the sum over its
    c components of the integrals of the squared partial derivatives of
    orders lo..hi (at most 2), grouped as _sobolev_sum groups them."""
    return _sobolev_sum(_squared_integrals(grid, a, lo, hi, work=work), lo, hi)


def _norm(field, lo: int, hi: int) -> float:
    return float(np.sqrt(_sobolev_sq(field.grid, _block(field), lo, hi)))


def l2(field) -> float:
    return _norm(field, 0, 0)


def h1(field) -> float:
    return _norm(field, 0, 1)


def h2(field) -> float:
    return _norm(field, 0, 2)


def hessian_seminorm(field) -> float:
    """sqrt of the integral of |second derivatives|^2 (all components)."""
    return _norm(field, 2, 2)


def grad_l2(field) -> float:
    """L2 norm of the full gradient/Jacobian of a field."""
    return _norm(field, 1, 1)


def _norm_sq(grid, a, lo: int, hi: int, work: Workspace | None = None):
    """The squared Sobolev norm of orders lo..hi per leading index of a
    (..., c, n1, n2) block, bit for bit the norm's ** 2: rooted, then
    squared by libm pow, as a Python float's ** 2 is; an array's ** 2
    multiplies instead, which moves the last bit of about one value in
    1250."""
    return np.float_power(np.sqrt(_sobolev_sq(grid, a, lo, hi, work)), 2)


def _n_norm_sq(grid, v, v_t, work: Workspace | None = None):
    """||v||_H2^2 + ||v_t||_H1^2 per leading index of (..., 2, n1, n2)
    blocks."""
    return _norm_sq(grid, v, 0, 2, work) + _norm_sq(grid, v_t, 0, 1, work)


def n_norm(v: VectorField, v_t) -> float:
    """sqrt(||v||_H2^2 + ||v_t||_H1^2); v_t = None raises."""
    if v_t is None:
        raise MissingTimeDerivative("n_norm requires the time derivative v_t")
    return float(np.sqrt(_n_norm_sq(v.grid, _block(v), _block(v_t))))


def history_n_norm_sq(hist, hist_t) -> np.ndarray:
    """The squared N-norm of every row of a vector history, given its time
    derivative, evaluated _NORM_ROWS rows at a time."""
    out = np.empty(len(hist))
    for i in range(0, len(hist), _NORM_ROWS):
        rows = slice(i, i + _NORM_ROWS)
        out[rows] = _n_norm_sq(hist.grid, hist.data[rows], hist_t.data[rows])
    return out


def history_div(hist) -> "FieldHistory":
    """The divergence of every row of a vector history, evaluated
    _NORM_ROWS rows at a time."""
    out = np.empty((len(hist), *hist.grid.shape))
    for i in range(0, len(hist), _NORM_ROWS):
        rows = hist.data[i:i + _NORM_ROWS]
        out[i:i + _NORM_ROWS] = _div(hist.grid, rows[:, 0], rows[:, 1])
    return FieldHistory(hist.grid, hist.dt, out)


# ---------------------------------------------------------------------------
# time series

def step_count(T: float, dt: float) -> int:
    """Number of steps of size dt to T; dt must not exceed T."""
    if dt > T:
        raise ValueError("dt must not exceed T")
    return int(round(T / dt))


class Chunk(NamedTuple):
    """Snapshots i..j-1 of an n-snapshot history, and the window lo..hi-1
    of snapshots that their time derivative reads."""

    i: int
    j: int
    lo: int
    hi: int
    n: int

    def own(self, window):
        """Rows i..j-1 of an array that holds the window's rows."""
        return window[self.i - self.lo:self.j - self.lo]


def history_chunks(n: int, rows: int):
    """The chunks of `rows` snapshots that cover an n-snapshot history, in
    order.  A window reaches one snapshot past its chunk on each side, and
    two at either end of the history, where the difference is one-sided."""
    if n < 2:
        raise MissingTimeDerivative("need >= 2 snapshots for a time derivative")
    for i in range(0, n, rows):
        j = min(i + rows, n)
        lo, hi = max(i - 1, 0), min(j + 1, n)
        if i == 0:
            hi = max(hi, min(3, n))
        if j == n:
            lo = min(lo, max(n - 3, 0))
        yield Chunk(i, j, lo, hi, n)


def time_derivative_rows(s, chunk: Chunk, dt: float, out=None):
    """The time derivative on a chunk's rows, from the array s of its
    window's rows: centered differences in the interior, one-sided at the
    ends of the history; with 2 snapshots, their one difference.  Each row
    is computed as from the whole history, bit for bit.  out receives the
    (j - i, ...) result when given."""
    i, j, lo, _, n = chunk
    if out is None:
        out = np.empty((j - i, *s.shape[1:]))
    if n == 2:
        out[:] = (s[1] - s[0]) * (1.0 / dt)
        return out
    c = 1.0 / (2.0 * dt)
    a, b = max(i, 1), min(j, n - 1)          # the chunk's interior snapshots
    if a < b:
        inner = out[a - i:b - i]
        np.multiply(np.subtract(s[a + 1 - lo:b + 1 - lo], s[a - 1 - lo:b - 1 - lo], out=inner),
                    c, out=inner)
    # the window starts at the first snapshot or ends at the last one here
    if i == 0:
        out[0] = (s[0] * (-3.0) + s[1] * 4.0 - s[2]) * c
    if j == n:
        out[-1] = (s[-1] * 3.0 - s[-2] * 4.0 + s[-3]) * c
    return out


def rolling(fn, chunks):
    """For each chunk in turn, the rows of its window of a derived history,
    fn(lo, hi) being its rows lo..hi-1: windows of consecutive chunks
    overlap, and each row is computed once and carried over."""
    start, block = 0, None
    for chunk in chunks:
        if block is None:
            block = fn(chunk.lo, chunk.hi)
        else:
            end = start + len(block)
            kept = block[chunk.lo - start:]
            block = kept if end >= chunk.hi else np.concatenate((kept, fn(end, chunk.hi)))
        start = chunk.lo
        yield block


def cumulative_trapezoid(y, dt: float) -> np.ndarray:
    """The trapezoid integrals of the samples y, spaced dt, from the first
    sample to each: 0 at the first."""
    out = np.zeros(len(y))
    out[1:] = np.cumsum(0.5 * dt * (y[1:] + y[:-1]))
    return out


def physical_memory_bytes() -> int:
    """The machine's physical memory, the budget of the histories a run holds."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def check_history_budget(shape, count: float = 1) -> None:
    """Raise MemoryBudgetExceeded, before anything is allocated, when count
    histories of the given array shape would not fit in physical memory."""
    nbytes = count * 8 * math.prod(shape)
    budget = physical_memory_bytes()
    if nbytes > budget:
        raise MemoryBudgetExceeded(
            f"{count} history(s) of {shape[0]} snapshots need {nbytes / 2**30:.4g} GiB, "
            f"more than the {budget / 2**30:.4g} GiB of physical memory")


class FieldHistory:
    """Uniformly spaced snapshots from t = 0, stored as one array: shape
    (nt, 2, n1, n2) for a vector history, (nt, n1, n2) for a scalar one.

    Indexing and iteration (through __getitem__) give VectorField /
    ScalarField views of a row; assigning a field to hist[k] writes that row.
    """

    def __init__(self, grid: Grid, dt: float, data):
        if dt <= 0:
            raise ValueError("dt must be positive")
        data = np.asarray(data, dtype=float)
        if data.shape[1:] not in (grid.shape, (2, *grid.shape)):
            raise ValueError(f"history shape {data.shape} does not fit grid {grid.shape}")
        self.grid = grid
        self.dt = float(dt)
        self.data = data

    @classmethod
    def zeros(cls, grid: Grid, dt: float, nt: int, scalar: bool = False):
        """An nt-snapshot history of zeros.  Raises MemoryBudgetExceeded,
        before allocating, when it would not fit in physical memory."""
        shape = (nt, *(() if scalar else (2,)), *grid.shape)
        check_history_budget(shape)
        return cls(grid, dt, np.zeros(shape))

    def __len__(self):
        return len(self.data)

    def __getitem__(self, k):
        row = self.data[k]
        if self.data.ndim == 3:
            return ScalarField(self.grid, row)
        return VectorField(self.grid, row[0], row[1])

    def __setitem__(self, k, field):
        row = self.data[k]
        if self.data.ndim == 3:
            row[...] = field.values
        else:
            row[0], row[1] = field.ux, field.uy

    def __add__(self, other):
        return FieldHistory(self.grid, self.dt, self.data + other.data)

    def __sub__(self, other):
        return FieldHistory(self.grid, self.dt, self.data - other.data)

    @property
    def times(self):
        return self.dt * np.arange(len(self))

    def time_derivative(self) -> "FieldHistory":
        """Centered differences in the interior, one-sided at the endpoints."""
        whole, = history_chunks(len(self), len(self))
        return FieldHistory(self.grid, self.dt, time_derivative_rows(self.data, whole, self.dt))
