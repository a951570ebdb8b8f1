"""Curved 2D computational domains: structured grids and analytic boundary frames.

Supported domain families: annulus, disk (annulus with a small artificial
pole hole), periodic channel, and fully periodic torus.  All boundary-frame
quantities (normal, tangent, curvature, arc-length weights) are analytic per
family; nothing is estimated numerically from the grid.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidSpec, ResolutionTooLow


class DomainKind(str, Enum):
    ANNULUS = "annulus"
    DISK = "disk"
    CHANNEL = "channel"
    TORUS = "torus"


@dataclass(frozen=True)
class DomainSpec:
    """Geometric description of a computational domain.

    Annulus uses (r_inner, r_outer); disk uses r_outer; channel and torus
    use (length_x, length_y).  The channel is periodic in x with flat walls
    at y = 0 and y = length_y; the torus is periodic in both directions.
    """

    kind: DomainKind
    r_inner: float = 0.0
    r_outer: float = 0.0
    length_x: float = 0.0
    length_y: float = 0.0

    def __post_init__(self):
        k = self.kind
        if k == DomainKind.ANNULUS:
            if not (0.0 < self.r_inner < self.r_outer):
                raise InvalidSpec(
                    f"annulus requires 0 < r_inner < r_outer, got "
                    f"({self.r_inner}, {self.r_outer})"
                )
        elif k == DomainKind.DISK:
            if not self.r_outer > 0.0:
                raise InvalidSpec(f"disk requires r_outer > 0, got {self.r_outer}")
        elif k in (DomainKind.CHANNEL, DomainKind.TORUS):
            if not (self.length_x > 0.0 and self.length_y > 0.0):
                raise InvalidSpec(
                    f"{k.value} requires positive lengths, got "
                    f"({self.length_x}, {self.length_y})"
                )
        else:  # pragma: no cover
            raise InvalidSpec(f"unknown domain kind {k!r}")

    @property
    def polar(self) -> bool:
        return self.kind in (DomainKind.ANNULUS, DomainKind.DISK)

    def area(self) -> float:
        """Analytic area of the continuous domain (disk includes the pole)."""
        if self.kind == DomainKind.ANNULUS:
            return math.pi * (self.r_outer**2 - self.r_inner**2)
        if self.kind == DomainKind.DISK:
            return math.pi * self.r_outer**2
        return self.length_x * self.length_y


class Grid:
    """Structured grid over a DomainSpec.

    Node layout is deterministic with coordinate 2 fastest: a field array has
    shape (n1, n2) and flattens in C order.  Coordinate 1 is radial for polar
    domains and x for channel/torus; coordinate 2 is angular respectively y.
    Periodic directions wrap with no duplicated seam node.  `w1`/`w2` are
    the 1-D trapezoid weights; `weights` is their product times the polar
    Jacobian r, and polar grids carry `cos_theta`/`sin_theta` at every node.
    The boundary nodes are the two ends of each non-periodic axis;
    `wall_mask` marks them, and the boundary components carry them as flat
    node indices.  No other module derives the boundary-node layout.

    The coordinate arrays are read-only after construction.  Derived objects
    (factorizations, the boundary frame) are built once per key through
    `cached`, which holds a per-key lock, so threads may share a grid.
    """

    def __init__(self, spec: DomainSpec, n1: int, n2: int):
        if n1 < 8 or n2 < 8:
            raise ResolutionTooLow(f"need n1, n2 >= 8, got ({n1}, {n2})")
        self.spec = spec
        self.n1 = int(n1)
        self.n2 = int(n2)

        kind = spec.kind
        if kind in (DomainKind.ANNULUS, DomainKind.DISK):
            if kind == DomainKind.ANNULUS:
                r_in, r_out = spec.r_inner, spec.r_outer
            else:
                # Pole hole of radius exactly 2*h1: r_in = 2 R / (n1 + 1).
                r_out = spec.r_outer
                r_in = 2.0 * r_out / (n1 + 1)
            self.c1 = np.linspace(r_in, r_out, n1)
            self.h1 = (r_out - r_in) / (n1 - 1)
            self.c2 = np.arange(n2) * (2.0 * math.pi / n2)
            self.h2 = 2.0 * math.pi / n2
            self.periodic1 = False
            self.periodic2 = True
            self.r_inner_eff = r_in
            self.r_outer_eff = r_out
        elif kind == DomainKind.CHANNEL:
            self.c1 = np.arange(n1) * (spec.length_x / n1)
            self.h1 = spec.length_x / n1
            self.c2 = np.linspace(0.0, spec.length_y, n2)
            self.h2 = spec.length_y / (n2 - 1)
            self.periodic1 = True
            self.periodic2 = False
        else:  # torus
            self.c1 = np.arange(n1) * (spec.length_x / n1)
            self.h1 = spec.length_x / n1
            self.c2 = np.arange(n2) * (spec.length_y / n2)
            self.h2 = spec.length_y / n2
            self.periodic1 = True
            self.periodic2 = True

        self.polar = spec.polar
        C1 = self.c1[:, None]
        C2 = self.c2[None, :]
        if self.polar:
            self.r = np.broadcast_to(C1, (n1, n2)).copy()
            self.theta = np.broadcast_to(C2, (n1, n2)).copy()
            self.cos_theta = np.cos(self.theta)
            self.sin_theta = np.sin(self.theta)
            self.x = self.r * self.cos_theta
            self.y = self.r * self.sin_theta
        else:
            self.r = self.theta = self.cos_theta = self.sin_theta = None
            self.x = np.broadcast_to(C1, (n1, n2)).copy()
            self.y = np.broadcast_to(C2, (n1, n2)).copy()

        self.w1 = self._axis_weights(self.c1, self.h1, self.periodic1)
        self.w2 = self._axis_weights(self.c2, self.h2, self.periodic2)
        self.weights = self.w1[:, None] * self.w2[None, :]
        if self.polar:
            self.weights = self.weights * self.r

        for a in (self.c1, self.c2, self.w1, self.w2, self.x, self.y, self.weights):
            a.setflags(write=False)
        if self.polar:
            for a in (self.r, self.theta, self.cos_theta, self.sin_theta):
                a.setflags(write=False)
        self.wall_mask = np.zeros(self.shape, dtype=bool)
        for axis, periodic in ((0, self.periodic1), (1, self.periodic2)):
            if not periodic:
                for index in (0, self.shape[axis] - 1):
                    self.wall_mask.flat[_side_nodes(self, axis, index)] = True
        self.wall_mask.setflags(write=False)
        self._cache: dict = {}
        self._locks: dict = {}

    @staticmethod
    def _axis_weights(c, h, periodic):
        n = len(c)
        if periodic:
            return np.full(n, h)
        w = np.full(n, h)
        w[0] = w[-1] = 0.5 * h
        return w

    @property
    def shape(self):
        return (self.n1, self.n2)

    @property
    def nnodes(self):
        return self.n1 * self.n2

    def min_spacing(self) -> float:
        """Smallest physical cell edge (arc length for the angular direction)."""
        if self.polar:
            return min(self.h1, float(self.c1[0]) * self.h2)
        return min(self.h1, self.h2)

    def integrate(self, values: np.ndarray) -> float:
        """Quadrature-weighted volume integral of nodal values."""
        return float(np.sum(self.weights * values))

    def area_quadrature(self) -> float:
        return self.integrate(np.ones(self.shape))

    def has_boundary(self) -> bool:
        return self.spec.kind != DomainKind.TORUS

    def cached(self, key, build):
        """The cache entry for `key`, built by `build()` exactly once even when
        threads ask together.  Builds of other keys may nest inside `build`."""
        if key not in self._cache:
            # setdefault is atomic, so every thread gets the same lock for key
            with self._locks.setdefault(key, threading.Lock()):
                if key not in self._cache:
                    self._cache[key] = build()
        return self._cache[key]


def _side_nodes(grid, axis, index):
    """Flat (C-order) indices of the nodes whose coordinate `axis` sits at
    `index`, ordered by the other coordinate's grid index."""
    flat = np.arange(grid.nnodes).reshape(grid.shape)
    nodes = (flat[index, :] if axis == 0 else flat[:, index]).copy()
    nodes.setflags(write=False)
    return nodes


def build_grid(spec: DomainSpec, n1: int, n2: int) -> Grid:
    """Build a structured grid; raises InvalidSpec / ResolutionTooLow."""
    return Grid(spec, n1, n2)


@dataclass(frozen=True)
class BoundaryComponent:
    """One closed boundary loop with its analytic moving frame.

    Arrays are ordered by the grid index along the free coordinate.
    `orientation` is +1 when that index order follows the positive tangent
    tau and -1 otherwise; `spacing` is the (uniform) arc length between
    consecutive nodes.  `artificial` marks the disk's pole hole.  `nodes`
    holds the flat grid indices of the component's nodes in array order, and
    `nodes + k * inward` those k nodes into the domain; `normal_spacing` is
    the grid step along that inward line.
    """

    name: str
    axis: int
    index: int
    nodes: np.ndarray
    inward: int
    normal_spacing: float
    x: np.ndarray
    y: np.ndarray
    nu: np.ndarray      # (m, 2) outward unit normal
    tau: np.ndarray     # (m, 2) positively oriented unit tangent
    curvature: np.ndarray  # (m,) h = <grad_tau nu, tau>
    ds: np.ndarray      # (m,) arc-length quadrature weight
    spacing: float
    orientation: int
    artificial: bool = False

    @property
    def n_nodes(self) -> int:
        return len(self.curvature)

    def perimeter(self) -> float:
        return float(np.sum(self.ds))


class BoundaryFrame:
    """All boundary components of a grid with their moving frames.  The
    torus has none: its frame is empty (and falsy), so every sum over the
    boundary is a sum over no components."""

    def __init__(self, grid: Grid, components: tuple[BoundaryComponent, ...]):
        self.grid = grid
        self.components = components
        # flat node indices of all components, in component order
        self.nodes = np.concatenate([np.empty(0, dtype=int), *(c.nodes for c in components)])

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    def physical_components(self):
        return tuple(c for c in self.components if not c.artificial)

    def perimeter(self) -> float:
        return sum(c.perimeter() for c in self.components)


def _side_layout(grid, axis, index, outward_sign):
    """Node indices, inward flat stride and normal step of one grid side."""
    stride = grid.n2 if axis == 0 else 1
    return dict(axis=axis, index=index, nodes=_side_nodes(grid, axis, index),
                inward=-outward_sign * stride,
                normal_spacing=grid.h1 if axis == 0 else grid.h2)


def _circle_component(grid, name, index, outward_sign, artificial=False):
    # outward_sign = +1 when the domain-outward normal is +e_r.
    r_b = float(grid.c1[index])
    theta = grid.c2
    er = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    nu = outward_sign * er
    tau = np.stack([-nu[:, 1], nu[:, 0]], axis=1)  # rotate nu by +90 degrees
    h = outward_sign / r_b
    orientation = outward_sign  # tau = +e_theta on outer, -e_theta on inner
    return BoundaryComponent(
        name=name,
        **_side_layout(grid, 0, index, outward_sign),
        x=r_b * er[:, 0],
        y=r_b * er[:, 1],
        nu=nu,
        tau=tau,
        curvature=np.full(grid.n2, h),
        ds=np.full(grid.n2, r_b * grid.h2),
        spacing=r_b * grid.h2,
        orientation=orientation,
        artificial=artificial,
    )


def _wall_component(grid, name, index, outward_sign):
    # outward_sign = +1 for the top wall (nu = +e_y), -1 for the bottom.
    y_b = float(grid.c2[index])
    xs = grid.c1
    m = grid.n1
    nu = np.zeros((m, 2))
    nu[:, 1] = outward_sign
    tau = np.stack([-nu[:, 1], nu[:, 0]], axis=1)
    orientation = -outward_sign  # bottom: tau = +e_x, top: tau = -e_x
    return BoundaryComponent(
        name=name,
        **_side_layout(grid, 1, index, outward_sign),
        x=xs.copy(),
        y=np.full(m, y_b),
        nu=nu,
        tau=tau,
        curvature=np.zeros(m),
        ds=np.full(m, grid.h1),
        spacing=grid.h1,
        orientation=orientation,
    )


def boundary_frame(grid: Grid) -> BoundaryFrame:
    """Analytic boundary frame for a grid; the torus gets the empty frame.

    Sign convention: h = <grad_tau nu, tau>, so a circle of radius R seen
    from inside has h = 1/R while the inner circle of an annulus (outward
    normal pointing toward the center) has h = -1/r_inner.  Deterministic:
    identical inputs yield bit-identical outputs.
    """
    def build():
        if not grid.has_boundary():
            comps = ()
        elif grid.polar:
            comps = (
                _circle_component(grid, "inner", 0, -1,
                                  artificial=(grid.spec.kind == DomainKind.DISK)),
                _circle_component(grid, "outer", grid.n1 - 1, +1),
            )
        else:  # channel
            comps = (
                _wall_component(grid, "bottom", 0, -1),
                _wall_component(grid, "top", grid.n2 - 1, +1),
            )
        return BoundaryFrame(grid, comps)
    return grid.cached("frame", build)


def boundary_zeros(frame: BoundaryFrame) -> list[np.ndarray]:
    return [np.zeros(c.n_nodes) for c in frame]


def boundary_from_function(frame: BoundaryFrame, fn) -> list[np.ndarray]:
    """Sample fn(x, y) -> array on every boundary component."""
    return [np.asarray(fn(c.x, c.y), dtype=float) * np.ones(c.n_nodes)
            for c in frame]


def project(frame, vals, direction: str) -> list[np.ndarray]:
    """<vals, nu> (direction "nu") or <vals, tau> ("tau") on each boundary
    component, vals holding its per-component (..., m, 2) vector values."""
    return [v[..., 0] * d[:, 0] + v[..., 1] * d[:, 1]
            for v, d in zip(vals, (getattr(comp, direction) for comp in frame))]


def second_fundamental_form(frame: BoundaryFrame, u_vals, w_vals) -> list[np.ndarray]:
    """Pointwise pi(u, w) = h * <u, tau> <w, tau> on each component.

    u_vals / w_vals are per-component (..., m, 2) vector values; only the
    tangential parts enter in the 2D reduction.
    """
    return [comp.curvature * ut * wt for comp, ut, wt
            in zip(frame, project(frame, u_vals, "tau"), project(frame, w_vals, "tau"))]


def surface_integrate(frame: BoundaryFrame, f) -> float:
    """Sum of f * ds over all boundary components, f holding one array per
    component; second-order accurate (exact for the uniform closed loops
    used here).
    """
    return float(sum(np.sum(comp.ds * vals) for comp, vals in zip(frame, f)))
