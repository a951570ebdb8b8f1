"""Named analytic field generators.

Each factory returns closures of (x, y) so the same field can be sampled on
every grid of a refinement study.  The CLI resolves initial conditions and
boundary data by these names.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .errors import ConfigError
from .fields import ScalarField, VectorField, boundary_scalar_values, curl2d, curl_scalar
from .geometry import DomainKind, boundary_from_function, boundary_zeros


def _trig_sum(rng, n_terms, kmax):
    ks = rng.integers(0, kmax + 1, size=(n_terms, 2))
    phases = rng.uniform(0, 2 * math.pi, size=(n_terms, 2))
    coeffs = rng.normal(scale=1.0 / max(n_terms, 1), size=n_terms)
    return ks, phases, coeffs


def random_scalar(spec, rng, kmax=2, amplitude=1.0):
    """Smooth random scalar adapted to the domain's periodicities."""
    polar = spec.kind in (DomainKind.ANNULUS, DomainKind.DISK)
    ks, phases, coeffs = _trig_sum(rng, 6, kmax)

    if polar:
        def fn(x, y):
            r = np.hypot(x, y)
            th = np.arctan2(y, x)
            out = np.zeros_like(r)
            for (km, kr), (p1, p2), c in zip(ks, phases, coeffs):
                out += c * np.cos(km * th + p1) * np.cos(kr * r + p2)
            return amplitude * out
        return fn

    lx = spec.length_x
    ly = spec.length_y
    y_periodic = spec.kind == DomainKind.TORUS

    def fn(x, y):
        out = np.zeros_like(np.asarray(x, dtype=float))
        for (kx, ky), (p1, p2), c in zip(ks, phases, coeffs):
            fx = np.cos(2 * math.pi * kx * x / lx + p1)
            if y_periodic:
                fy = np.cos(2 * math.pi * ky * y / ly + p2)
            else:
                fy = np.cos(ky * math.pi * y / ly + p2)
            out += c * fx * fy
        return amplitude * out
    return fn


def random_vector(spec, rng, kmax=2, amplitude=1.0):
    fx = random_scalar(spec, rng, kmax, amplitude)
    fy = random_scalar(spec, rng, kmax, amplitude)
    return lambda x, y: (fx(x, y), fy(x, y))


def random_absolute_bc_field(grid, rng, kmax=2, amplitude=1.0,
                             circulation=0.0) -> VectorField:
    """Divergence-free field with u_perp = 0 exactly and boundary vorticity
    O(h^2): the rotated gradient of a streamfunction with triple zeros at
    the walls, plus an optional exact circulation harmonic."""
    spec = grid.spec
    polar = grid.polar
    ks, phases, coeffs = _trig_sum(rng, 5, kmax)
    if polar:
        r0, r1 = grid.r_inner_eff, grid.r_outer_eff
        win = ((grid.r - r0) * (r1 - grid.r)) ** 3 / ((r1 - r0) / 2) ** 6
        bump = np.zeros(grid.shape)
        for (km, kr), (p1, p2), c in zip(ks, phases, coeffs):
            bump += c * np.cos(km * grid.theta + p1) * np.cos(kr * grid.r + p2)
        psi = ScalarField(grid, amplitude * win * bump)
        u = curl_scalar(psi)
        if circulation != 0.0:
            u = u + VectorField(grid, -circulation * np.sin(grid.theta) / grid.r,
                                circulation * np.cos(grid.theta) / grid.r)
        return u
    if spec.kind == DomainKind.CHANNEL:
        ly = spec.length_y
        win = (grid.y * (ly - grid.y)) ** 3 / (ly / 2) ** 6
        bump = np.zeros(grid.shape)
        for (km, kr), (p1, p2), c in zip(ks, phases, coeffs):
            bump += c * np.cos(2 * math.pi * km * grid.x / spec.length_x + p1) \
                * np.cos(kr * grid.y + p2)
        psi = ScalarField(grid, amplitude * win * bump)
        return curl_scalar(psi)
    # torus: any rotated gradient works
    fn = random_scalar(spec, rng, kmax, amplitude)
    return curl_scalar(ScalarField.from_function(grid, fn))


def random_boundary_scalar(frame, rng, kmax=3, amplitude=1.0):
    """Smooth random data on each closed boundary loop."""
    out = []
    for comp in frame:
        m = comp.n_nodes
        s = np.arange(m) * (2 * math.pi / m)
        vals = np.zeros(m)
        for k in range(kmax + 1):
            c1, c2 = rng.normal(size=2) / (k + 1.0)
            vals += c1 * np.cos(k * s) + c2 * np.sin(k * s)
        out.append(amplitude * vals)
    return out


# ---------------------------------------------------------------------------
# named generators for the CLI

def _param(params, name, default):
    """params[name], or the default, as the type of the default.

    A string, a list, a bool or a non-integral value for an int parameter
    is a configuration error, not a crash inside the generator.
    """
    val = params.get(name, default)
    kind = type(default)
    if isinstance(val, (int, float)) and not isinstance(val, bool) and kind(val) == val:
        return kind(val)
    raise ConfigError(f"generator parameter {name!r} = {val!r} is not {kind.__name__}")


def _resolve(table, what, name, params):
    """The generator table[name] and its keyword arguments from params.

    A generator reads exactly its keyword-only parameters, whose defaults
    fix their types: any other key would be silently ignored, so it is a
    configuration error.
    """
    try:
        gen = table[name]
    except KeyError:
        raise ConfigError(f"unknown {what} {name!r}; known: {sorted(table)}")
    defaults = {p.name: p.default for p in inspect.signature(gen).parameters.values()
                if p.kind is p.KEYWORD_ONLY}
    params = params or {}
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ConfigError(f"{what} {name!r} does not read {', '.join(unknown)}; "
                          f"it reads: {', '.join(sorted(defaults)) or 'no parameters'}")
    return gen, {k: _param(params, k, d) for k, d in defaults.items()}


def _ic_zero(grid, rng):
    return VectorField.zeros(grid)


def _ic_circulation(grid, rng, *, c=1.0):
    if not grid.polar:
        raise ConfigError("circulation initial condition needs a polar domain")
    return VectorField(grid, -c * np.sin(grid.theta) / grid.r,
                       c * np.cos(grid.theta) / grid.r)


def _ic_rigid_rotation(grid, rng, *, omega=1.0):
    return VectorField(grid, -omega * grid.y, omega * grid.x)


def _ic_taylor_green(grid, rng, *, amplitude=1.0):
    return VectorField(grid, amplitude * np.sin(grid.x) * np.cos(grid.y),
                       -amplitude * np.cos(grid.x) * np.sin(grid.y))


def _ic_shear_layer(grid, rng, *, amplitude=1.0):
    if not grid.polar:
        raise ConfigError("shear_layer initial condition needs a polar domain")
    r0, r1 = grid.r_inner_eff, grid.r_outer_eff
    prof = amplitude * np.sin(math.pi * (grid.r - r0) / (r1 - r0))
    return VectorField(grid, -prof * np.sin(grid.theta), prof * np.cos(grid.theta))


def _ic_modulated_shear(grid, rng, *, amplitude=1.0, modulation=0.3):
    """Rotated gradient of a windowed streamfunction with angular
    modulation: divergence-free to stencil order, u_perp = 0 exactly."""
    if not grid.polar:
        raise ConfigError("modulated_shear initial condition needs a polar domain")
    r0, r1 = grid.r_inner_eff, grid.r_outer_eff
    psi = amplitude * np.sin(math.pi * (grid.r - r0) / (r1 - r0)) \
        * (1.0 + modulation * np.cos(2 * grid.theta))
    return curl_scalar(ScalarField(grid, psi))


def _ic_random_smooth(grid, rng, *, amplitude=1.0, kmax=2):
    return random_absolute_bc_field(grid, rng, kmax=kmax, amplitude=amplitude)


INITIAL_CONDITIONS = {
    "zero": _ic_zero,
    "circulation": _ic_circulation,
    "rigid_rotation": _ic_rigid_rotation,
    "taylor_green": _ic_taylor_green,
    "shear_layer": _ic_shear_layer,
    "modulated_shear": _ic_modulated_shear,
    "random_smooth": _ic_random_smooth,
}


def _bd_zero(frame, rng):
    return boundary_zeros(frame)


def _bd_constant(frame, rng, *, value=0.0):
    return [np.full(c.n_nodes, value) for c in frame]


def _bd_sin_theta(frame, rng, *, amplitude=1.0, mode=1):
    return boundary_from_function(
        frame, lambda x, y: amplitude * np.sin(mode * np.arctan2(y, x)))


def _bd_from_initial(frame, u0):
    if u0 is None:
        raise ConfigError("boundary data 'from_initial' needs an initial condition")
    return boundary_scalar_values(curl2d(u0), frame)


def _bd_random(frame, rng, *, amplitude=1.0):
    return random_boundary_scalar(frame, rng, amplitude=amplitude)


BOUNDARY_DATA = {
    "zero": _bd_zero,
    "constant": _bd_constant,
    "sin_theta": _bd_sin_theta,
    "from_initial": _bd_from_initial,
    "random": _bd_random,
}


def make_initial_condition(name, grid, params=None, rng=None):
    gen, kwargs = _resolve(INITIAL_CONDITIONS, "initial condition", name, params)
    return gen(grid, rng or np.random.default_rng(0), **kwargs)


def make_boundary_data(name, frame, params=None, rng=None, u0=None):
    """Per-component boundary data, or None without a boundary; name and
    params are checked either way."""
    gen, kwargs = _resolve(BOUNDARY_DATA, "boundary data", name, params)
    if frame is None:
        return None
    if name == "from_initial":
        return gen(frame, u0)
    return gen(frame, rng or np.random.default_rng(0), **kwargs)
