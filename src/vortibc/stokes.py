"""Nonhomogeneous unsteady Stokes solver.

The pressure-like scalar is decoupled up front: q solves the harmonic
Neumann problem driven by the arc-length derivative of the boundary
vorticity data, after which each step is one implicit diffusion solve with
the kinematic condition pinned strongly and the vorticity condition
enforced through ghost values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .elliptic import check_normal_trace, solve_harmonic_q
from .errors import SolverDiverged
from .fields import (
    FieldHistory,
    ScalarField,
    VectorField,
    _dx_dy,
    _sobolev_sum,
    _squared_integrals,
    cumulative_trapezoid,
    curl2d,
    curl_scalar,
    div,
    grad,
    grad_l2,
    h2,
    l2,
    max_normal_trace,
    max_trace_defect,
    max_vorticity_defect,
    normal_derivative,
    require_finite,
    step_count,
)
from .geometry import BoundaryFrame, boundary_frame, boundary_zeros, surface_integrate
from .stepping import VelocityStepper

STOKES_COLUMNS = ("t", "l2_w", "h1_w", "h2_w", "l2_div_w",
                  "max_w_perp", "max_vort_bc_err", "l2_q")


def normalize_boundary_data(a, frame):
    """Return (sample(t) -> per-component list | None, static: bool).

    Accepts None, a per-component list (time independent) or a callable of t.
    """
    if frame is None:
        return (lambda t: None), True
    if a is None:
        zeros = boundary_zeros(frame)
        return (lambda t: zeros), True
    if callable(a):
        return a, False
    # static per-component list
    vals = [np.asarray(v, dtype=float) for v in a]
    return (lambda t: vals), True


def _a_rate(sample_a, t, dt):
    """da/dt at t: central difference of the sampled data, one-sided at 0."""
    a_p = sample_a(t + dt)
    a_m = sample_a(max(t - dt, 0.0))
    denom = (t + dt) - max(t - dt, 0.0)
    return [(p - m) / denom for p, m in zip(a_p, a_m)]


def _check_initial_data(u0, frame, a0):
    """Raise on non-finite u0 or u0_perp != 0; warn when div(u0), or the
    miss of the vorticity of u0 against a0 at the walls, exceeds the
    stencil order: the Stokes problem then absorbs it in an initial layer."""
    require_finite(SolverDiverged, "solve_stokes: u0", u0.ux, u0.uy)
    check_normal_trace(u0, frame, "solve_stokes: u0")
    g = u0.grid
    dtol = 50.0 * max(g.h1, g.h2) ** 2
    scale = max(u0.max_abs(), 1.0)
    dnorm = l2(div(u0))
    if dnorm > dtol * scale:
        warnings.warn(f"u0 divergence {dnorm:.3e} above tolerance {dtol:.1e}; "
                      "the solution will carry it as an initial layer")
    mism = max_vorticity_defect(u0, frame, a0)
    if mism > dtol * scale + 1e-12:
        warnings.warn(
            f"initial vorticity trace differs from a(0) by {mism:.3e}; "
            "the Stokes problem absorbs it in an initial layer")


def stokes_rows(u0: VectorField, a, mu: float, T: float, dt: float,
                scheme: str = "backward-euler"):
    """Advance the Stokes problem from u0, yielding (w, q) at steps
    0, 1, ..., step_count(T, dt) as each is computed.

    `a` follows normalize_boundary_data; `scheme` is "backward-euler" or
    "crank-nicolson".  dt must divide T up to rounding.
    """
    nsteps = step_count(T, dt)
    if scheme not in ("backward-euler", "crank-nicolson"):
        raise ValueError(f"unknown scheme {scheme!r}")
    grid = u0.grid
    frame = boundary_frame(grid) if grid.has_boundary() else None
    sample_a, static_a = normalize_boundary_data(a, frame)
    _check_initial_data(u0, frame, sample_a(0.0))

    theta = 1.0 if scheme == "backward-euler" else 0.5
    stepper = VelocityStepper(grid, mu, dt, theta=theta)

    def q_of(t):
        if frame is None:
            return ScalarField.zeros(grid)
        return solve_harmonic_q(sample_a(t), mu, frame)

    w, q = u0, q_of(0.0)
    yield w, q
    # static data: q never changes, and Crank-Nicolson's midpoint 0.5 (q + q)
    # is q exactly, so one forcing serves every step
    forcing = grad(q) * (-1.0) if static_a else None
    for n in range(nsteps):
        t_new = (n + 1) * dt
        if not static_a:
            q_new = q_of(t_new)
            q_mid = q if theta == 1.0 else ScalarField(grid, 0.5 * (q.values + q_new.values))
            forcing = grad(q_mid) * (-1.0)
            q = q_new
        w = stepper.step(w, forcing, sample_a(t_new))
        yield w, q


def solve_stokes(u0: VectorField, a, mu: float, T: float, dt: float,
                 scheme: str = "backward-euler"):
    """The (w, q) histories of stokes_rows, allocated before the first step."""
    nt = step_count(T, dt) + 1
    w_hist = FieldHistory.zeros(u0.grid, dt, nt)
    q_hist = FieldHistory.zeros(u0.grid, dt, nt, scalar=True)
    for n, (w, q) in enumerate(stokes_rows(u0, a, mu, T, dt, scheme)):
        w_hist[n], q_hist[n] = w, q
    return w_hist, q_hist


def stokes_row(t: float, w: VectorField, q: ScalarField, a_t,
               frame: BoundaryFrame | None) -> tuple:
    """The STOKES_COLUMNS row of one snapshot: norms of w and div(w), the
    kinematic and vorticity boundary residuals against a(t) = a_t, and
    ||q||_2.  The partials of w are taken once, for the norms, div(w) and
    curl(w) alike, and the integral of each squared derivative once for the
    three norms, one component at a time, so that only one component's
    second partials are ever held.  Every value equals its single-purpose
    operator bit for bit."""
    g = w.grid
    partials, orders = [], []
    for comp in (w.ux, w.uy):
        values = comp[np.newaxis]
        partials.append(_dx_dy(g, values))
        orders.append(_squared_integrals(g, values, 0, 2, partials[-1]))
    (dx0, dy0), (dx1, dy1) = partials
    div_w, curl_w = np.add(dx0, dy1, out=dx0)[0], np.subtract(dx1, dy0, out=dx1)[0]
    vort = 0.0 if frame is None else max_trace_defect(ScalarField(g, curl_w), frame, a_t)
    # the per-component integrals, stacked as _sobolev_sum takes them
    orders = [[np.concatenate(pair) for pair in zip(*order)] for order in zip(*orders)]
    l2_w, h1_w, h2_w = (float(np.sqrt(_sobolev_sum(orders, 0, hi))) for hi in (0, 1, 2))
    return (t, l2_w, h1_w, h2_w,
            l2(ScalarField(g, div_w)), max_normal_trace(w, frame), vort, l2(q))


def stokes_diagnostics(w_hist: FieldHistory, q_hist: FieldHistory, a,
                       frame: BoundaryFrame | None) -> dict:
    """{column: array} of STOKES_COLUMNS, one stokes_row per snapshot of a
    Stokes solve."""
    sample_a, _ = normalize_boundary_data(a, frame)
    rows = [stokes_row(t, w, q, sample_a(t), frame)
            for t, w, q in zip(w_hist.times, w_hist, q_hist)]
    return dict(zip(STOKES_COLUMNS, np.array(rows).T))


# ---------------------------------------------------------------------------
# energy balances for the curl fields

ENERGY_COLUMNS = ("t", "g_sq", "h_sq", "diss_g_cum", "diss_h_cum",
                  "bterm_g_cum", "bterm_h_cum", "balance_g", "balance_h")


def stokes_energy_report(w_hist: FieldHistory, a, mu: float,
                         frame: BoundaryFrame | None) -> dict:
    """Discrete energy balances for g = curl(w) and h = curl(g), as
    {column: array} of ENERGY_COLUMNS.

    In the 2D reduction the boundary pairings become scalar products of
    normal-derivative traces:  d/dt ||g||^2 = -2 mu ||grad g||^2
    + 2 mu oint a dg/dnu dS  and  d/dt ||h||^2 = -2 mu ||curl h||^2
    + 2 oint (da/dt) dg/dnu dS.  Residuals of the time-integrated balances
    are reported per step; they shrink at O(dt + h^2) for smooth data.
    """
    if len(w_hist) < 3:
        raise ValueError("energy report needs at least 3 snapshots")
    dt = w_hist.dt
    sample_a, static_a = normalize_boundary_data(a, frame)

    g_fields = [curl2d(w) for w in w_hist]
    h_fields = [curl_scalar(g) for g in g_fields]

    g_sq = np.array([l2(g) ** 2 for g in g_fields])
    h_sq = np.array([l2(h) ** 2 for h in h_fields])
    diss_g = np.array([grad_l2(g) ** 2 for g in g_fields])
    diss_h = np.array([l2(curl2d(h)) ** 2 for h in h_fields])

    nt = len(w_hist)
    bnd_g = np.zeros(nt)
    bnd_h = np.zeros(nt)
    if frame is not None:
        for k in range(nt):
            t = k * dt
            a_k = sample_a(t)
            dng = normal_derivative(g_fields[k], frame)
            bnd_g[k] = surface_integrate(frame, [av * dv for av, dv in zip(a_k, dng)])
            if not static_a:
                da = _a_rate(sample_a, t, dt)
                bnd_h[k] = surface_integrate(frame, [dv * dav for dav, dv in zip(da, dng)])

    cg, ch, bg, bh = (cumulative_trapezoid(y, dt) for y in (diss_g, diss_h, bnd_g, bnd_h))

    bal_g = g_sq + 2.0 * mu * cg - g_sq[0] - 2.0 * mu * bg
    bal_h = h_sq + 2.0 * mu * ch - h_sq[0] - 2.0 * bh
    return dict(zip(ENERGY_COLUMNS,
                    (w_hist.times, g_sq, h_sq, cg, ch, bg, bh, bal_g, bal_h)))


@dataclass
class Prop43Report:
    """Per-viscosity bound data for the uniform-energy property."""

    branch: str
    mu_values: list
    lhs: list
    rhs: list

    @property
    def ratios(self):
        return [lh / rh if rh > 0 else float("inf")
                for lh, rh in zip(self.lhs, self.rhs)]


def verify_prop43(u0: VectorField, a, mu_list, T: float, dt: float,
                  time_dependent: bool = False) -> Prop43Report:
    """Energy-bound sweep for the Stokes solution across viscosities.

    Branch (i), static a: lhs = sup_t ||w||_H2^2 + mu * int (|grad g|^2 +
    |grad h|^2) dt must stay a bounded multiple of ||u0||_H2^2
    + mu ||a||^2_{L2(Gamma_T)} uniformly in mu.  Branch (ii), time-dependent
    a: the same lhs against ||u0||_H2^2 + ||(a, da/dt)||^2_{L2(Gamma_T)},
    with the multiplier allowed to depend on (mu, T).
    """
    grid = u0.grid
    frame = boundary_frame(grid) if grid.has_boundary() else None
    sample_a, _ = normalize_boundary_data(a, frame)
    branch = "ii" if time_dependent else "i"
    mu_values, lhs_list, rhs_list = [], [], []
    for mu in mu_list:
        w_hist, _ = solve_stokes(u0, a, mu, T, dt)
        sup_h2 = max(h2(w) ** 2 for w in w_hist)
        g_fields = [curl2d(w) for w in w_hist]
        h_fields = [curl_scalar(g) for g in g_fields]
        en = [grad_l2(g) ** 2 + grad_l2(h) ** 2
              for g, h in zip(g_fields, h_fields)]
        cum = float(np.trapezoid(en, dx=dt))
        lhs = sup_h2 + mu * cum

        a_l2_cum = 0.0
        if frame is not None:
            nt = len(w_hist)
            vals = np.zeros(nt)
            for k in range(nt):
                a_k = sample_a(k * dt)
                vals[k] = surface_integrate(frame, [av * av for av in a_k])
                if time_dependent:
                    da = _a_rate(sample_a, k * dt, dt)
                    vals[k] += surface_integrate(frame, [d * d for d in da])
            a_l2_cum = float(np.trapezoid(vals, dx=dt))
        if time_dependent:
            rhs = h2(u0) ** 2 + a_l2_cum
        else:
            rhs = h2(u0) ** 2 + mu * a_l2_cum
        mu_values.append(mu)
        lhs_list.append(lhs)
        rhs_list.append(rhs)
    return Prop43Report(branch, mu_values, lhs_list, rhs_list)
