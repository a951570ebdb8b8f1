"""Verification suite for the boundary-calculus identities and L2 estimates.

Every check returns a residual (or ratio report) that an exact-arithmetic
computation would make zero (or bounded); for smooth fields the residuals
shrink at second order under grid refinement.  The 2D reductions replace
tangential vector quantities by their scalar components along tau and the
surface curl by the arc-length derivative; cross products against the
out-of-plane direction become products of scalar traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BCViolation, DegenerateInput
from .fields import (
    ScalarField,
    VectorField,
    advect,
    _dx_dy,
    boundary_scalar_values,
    boundary_vector_values,
    curl2d,
    curl_scalar,
    div,
    grad,
    grad_l2,
    h1,
    h2,
    hessian_seminorm,
    l2,
    laplacian,
    max_normal_trace,
    max_vorticity_defect,
    normal_component,
    normal_derivative,
    surface_curl,
    tangential_part,
)
from .geometry import BoundaryFrame, surface_integrate


def _max_interior(grid, *arrays):
    mask = ~grid.wall_mask
    return max(float(np.max(np.abs(a[mask]))) for a in arrays)


def _split_traces(u, frame):
    return normal_component(u, frame), tangential_part(u, frame)


def advection_normal_trace_residual(u: VectorField, w: VectorField,
                                    frame: BoundaryFrame) -> float:
    """Max-norm residual of the boundary expansion of <w.grad u, nu>.

    The normal trace of the advective derivative equals
    -pi(u_par, w_par) - H u_perp w_perp + w_perp div(u)
    + w_par ds(u_perp) + u_par ds(w_perp) - ds(w_perp u_par),
    with ds the arc-length derivative.  For u_perp = w_perp = 0 this
    collapses to <w.grad u, nu> = -pi(u, w).
    """
    lhs = normal_component(advect(w, u), frame)
    u_perp, u_par = _split_traces(u, frame)
    w_perp, w_par = _split_traces(w, frame)
    d_b = boundary_scalar_values(div(u), frame)
    ds_uperp = surface_curl(u_perp, frame)
    ds_wperp = surface_curl(w_perp, frame)
    ds_mixed = surface_curl([wp * up for wp, up in zip(w_perp, u_par)], frame)
    worst = 0.0
    for k, comp in enumerate(frame):
        rhs = (-comp.curvature * u_par[k] * w_par[k]
               - comp.curvature * w_perp[k] * u_perp[k]
               + w_perp[k] * d_b[k]
               + w_par[k] * ds_uperp[k]
               + u_par[k] * ds_wperp[k]
               - ds_mixed[k])
        worst = max(worst, float(np.max(np.abs(lhs[k] - rhs))))
    return worst


def boundary_flux_residuals(u: VectorField, frame: BoundaryFrame):
    """Residuals of the two normal-trace formulas for derived fields.

    (i)  d(div u)/dnu = <lap u, nu> + ds(omega),
    (ii) (1/2) d(|u|^2)/dnu = omega u_par + u_perp div u - pi(u_par, u_par)
         - H u_perp^2 + 2 u_par ds(u_perp) - ds(u_perp u_par).
    """
    d = div(u)
    om = curl2d(u)
    lap = laplacian(u)
    lhs_i = normal_derivative(d, frame)
    lap_n = normal_component(lap, frame)
    ds_om = surface_curl(boundary_scalar_values(om, frame), frame)

    half_usq = ScalarField(u.grid, 0.5 * (u.ux**2 + u.uy**2))
    lhs_ii = normal_derivative(half_usq, frame)
    u_perp, u_par = _split_traces(u, frame)
    om_b = boundary_scalar_values(om, frame)
    d_b = boundary_scalar_values(d, frame)
    ds_uperp = surface_curl(u_perp, frame)
    ds_mix = surface_curl([a * b for a, b in zip(u_perp, u_par)], frame)

    res_i = 0.0
    res_ii = 0.0
    for k, comp in enumerate(frame):
        res_i = max(res_i, float(np.max(np.abs(lhs_i[k] - lap_n[k] - ds_om[k]))))
        rhs = (om_b[k] * u_par[k] + u_perp[k] * d_b[k]
               - comp.curvature * u_par[k] ** 2
               - comp.curvature * u_perp[k] ** 2
               + 2.0 * u_par[k] * ds_uperp[k] - ds_mix[k])
        res_ii = max(res_ii, float(np.max(np.abs(lhs_ii[k] - rhs))))
    return res_i, res_ii


def curl_green_residual(u: VectorField, s: ScalarField, frame: BoundaryFrame) -> float:
    """Integration by parts for the curl pair (Stokes-theorem identity).

    |int s curl(u) - int <u, curl(s)> - oint s u_par dS|.  The all-vector
    3D form degenerates for in-plane fields, so the dimension-consistent
    statement pairs the scalar and vector curls.
    """
    g = u.grid
    vol1 = g.integrate(s.values * curl2d(u).values)
    cs = curl_scalar(s)
    vol2 = g.integrate(u.ux * cs.ux + u.uy * cs.uy)
    s_b = boundary_scalar_values(s, frame)
    bnd = surface_integrate(frame, [sv * up for sv, up in zip(s_b, tangential_part(u, frame))])
    return abs(vol1 - vol2 - bnd)


def energy_identity_residuals(u: VectorField, frame: BoundaryFrame):
    """Residuals of the two integral identities tying |grad u| to the curl
    and divergence.

    r1: int <lap u, u> = -int omega^2 - int (div u)^2 + oint omega u_par dS
        + oint (div u) u_perp dS.
    r2: int |grad u|^2 = int omega^2 + int (div u)^2 - oint pi(u_par,u_par) dS
        - oint H u_perp^2 dS + 2 oint u_par ds(u_perp) dS.
    """
    g = u.grid
    om = curl2d(u)
    d = div(u)
    lap = laplacian(u)
    vol_lap = g.integrate(lap.ux * u.ux + lap.uy * u.uy)
    om_sq = l2(om) ** 2
    d_sq = l2(d) ** 2
    grad_sq = grad_l2(u) ** 2

    u_perp, u_par = _split_traces(u, frame)
    om_b = boundary_scalar_values(om, frame)
    d_b = boundary_scalar_values(d, frame)
    ds_uperp = surface_curl(u_perp, frame)
    b1 = surface_integrate(frame, [ob * up for ob, up in zip(om_b, u_par)]) \
        + surface_integrate(frame, [db * np_ for db, np_ in zip(d_b, u_perp)])
    pi_term = surface_integrate(
        frame, [c.curvature * up**2 for c, up in zip(frame, u_par)])
    h_term = surface_integrate(
        frame, [c.curvature * np_**2 for c, np_ in zip(frame, u_perp)])
    cross = surface_integrate(
        frame, [up * dsu for up, dsu in zip(u_par, ds_uperp)])
    b2 = -pi_term - h_term + 2.0 * cross
    r1 = abs(vol_lap + om_sq + d_sq - b1)
    r2 = abs(grad_sq - om_sq - d_sq - b2)
    return r1, r2


def advection_identity_residuals(u: VectorField, X: VectorField, Y: VectorField):
    """Pointwise interior residuals of the two advection identities.

    r1: u.grad u = omega x u + (1/2) grad |u|^2 (with omega x u the rotation
    of u by the scalar vorticity).
    r2: curl(X.grad Y) = dX:dY cross-contraction + X.grad(curl Y).
    """
    g = u.grid
    adv = advect(u, u)
    om = curl2d(u)
    rot = VectorField(g, -om.values * u.uy, om.values * u.ux)
    half = grad(ScalarField(g, 0.5 * (u.ux**2 + u.uy**2)))
    r1 = _max_interior(g, adv.ux - rot.ux - half.ux, adv.uy - rot.uy - half.uy)

    lhs = curl2d(advect(X, Y))
    Xx_x, Xx_y = _dx_dy(g, X.ux)
    Xy_x, Xy_y = _dx_dy(g, X.uy)
    Yx_x, Yx_y = _dx_dy(g, Y.ux)
    Yy_x, Yy_y = _dx_dy(g, Y.uy)
    cross = Xx_x * Yy_x + Xy_x * Yy_y - Xx_y * Yx_x - Xy_y * Yx_y
    omY = curl2d(Y)
    omYx, omYy = _dx_dy(g, omY.values)
    transport = X.ux * omYx + X.uy * omYy
    r2 = _max_interior(g, lhs.values - cross - transport)
    return r1, r2


def laplacian_decomposition_residual(u: VectorField) -> float:
    """Max interior residual of lap u = -curl(curl u) + grad(div u)."""
    lap = laplacian(u)
    recon = grad(div(u)) - curl_scalar(curl2d(u))
    return _max_interior(u.grid, lap.ux - recon.ux, lap.uy - recon.uy)


# ---------------------------------------------------------------------------
# inequality suite (regression style)

@dataclass
class NormRatioReport:
    """Max-over-ensemble ratios of equivalent-norm pairs under absolute BCs."""

    h1_ratio: float        # ||u||_H1 / ||(omega, div u, u)||_2
    hessian_ratio: float   # ||grad^2 u||^2 / (||lap u||^2 + ||grad u||^2)
    h2_ratio: float        # ||u||_H2 / ||(grad d, curl omega, u)||_2
    count: int


def check_absolute_bc(u: VectorField, frame: BoundaryFrame):
    """Raise BCViolation unless |u_perp| <= 1e-10 and the boundary vorticity
    <= 200 h^2, both relative to max|u|."""
    g = u.grid
    scale = max(u.max_abs(), 1e-30)
    tol_vort = 200.0 * max(g.h1, g.h2) ** 2
    worst_perp = max_normal_trace(u, frame)
    if worst_perp > 1e-10 * scale:
        raise BCViolation(f"normal trace {worst_perp:.3e} exceeds 1.0e-10*scale")
    worst_om = max_vorticity_defect(u, frame, None)
    if worst_om > tol_vort * scale:
        raise BCViolation(f"boundary vorticity {worst_om:.3e} exceeds "
                          f"{tol_vort:.1e}*scale")


def absolute_bc_norm_ratios(ensemble, frame: BoundaryFrame) -> NormRatioReport:
    """Equivalent-norm ratios over an ensemble of absolute-BC fields.

    The continuous estimates make each ratio a domain constant; the suite
    freezes observed values as regressions since the constants are not
    constructive.
    """
    r1 = r2 = r3 = 0.0
    n = 0
    for u in ensemble:
        if l2(u) == 0.0:
            raise DegenerateInput("ensemble contains the zero field")
        check_absolute_bc(u, frame)
        om = curl2d(u)
        d = div(u)
        denom1 = np.sqrt(l2(om) ** 2 + l2(d) ** 2 + l2(u) ** 2)
        r1 = max(r1, h1(u) / denom1)
        lap = laplacian(u)
        r2 = max(r2, hessian_seminorm(u) ** 2 / (l2(lap) ** 2 + grad_l2(u) ** 2))
        psi = curl_scalar(om)
        denom3 = np.sqrt(grad_l2(d) ** 2 + l2(psi) ** 2 + l2(u) ** 2)
        r3 = max(r3, h2(u) / denom3)
        n += 1
    if n == 0:
        raise DegenerateInput("empty ensemble")
    return NormRatioReport(r1, r2, r3, n)


def trace_inequality_constant(ensemble, frame: BoundaryFrame, eps_values) -> float:
    """Smallest C with oint |u|^2 dS <= eps ||grad u||^2 + (C/eps) ||u||^2
    across the ensemble and the given eps values."""
    worst = 0.0
    for u in ensemble:
        usq_b = [bv[:, 0] ** 2 + bv[:, 1] ** 2
                 for bv in boundary_vector_values(u, frame)]
        trace_sq = surface_integrate(frame, usq_b)
        gsq = grad_l2(u) ** 2
        usq = l2(u) ** 2
        if usq == 0:
            raise DegenerateInput("zero field in trace-inequality ensemble")
        for eps in eps_values:
            needed = eps * (trace_sq - eps * gsq) / usq
            worst = max(worst, needed)
    return worst


def curl_curl_normal_trace(u: VectorField, frame: BoundaryFrame) -> float:
    """Max boundary |<curl(curl u), nu>|: vanishes (order >= 1 under
    refinement) for fields satisfying the absolute boundary conditions."""
    return max_normal_trace(curl_scalar(curl2d(u)), frame)
