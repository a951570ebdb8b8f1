"""Picard iteration to the Navier-Stokes solution u = v + w.

w carries the nonhomogeneous data through the Stokes problem; v is the
fixed point of the velocity map under homogeneous (absolute) boundary
conditions.  Convergence is measured in the sup-in-time N-norm: the
discrete counterpart of the solution-space norm, computed as the max over
snapshots of sqrt(||dv||_H2^2 + ||dv_t||_H1^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .elliptic import _PRESSURE_ROWS, solve_pressure_ns, solve_transport
from .errors import MaxIterExceeded, NoContraction
from .fields import (
    _NORM_ROWS,
    FieldHistory,
    ScalarField,
    VectorField,
    _div,
    _n_norm_sq,
    advect,
    check_history_budget,
    grad,
    history_chunks,
    history_div,
    l2,
    laplacian,
    max_normal_trace,
    max_vorticity_defect,
    step_count,
    time_derivative_rows,
)
from .linearized import VelocityMap, apply_velocity_map, energy_rows, march
from .stokes import normalize_boundary_data, solve_stokes, stokes_rows


# Vector-history equivalents (a scalar history counts half) alive at the peak
# of an `ns` run: v_prev, v_next, w and q while Picard sweeps.  The increment
# norm and the pass over the converged solution (ns_rows) work on row chunks,
# so after the loop only v, w and q remain.  A weakref count of live
# FieldHistory bytes on ns_torus_tg found 23.2 MB at the peak, 3.5 times one
# 6.6 MB vector history.  A caller that reads NSSolution.u and .p holds 1.5
# more.
_NS_PEAK_HISTORIES = 3.5


@dataclass
class PicardConfig:
    """Stopping rule for the fixed-point iteration."""

    tol_fix: float = 1e-9
    max_iter: int = 12
    contraction_window: int = 3

    def __post_init__(self):
        if self.tol_fix <= 0:
            raise ValueError("tol_fix must be positive")
        if self.max_iter < 2:
            raise ValueError("max_iter must be at least 2")


@dataclass
class NSSolution:
    """Converged splitting u = v + w with the Stokes scalar q and the
    convergence trace.  u and the pressure p are whole histories made on
    first use; ns_rows gives their snapshots without holding them."""

    v: FieldHistory
    w: FieldHistory
    q: FieldHistory
    trace: list          # rows (iter, delta_WT, ratio) with ratio NaN at k=1
    mu: float
    dt: float
    u0: VectorField
    converged: bool = True

    @cached_property
    def u(self) -> FieldHistory:
        return self.v + self.w

    @cached_property
    def p(self) -> FieldHistory:
        """The pressures ns_rows yields, collected."""
        p = FieldHistory.zeros(self.v.grid, self.dt, len(self.v), scalar=True)
        for k, (_, p_k, _) in enumerate(ns_rows(self)):
            p[k] = p_k
        return p


def wt_norm(a: FieldHistory, b: FieldHistory | None = None) -> float:
    """sup over snapshots of the N-norm of the history a - b (of a itself
    when b is None); like a running max from 0, it skips NaN rows.

    It runs over chunks of _NORM_ROWS snapshots, each differenced on the
    window its time derivative reads, so neither a - b nor its time
    derivative is ever a whole history.  A chunk whose difference vanishes
    on its whole window adds exactly 0 and is skipped: in Picard sweep k,
    iterates k - 1 and k agree on snapshots 0..k - 1.
    """
    worst = 0.0
    for c in history_chunks(len(a), _NORM_ROWS):
        diff = a.data[c.lo:c.hi] if b is None else a.data[c.lo:c.hi] - b.data[c.lo:c.hi]
        if not diff.any():
            continue
        n_sq = _n_norm_sq(a.grid, c.own(diff), time_derivative_rows(diff, c, a.dt))
        worst = np.fmax.reduce(np.sqrt(n_sq), initial=worst)
    return float(worst)


def _lane(u0: VectorField, a, mu: float, T: float, dt: float, scheme: str):
    """One viscosity of a march: its velocity map and its Stokes snapshots."""
    w_rows = (w for w, _ in stokes_rows(u0, a, mu, T, dt, scheme))
    return VelocityMap(u0.grid, mu, dt), w_rows


def march_batch(u0: VectorField, a, mus, T: float, dt: float, failed: dict,
                scheme: str = "backward-euler"):
    """The fixed points u = v + w of the velocity map for each viscosity in
    mus, in one forward sweep of all of them in lockstep, with each Stokes
    part advanced in step: yields, per snapshot, the viscosities still
    marching and the (k, 2, n1, n2) block of their snapshots
    (linearized.march).

    Step n+1 of the map reads beta only at step n, so the fixed point obeys
    v_{n+1} = Step(v_n; beta_n = v_n) and is computed causally, with no
    iteration: Picard iterate k equals this march on snapshots 0..k.  A
    viscosity whose set-up or march raises is dropped, its exception stored
    in failed[mu]; the others are unaffected.
    """
    lanes = {}
    for mu in mus:
        try:
            lanes[mu] = _lane(u0, a, mu, T, dt, scheme)
        except Exception as exc:  # noqa: BLE001 - the viscosity fails alone
            failed[mu] = exc
    return march(u0.grid, dt, lanes, failed)


def march_solve(u0: VectorField, a, mu: float, T: float, dt: float,
                scheme: str = "backward-euler") -> FieldHistory:
    """The u history of the march of the one viscosity mu, allocated before
    the first step: the k = 1 case of march_batch, raising its failure."""
    u_hist = FieldHistory.zeros(u0.grid, dt, step_count(T, dt) + 1)
    failed = {}
    for n, (_, u) in enumerate(march_batch(u0, a, [mu], T, dt, failed, scheme)):
        u_hist.data[n] = u[0]
    if failed:
        raise failed[mu]
    return u_hist


def picard_solve(u0: VectorField, a, mu: float, T: float, dt: float,
                 cfg: PicardConfig, scheme: str = "backward-euler") -> NSSolution:
    """Iterate v <- V(v) from v = 0 until the W_T increment drops below
    tol_fix.

    Raises NoContraction when the increment ratio stays >= 1 over the
    configured window (the discrete shadow of the small-time requirement)
    and MaxIterExceeded at the iteration cap.
    """
    grid = u0.grid
    nt = step_count(T, dt) + 1
    check_history_budget((nt, 2, *grid.shape), _NS_PEAK_HISTORIES)
    v_prev = FieldHistory.zeros(grid, dt, nt)
    w_hist, q_hist = solve_stokes(u0, a, mu, T, dt, scheme)

    trace = []
    delta_prev = None
    bad_streak = 0
    for it in range(1, cfg.max_iter + 1):
        # iterate it - 1 is final on rows 0..it - 1, so sweep it steps from there
        v_next = apply_velocity_map(v_prev, w_hist, mu, dt, known_rows=min(it - 1, nt - 1))
        delta = wt_norm(v_next, v_prev)
        ratio = float("nan") if delta_prev is None else (
            delta / delta_prev if delta_prev > 0 else 0.0)
        trace.append((it, delta, ratio))
        v_prev = v_next
        if delta <= cfg.tol_fix:
            break
        if delta_prev is not None and np.isfinite(ratio) and ratio >= 1.0:
            bad_streak += 1
            if bad_streak >= cfg.contraction_window:
                raise NoContraction(
                    f"increment ratio >= 1 for {bad_streak} consecutive "
                    f"iterations (last delta {delta:.3e}); reduce T")
        else:
            bad_streak = 0
        delta_prev = delta
    else:
        raise MaxIterExceeded(
            f"no fixed point within {cfg.max_iter} iterations "
            f"(last delta {trace[-1][1]:.3e})")

    return NSSolution(v=v_prev, w=w_hist, q=q_hist, trace=trace, mu=mu, dt=dt, u0=u0)


def ns_rows(sol: NSSolution, energy: bool = False):
    """The snapshots of a converged splitting, in one pass over chunks of
    _PRESSURE_ROWS snapshots of v and w: yields (u, p, div v) for each
    snapshot.  With energy (3 snapshots or more), each tuple goes on with
    the snapshot's four compute_F terms from linearized.energy_rows, which
    then also supplies div v.  The pressures of a chunk are one stacked
    solve.
    """
    grid, v, w = sol.v.grid, sol.v.data, sol.w.data
    terms = energy_rows(sol.v, sol.v, sol.w) if energy else None
    for c in history_chunks(len(v), _PRESSURE_ROWS):
        u = v[c.i:c.j] + w[c.i:c.j]
        # the linearized pressure of (v, w) is the pressure of the carrier u = v + w
        p = solve_transport(grid, u)
        if terms is None:
            d, extra = _div(grid, v[c.i:c.j, 0], v[c.i:c.j, 1]), ()
        else:
            d, *extra = next(terms)
        for k in range(c.j - c.i):
            yield (VectorField(grid, *u[k]), ScalarField(grid, p[k]), ScalarField(grid, d[k]),
                   *(e[k] for e in extra))


@dataclass
class IncompressibilityReport:
    times: np.ndarray
    div_l2: np.ndarray

    @property
    def max_div(self) -> float:
        return float(np.max(self.div_l2))


def verify_incompressibility(sol: NSSolution) -> IncompressibilityReport:
    """max_t ||div v(t)||_2: the divergence the fixed point recovered."""
    return IncompressibilityReport(sol.v.times, np.array([l2(d) for d in history_div(sol.v)]))


@dataclass
class ResidualReport:
    interior_l2_max: float
    interior_l2: np.ndarray
    bc_perp_max: float
    bc_vorticity_max: float
    initial_l2: float


def ns_residual(sol: NSSolution, a, mu: float, frame) -> ResidualReport:
    """Momentum residual of u = v + w using the recovered pressure.

    Interior residual of du/dt + u.grad u + grad p - mu lap u with the
    pressure re-derived from u at each snapshot; boundary residuals report
    |u_perp| and |curl u - a|; the initial residual is ||u(0) - u0||_2.
    """
    grid = sol.u.grid
    u_t = sol.u.time_derivative()
    sample_a, _ = normalize_boundary_data(a, frame)
    interior = np.zeros(len(sol.u))
    w_int = grid.weights * ~grid.wall_mask

    bc_perp = 0.0
    bc_vort = 0.0
    for k in range(len(sol.u)):
        u = sol.u[k]
        p = solve_pressure_ns(u, sample_a(k * sol.dt), mu)
        resid = u_t[k] + advect(u, u) + grad(p) - mu * laplacian(u)
        interior[k] = float(np.sqrt(np.sum(w_int * (resid.ux**2 + resid.uy**2))))
        bc_perp = max(bc_perp, max_normal_trace(u, frame))
        bc_vort = max(bc_vort, max_vorticity_defect(u, frame, sample_a(k * sol.dt)))
    return ResidualReport(
        interior_l2_max=float(np.max(interior)),
        interior_l2=interior,
        bc_perp_max=bc_perp,
        bc_vorticity_max=bc_vort,
        initial_l2=l2(sol.u[0] - sol.u0),
    )


def compare_pressures(sol: NSSolution, a, mu: float, frame) -> float:
    """sup_t || p_ns(u) - (p_v + q) ||_2 after re-centering both to zero mean.

    p_ns is the single-field pressure of u; p_v + q is the split-path
    pressure from the fixed point plus the harmonic Stokes part.
    """
    grid = sol.u.grid
    sample_a, _ = normalize_boundary_data(a, frame)
    total_w = float(np.sum(grid.weights))
    worst = 0.0
    for k in range(len(sol.u)):
        p_direct = solve_pressure_ns(sol.u[k], sample_a(k * sol.dt), mu)
        combo = sol.p[k].values + sol.q[k].values
        combo = combo - grid.integrate(combo) / total_w
        worst = max(worst, l2(p_direct - ScalarField(grid, combo)))
    return worst
