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

from .elliptic import solve_harmonic_q, solve_pressure_euler, solve_pressure_ns, solve_transport
from .errors import MaxIterExceeded, NoContraction
from .fields import (
    _NORM_ROWS,
    FieldHistory,
    ScalarField,
    VectorField,
    Workspace,
    _div,
    _frame,
    _n_norm_sq,
    _scratch,
    advect,
    check_history_budget,
    div,
    grad,
    history_chunks,
    l2,
    laplacian,
    max_normal_trace,
    max_vorticity_defect,
    step_count,
    time_derivative_rows,
)
from .geometry import boundary_frame
from .linearized import VelocityMap, energy_rows, march
from .stokes import normalize_boundary_data, stokes_rows


# Vector-history equivalents (a scalar history counts half) alive at the peak
# of an `ns` run: v and w.  Picard sweeps v in place, and the increment norm,
# the sweep's workspace and the pass over the converged solution (ns_rows)
# hold row chunks only.  tracemalloc puts the peak of a 24^2 torus run of
# 201 snapshots at 2.7 histories, the rest being those chunks and the
# buffers the workspace outgrows on its first chunk.  A caller that reads
# NSSolution.u holds 1 more.
_NS_PEAK_HISTORIES = 2


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
    """Converged splitting u = v + w with the convergence trace, on the
    time grid of v and w; u0 is w[0].  u is a whole history made on first
    use; ns_rows gives the snapshots of u, and of the pressure on request,
    without holding them."""

    v: FieldHistory
    w: FieldHistory
    trace: list          # rows (iter, delta_WT, ratio) with ratio NaN at k=1
    mu: float

    @cached_property
    def u(self) -> FieldHistory:
        return self.v + self.w


def wt_norm(a: FieldHistory, chunk=None, work: Workspace | None = None) -> float:
    """sup over snapshots of the N-norm of the history a; like a running max
    from 0, it skips NaN rows.

    It runs over chunks of _NORM_ROWS snapshots (fields.history_chunks),
    each differenced in time on the window its time derivative reads, so
    the time derivative is never a whole history.  A chunk that vanishes on
    its whole window adds exactly 0 and is skipped: in Picard sweep k,
    iterates k - 1 and k agree on snapshots 0..k - 1.  With chunk (a
    fields.Chunk of such a history), a holds only the rows of the chunk's
    window, and the sup runs over the chunk's own snapshots; the norm of
    the history is the max over its chunks, which is how a Picard sweep
    takes it while it writes their rows.  work lends the norm's block
    temporaries their blocks.
    """
    worst = 0.0
    for c in history_chunks(len(a), _NORM_ROWS) if chunk is None else [chunk]:
        window = a.data[c.lo:c.hi] if chunk is None else a.data
        if not window.any():
            continue
        with _frame(work):
            own = c.own(window)
            own_t = time_derivative_rows(window, c, a.dt, _scratch(work, own.shape))
            n_sq = _n_norm_sq(a.grid, own, own_t, work)
        worst = np.fmax(worst, np.fmax.reduce(np.sqrt(n_sq), initial=0.0))
    return float(worst)


def march_solve(u0: VectorField, a, mu: float, T: float, dt: float) -> FieldHistory:
    """The u history of the march of the one viscosity mu, allocated before
    the first step: the k = 1 case of linearized.march, raising its failure."""
    u_hist = FieldHistory.zeros(u0.grid, dt, step_count(T, dt) + 1)
    failed = {}
    for n, (_, u) in enumerate(march(u0, a, [mu], T, dt, failed)):
        u_hist.data[n] = u[0]
    if failed:
        raise failed[mu]
    return u_hist


def _sweep(vmap: VelocityMap, v: FieldHistory, w: FieldHistory, first: int,
           old) -> float:
    """One Picard sweep in place: v holds iterate k - 1, final on rows
    0..first, and leaves holding iterate k; returns the increment, the
    wt_norm of v^k - v^(k-1).

    Step n + 1 overwrites row n + 1, whose old value goes to row (n + 1) %
    len(old) of the ring old first.  The carriers of a pressure chunk are
    formed before its rows are overwritten, its first row from the ring.
    The increment is taken a _NORM_ROWS chunk at a time, as soon as the
    sweep has written every row of the chunk's window, from the window's
    new rows and their old values.  A window spans at most _NORM_ROWS + 2
    rows, and the ring holds the old values of the last _NORM_ROWS + 2 rows
    written, so every old row a window reads is still there.
    """
    grid, nt, ring, work = v.grid, len(v), len(old), vmap.work
    vd, wd = v.data, w.data

    def old_row(r):
        return vd[r] if r <= first else old[r % ring]

    def carriers(n0, n1, out):
        np.add(old_row(n0), wd[n0], out=out[0])
        np.add(vd[n0 + 1:n1], wd[n0 + 1:n1], out=out[1:])
        return out

    chunks = history_chunks(nt, _NORM_ROWS)
    c = next(chunks)
    worst = 0.0

    def increments(written):
        """The increments of the chunks whose windows end at or before
        row `written`."""
        nonlocal c, worst
        while c is not None and c.hi - 1 <= written:
            with work.frame():
                diff = work.block((c.hi - c.lo, 2, *grid.shape))
                for r in range(c.lo, c.hi):
                    np.subtract(vd[r], old_row(r), out=diff[r - c.lo])
                worst = np.fmax(worst, wt_norm(FieldHistory(grid, v.dt, diff), chunk=c,
                                               work=work))
            c = next(chunks, None)

    increments(first)
    for n, v_n in vmap.steps(vd, wd, first, carriers):
        old[n % ring] = vd[n]
        v[n] = v_n
        increments(n)
    return float(worst)


def picard_solve(u0: VectorField, a, mu: float, T: float, dt: float,
                 cfg: PicardConfig, scheme: str = "backward-euler") -> NSSolution:
    """Iterate v <- V(v) from v = 0 until the W_T increment drops below
    tol_fix.

    The iterates share one history, each sweep overwriting the last
    (_sweep).  Raises NoContraction when the increment ratio stays >= 1
    over the configured window (the discrete shadow of the small-time
    requirement) and MaxIterExceeded at the iteration cap.
    """
    grid = u0.grid
    nt = step_count(T, dt) + 1
    check_history_budget((nt, 2, *grid.shape), _NS_PEAK_HISTORIES)
    w = FieldHistory.zeros(grid, dt, nt)
    for n, (w_n, _) in enumerate(stokes_rows(u0, a, mu, T, dt, scheme)):
        w[n] = w_n
    v = FieldHistory.zeros(grid, dt, nt)
    vmap = VelocityMap(grid, mu, dt)
    old = np.empty((_NORM_ROWS + 2, 2, *grid.shape))   # _sweep's ring of overwritten rows

    trace = []
    delta_prev = None
    bad_streak = 0
    for it in range(1, cfg.max_iter + 1):
        # iterate it - 1 is final on rows 0..it - 1, so sweep it steps from there
        delta = _sweep(vmap, v, w, min(it - 1, nt - 1), old)
        ratio = float("nan") if delta_prev is None else (
            delta / delta_prev if delta_prev > 0 else 0.0)
        trace.append((it, delta, ratio))
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

    return NSSolution(v=v, w=w, trace=trace, mu=mu)


def ns_rows(sol: NSSolution):
    """The snapshots of a converged splitting, in one pass over chunks of
    _NORM_ROWS snapshots of v and w: yields (u, p, div v) for each
    snapshot, where p is a function that solves the snapshot's pressure when
    called, so a caller that keeps only some pressures solves only those.
    From 3 snapshots on, each tuple goes on with the snapshot's four
    compute_F terms from linearized.energy_rows, which then also supplies
    div v.
    """
    grid, v, w = sol.v.grid, sol.v.data, sol.w.data
    terms = energy_rows(sol.v, sol.v, sol.w) if len(v) >= 3 else None
    for c in history_chunks(len(v), _NORM_ROWS):
        u = v[c.i:c.j] + w[c.i:c.j]
        # the linearized pressure of (v, w) is the pressure of the carrier u = v + w
        if terms is None:
            d, extra = _div(grid, v[c.i:c.j, 0], v[c.i:c.j, 1]), ()
        else:
            d, *extra = next(terms)
        for k in range(c.j - c.i):
            yield (VectorField(grid, *u[k]),
                   lambda u=u[k:k + 1]: ScalarField(grid, solve_transport(grid, u)[0]),
                   ScalarField(grid, d[k]), *(e[k] for e in extra))


@dataclass
class IncompressibilityReport:
    times: np.ndarray
    div_l2: np.ndarray

    @property
    def max_div(self) -> float:
        return float(np.max(self.div_l2))


def verify_incompressibility(sol: NSSolution) -> IncompressibilityReport:
    """max_t ||div v(t)||_2: the divergence the fixed point recovered."""
    return IncompressibilityReport(sol.v.times, np.array([l2(div(v)) for v in sol.v]))


@dataclass
class ResidualReport:
    interior_l2_max: float
    interior_l2: np.ndarray
    bc_perp_max: float
    bc_vorticity_max: float


def ns_residual(sol: NSSolution, a) -> ResidualReport:
    """Momentum residual of u = v + w using the recovered pressure.

    Interior residual of du/dt + u.grad u + grad p - mu lap u with the
    pressure re-derived from u at each snapshot; boundary residuals report
    |u_perp| and |curl u - a|.
    """
    grid, mu, dt = sol.u.grid, sol.mu, sol.v.dt
    frame = boundary_frame(grid)
    u_t = sol.u.time_derivative()
    sample_a, _ = normalize_boundary_data(a, frame)
    interior = np.zeros(len(sol.u))
    w_int = grid.weights * ~grid.wall_mask

    bc_perp = 0.0
    bc_vort = 0.0
    for k in range(len(sol.u)):
        u = sol.u[k]
        p = solve_pressure_ns(u, sample_a(k * dt), mu)
        resid = u_t[k] + advect(u, u) + grad(p) - mu * laplacian(u)
        interior[k] = float(np.sqrt(np.sum(w_int * (resid.ux**2 + resid.uy**2))))
        bc_perp = max(bc_perp, max_normal_trace(u, frame))
        bc_vort = max(bc_vort, max_vorticity_defect(u, frame, sample_a(k * dt)))
    return ResidualReport(
        interior_l2_max=float(np.max(interior)),
        interior_l2=interior,
        bc_perp_max=bc_perp,
        bc_vorticity_max=bc_vort,
    )


def compare_pressures(sol: NSSolution, a) -> float:
    """sup_t || p_ns(u) - (p_v + q) ||_2 after re-centering both to zero mean.

    p_ns is the single-field pressure of u; p_v + q is the split-path
    pressure: the pressure of the carrier u = v + w, which ns_rows solves,
    plus the harmonic Stokes part q(t) that stokes_rows computes (zero with
    no boundary).
    """
    grid, mu, dt = sol.u.grid, sol.mu, sol.v.dt
    frame = boundary_frame(grid)
    sample_a, _ = normalize_boundary_data(a, frame)
    total_w = float(np.sum(grid.weights))
    worst = 0.0
    for k in range(len(sol.u)):
        u, a_k = sol.u[k], sample_a(k * dt)
        p_direct = solve_pressure_ns(u, a_k, mu)
        combo = solve_pressure_euler(u).values + solve_harmonic_q(a_k, mu, frame).values
        combo = combo - grid.integrate(combo) / total_w
        worst = max(worst, l2(p_direct - ScalarField(grid, combo)))
    return worst
