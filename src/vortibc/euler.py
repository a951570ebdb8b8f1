"""Inviscid reference solver and the vanishing-viscosity sweep harness.

The Euler solver transports vorticity with RK2 and centered advection and
recovers velocity from a streamfunction that is constant on each boundary
component; on multiply connected domains the free constants are pinned by
conserved circulations (channel: conserved through-flux).  The sweep
compares viscous solutions against the inviscid one as viscosity decreases
and reports the fitted convergence slope together with a discretization
noise floor.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .elliptic import NeumannProblem, fd_tolerance, solve_dirichlet, solve_neumann
from .errors import CFLViolation, CirculationSystemSingular, SolverDiverged
from .fields import (
    FieldHistory,
    ScalarField,
    VectorField,
    _advect,
    _block,
    _d1,
    _dx_dy,
    _norm_sq,
    _sobolev_sq,
    curl2d,
    curl_scalar,
    grad_l2,
    h2,
    l2,
    max_speed,
    require_finite,
    step_count,
    tangential_part,
)
from .geometry import DomainKind, Grid, boundary_frame, surface_integrate
from .linearized import CFL_LIMIT, march
from .stokes import normalize_boundary_data

log = logging.getLogger(__name__)


class StreamfunctionSolver:
    """Velocity recovery u = rot(grad s) from vorticity, with the boundary
    constants fixed by conserved circulations / through-flux."""

    def __init__(self, grid: Grid, u0: VectorField):
        self.grid = grid
        self.kind = grid.spec.kind
        if self.kind == DomainKind.TORUS:
            total_w = float(np.sum(grid.weights))
            self.mean_u = (grid.integrate(u0.ux) / total_w,
                           grid.integrate(u0.uy) / total_w)
        elif self.kind == DomainKind.CHANNEL:
            # conserved through-flux sets s(top) - s(bottom)
            self.flux = grid.integrate(u0.ux) / grid.spec.length_x
        else:
            self.inner = boundary_frame(grid).components[0]
            self.target_circulation = circulation(u0, self.inner)
            # harmonic basis: 1 on the inner circle, 0 on the outer
            s1 = solve_dirichlet(grid, np.zeros(grid.shape), 1.0, 0.0)
            self.s1 = s1
            self.gamma1 = self._circulation(s1)
            if abs(self.gamma1) < 1e-12:
                raise CirculationSystemSingular(
                    "harmonic basis carries no circulation")

    def _circulation(self, s_values):
        # circulation along the inner component: oint <u, tau> dS = oint dr s dS,
        # read off the radial derivative the velocity reconstruction uses so
        # the enforced and measured circulations agree to solver tolerance
        g = self.grid
        drs = np.take(_d1(s_values, 0, g.h1, False), self.inner.nodes)
        r0 = float(g.c1[0])
        return float(np.sum(drs) * r0 * g.h2)

    def velocity(self, omega: ScalarField) -> VectorField:
        g = self.grid
        if self.kind == DomainKind.TORUS:
            # curl fields sum to zero exactly; transported states pick up an
            # O(h^2) mean that the repair path absorbs.
            s = solve_neumann(NeumannProblem(g, omega * (-1.0), [], fd_tolerance(g)))
            u = curl_scalar(s)
            return VectorField(g, u.ux + self.mean_u[0], u.uy + self.mean_u[1])
        if self.kind == DomainKind.CHANNEL:
            s = solve_dirichlet(g, -omega.values, 0.0, self.flux)
            return curl_scalar(ScalarField(g, s))
        s0 = solve_dirichlet(g, -omega.values, 0.0, 0.0)
        c = (self.target_circulation - self._circulation(s0)) / self.gamma1
        return curl_scalar(ScalarField(g, s0 + c * self.s1))


def euler_rows(u0: VectorField, T: float, dt: float, grid: Grid):
    """Vorticity-transport Euler solve, yielding the velocity at steps
    0, 1, ..., step_count(T, dt) as each is computed.

    RK2 (Heun) in time, centered advection in space; raises CFLViolation,
    naming the step, when dt * max|u| before that step exceeds 0.9 of the
    finest spacing.
    """
    nsteps = step_count(T, dt)
    require_finite(SolverDiverged, "solve_euler: u0", u0.ux, u0.uy)
    solver = StreamfunctionSolver(grid, u0)
    hmin = grid.min_spacing()
    omega = curl2d(u0)
    u = solver.velocity(omega)
    yield u
    for n in range(nsteps):
        u_block = _block(u)
        if dt * max_speed(u_block) / hmin > CFL_LIMIT:
            raise CFLViolation(f"Euler advective CFL exceeded at step {n}")
        k1 = _advect(grid, u_block, _block(omega))[0]
        om1 = ScalarField(grid, omega.values - dt * k1)
        u1 = solver.velocity(om1)
        k2 = _advect(grid, _block(u1), _block(om1))[0]
        omega = ScalarField(grid, omega.values - 0.5 * dt * (k1 + k2))
        u = solver.velocity(omega)
        yield u


def solve_euler(u0: VectorField, T: float, dt: float, grid: Grid) -> FieldHistory:
    """The velocity history of euler_rows, allocated before the first step."""
    hist = FieldHistory.zeros(grid, dt, step_count(T, dt) + 1)
    for n, u in enumerate(euler_rows(u0, T, dt, grid)):
        hist[n] = u
    return hist


def kinetic_energy(u: VectorField) -> float:
    return 0.5 * l2(u) ** 2


def circulation(u: VectorField, component) -> float:
    """oint <u, tau> dS along one boundary component."""
    tang = tangential_part(u, [component])[0]
    return float(np.sum(component.ds * tang))


# ---------------------------------------------------------------------------
# viscosity sweep

@dataclass
class SweepConfig:
    """Shared discretization for a decreasing-viscosity comparison."""

    mu_list: list
    u0: VectorField
    a: object
    T: float
    dt: float
    grid: Grid

    def __post_init__(self):
        mus = list(self.mu_list)
        if len(mus) < 1:
            raise ValueError("mu_list must be non-empty")
        if any(b >= a for a, b in zip(mus, mus[1:])):
            raise ValueError("mu_list must be strictly decreasing")


@dataclass
class SweepRow:
    mu: float
    e_sup: float
    e_grad: float
    noise_floor: float
    converged: bool     # the march for this mu completed


@dataclass
class SweepReport:
    rows: list
    slope: float | None          # least-squares slope of log e_sup vs log mu
    slope_note: str
    e_grad_ratio: float | None   # max/min across converged rows
    partial: bool = False

    def csv_rows(self):
        return [(r.mu, r.e_sup, r.e_grad, r.noise_floor, int(r.converged))
                for r in self.rows]


SWEEP_COLUMNS = ("mu", "e_sup", "e_grad", "noise_floor", "converged")


def sweep_mu(cfg: SweepConfig) -> SweepReport:
    """Compare every viscosity's march with the shared Euler reference in
    lockstep, a snapshot at a time: e_sup is a running max and e_grad a
    trapezoid over the per-step series, so no history is held.  The
    viscosities march as one batch (linearized.march), and the norms
    of their differences from the reference are one stacked evaluation per
    snapshot.

    A march that raises is dropped, its row is marked failed and the report
    partial; an Euler failure raises.  Once every march has dropped out the
    reference is not stepped further.  Rows are in mu order.
    """
    grid = cfg.grid
    noise_floor = 10.0 * (grid.min_spacing() ** 2 + cfg.dt)
    mus = list(cfg.mu_list)

    failed = {}
    marches = march(cfg.u0, cfg.a, mus, cfg.T, cfg.dt, failed)
    e_sup = dict.fromkeys(mus, 0.0)
    e_grad_series = {mu: [] for mu in mus}
    for u_euler in euler_rows(cfg.u0, cfg.T, cfg.dt, grid):
        live, u = next(marches, ((), None))
        if not live:
            break
        diff = u - _block(u_euler)
        # per row as l2 and grad_l2 ** 2 would
        for mu, l2_d, grad_sq in zip(live, np.sqrt(_sobolev_sq(grid, diff, 0, 0)),
                                     _norm_sq(grid, diff, 1, 1)):
            e_sup[mu] = max(e_sup[mu], float(l2_d))
            e_grad_series[mu].append(float(grad_sq))

    rows = []
    for mu in mus:
        if mu in failed:
            log.warning("sweep mu=%.3e failed: %s", mu, failed[mu])
            rows.append(SweepRow(mu, float("nan"), float("nan"), noise_floor, False))
        else:
            e_grad = float(np.trapezoid(e_grad_series[mu], dx=cfg.dt))
            rows.append(SweepRow(mu, e_sup[mu], e_grad, noise_floor, True))

    good = [r for r in rows if r.converged]
    slope = None
    slope_note = "n/a"
    if len(good) >= 2:
        xs = np.log([r.mu for r in good])
        ys = np.log([max(r.e_sup, 1e-300) for r in good])
        slope = float(np.polyfit(xs, ys, 1)[0])
        below = [r for r in good if r.e_sup < r.noise_floor]
        slope_note = "noise floor" if below else "ok"
    e_grad_ratio = None
    if good:
        vals = [r.e_grad for r in good if r.e_grad > 0]
        if vals:
            e_grad_ratio = float(max(vals) / min(vals))
    return SweepReport(rows=rows, slope=slope, slope_note=slope_note,
                       e_grad_ratio=e_grad_ratio, partial=bool(failed))


# ---------------------------------------------------------------------------
# viscous-difference differential inequality (regression form)

@dataclass
class ViscousGronwallReport:
    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def ok(self) -> bool:
        return bool(np.all(self.lhs <= self.rhs))


def check_gronwall_viscous(u_mu_hist: FieldHistory, u_hist: FieldHistory, a,
                           mu: float, mu0: float, frame, C: float,
                           include_mu_term: bool = True) -> ViscousGronwallReport:
    """Discrete form of the energy inequality for v = u_mu - u:

        d/dt ||v||^2 + mu ||grad v||^2
            <= C ((|grad u|_inf + mu0) ||v||^2
                  + mu (||a||^2_{L2(Gamma)} + ||u||^2_H2)),

    with a frozen regression constant C.  Interior snapshots only (centered
    time differences).  `include_mu_term=False` drops the mu-proportional
    forcing for sensitivity experiments.
    """
    dt = u_hist.dt
    nt = len(u_hist)
    diffs = u_mu_hist - u_hist
    vsq = np.array([l2(d) ** 2 for d in diffs])
    sample_a, _ = normalize_boundary_data(a, frame)

    times, lhs_list, rhs_list = [], [], []
    for k in range(1, nt - 1):
        dvdt = (vsq[k + 1] - vsq[k - 1]) / (2.0 * dt)
        lhs = dvdt + mu * grad_l2(diffs[k]) ** 2
        u = u_hist[k]
        # x and y partials of both components at once, over the row (2, n1, n2)
        grad_inf = max(float(np.max(np.abs(g))) for g in _dx_dy(u.grid, u_hist.data[k]))
        forcing = 0.0
        if include_mu_term:
            a_sq = 0.0
            if frame is not None:
                a_k = sample_a(k * dt)
                a_sq = surface_integrate(frame, [av * av for av in a_k])
            forcing = mu * (a_sq + h2(u) ** 2)
        rhs = C * ((grad_inf + mu0) * vsq[k] + forcing)
        times.append(k * dt)
        lhs_list.append(lhs)
        rhs_list.append(rhs)
    return ViscousGronwallReport(np.array(times), np.array(lhs_list),
                                 np.array(rhs_list))
