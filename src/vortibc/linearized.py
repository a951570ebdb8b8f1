"""The velocity map: one pass of the linearized parabolic problem.

Given a transported field beta (absolute boundary conditions, vanishing at
t = 0) and the Stokes solution w, advance

    dv/dt + (beta + w) . grad (v + w) + grad p  =  mu lap v,

with v_perp = 0 and curl(v) = 0 on the boundary, v(0) = 0.  Diffusion is
implicit; advection and the pressure gradient are explicit at the old time
level.  The module also assembles the energy functional F(t) and the
exponential envelope check used as a regression on calibration scenarios.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .elliptic import _PRESSURE_ROWS, solve_pressure_linearized, solve_transport
from .errors import CFLViolation
from .fields import (
    _NORM_ROWS,
    FieldHistory,
    VectorField,
    Workspace,
    _advect,
    _curl,
    _div,
    _dx_dy,
    _frame,
    _n_norm_sq,
    _norm_sq,
    _pair,
    advect,
    cumulative_trapezoid,
    curl2d,
    grad,
    history_chunks,
    l2,
    max_speed,
    time_derivative_rows,
)
from .geometry import boundary_frame, boundary_zeros
from .stepping import VelocityStepper
from .stokes import stokes_rows

# largest dt * max|u| / (finest spacing) of an explicit advection step, here and in euler
CFL_LIMIT = 0.9


def pressure_gradients(grid, dt: float, s, steps, work: Workspace | None = None):
    """grad p for each row of the (rows, 2, n1, n2) carrier block s, row i
    being a carrier of step steps[i]; the linearized pressure of (beta, w)
    is the inviscid pressure of s = beta + w.  Returns (gx, gy), each
    (rows, n1, n2), in blocks of work when given.

    Raises CFLViolation when dt * max|s| exceeds 0.9 of the finest cell
    spacing, naming the step of the first such row.
    """
    cfl = dt * max_speed(s, work) / grid.min_spacing()
    bad = np.flatnonzero(cfl > CFL_LIMIT)
    if bad.size:
        raise CFLViolation(
            f"advective CFL {cfl[bad[0]]:.3f} > {CFL_LIMIT} at step {steps[bad[0]]}")
    gradients = _pair(work, (len(s), *grid.shape))
    with _frame(work):
        return _dx_dy(grid, solve_transport(grid, s, work=work), gradients)


def _forcing(grid, s, y, gx, gy):
    """-(s . grad y + grad p) for each row of the (rows, 2, n1, n2) blocks s
    and y, with grad p = (gx, gy): the explicit part of a velocity-map step."""
    f = _advect(grid, s, y)
    f[:, 0] += gx
    f[:, 1] += gy
    f *= -1.0
    return f


class VelocityMap:
    """The velocity map's time stepping on one grid and (mu, dt).

    The Picard iteration (`steps`) and the causal march (`march`) take the
    same steps through `_forcing` and `step`, so they run the same
    floating-point operations: iterate k of the iteration equals the march
    bit for bit on snapshots 0..k.  A Picard sweep knows every carrier s =
    beta + w before it starts, so it solves their pressures _PRESSURE_ROWS
    snapshots ahead; each row of that solve equals its one-row solve bit
    for bit.
    """

    def __init__(self, grid, mu: float, dt: float):
        self.grid = grid
        self.dt = dt
        self.a_zero = boundary_zeros(boundary_frame(grid))
        self.stepper = VelocityStepper(grid, mu, dt, theta=1.0)
        # the carrier, pressure and norm blocks of every sweep
        self.work = Workspace()

    def step(self, v: VectorField, forcing) -> VectorField:
        """v at step n+1 from v at step n and the (2, n1, n2) forcing row
        of _forcing at step n."""
        return self.stepper.step(v, VectorField(self.grid, *forcing), self.a_zero)

    def steps(self, v, w, first: int, carriers):
        """One sweep over the snapshots of the (nt, 2, n1, n2) array w from
        step `first` on: yields n + 1 and v at step n + 1 for n = first..nt - 2,
        reading v at step n from the array v, where the caller writes each
        yielded row before the next step.  carriers(i, j, out) fills the
        block out with the carriers s = beta + w of steps i..j - 1 and
        returns it; it is called before the first of those steps, when row
        i of v is already written."""
        g = self.grid
        nt = len(w)
        for n0 in range(first, nt - 1, _PRESSURE_ROWS):
            n1 = min(n0 + _PRESSURE_ROWS, nt - 1)
            with self.work.frame():
                s = carriers(n0, n1, self.work.block((n1 - n0, 2, *g.shape)))
                gx, gy = pressure_gradients(g, self.dt, s, range(n0, n1), self.work)
                for i, n in enumerate(range(n0, n1)):
                    y = v[n] + w[n]
                    rows = slice(i, i + 1)
                    forcing = _forcing(g, s[rows], y[np.newaxis], gx[rows], gy[rows])
                    yield n + 1, self.step(VectorField(g, *v[n]), forcing[0])


def _lane(u0: VectorField, a, mu: float, T: float, dt: float):
    """One viscosity of a march: its velocity map and its Stokes snapshots."""
    w_rows = (w for w, _ in stokes_rows(u0, a, mu, T, dt))
    return VelocityMap(u0.grid, mu, dt), w_rows


def march(u0: VectorField, a, mus, T: float, dt: float, failed: dict):
    """The backward-Euler fixed points u = v + w of the velocity map for
    each viscosity in mus, in one forward sweep of all of them in lockstep,
    with each Stokes part advanced in step: yields, for each snapshot n, the
    viscosities still marching and the (k, 2, n1, n2) block of their u_n =
    v_n + w_n.  Each viscosity's lane (_lane) is set up at the first next().

    Step n+1 of the map reads beta only at step n, so the fixed point obeys
    v_{n+1} = Step(v_n; beta_n = v_n) and is computed causally, with no
    iteration: Picard iterate k equals this march on snapshots 0..k.  The
    carrier s_n = v_n + w_n is u_n itself and is known one step ahead
    only, so step n makes one stacked pressure solve and one stacked
    advection over the carriers of step n - 1, once every w_n has arrived;
    each lane's implicit step uses its own LU.

    A viscosity whose set-up, Stokes snapshot, pressure row or implicit
    step raises is dropped, with its exception in failed[mu], which is what
    its one-viscosity march raises.  Every row of a stacked call equals its
    one-row call bit for bit, so the others go on as if it had never marched.
    """
    grid = u0.grid
    lanes = {}
    for mu in mus:
        try:
            lanes[mu] = _lane(u0, a, mu, T, dt)
        except Exception as exc:  # noqa: BLE001 - the viscosity fails alone
            failed[mu] = exc
    v = {mu: VectorField.zeros(grid) for mu in lanes}
    for n in itertools.count():
        w = {}
        for mu, (_, w_rows) in lanes.items():
            try:
                w[mu] = next(w_rows)
            except StopIteration:
                return
            except Exception as exc:  # noqa: BLE001 - the lane fails alone
                failed[mu] = exc
        if n:
            # the carriers of step n - 1 of the lanes whose w_n arrived
            keep = [i for i, mu in enumerate(live) if mu in w]
            live, s, gx, gy = _pressure_stage(grid, dt, [live[i] for i in keep], s[keep],
                                              n - 1, failed)
            for mu, f in zip(live, _forcing(grid, s, s, gx, gy)):
                try:
                    v[mu] = lanes[mu][0].step(v[mu], f)
                except Exception as exc:  # noqa: BLE001
                    failed[mu] = exc
        live = [mu for mu in w if mu not in failed]
        if not live:
            return
        lanes = {mu: lanes[mu] for mu in live}
        s = np.empty((len(live), 2, *grid.shape))
        for i, mu in enumerate(live):
            np.add(v[mu].ux, w[mu].ux, out=s[i, 0])
            np.add(v[mu].uy, w[mu].uy, out=s[i, 1])
        yield live, s


def _pressure_stage(grid, dt, live, s, step, failed):
    """pressure_gradients of the carriers s of step `step`, one row per live
    lane, as one stacked call.  The stacked kernels raise on the first bad
    row, so when it raises each row is redone alone: a lane whose row raises
    goes to failed and out of the returned (live, s, gx, gy)."""
    try:
        return (live, s, *pressure_gradients(grid, dt, s, [step] * len(live)))
    except Exception:  # noqa: BLE001 - retried row by row below
        pass
    keep, gx, gy = [], np.empty_like(s[:, 0]), np.empty_like(s[:, 0])
    for i, mu in enumerate(live):
        try:
            (gx[i],), (gy[i],) = pressure_gradients(grid, dt, s[i:i + 1], [step])
        except Exception as exc:  # noqa: BLE001
            failed[mu] = exc
        else:
            keep.append(i)
    return [live[i] for i in keep], s[keep], gx[keep], gy[keep]


def apply_velocity_map(beta: FieldHistory, w: FieldHistory, mu: float,
                       v_init: VectorField | None = None) -> FieldHistory:
    """Advance the linearized problem on the time grid of w; returns the v
    history.

    beta and w share grid, dt, and snapshot count; beta[0] must vanish.
    v_init is the initial value of the evolving unknown (kept zero for the
    fixed-point iteration; exposed for superposition tests).
    """
    if len(beta) != len(w):
        raise ValueError("beta and w must have the same snapshot count")
    if abs(beta.dt - w.dt) > 1e-14:
        raise ValueError("beta and w must share dt")
    if l2(beta[0]) > 1e-12 * max(1.0, l2(w[0])):
        raise ValueError("beta(0) must vanish")
    v_hist = FieldHistory.zeros(w.grid, w.dt, len(w))
    if v_init is not None:
        v_hist[0] = v_init

    def carriers(n0, n1, out):
        return np.add(beta.data[n0:n1], w.data[n0:n1], out=out)

    for n, v_n in VelocityMap(w.grid, mu, w.dt).steps(v_hist.data, w.data, 0, carriers):
        v_hist[n] = v_n
    return v_hist


@dataclass
class EnergyDiagnostics:
    """Time series of the energy functional and its components.

    F bundles ||(v, psi)||^2, ||(grad g, grad q)||^2 and the time-derivative
    block ||(v_t, d_t, omega_t)||^2; Q is the cumulative load integral
    int (1 + ||(beta, w)||_N^2) dt, nondecreasing by construction.
    """

    times: np.ndarray
    F: np.ndarray
    Q: np.ndarray
    comp_v_psi: np.ndarray
    comp_grad_gq: np.ndarray
    comp_time_derivs: np.ndarray
    load: np.ndarray  # 1 + ||(beta, w)(t)||_N^2

    @classmethod
    def from_terms(cls, dt: float, comp_v_psi, comp_grad_gq, comp_td, load):
        """F and Q from the per-snapshot terms of energy_rows."""
        F = comp_v_psi + comp_grad_gq + comp_td
        Q = cumulative_trapezoid(load, dt)
        times = dt * np.arange(len(F))
        return cls(times, F, Q, comp_v_psi, comp_grad_gq, comp_td, load)

    def rows(self):
        for k in range(len(self.times)):
            yield (self.times[k], self.F[k], self.Q[k], self.comp_v_psi[k],
                   self.comp_grad_gq[k], self.comp_time_derivs[k])


F_COLUMNS = ("t", "F", "Q", "l2sq_v_psi", "l2sq_gradg_gradq", "l2sq_vt_dt_wt")


def energy_rows(v_hist: FieldHistory, beta_hist: FieldHistory, w_hist: FieldHistory):
    """compute_F's per-snapshot terms, _NORM_ROWS snapshots at a time:
    yields (div v, ||(v, psi)||^2, ||(grad g, grad q)||^2,
    ||(v_t, d_t, omega_t)||^2, load) on the rows of each chunk.

    Time derivatives, and div v and curl v, are taken on the chunk's window
    (fields.history_chunks), so the rows that consecutive windows share are
    evaluated again; each norm is taken on the chunk's rows stacked.  Every
    value equals its whole-history evaluation bit for bit.
    """
    grid, dt = v_hist.grid, v_hist.dt
    v, beta, w = v_hist.data, beta_hist.data, w_hist.data
    for c in history_chunks(len(v), _NORM_ROWS):
        window, rows = slice(c.lo, c.hi), slice(c.i, c.j)
        d_win = _div(grid, v[window, 0], v[window, 1])
        om_win = _curl(grid, v[window, 0], v[window, 1])
        v_t = time_derivative_rows(v[window], c, dt)
        # at the fixed point beta is v itself: difference that history once
        beta_t = v_t if beta_hist is v_hist else time_derivative_rows(beta[window], c, dt)
        w_t = time_derivative_rows(w[window], c, dt)
        d, om = c.own(d_win)[:, np.newaxis], c.own(om_win)
        d_t, om_t = time_derivative_rows(d_win, c, dt), time_derivative_rows(om_win, c, dt)
        # psi = curl(om e_z) = (d om/dy, -d om/dx)
        om_x, om_y = _dx_dy(grid, om)
        psi = np.stack((om_y, np.negative(om_x, out=om_x)), axis=1)
        comp_v_psi = _norm_sq(grid, v[rows], 0, 0) + _norm_sq(grid, psi, 0, 0)
        if beta_hist is v_hist:
            # the divergence coupling q vanishes with its data at the fixed
            # point beta = v, and the + ||grad q||^2 = + 0.0 changes no bit
            comp_grad_gq = _norm_sq(grid, d, 1, 1)
        else:
            # q for s = beta + w, e = beta - v
            q = solve_transport(grid, beta[rows] + w[rows], beta[rows] - v[rows])[:, np.newaxis]
            comp_grad_gq = _norm_sq(grid, d - q, 1, 1) + _norm_sq(grid, q, 1, 1)
        comp_td = (_norm_sq(grid, v_t, 0, 0) + _norm_sq(grid, d_t[:, np.newaxis], 0, 0)
                   + _norm_sq(grid, om_t[:, np.newaxis], 0, 0))
        load = 1.0 + _n_norm_sq(grid, beta[rows], beta_t) + _n_norm_sq(grid, w[rows], w_t)
        yield d[:, 0], comp_v_psi, comp_grad_gq, comp_td, load


def compute_F(v_hist: FieldHistory, beta_hist: FieldHistory,
              w_hist: FieldHistory) -> EnergyDiagnostics:
    """Assemble F(t) and Q(t) from the computed histories (energy_rows).

    Needs at least 3 snapshots for interior-centered time derivatives.  The
    auxiliary scalar q couples the current v explicitly (same-step values).
    """
    if len(v_hist) < 3:
        raise ValueError("compute_F needs at least 3 snapshots")
    _, *terms = zip(*energy_rows(v_hist, beta_hist, w_hist))
    return EnergyDiagnostics.from_terms(v_hist.dt, *map(np.concatenate, terms))


def initial_energy_direct(u0: VectorField) -> float:
    """Direct assembly of F(0): the squared norms of the initial momentum
    residual u0.grad(u0) + grad(p0) and of curl(u0.grad(u0))."""
    adv = advect(u0, u0)
    p0 = solve_pressure_linearized(VectorField.zeros(u0.grid), u0)
    resid = adv + grad(p0)
    return l2(resid) ** 2 + l2(curl2d(adv)) ** 2


def gronwall_envelope(diag: EnergyDiagnostics, C1: float, C2: float) -> np.ndarray:
    """Pointwise envelope C1 e^{C2 Q(t)} (F(0) + int_0^t e^{-C2 Q} load^2 ds)."""
    dt = float(diag.times[1] - diag.times[0]) if len(diag.times) > 1 else 0.0
    integral = cumulative_trapezoid(np.exp(-C2 * diag.Q) * diag.load**2, dt)
    return C1 * np.exp(C2 * diag.Q) * (diag.F[0] + integral)


def check_gronwall_regression(diag: EnergyDiagnostics, C1: float, C2: float):
    """Frozen-constant envelope check: F(t) <= envelope at every snapshot.

    Returns (ok, max_ratio): the continuous constants are not constructive, so C1, C2
    come from a calibration run and act as regression values.
    """
    env = gronwall_envelope(diag, C1, C2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(env > 0, diag.F / env, np.inf)
        ratios[diag.F == 0] = 0.0
    max_ratio = float(np.max(ratios))
    return bool(np.all(diag.F <= env)), max_ratio
