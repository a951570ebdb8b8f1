import itertools
import math

import numpy as np
import pytest

from vortibc import DomainKind, DomainSpec, VectorField, boundary_frame, build_grid


@pytest.fixture(scope="session")
def annulus_spec():
    return DomainSpec(DomainKind.ANNULUS, r_inner=1.0, r_outer=2.0)


@pytest.fixture(scope="session")
def annulus_grid(annulus_spec):
    return build_grid(annulus_spec, 32, 64)


@pytest.fixture(scope="session")
def annulus_frame(annulus_grid):
    return boundary_frame(annulus_grid)


@pytest.fixture(scope="session")
def torus_spec():
    return DomainSpec(DomainKind.TORUS, length_x=2 * math.pi, length_y=2 * math.pi)


@pytest.fixture(scope="session")
def torus_grid(torus_spec):
    return build_grid(torus_spec, 32, 32)


@pytest.fixture(scope="session")
def channel_spec():
    return DomainSpec(DomainKind.CHANNEL, length_x=2 * math.pi, length_y=2.0)


@pytest.fixture(scope="session")
def channel_grid(channel_spec):
    return build_grid(channel_spec, 32, 32)


def circulation_field(grid, c=1.0):
    """Stationary harmonic swirl c e_theta / r (exact steady state)."""
    return VectorField(grid, -c * np.sin(grid.theta) / grid.r,
                       c * np.cos(grid.theta) / grid.r)


def taylor_green(grid, amp=1.0):
    return VectorField(grid, amp * np.sin(grid.x) * np.cos(grid.y),
                       -amp * np.cos(grid.x) * np.sin(grid.y))


def shear_field(grid, amp=1.0, moduln=0.0):
    r0, r1 = grid.r_inner_eff, grid.r_outer_eff
    prof = amp * np.sin(math.pi * (grid.r - r0) / (r1 - r0))
    if moduln:
        prof = prof * (1.0 + moduln * np.cos(2 * grid.theta))
    return VectorField(grid, -prof * np.sin(grid.theta), prof * np.cos(grid.theta))


def streamfunction_shear(grid, amp=1.0, moduln=0.3):
    """Divergence-free (to stencil order) swirl with theta modulation and
    nonzero boundary vorticity; psi vanishes on both circles so u_perp = 0
    exactly."""
    from vortibc import ScalarField, curl_scalar

    r0, r1 = grid.r_inner_eff, grid.r_outer_eff
    psi = amp * np.sin(math.pi * (grid.r - r0) / (r1 - r0)) \
        * (1.0 + moduln * np.cos(2 * grid.theta))
    return curl_scalar(ScalarField(grid, psi))


def analytic_streamfunction_shear(r0, r1, amp=1.0, moduln=0.3):
    """Grid-independent closure for the rotated gradient of the windowed
    streamfunction; u_perp vanishes exactly on both circles."""
    k = math.pi / (r1 - r0)

    def fn(x, y):
        r = np.hypot(x, y)
        th = np.arctan2(y, x)
        mod = 1.0 + moduln * np.cos(2 * th)
        psi_r = amp * k * np.cos(k * (r - r0)) * mod
        psi_th = -2.0 * amp * moduln * np.sin(k * (r - r0)) * np.sin(2 * th)
        ux = np.sin(th) * psi_r + np.cos(th) * psi_th / r
        uy = -(np.cos(th) * psi_r - np.sin(th) * psi_th / r)
        return ux, uy
    return fn


def fail_march_at(monkeypatch, mu_fail, snapshot=None, nonfinite=False, step=False):
    """Fault injection: the march of one viscosity fails and every other
    runs normally, inside the batch that marches them all.  With snapshot
    None its set-up raises a typed solver error.  Otherwise its Stokes
    snapshots are true before that snapshot and, in its place, raise the
    error or, with nonfinite, carry a NaN: the march then yields that
    snapshot and its row fails the next step's stacked pressure solve.
    With step, its Stokes snapshots are all true and its implicit step to
    that snapshot raises the error instead."""
    from vortibc import linearized
    from vortibc.errors import SolverDiverged

    lane = linearized._lane

    def failing(u0, a, mu, *args):
        if mu != mu_fail:
            return lane(u0, a, mu, *args)
        if snapshot is None:
            raise SolverDiverged(f"injected failure at mu={mu}")
        vmap, w_rows = lane(u0, a, mu, *args)
        if step:
            vmap.step = raise_at_call(vmap.step, snapshot, SolverDiverged(
                f"injected failure at mu={mu}, step to snapshot {snapshot}"))
            return vmap, w_rows
        if nonfinite:
            return vmap, nan_at(w_rows, snapshot)
        return vmap, raise_at(w_rows, snapshot, SolverDiverged(
            f"injected failure at mu={mu}, snapshot {snapshot}"))
    monkeypatch.setattr(linearized, "_lane", failing)


# the fault modes of fail_march_at, as (snapshot, nonfinite)
MARCH_FAULTS = [(None, False), (150, False), (150, True)]


def nan_at(rows, snapshot):
    """Yield the rows, with a NaN in the one of the given snapshot."""
    for k, u in enumerate(rows):
        if k == snapshot:
            u = VectorField(u.grid, u.ux.copy(), u.uy)
            u.ux[0, 0] = np.nan
        yield u


def raise_at_call(fn, call, exc):
    """fn, except that its call number `call` (counted from 1) raises exc."""
    calls = itertools.count(1)

    def wrapped(*args, **kwargs):
        if next(calls) == call:
            raise exc
        return fn(*args, **kwargs)
    return wrapped


def raise_at(rows, snapshot, exc):
    """Yield the rows before the given snapshot, then raise exc in its place."""
    for k, u in enumerate(rows):
        if k == snapshot:
            raise exc
        yield u


def energy_rows_from_histories(v, beta, w):
    """The F_COLUMNS rows of linearized.compute_F, assembled from whole
    histories: the time derivatives of v, beta, w, div v and curl v as
    histories, the divergence coupling of every snapshot in one solve, and
    one row per snapshot from the public operators."""
    from vortibc import FieldHistory, ScalarField, curl2d, curl_scalar, div
    from vortibc.elliptic import solve_transport
    from vortibc.fields import _n_norm_sq, grad_l2, l2

    grid, dt, nt = v.grid, v.dt, len(v)
    d = FieldHistory(grid, dt, np.array([div(vk).values for vk in v]))
    om = FieldHistory(grid, dt, np.array([curl2d(vk).values for vk in v]))
    v_t, beta_t, w_t, d_t, om_t = (h.time_derivative() for h in (v, beta, w, d, om))
    q_all = solve_transport(grid, (beta + w).data, (beta - v).data)
    comps = np.zeros((3, nt))
    for k in range(nt):
        q = ScalarField(grid, q_all[k])
        comps[0, k] = l2(v[k]) ** 2 + l2(curl_scalar(om[k])) ** 2
        comps[1, k] = grad_l2(d[k] - q) ** 2 + grad_l2(q) ** 2
        comps[2, k] = l2(v_t[k]) ** 2 + l2(d_t[k]) ** 2 + l2(om_t[k]) ** 2
    load = 1.0 + _n_norm_sq(grid, beta.data, beta_t.data) + _n_norm_sq(grid, w.data, w_t.data)
    F = comps[0] + comps[1] + comps[2]
    Q = np.zeros(nt)
    Q[1:] = np.cumsum(0.5 * dt * (load[1:] + load[:-1]))
    return [(dt * k, F[k], Q[k], *comps[:, k]) for k in range(nt)]


def zero_mean(grid, values):
    return values - grid.integrate(values) / float(np.sum(grid.weights))


def observed_orders(residuals):
    r = np.asarray(residuals, dtype=float)
    return [math.log2(a / b) for a, b in zip(r[:-1], r[1:])]


def ls_order(residuals):
    r = np.asarray(residuals, dtype=float)
    x = np.arange(len(r))
    return float(-np.polyfit(x, np.log2(r), 1)[0])
