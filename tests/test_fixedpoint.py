import math
import warnings

import numpy as np
import pytest

from conftest import circulation_field, streamfunction_shear, taylor_green
from vortibc import (FieldHistory, ScalarField, VectorField, boundary_frame,
                     build_grid, curl2d, div, grad)
from vortibc.errors import NoContraction
from vortibc.fields import boundary_scalar_values, l2
from vortibc.fixedpoint import (NSSolution, PicardConfig, compare_pressures,
                                march_solve, ns_residual, picard_solve,
                                verify_incompressibility, wt_norm)
from vortibc.generators import random_absolute_bc_field
from vortibc.linearized import apply_velocity_map
from vortibc.stokes import solve_stokes


def test_zero_data_single_iteration(annulus_grid):
    sol = picard_solve(VectorField.zeros(annulus_grid), None, 0.1, 0.05, 0.01,
                       PicardConfig(tol_fix=1e-10))
    assert len(sol.trace) == 1
    assert max(l2(u) for u in sol.u) == 0.0
    assert sol.trace[0][1] == 0.0


def test_stationary_circulation_close(annulus_spec):
    grid = build_grid(annulus_spec, 48, 96)
    u0 = circulation_field(grid, c=0.3)
    a = [np.zeros(96), np.zeros(96)]
    for mu in (0.1, 0.01):
        sol = picard_solve(u0, a, mu, T=0.1, dt=0.002,
                           cfg=PicardConfig(tol_fix=1e-9, max_iter=20))
        assert max(l2(u - u0) for u in sol.u) <= 1e-3
        assert l2(sol.u[0] - u0) <= 1e-12


def test_fixed_point_consistency(annulus_spec):
    # one extra map application moves the converged iterate by <= 2 tol_fix
    grid = build_grid(annulus_spec, 24, 48)
    u0 = streamfunction_shear(grid, amp=0.4)
    frame = boundary_frame(grid)
    a = boundary_scalar_values(curl2d(u0), frame)
    tol = 1e-7
    sol = picard_solve(u0, a, 0.05, 0.05, 0.0025,
                       PicardConfig(tol_fix=tol, max_iter=25))
    extra = apply_velocity_map(beta=sol.v, w=sol.w, mu=sol.mu, dt=sol.dt)
    moved = wt_norm(extra - sol.v)
    assert moved <= 2 * tol


def test_contraction_ratios_taylor_green(torus_spec):
    grid = build_grid(torus_spec, 32, 32)
    sol = picard_solve(taylor_green(grid), None, 0.01, 0.25, 0.01,
                       PicardConfig(tol_fix=1e-8, max_iter=25))
    ratios = [r for _, _, r in sol.trace[1:] if np.isfinite(r)]
    assert ratios and max(ratios) <= 2.0 / 3.0


def test_no_contraction_triggers(annulus_spec):
    # strong data converge on a short horizon; stretching T past the
    # contraction threshold must raise rather than silently return
    grid = build_grid(annulus_spec, 16, 32)
    u0 = streamfunction_shear(grid, amp=2.0)
    frame = boundary_frame(grid)
    a = boundary_scalar_values(curl2d(u0), frame)
    cfg = PicardConfig(tol_fix=1e-6, max_iter=25, contraction_window=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = picard_solve(u0, a, 1e-3, T=0.05, dt=1e-3, cfg=cfg)
        assert sol.trace[-1][1] <= cfg.tol_fix
        with pytest.raises(NoContraction):
            picard_solve(u0, a, 1e-3, T=0.6, dt=1e-3,
                         cfg=PicardConfig(tol_fix=1e-12, max_iter=25,
                                          contraction_window=3))


@pytest.mark.parametrize("solve", [
    solve_stokes,
    march_solve,
    lambda *args: picard_solve(*args, PicardConfig(tol_fix=1e-6)),
], ids=["solve_stokes", "march_solve", "picard_solve"])
def test_incompatible_initial_data_warns(annulus_grid, annulus_frame, solve):
    u0 = streamfunction_shear(annulus_grid, amp=0.3)
    a = [np.full(c.n_nodes, 5.0) for c in annulus_frame]   # != omega(u0)
    with pytest.warns(UserWarning, match="initial vorticity"):
        solve(u0, a, 0.1, 0.02, 0.005)


def test_verify_incompressibility_zero(annulus_grid):
    sol = picard_solve(VectorField.zeros(annulus_grid), None, 0.1, 0.05, 0.01,
                       PicardConfig(tol_fix=1e-10))
    assert verify_incompressibility(sol).max_div == 0.0


def test_verify_incompressibility_flags_corruption(annulus_spec):
    grid = build_grid(annulus_spec, 24, 48)
    u0 = streamfunction_shear(grid, amp=0.4)
    frame = boundary_frame(grid)
    a = boundary_scalar_values(curl2d(u0), frame)
    sol = picard_solve(u0, a, 0.05, 0.05, 0.0025,
                       PicardConfig(tol_fix=1e-7, max_iter=25))
    clean = verify_incompressibility(sol).max_div
    noise = grad(ScalarField(grid, 0.05 * (grid.x**2 + grid.y**2)))
    corrupted = FieldHistory(grid, sol.dt, sol.v.data + [noise.ux, noise.uy])
    dirty_sol = NSSolution(v=corrupted, w=sol.w, trace=sol.trace, mu=sol.mu, dt=sol.dt,
                           u0=sol.u0)
    dirty = verify_incompressibility(dirty_sol).max_div
    assert dirty > 10 * max(clean, 1e-10)


def test_ns_residual_zero_run(annulus_grid, annulus_frame):
    sol = picard_solve(VectorField.zeros(annulus_grid), None, 0.1, 0.05, 0.01,
                       PicardConfig(tol_fix=1e-10))
    rep = ns_residual(sol, None, 0.1, annulus_frame)
    assert rep.interior_l2_max == 0.0
    assert rep.bc_perp_max == 0.0
    assert rep.bc_vorticity_max == 0.0
    assert rep.initial_l2 == 0.0


def test_ns_residual_refines_taylor_green(torus_spec):
    vals = []
    for n, dt in ((24, 0.01), (48, 0.0025)):
        grid = build_grid(torus_spec, n, n)
        sol = picard_solve(taylor_green(grid), None, 0.01, 0.1, dt,
                           PicardConfig(tol_fix=1e-9, max_iter=25))
        rep = ns_residual(sol, None, 0.01, None)
        vals.append(rep.interior_l2_max)
    assert vals[1] < vals[0] / 2.5


def test_compare_pressures_stationary(annulus_spec):
    grid = build_grid(annulus_spec, 32, 64)
    frame = boundary_frame(grid)
    u0 = circulation_field(grid, c=0.3)
    a = [np.zeros(64), np.zeros(64)]
    sol = picard_solve(u0, a, 0.05, 0.05, 0.0025,
                       PicardConfig(tol_fix=1e-9, max_iter=20))
    assert compare_pressures(sol, a, 0.05, frame) <= 50 * grid.h1**2
    rep = ns_residual(sol, a, 0.05, frame)
    assert rep.interior_l2_max <= 50 * grid.h1**2   # steady state: pure truncation
    assert rep.initial_l2 == 0.0


def test_compare_pressures_taylor_green(torus_spec):
    grid = build_grid(torus_spec, 32, 32)
    dt = 0.005
    sol = picard_solve(taylor_green(grid), None, 0.01, 0.05, dt,
                       PicardConfig(tol_fix=1e-9, max_iter=20))
    # no boundary: q = 0 and both pressure routes see u = v + w
    assert compare_pressures(sol, None, 0.01, None) <= 1e-8


# ---------------------------------------------------------------------------
# the causal march against the Picard iteration

# (grid, mu, T, dt) per family; 20 steps each
_MARCH_CASES = {"annulus": ((24, 48), 0.05, 0.05, 0.0025),
                "channel": ((32, 24), 0.05, 0.05, 0.0025),
                "torus": ((24, 24), 0.02, 0.1, 0.005)}


@pytest.fixture(scope="module", params=sorted(_MARCH_CASES))
def march_run(request):
    """The march, its Stokes part and the Picard iterates v^1, v^2, ...
    stepped as picard_solve steps them, up to the first increment below
    1e-10 of the fixed point's N-norm."""
    shape, mu, T, dt = _MARCH_CASES[request.param]
    grid = build_grid(request.getfixturevalue(f"{request.param}_spec"), *shape)
    if grid.polar:
        u0 = streamfunction_shear(grid, amp=0.6)
    else:
        u0 = random_absolute_bc_field(grid, np.random.default_rng(3), amplitude=1.0)
    a = boundary_scalar_values(curl2d(u0), boundary_frame(grid)) if grid.has_boundary() else None
    u_march = march_solve(u0, a, mu, T, dt)
    w, _ = solve_stokes(u0, a, mu, T, dt)
    floor = 1e-10 * wt_norm(u_march - w)
    v = FieldHistory.zeros(grid, dt, len(w))
    iterates = []
    while not iterates or iterates[-1][1] >= floor:
        v_next = apply_velocity_map(beta=v, w=w, mu=mu, dt=dt)
        iterates.append((v_next, wt_norm(v_next - v)))
        v = v_next
    assert len(iterates) < len(w) - 1   # the iteration stops short of the march
    return dict(u0=u0, a=a, mu=mu, T=T, dt=dt, w=w, u_march=u_march,
                iterates=iterates, floor=floor)


def test_picard_iterate_k_is_march_prefix(march_run):
    # step n+1 reads beta only at step n, so iterate k is final on rows
    # 0..k; the shared step makes that bit-exact
    u_march = march_run["u_march"].data
    for k, (v, delta) in enumerate(march_run["iterates"], start=1):
        u_k = (v + march_run["w"]).data
        assert np.array_equal(u_k[:k + 1], u_march[:k + 1])
        if delta >= march_run["floor"]:
            assert not np.array_equal(u_k[k + 1], u_march[k + 1])


def test_march_matches_tight_picard(march_run):
    r = march_run
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = picard_solve(r["u0"], r["a"], r["mu"], r["T"], r["dt"],
                           PicardConfig(tol_fix=1e-11, max_iter=30))
    gap = max(l2(p - m) for p, m in zip(sol.u, r["u_march"]))
    assert gap <= 1e-12 * max(l2(p) for p in sol.u)


def test_picard_error_within_banach_bound(march_run):
    # a posteriori: ||v^k - v*||_N <= q/(1-q) delta_k with q the largest
    # observed increment ratio; u^k - u* = v^k - v* as w is shared, and the
    # u histories difference to exactly zero on the rows already final
    deltas = [d for _, d in march_run["iterates"]]
    q = max(d1 / d0 for d0, d1 in zip(deltas, deltas[1:]))
    assert q < 1.0
    for v, delta in march_run["iterates"]:
        if delta >= march_run["floor"]:
            err = wt_norm(v + march_run["w"] - march_run["u_march"])
            assert err <= q / (1.0 - q) * delta


def test_picard_sweep_k_steps_only_rows_k_on(torus_spec, monkeypatch):
    """Sweep k keeps rows 1..k-1 of iterate k-1, where it is final, and
    steps the other nt - 1 - (k - 1); the iterates stay those of full sweeps
    bit for bit."""
    import vortibc.fixedpoint as fp
    from vortibc.stepping import VelocityStepper

    grid = build_grid(torus_spec, 16, 16)
    u0 = random_absolute_bc_field(grid, np.random.default_rng(3), amplitude=1.0)
    mu, T, dt = 0.02, 0.05, 0.005
    steps, sweeps = [0], []
    step, sweep = VelocityStepper.step, fp._sweep

    def counted_step(self, *args):
        steps[0] += 1
        return step(self, *args)

    def counted_sweep(*args):
        steps[0] = 0
        delta = sweep(*args)
        sweeps.append(steps[0])
        return delta

    monkeypatch.setattr(VelocityStepper, "step", counted_step)
    monkeypatch.setattr(fp, "_sweep", counted_sweep)
    sol = picard_solve(u0, None, mu, T, dt, PicardConfig(tol_fix=1e-12, max_iter=30))
    nt = len(sol.w)
    assert 2 < len(sweeps) < nt - 1
    assert sweeps == [nt - 1 - (k - 1) for k in range(1, len(sweeps) + 1)]

    monkeypatch.undo()
    v = FieldHistory.zeros(grid, dt, nt)
    for _ in sweeps:
        v = apply_velocity_map(beta=v, w=sol.w, mu=mu, dt=dt)
    assert np.array_equal(v.data, sol.v.data)


@pytest.mark.parametrize("kind", ["torus", "annulus"])
def test_in_place_increments_match_out_of_place_sweeps(kind, torus_spec, annulus_spec):
    """Each increment of the in-place sweep equals wt_norm(v^k, v^(k-1)) of
    the iterates of full out-of-place sweeps exactly, through the sweep
    that finds every row final (nt sweeps for nt snapshots) and adds 0."""
    spec = torus_spec if kind == "torus" else annulus_spec
    grid = build_grid(spec, 16, 16)
    if grid.polar:
        u0 = streamfunction_shear(grid, amp=0.4)
        a = boundary_scalar_values(curl2d(u0), boundary_frame(grid))
    else:
        u0 = random_absolute_bc_field(grid, np.random.default_rng(3), amplitude=2.0)
        a = None
    # 10 snapshots: the first sweeps cross a pressure-chunk edge, and data
    # this strong keep every increment but the last above 0
    mu, T, dt = 0.05, 0.09, 0.01
    sol = picard_solve(u0, a, mu, T, dt,
                       PicardConfig(tol_fix=1e-300, max_iter=20, contraction_window=20))
    nt = len(sol.w)
    assert len(sol.trace) == nt and sol.trace[-1][1] == 0.0
    v, deltas = FieldHistory.zeros(grid, dt, nt), []
    for _ in sol.trace:
        v_next = apply_velocity_map(beta=v, w=sol.w, mu=mu, dt=dt)
        deltas.append(wt_norm(v_next, v))
        v = v_next
    assert [d for _, d, _ in sol.trace] == deltas
    assert np.array_equal(v.data, sol.v.data)


def _sobolev_sq_per_component(field, lo, hi):
    """The single-field norm sum written out: per component, orders lo..1
    as one integral sum, then order 2 as another."""
    from vortibc.fields import _dx_dy
    g = field.grid
    comps = (field.values,) if isinstance(field, ScalarField) else (field.ux, field.uy)
    total = 0.0
    for a in comps:
        derivs = [a, *(_dx_dy(g, a) if hi >= 1 else ())]
        if lo <= 1:
            total += sum(g.integrate(d**2) for d in derivs[lo:])
        if hi == 2:
            total += sum(g.integrate(s**2) for d in derivs[1:] for s in _dx_dy(g, d))
    return total


def _family_grid(kind):
    from vortibc import DomainKind, DomainSpec
    spec = {"annulus": DomainSpec(DomainKind.ANNULUS, r_inner=1.0, r_outer=2.0),
            "disk": DomainSpec(DomainKind.DISK, r_outer=1.0),
            "channel": DomainSpec(DomainKind.CHANNEL, length_x=2 * math.pi, length_y=2.0),
            "torus": DomainSpec(DomainKind.TORUS, length_x=2 * math.pi,
                                length_y=2 * math.pi)}[kind]
    return build_grid(spec, 12, 16)


@pytest.mark.parametrize("kind", ["annulus", "disk", "channel", "torus"])
def test_wt_norm_is_max_of_snapshot_n_norms(kind):
    # wt_norm evaluates the N-norm on chunks of rows; it must equal the max
    # of the per-snapshot norms exactly, for row counts below, at, just
    # above and well above the chunk size
    from vortibc.fields import _NORM_ROWS, _sobolev_sq, h1, h2, history_n_norm_sq, n_norm
    grid = _family_grid(kind)
    rng = np.random.default_rng(21)
    for nt in sorted({2, _NORM_ROWS - 1, _NORM_ROWS, _NORM_ROWS + 1, 4 * _NORM_ROWS + 1}):
        # the largest row first, then last
        for amp in (np.arange(nt, 0, -1), np.arange(1, nt + 1)):
            data = amp[:, None, None, None] * rng.normal(size=(nt, 2, *grid.shape))
            diff = FieldHistory(grid, 0.01, data)
            diff_t = diff.time_derivative()
            pairs = list(zip(diff, diff_t))
            per_row = [math.sqrt(h2(d) ** 2 + h1(d_t) ** 2) for d, d_t in pairs]
            assert [n_norm(d, d_t) for d, d_t in pairs] == per_row
            assert list(np.sqrt(history_n_norm_sq(diff, diff_t))) == per_row
            assert wt_norm(diff) == max(per_row)

    # the batched kernel gives each row the single-field sums bit for bit
    hist = FieldHistory(grid, 0.01, rng.normal(size=(3, 2, *grid.shape)))
    scalars = rng.normal(size=(3, *grid.shape))
    for lo, hi in ((0, 0), (0, 1), (0, 2), (1, 1), (2, 2)):
        rows = _sobolev_sq(grid, hist.data, lo, hi)
        for k, u in enumerate(hist):
            assert rows[k] == _sobolev_sq_per_component(u, lo, hi)
        srows = _sobolev_sq(grid, scalars[:, np.newaxis], lo, hi)
        for k, s in enumerate(scalars):
            assert srows[k] == _sobolev_sq_per_component(ScalarField(grid, s), lo, hi)
    u, f = hist[1], ScalarField(grid, scalars[1])
    for field in (u, f):
        assert l2(field) == math.sqrt(_sobolev_sq_per_component(field, 0, 0))
        assert h1(field) == math.sqrt(_sobolev_sq_per_component(field, 0, 1))
        assert h2(field) == math.sqrt(_sobolev_sq_per_component(field, 0, 2))


@pytest.mark.parametrize("kind", ["annulus", "torus"])
def test_wt_norm_of_increment_matches_whole_history(kind):
    # wt_norm(a, b) differences a and b a chunk at a time on the window each
    # chunk's time derivative reads, and skips chunks whose difference
    # vanishes there; it must equal the norm of the whole difference
    # history, and keep fmax's "skip NaN rows" across chunks
    from vortibc.fields import _NORM_ROWS, history_n_norm_sq
    grid = _family_grid(kind)
    rng = np.random.default_rng(8)

    def whole(diff):
        n_sq = history_n_norm_sq(diff, diff.time_derivative())
        return float(np.fmax.reduce(np.sqrt(n_sq), initial=0.0))

    def smooth(nt):
        c = rng.normal(size=(nt, 2, 4, 1, 1))
        return (c[:, :, 0] * np.sin(grid.x + c[:, :, 1]) + c[:, :, 2] * np.cos(grid.y + c[:, :, 3]))

    for nt in sorted({2, 3, _NORM_ROWS - 1, _NORM_ROWS + 1, 4 * _NORM_ROWS + 1}):
        b = FieldHistory(grid, 0.01, rng.normal(size=(nt, 2, *grid.shape)))
        for zero_rows, nan_row in ((0, None), (nt // 2, None), (nt - 1, None),
                                   (_NORM_ROWS, None), (0, nt // 2), (nt // 3, nt - 1)):
            # the increment vanishes on rows 0..zero_rows - 1 and peaks on
            # the next row, so the largest norm sits on the last zero row,
            # whose time derivative reads that peak across a chunk edge
            amp = np.where(np.arange(nt) == zero_rows, 1.0, 0.01)
            amp[:zero_rows] = 0.0
            a = FieldHistory(grid, 0.01, b.data + amp[:, None, None, None] * smooth(nt))
            if nan_row is not None:
                a.data[nan_row] = np.nan
            want = whole(a - b)
            assert np.isfinite(want)
            assert wt_norm(a, b) == want
            assert wt_norm(a - b) == want
    # an increment that vanishes everywhere skips every chunk
    assert wt_norm(b, b) == 0.0
