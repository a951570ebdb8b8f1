import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import circulation_field, ls_order
from vortibc import (DomainKind, DomainSpec, FieldHistory, ScalarField,
                     VectorField, advect, boundary_frame, build_grid, curl2d,
                     curl_scalar, div, grad, laplacian, normal_component,
                     surface_curl, tangential_part)
from vortibc.errors import MissingTimeDerivative
from vortibc.fields import (_d1, _d2, h1, h2, l2, max_normal_trace, max_vorticity_defect,
                            n_norm)


def seam_free(grid, values, width=2):
    """Mask away nodes whose periodic stencils wrap a non-periodic field."""
    v = np.array(values)
    if grid.periodic1:
        v = v[width:-width, :]
    if grid.periodic2:
        v = v[:, width:-width]
    return v


def test_grad_constant_machine_zero(annulus_grid):
    # structurally zero: only fp summation dust survives
    f = ScalarField(annulus_grid, np.full(annulus_grid.shape, 3.7))
    g = grad(f)
    assert np.max(np.abs(g.ux)) < 1e-13
    assert np.max(np.abs(g.uy)) < 1e-13


def test_rigid_rotation_curl(torus_grid):
    u = VectorField.from_function(torus_grid, lambda x, y: (-y, x))
    om = seam_free(torus_grid, curl2d(u).values)
    assert np.max(np.abs(om - 2.0)) < 1e-12


def test_laplacian_torus_eigenfunction(torus_grid):
    f = ScalarField.from_function(torus_grid, lambda x, y: np.sin(x) * np.sin(y))
    res = laplacian(f).values + 2.0 * f.values
    assert np.max(np.abs(res)) < 2 * torus_grid.h1**2


def test_laplacian_polar_quadratic(annulus_grid):
    f = ScalarField(annulus_grid, annulus_grid.x**2 + annulus_grid.y**2)
    assert np.max(np.abs(laplacian(f).values - 4.0)) < 1e-10


def test_operator_convergence_orders(annulus_spec):
    errs_lap, errs_div = [], []
    for n in (16, 32, 64):
        g = build_grid(annulus_spec, n, 2 * n)
        f = ScalarField.from_function(g, lambda x, y: np.sin(2 * x) * np.cos(y))
        lap_exact = -5.0 * f.values
        errs_lap.append(np.max(np.abs(laplacian(f).values - lap_exact)))
        u = VectorField.from_function(g, lambda x, y: (np.sin(x * y), np.cos(x)))
        dexact = g.y * np.cos(g.x * g.y)
        errs_div.append(np.max(np.abs(div(u).values - dexact)))
    assert ls_order(errs_lap) > 1.8
    assert ls_order(errs_div) > 1.8


def test_normal_tangential_traces(annulus_grid, annulus_frame):
    comps = {c.name: i for i, c in enumerate(annulus_frame)}
    u = VectorField.from_function(annulus_grid,
                                  lambda x, y: (np.ones_like(x), np.zeros_like(x)))
    perp = normal_component(u, annulus_frame)[comps["outer"]]
    # at theta = pi/4 the outward normal is (cos, sin)(pi/4)
    j = annulus_grid.n2 // 8
    assert perp[j] == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    nu_field = VectorField(annulus_grid, np.cos(annulus_grid.theta),
                           np.sin(annulus_grid.theta))
    assert np.allclose(normal_component(nu_field, annulus_frame)[comps["outer"]], 1.0)
    assert np.allclose(tangential_part(nu_field, annulus_frame)[comps["outer"]], 0.0,
                       atol=1e-14)
    tau_field = VectorField(annulus_grid, -np.sin(annulus_grid.theta),
                            np.cos(annulus_grid.theta))
    assert np.allclose(normal_component(tau_field, annulus_frame)[comps["outer"]], 0.0,
                       atol=1e-14)
    assert np.allclose(tangential_part(tau_field, annulus_frame)[comps["outer"]], 1.0)


def test_boundary_residual_helpers_rigid_rotation(annulus_grid, annulus_frame, torus_grid):
    # u = Omega (-y, x): tangent to every circle, vorticity 2 Omega
    om = 0.7
    g, frame = annulus_grid, annulus_frame
    u = VectorField(g, -om * g.y, om * g.x)
    assert max_normal_trace(u, frame) <= 1e-14
    two_om = [np.full(c.n_nodes, 2 * om) for c in frame]
    assert max_vorticity_defect(u, frame, two_om) <= om * max(g.h1, g.h2) ** 2
    zeros = [np.zeros(c.n_nodes) for c in frame]
    assert max_vorticity_defect(u, frame, None) == max_vorticity_defect(u, frame, zeros)
    assert max_vorticity_defect(u, frame, None) == pytest.approx(2 * om, rel=1e-2)
    # no boundary, no residual
    t = VectorField(torus_grid, np.ones(torus_grid.shape), np.zeros(torus_grid.shape))
    assert max_normal_trace(t, boundary_frame(torus_grid)) == 0.0
    assert max_vorticity_defect(t, boundary_frame(torus_grid), None) == 0.0


def test_surface_curl_examples(annulus_grid, annulus_frame):
    const = [np.full(c.n_nodes, 2.5) for c in annulus_frame]
    for vals in surface_curl(const, annulus_frame):
        assert np.max(np.abs(vals)) == 0.0
    # a = sin theta on the unit inner circle: da/ds = cos theta (ds = dtheta)
    comps = {c.name: i for i, c in enumerate(annulus_frame)}
    a = [np.sin(annulus_grid.c2) if c.name == "inner" else np.zeros(c.n_nodes)
         for c in annulus_frame]
    ds_a = surface_curl(a, annulus_frame)[comps["inner"]]
    # inner tau runs clockwise: arc derivative flips sign vs theta derivative
    assert np.max(np.abs(ds_a + np.cos(annulus_grid.c2))) < annulus_grid.h2**2


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_surface_curl_loop_integral_zero(annulus_frame, seed):
    rng = np.random.default_rng(seed)
    a = [rng.normal(size=c.n_nodes) for c in annulus_frame]
    from vortibc import surface_integrate
    total = surface_integrate(annulus_frame, surface_curl(a, annulus_frame))
    assert abs(total) < 1e-12


def test_norm_examples(annulus_grid):
    z = VectorField.zeros(annulus_grid)
    assert l2(z) == 0.0 and h1(z) == 0.0 and h2(z) == 0.0
    c = ScalarField(annulus_grid, np.full(annulus_grid.shape, 2.0))
    area = annulus_grid.spec.area()
    assert l2(c) == pytest.approx(2.0 * math.sqrt(area), rel=1e-12)
    u = VectorField.from_function(annulus_grid, lambda x, y: (x * y, np.sin(x)))
    assert n_norm(u, VectorField.zeros(annulus_grid)) == pytest.approx(h2(u), rel=1e-14)
    with pytest.raises(MissingTimeDerivative):
        n_norm(u, None)


def test_advect_examples(annulus_grid, annulus_frame, torus_grid):
    zero = VectorField.zeros(annulus_grid)
    y = VectorField.from_function(annulus_grid, lambda x, yy: (x, yy))
    out = advect(zero, y)
    assert np.max(np.abs(out.ux)) == 0.0

    # unit-speed circular flow: centripetal acceleration -1 at the unit circle
    grid = build_grid(DomainSpec(DomainKind.ANNULUS, r_inner=0.5, r_outer=1.0), 32, 64)
    frame = boundary_frame(grid)
    u = circulation_field(grid, c=1.0)
    acc = normal_component(advect(u, u), frame)
    outer = dict(zip((c.name for c in frame), acc))["outer"]
    assert np.max(np.abs(outer + 1.0)) < 30 * grid.h1**2

    X = VectorField.from_function(torus_grid, lambda x, y: (np.ones_like(x), 0 * x))
    Y = VectorField.from_function(torus_grid, lambda x, y: (x, 0 * x))
    res = advect(X, Y)
    assert np.max(np.abs(seam_free(torus_grid, res.ux) - 1.0)) < 1e-12


def test_div_curl_scalar_exact_on_torus(torus_grid):
    w = ScalarField.from_function(torus_grid,
                                  lambda x, y: np.sin(2 * x) * np.cos(3 * y))
    d = div(curl_scalar(w))
    assert np.max(np.abs(d.values)) < 1e-12


def test_field_history_derivatives():
    grid = build_grid(DomainSpec(DomainKind.TORUS, length_x=1.0, length_y=1.0), 8, 8)
    dt = 0.1
    snaps = np.array([np.full(grid.shape, (k * dt) ** 2) for k in range(6)])
    hist = FieldHistory(grid, dt, snaps)
    d = hist.time_derivative()
    times = hist.times
    for k in range(6):
        assert np.allclose(d[k].values, 2 * times[k], atol=1e-10)
    with pytest.raises(MissingTimeDerivative):
        FieldHistory(grid, dt, snaps[:1]).time_derivative()

    # vector histories: rows are views, and the derivative equals the
    # per-snapshot field formula exactly
    rng = np.random.default_rng(4)
    for nt in (2, 3, 7):
        vh = FieldHistory(grid, dt, rng.normal(size=(nt, 2, *grid.shape)))
        assert all(np.shares_memory(u.ux, vh.data) and np.shares_memory(u.uy, vh.data)
                   for u in vh)
        s, c = list(vh), 1.0 / (2.0 * dt)
        if nt == 2:
            want = [(s[1] - s[0]) * (1.0 / dt)] * 2
        else:
            want = ([(s[0] * (-3.0) + s[1] * 4.0 - s[2]) * c]
                    + [(s[k + 1] - s[k - 1]) * c for k in range(1, nt - 1)]
                    + [(s[-1] * 3.0 - s[-2] * 4.0 + s[-3]) * c])
        for got, ref in zip(vh.time_derivative(), want, strict=True):
            assert np.array_equal(got.ux, ref.ux) and np.array_equal(got.uy, ref.uy)
    vh[1] = VectorField.zeros(grid)
    assert not np.any(vh.data[1])


def _stencil_ref(op, v, axis, h, periodic):
    """_d1 or _d2 written out with the grid axis moved last: np.roll for
    the centered interior and periodic ends, the one-sided formulas at
    non-periodic ends."""
    w = np.moveaxis(np.array(v), axis - 2, -1)
    fwd, back = np.roll(w, -1, -1), np.roll(w, 1, -1)
    if op is _d1:
        out = (fwd - back) / (2.0 * h)
        if not periodic:
            out[..., 0] = (-4.0 * w[..., 0] + 7.0 * w[..., 1] - 4.0 * w[..., 2]
                           + w[..., 3]) / (2.0 * h)
            out[..., -1] = (4.0 * w[..., -1] - 7.0 * w[..., -2] + 4.0 * w[..., -3]
                            - w[..., -4]) / (2.0 * h)
    else:
        out = (fwd - 2.0 * w + back) / h**2
        if not periodic:
            out[..., 0] = (3.0 * w[..., 0] - 9.0 * w[..., 1] + 10.0 * w[..., 2]
                           - 5.0 * w[..., 3] + w[..., 4]) / h**2
            out[..., -1] = (3.0 * w[..., -1] - 9.0 * w[..., -2] + 10.0 * w[..., -3]
                            - 5.0 * w[..., -4] + w[..., -5]) / h**2
    return np.moveaxis(out, -1, axis - 2)


def _stencil_inputs(rng):
    hist = rng.normal(size=(4, 2, 9, 7))
    return {
        "plain": rng.normal(size=(9, 7)),
        "batched": rng.normal(size=(3, 9, 7)),
        "batch_2x2": rng.normal(size=(2, 2, 9, 7)),
        "swapaxes_view": rng.normal(size=(7, 9)).swapaxes(0, 1),
        "history_component": hist[:, 1],
        "periodic_1d": rng.normal(size=11),
    }


@pytest.mark.parametrize("kind", ["plain", "batched", "batch_2x2", "swapaxes_view",
                                  "history_component", "periodic_1d"])
def test_slice_stencils_match_roll(kind):
    # _d1/_d2 equal the written-out formulas bit for bit on every input form
    # the callers use: 1-D (surface_curl), leading batch axes, whose slices
    # differentiate as on their own, and non-contiguous views
    v = _stencil_inputs(np.random.default_rng(9))[kind]
    if kind in ("swapaxes_view", "history_component"):
        assert not v.flags.c_contiguous
    before = v.copy()
    h = 0.37
    for op in (_d1, _d2):
        for axis in ((1,) if v.ndim == 1 else (0, 1)):
            for periodic in (True, False):
                out = op(v, axis, h, periodic)
                assert np.array_equal(out, _stencil_ref(op, v, axis, h, periodic))
                for b in np.ndindex(v.shape[:-2]):
                    assert np.array_equal(out[b], op(np.ascontiguousarray(v[b]), axis, h,
                                                     periodic))
    assert np.array_equal(v, before)


@pytest.mark.parametrize("family", ["torus", "channel", "annulus"])
def test_div_curl_equal_partials_form(family, torus_grid, channel_grid, annulus_grid):
    # div and curl2d take one partial per component; the values equal the
    # full-gradient form bit for bit on every family
    from vortibc.fields import _dx_dy
    g = {"torus": torus_grid, "channel": channel_grid, "annulus": annulus_grid}[family]
    rng = np.random.default_rng(12)
    u = VectorField(g, rng.normal(size=g.shape), rng.normal(size=g.shape))
    (dxux, dyux), (dxuy, dyuy) = _dx_dy(g, u.ux), _dx_dy(g, u.uy)
    assert np.array_equal(div(u).values, dxux + dyuy)
    assert np.array_equal(curl2d(u).values, dxuy - dyux)


def test_history_beyond_physical_memory_raises(annulus_grid):
    # a 1 PB request fails with the typed error before any allocation (and
    # without the check it would fail fast in numpy, not swap)
    from vortibc.errors import MemoryBudgetExceeded

    row_bytes = 8 * 2 * annulus_grid.shape[0] * annulus_grid.shape[1]
    with pytest.raises(MemoryBudgetExceeded, match="physical memory"):
        FieldHistory.zeros(annulus_grid, 0.01, 10**15 // row_bytes + 1)


def test_workspace_frame_gives_room_back():
    from vortibc.fields import Workspace
    work = Workspace()
    first = work.block((5,))
    with work.frame():
        inner = work.block((7,))
    # the next block takes the room the frame gave back, and the block
    # carved before the frame is not touched
    again = work.block((7,))
    assert again.ctypes.data == inner.ctypes.data
    assert not np.shares_memory(first, again)


def test_workspace_regrowth_keeps_earlier_blocks():
    from vortibc.fields import Workspace
    work = Workspace()
    small = work.block((4,))
    small[:] = [1.0, 2.0, 3.0, 4.0]
    big = work.block((1000, 3))        # does not fit: the buffer is replaced
    big[:] = -1.0
    assert not np.shares_memory(small, big)
    assert list(small) == [1.0, 2.0, 3.0, 4.0]
    # later blocks come from the new buffer, behind the top the old one left
    later = work.block((2,), complex)
    assert not np.shares_memory(later, big) and not np.shares_memory(later, small)


@pytest.mark.parametrize("before", [0, 1, 3, 100, 5000])
def test_workspace_blocks_are_64_byte_aligned(before):
    from vortibc.fields import Workspace
    work = Workspace()
    if before:
        work.block((before,))
    blocks = [work.block((3, 5), complex), work.block((7,)), work.block((2, 9), complex)]
    assert [b.ctypes.data % 64 for b in blocks] == [0, 0, 0]
    assert all(b.flags.c_contiguous for b in blocks)


def test_workspace_stops_growing_after_first_pass():
    # a loop that carves inside a frame per pass, nested frames included,
    # touches one buffer from its second pass on and gets the same blocks
    from vortibc.fields import Workspace
    work = Workspace()
    buffers, blocks = [], []
    for n in range(5):
        with work.frame():
            a = work.block((3, 2, 16, 16))
            with work.frame():
                b = work.block((3, 16, 9), complex)
            c = work.block((3, 16, 16))
            buffers.append(work._buffer)
            blocks.append((a.ctypes.data, b.ctypes.data, c.ctypes.data))
    assert all(buf is buffers[1] for buf in buffers[1:])
    assert all(blk == blocks[1] for blk in blocks[1:])


def test_stacked_kernels_match_single_snapshot_helpers(annulus_grid, annulus_frame):
    # each row of the stacked boundary and norm kernels equals the one-field
    # helper bit for bit
    from vortibc.fields import _norm, _norm_sq, boundary_rows, boundary_vector_values
    rng = np.random.default_rng(3)
    g = annulus_grid
    u = rng.normal(size=(3, 2, *g.shape))
    fields = [VectorField(g, *row) for row in u]
    stacked = boundary_rows(u, annulus_frame)
    for k, f in enumerate(fields):
        for rows, one in zip(stacked, boundary_vector_values(f, annulus_frame)):
            assert np.array_equal(rows[k], one)
    for lo, hi in ((0, 0), (0, 1), (0, 2), (1, 1), (2, 2)):
        assert list(_norm_sq(g, u, lo, hi)) == [_norm(f, lo, hi) ** 2 for f in fields]
