import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortibc import (DomainKind, DomainSpec, ScalarField, VectorField, boundary_frame,
                     build_grid, second_fundamental_form, surface_curl, surface_integrate)
from vortibc.elliptic import check_normal_trace, solve_harmonic_q
from vortibc.errors import InvalidSpec, ResolutionTooLow
from vortibc.fields import (boundary_rows, boundary_scalar_values, max_normal_trace,
                            max_vorticity_defect, normal_derivative)
from vortibc.geometry import boundary_from_function, boundary_zeros, project


def test_annulus_area_quadrature():
    spec = DomainSpec(DomainKind.ANNULUS, r_inner=1.0, r_outer=2.0)
    grid = build_grid(spec, 16, 32)
    assert grid.area_quadrature() == pytest.approx(3 * math.pi, rel=0.01)


def test_torus_area_exact():
    spec = DomainSpec(DomainKind.TORUS, length_x=2 * math.pi, length_y=2 * math.pi)
    grid = build_grid(spec, 32, 32)
    assert grid.area_quadrature() == pytest.approx(4 * math.pi**2, rel=1e-14)


def test_invalid_annulus_raises():
    with pytest.raises(InvalidSpec):
        DomainSpec(DomainKind.ANNULUS, r_inner=2.0, r_outer=1.0)


def test_resolution_too_low():
    spec = DomainSpec(DomainKind.ANNULUS, r_inner=1.0, r_outer=2.0)
    with pytest.raises(ResolutionTooLow):
        build_grid(spec, 4, 32)


def test_torus_has_no_boundary(torus_grid):
    """The torus's frame has no components, so every boundary trace is the
    empty list, every boundary integral and trace maximum is 0, and the
    harmonic Stokes part of its (empty) data is +0.0 everywhere, as the
    checkpointed torus q is."""
    g = torus_grid
    frame = boundary_frame(g)
    assert len(frame) == 0 and frame.nodes.size == 0 and not frame
    u = VectorField(g, np.sin(g.x) + 1.0, np.cos(g.y))
    f = ScalarField(g, np.sin(g.x) * np.cos(g.y))
    assert boundary_rows(np.stack((u.ux, u.uy)), frame) == []
    assert project(frame, [], "nu") == []
    assert second_fundamental_form(frame, [], []) == []
    assert surface_curl([], frame) == []
    assert normal_derivative(f, frame) == []
    assert boundary_scalar_values(f, frame) == []
    assert boundary_zeros(frame) == []
    assert surface_integrate(frame, []) == 0.0
    assert max_normal_trace(u, frame) == 0.0
    assert max_vorticity_defect(u, frame, None) == 0.0
    check_normal_trace(u, "torus field")
    q = solve_harmonic_q(boundary_zeros(frame), 0.1, frame).values
    assert np.all(q == 0.0) and not np.signbit(q).any()


def test_disk_pole_hole_radius():
    spec = DomainSpec(DomainKind.DISK, r_outer=1.0)
    grid = build_grid(spec, 33, 64)
    assert grid.r_inner_eff == pytest.approx(2 * grid.h1, rel=1e-12)


def test_frame_orthonormal(annulus_frame):
    for comp in annulus_frame:
        assert np.allclose(np.linalg.norm(comp.nu, axis=1), 1.0, atol=1e-14)
        assert np.allclose(np.linalg.norm(comp.tau, axis=1), 1.0, atol=1e-14)
        dots = np.sum(comp.nu * comp.tau, axis=1)
        assert np.max(np.abs(dots)) < 1e-14


def test_curvature_signs():
    disk = build_grid(DomainSpec(DomainKind.DISK, r_outer=1.0), 32, 64)
    frame = boundary_frame(disk)
    outer = [c for c in frame if c.name == "outer"][0]
    assert np.allclose(outer.curvature, 1.0)

    ann = build_grid(DomainSpec(DomainKind.ANNULUS, r_inner=0.5, r_outer=1.0), 16, 32)
    inner = [c for c in boundary_frame(ann) if c.name == "inner"][0]
    assert np.allclose(inner.curvature, -2.0)

    ch = build_grid(DomainSpec(DomainKind.CHANNEL, length_x=2.0, length_y=1.0), 16, 16)
    for comp in boundary_frame(ch):
        assert np.allclose(comp.curvature, 0.0)


def test_perimeters(annulus_frame, channel_grid):
    comps = {c.name: c for c in annulus_frame}
    assert comps["inner"].perimeter() == pytest.approx(2 * math.pi, rel=1e-12)
    assert comps["outer"].perimeter() == pytest.approx(4 * math.pi, rel=1e-12)
    for comp in boundary_frame(channel_grid):
        assert comp.perimeter() == pytest.approx(2 * math.pi, rel=1e-12)


def test_second_fundamental_form_unit_circle():
    grid = build_grid(DomainSpec(DomainKind.DISK, r_outer=1.0), 32, 64)
    frame = boundary_frame(grid)
    outer = [c for c in frame if c.name == "outer"][0]
    tau_vals = [c.tau.copy() for c in frame]
    vals = second_fundamental_form(frame, tau_vals, tau_vals)
    out = dict(zip((c.name for c in frame), vals))
    assert np.allclose(out["outer"], 1.0)
    # normal input has no tangential part
    nu_vals = [c.nu.copy() for c in frame]
    vals = second_fundamental_form(frame, nu_vals, nu_vals)
    assert np.allclose(dict(zip((c.name for c in frame), vals))["outer"], 0.0)


def test_second_fundamental_form_scaling():
    grid = build_grid(DomainSpec(DomainKind.ANNULUS, r_inner=1.0, r_outer=2.0), 16, 32)
    frame = boundary_frame(grid)
    vals3 = [3.0 * c.tau for c in frame]
    out = dict(zip((c.name for c in frame),
                   second_fundamental_form(frame, vals3, vals3)))
    assert np.allclose(out["outer"], 0.5 * 9.0)   # h = 1/2, |u_par|^2 = 9


def test_surface_integral_examples():
    grid = build_grid(DomainSpec(DomainKind.DISK, r_outer=1.0), 32, 64)
    frame = boundary_frame(grid)
    outer = [c for c in frame if c.name == "outer"][0]
    ones = [np.zeros(c.n_nodes) if c.name != "outer" else np.ones(c.n_nodes)
            for c in frame]
    assert surface_integrate(frame, ones) == pytest.approx(2 * math.pi, rel=1e-12)
    cos_th = boundary_from_function(frame, lambda x, y: x / np.hypot(x, y))
    cos_outer = [v if c.name == "outer" else np.zeros(c.n_nodes)
                 for c, v in zip(frame, cos_th)]
    assert abs(surface_integrate(frame, cos_outer)) < 1e-12


def test_curvature_surface_integral_cancels():
    # oint h dS over the annulus boundary: 2 pi - 2 pi = 0
    grid = build_grid(DomainSpec(DomainKind.ANNULUS, r_inner=0.5, r_outer=1.0), 16, 32)
    frame = boundary_frame(grid)
    total = surface_integrate(frame, [c.curvature for c in frame])
    assert abs(total) < 1e-12


def test_gauss_sanity_disk_physical_boundary():
    grid = build_grid(DomainSpec(DomainKind.DISK, r_outer=1.0), 32, 64)
    frame = boundary_frame(grid)
    phys = frame.physical_components()
    assert len(phys) == 1 and phys[0].name == "outer"
    total = sum(float(np.sum(c.ds * c.curvature)) for c in phys)
    assert total == pytest.approx(2 * math.pi, rel=1e-12)


def test_frame_deterministic(annulus_grid):
    f1 = boundary_frame(annulus_grid)
    spec = annulus_grid.spec
    other = build_grid(spec, annulus_grid.n1, annulus_grid.n2)
    f2 = boundary_frame(other)
    for a, b in zip(f1, f2):
        assert np.array_equal(a.nu, b.nu)
        assert np.array_equal(a.tau, b.tau)
        assert np.array_equal(a.ds, b.ds)
        assert np.array_equal(a.curvature, b.curvature)


def test_perimeter_refinement_order():
    # dS sums are exact for these uniform loops; verify invariance
    for n in (16, 32, 64):
        grid = build_grid(DomainSpec(DomainKind.ANNULUS, r_inner=1.0, r_outer=2.0),
                          n, 2 * n)
        assert boundary_frame(grid).perimeter() == pytest.approx(6 * math.pi, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(r_in=st.floats(0.1, 2.0), gap=st.floats(0.1, 3.0),
       n1=st.integers(8, 24), n2=st.integers(8, 48))
def test_annulus_area_property(r_in, gap, n1, n2):
    spec = DomainSpec(DomainKind.ANNULUS, r_inner=r_in, r_outer=r_in + gap)
    grid = build_grid(spec, n1, n2)
    assert grid.area_quadrature() == pytest.approx(spec.area(), rel=1e-10)
    assert boundary_frame(grid).perimeter() == pytest.approx(
        2 * math.pi * (2 * r_in + gap), rel=1e-10)


@pytest.mark.parametrize("spec", [
    DomainSpec(DomainKind.ANNULUS, r_inner=1.0, r_outer=2.0),
    DomainSpec(DomainKind.DISK, r_outer=1.0),
    DomainSpec(DomainKind.CHANNEL, length_x=2 * math.pi, length_y=2.0),
    DomainSpec(DomainKind.TORUS, length_x=2 * math.pi, length_y=2 * math.pi),
], ids=lambda s: s.kind.value)
def test_boundary_node_layout(spec):
    """Component node indices select exactly the nodes at (axis, index), the
    inward stride steps one node into the domain, and the grid's wall mask
    is the union of the components' nodes."""
    grid = build_grid(spec, 12, 16)
    flat = np.arange(grid.nnodes).reshape(grid.shape)
    union = np.zeros(grid.shape, dtype=bool)
    frame = boundary_frame(grid)
    for comp in frame:
        inner = comp.index + 1 if comp.index == 0 else comp.index - 1
        if comp.axis == 0:
            at, next_in = flat[comp.index, :], flat[inner, :]
        else:
            at, next_in = flat[:, comp.index], flat[:, inner]
        np.testing.assert_array_equal(comp.nodes, at)
        np.testing.assert_array_equal(comp.nodes + comp.inward, next_in)
        np.testing.assert_allclose(grid.x.flat[comp.nodes], comp.x, atol=1e-14)
        np.testing.assert_allclose(grid.y.flat[comp.nodes], comp.y, atol=1e-14)
        union.flat[comp.nodes] = True
    if frame:
        np.testing.assert_array_equal(
            frame.nodes, np.concatenate([c.nodes for c in frame]))
    np.testing.assert_array_equal(grid.wall_mask, union)


def test_cached_builds_each_key_once_under_threads(annulus_spec):
    """Threads asking together for one key share a single build, and a build
    may ask for another key without deadlock."""
    grid = build_grid(annulus_spec, 12, 16)
    builds = []

    def build():
        builds.append(threading.get_ident())
        time.sleep(0.05)
        return ("probe", grid.cached("nested", lambda: "inner"))

    n = 8
    barrier = threading.Barrier(n, timeout=10)
    results = [None] * n

    def ask(k):
        barrier.wait()
        results[k] = grid.cached("probe", build)

    threads = [threading.Thread(target=ask, args=(k,)) for k in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(builds) == 1
    assert all(r is results[0] for r in results)
    assert results[0] == ("probe", "inner")
