#!/usr/bin/env python3
"""Regenerate the frozen regression constants used by the test suite.

The equivalence/trace/envelope constants of the continuous theory are not
constructive, so the tests pin values measured once on fixed, seeded
scenarios.  Rerun this script after any discretization change and update
tests/frozen.py with the printed block.
"""

import math

import numpy as np

from vortibc import (DomainKind, DomainSpec, VectorField, boundary_frame,
                     build_grid)
from vortibc.euler import check_gronwall_viscous, solve_euler
from vortibc.fixedpoint import PicardConfig, picard_solve
from vortibc.generators import random_absolute_bc_field, random_vector
from vortibc.identities import absolute_bc_norm_ratios, trace_inequality_constant
from vortibc.linearized import compute_F, gronwall_envelope
from vortibc.stokes import verify_prop43

MARGIN = 1.05


def ratio_constants():
    out = {}
    for name, spec in (("annulus", DomainSpec(DomainKind.ANNULUS, r_inner=1.0, r_outer=2.0)),
                       ("channel", DomainSpec(DomainKind.CHANNEL,
                                              length_x=2 * math.pi, length_y=2.0))):
        grid = build_grid(spec, 48, 48)
        frame = boundary_frame(grid)
        rng = np.random.default_rng(1234)
        ensemble = [random_absolute_bc_field(grid, rng,
                                             circulation=(0.5 if grid.polar and k % 3 == 0 else 0.0))
                    for k in range(20)]
        rep = absolute_bc_norm_ratios(ensemble, frame)
        # the trace bound holds for arbitrary smooth fields; sample general ones
        trng = np.random.default_rng(99)
        trace_ensemble = [VectorField.from_function(grid, random_vector(spec, trng))
                          for _ in range(20)]
        trace_c = trace_inequality_constant(trace_ensemble, frame, (0.1, 0.5, 1.0))
        out[name] = dict(h1_ratio=rep.h1_ratio, hessian_ratio=rep.hessian_ratio,
                         h2_ratio=rep.h2_ratio, trace_c=MARGIN * trace_c)
    return out


def gronwall_constants():
    # The t = 0 envelope value is C1 F(0) exactly, pinning C1 >= 1; the
    # integral forcing term dominates every reachable F(t) for t > 0, so
    # the frozen pair is (C1 with a small margin, C2 anchored to 2/Q(T)).
    # Sensitivity lives in C1 (see the max_slack regression alongside).
    spec = DomainSpec(DomainKind.ANNULUS, r_inner=1.0, r_outer=2.0)
    grid = build_grid(spec, 32, 64)
    amp = 0.6
    prof = amp * np.sin(math.pi * (grid.r - 1.0))
    u0 = VectorField(grid, -prof * np.sin(grid.theta), prof * np.cos(grid.theta))
    a = [np.full(64, amp * math.pi), np.full(64, -amp * math.pi)]
    mu, T, dt = 0.05, 0.2, 2e-3
    sol = picard_solve(u0, a, mu, T, dt, PicardConfig(tol_fix=1e-8, max_iter=20))
    diag = compute_F(sol.v, sol.v, sol.w)
    C2 = 2.0 / max(diag.Q[-1], 1e-30)
    env1 = gronwall_envelope(diag, 1.0, C2)
    C1 = MARGIN * float(np.max(diag.F / env1))
    slack = float(np.max((diag.F / env1)[1:]))   # worst ratio after t = 0
    return dict(scenario=dict(amp=amp, mu=mu, T=T, dt=dt, n=(32, 64)),
                C1=C1, C2=C2, slack=slack)


def viscous_gronwall_constant():
    spec = DomainSpec(DomainKind.ANNULUS, r_inner=1.0, r_outer=2.0)
    grid = build_grid(spec, 48, 48)
    prof = np.sin(math.pi * (grid.r - 1.0))
    u0 = VectorField(grid, -prof * np.sin(grid.theta), prof * np.cos(grid.theta))
    a = [np.zeros(48), np.zeros(48)]   # mismatched: omega trace is +-pi
    mu, mu0, T, dt = 0.03, 0.1, 0.1, 1e-3
    sol = picard_solve(u0, a, mu, T, dt, PicardConfig(tol_fix=1e-7, max_iter=20))
    ref = solve_euler(u0, T, dt)
    rep = check_gronwall_viscous(sol.u, ref, a, mu, mu0, C=1.0)
    C = MARGIN * float(np.max(rep.lhs / rep.rhs))
    return dict(scenario=dict(mu=mu, mu0=mu0, T=T, dt=dt, n=48), C=C)


def prop43_constant():
    spec = DomainSpec(DomainKind.ANNULUS, r_inner=1.0, r_outer=2.0)
    grid = build_grid(spec, 32, 64)
    amp = 0.5
    prof = amp * np.sin(math.pi * (grid.r - 1.0))
    u0 = VectorField(grid, -prof * np.sin(grid.theta), prof * np.cos(grid.theta))
    a = [np.full(64, amp * math.pi), np.full(64, -amp * math.pi)]
    rep = verify_prop43(u0, a, [1e-1, 1e-2, 1e-3], T=0.2, dt=2e-3)
    return dict(ratios=rep.ratios, bound=MARGIN * max(rep.ratios))


def main():
    np.set_printoptions(precision=6)
    print("# frozen regression constants (regenerate with scripts/calibrate_constants.py)")
    rc = ratio_constants()
    for name, vals in rc.items():
        print(f"{name.upper()}_NORM_RATIOS = {{")
        for k, v in vals.items():
            print(f"    {k!r}: {v:.6g},")
        print("}")
    gw = gronwall_constants()
    print(f"GRONWALL_C1 = {gw['C1']:.6g}")
    print(f"GRONWALL_C2 = {gw['C2']:.6g}")
    print(f"GRONWALL_SLACK = {gw['slack']:.6g}")
    vg = viscous_gronwall_constant()
    print(f"VISCOUS_GRONWALL_C = {vg['C']:.6g}")
    p43 = prop43_constant()
    print(f"PROP43_RATIOS = {[float(f'{r:.6g}') for r in p43['ratios']]}")
    print(f"PROP43_BOUND = {p43['bound']:.6g}")


if __name__ == "__main__":
    main()
