"""Identity and inequality suite runner: residuals across refinements with
observed convergence orders.

The same manufactured analytic fields are sampled on every resolution, so
the logged residual sequence measures pure discretization order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .elliptic import solonnikov_ratio
from .fields import ScalarField, VectorField
from .generators import random_scalar, random_vector
from .geometry import DomainSpec, boundary_frame, build_grid
from .identities import (
    advection_identity_residuals,
    advection_normal_trace_residual,
    boundary_flux_residuals,
    curl_green_residual,
    energy_identity_residuals,
    laplacian_decomposition_residual,
)

ORDER_THRESHOLD = 1.8
RATIO_LIMIT = 1.05      # the largest gradient-bound ratio the ensemble passes
MACHINE_FLOOR = 1e-12   # a check whose residuals all sit below this is an exact identity


@dataclass
class CheckResult:
    name: str
    residuals: list
    order: float | None      # least-squares slope vs log2(resolution)
    passed: bool
    note: str = ""


@dataclass
class SuiteReport:
    resolutions: list
    checks: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self):
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def table_lines(self):
        head = f"{'check':<28}" + "".join(
            f"{f'{n}x{n}':>12}" for n in self.resolutions) + f"{'order':>8}  status"
        yield head
        for c in self.checks:
            vals = "".join(f"{r:>12.3e}" for r in c.residuals)
            order = f"{c.order:>8.2f}" if c.order is not None else f"{'n/a':>8}"
            status = "ok" if c.passed else "FAIL"
            note = f"  ({c.note})" if c.note else ""
            yield f"{c.name:<28}{vals}{order}  {status}{note}"


def _ls_order(residuals):
    r = np.asarray(residuals, dtype=float)
    if np.any(r <= 0):
        return None
    x = np.arange(len(r))
    slope = np.polyfit(x, np.log2(r), 1)[0]
    return float(-slope)


def run_identity_suite(spec: DomainSpec, resolutions=(32, 64, 128),
                       seed: int = 7) -> SuiteReport:
    """Evaluate every identity residual at each resolution.

    A check passes when its least-squares observed order meets the
    threshold or every residual sits at the machine floor (exact
    identities).  Boundary checks are skipped with a note on the torus.
    """
    t0 = time.time()
    rng = np.random.default_rng(seed)
    u_fn = random_vector(spec, rng)
    w_fn = random_vector(spec, rng)
    s_fn = random_scalar(spec, rng)

    names = ["advection_normal_trace", "div_flux_normal_trace",
             "kinetic_flux_normal_trace", "curl_green", "energy_identity_lap",
             "energy_identity_grad", "advection_split",
             "curl_advection_transport", "laplacian_decomposition"]
    values = {n: [] for n in names}
    has_boundary = True
    for n in resolutions:
        grid = build_grid(spec, n, n)
        frame = boundary_frame(grid)
        has_boundary = bool(frame)
        u = VectorField.from_function(grid, u_fn)
        w = VectorField.from_function(grid, w_fn)
        s = ScalarField.from_function(grid, s_fn)
        if frame:
            values["advection_normal_trace"].append(
                advection_normal_trace_residual(u, w, frame))
            fi, fii = boundary_flux_residuals(u, frame)
            values["div_flux_normal_trace"].append(fi)
            values["kinetic_flux_normal_trace"].append(fii)
        values["curl_green"].append(curl_green_residual(u, s, frame))
        e1, e2 = energy_identity_residuals(u, frame)
        values["energy_identity_lap"].append(e1)
        values["energy_identity_grad"].append(e2)
        a1, a2 = advection_identity_residuals(u, u, w)
        values["advection_split"].append(a1)
        values["curl_advection_transport"].append(a2)
        values["laplacian_decomposition"].append(laplacian_decomposition_residual(u))

    report = SuiteReport(resolutions=list(resolutions))
    for name in names:
        res = values[name]
        if not res:
            report.checks.append(CheckResult(
                name, [], None, True, "skipped: no boundary"))
            continue
        if max(res) <= MACHINE_FLOOR:
            report.checks.append(CheckResult(name, res, None, True, "machine zero"))
            continue
        order = _ls_order(res)
        passed = order is not None and order >= ORDER_THRESHOLD
        report.checks.append(CheckResult(name, res, order, passed))
    if not has_boundary:
        report.checks.append(CheckResult(
            "boundary_checks", [], None, True, "skipped with notice: empty boundary"))
    report.elapsed = time.time() - t0
    return report


def run_solonnikov_ensemble(spec: DomainSpec, resolution: int = 48,
                            n_samples: int = 50, seed: int = 11):
    """Gradient-bound ratios over a random smooth ensemble; returns
    (worst_ratio, passed)."""
    rng = np.random.default_rng(seed)
    grid = build_grid(spec, resolution, resolution)
    worst = 0.0
    for _ in range(n_samples):
        fn = random_vector(spec, rng)
        f = VectorField.from_function(grid, fn)
        worst = max(worst, solonnikov_ratio(f))
    return worst, worst <= RATIO_LIMIT
