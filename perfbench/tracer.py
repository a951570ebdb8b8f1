"""Span tracing of the vortibc layers, installed from outside the package.

`install()` wraps the public functions of each `vortibc` module and rebinds
every module attribute that holds the original, so names a module imported
directly (`from .elliptic import solve_neumann`) are traced as well.  The
`splu` binding of `vortibc.elliptic` and `vortibc.stepping` each get their
own wrapper, whose factor object times `solve` through a thin proxy.

Spans stay in memory as [layer, function, start, end, parent] and are
written out once, by `write_spans`.  A layer's self time is its spans'
durations minus the time covered by their child spans; its `calls` and `s`
count only the outermost span of that layer on each call path.
"""

from __future__ import annotations

import functools
import importlib
import logging
import pkgutil
import sys
import time
from collections import Counter

# layer -> (module, public functions)
FUNCTION_LAYERS = {
    "cli.main": ("vortibc.cli", ("main",)),
    "geometry.setup": ("vortibc.geometry", ("build_grid", "boundary_frame")),
    "fields.ops": ("vortibc.fields",
                   ("grad", "div", "curl2d", "curl_scalar", "advect", "laplacian")),
    "fields.norms": ("vortibc.fields", ("l2", "h1", "h2", "grad_l2")),
    "elliptic.pressure": ("vortibc.elliptic",
                          ("solve_pressure_ns", "solve_pressure_euler",
                           "solve_pressure_linearized", "solve_divergence_coupling",
                           "solve_harmonic_q")),
    "elliptic.solve_neumann": ("vortibc.elliptic", ("solve_neumann",)),
    "elliptic.solve_dirichlet": ("vortibc.elliptic", ("solve_dirichlet",)),
    "stokes.solve_stokes": ("vortibc.stokes", ("solve_stokes",)),
    "linearized.apply_velocity_map": ("vortibc.linearized", ("apply_velocity_map",)),
    "fixedpoint.picard_solve": ("vortibc.fixedpoint", ("picard_solve",)),
    "fixedpoint.wt_norm": ("vortibc.fixedpoint", ("wt_norm",)),
    "euler.solve_euler": ("vortibc.euler", ("solve_euler",)),
    "euler.sweep_mu": ("vortibc.euler", ("sweep_mu",)),
    "io.write": ("vortibc.io", ("write_csv", "atomic_write_text", "write_vbf",
                                "scalar_checkpoint", "vector_checkpoint")),
}

# layer -> (module, class, method)
METHOD_LAYERS = {
    "stepping.init": ("vortibc.stepping", "VelocityStepper", "__init__"),
    "stepping.step": ("vortibc.stepping", "VelocityStepper", "step"),
    "euler.velocity": ("vortibc.euler", "StreamfunctionSolver", "velocity"),
}

# modules whose `splu` binding is wrapped; layers <name>.factor / .backsolve
FACTOR_MODULES = ("elliptic", "stepping")

LAYERS = (*FUNCTION_LAYERS, *METHOD_LAYERS,
          *(f"{m}.{kind}" for m in FACTOR_MODULES for kind in ("factor", "backsolve")))

COUNTERS = ("fields.VectorField.allocs", "fixedpoint.picard_iters",
            "fixedpoint.steps_delivered", "fixedpoint.map_steps",
            "elliptic.neumann_repairs")

REPAIR_PREFIX = "repairing Neumann data"


class _TimedLU:
    """Factor object whose `solve` is traced; everything else forwards."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _RepairCounter(logging.Handler):
    def __init__(self, counts):
        super().__init__(logging.DEBUG)
        self.counts = counts

    def emit(self, record):
        if str(record.msg).startswith(REPAIR_PREFIX):
            self.counts["elliptic.neumann_repairs"] += 1


class Tracer:
    def __init__(self):
        self.spans = []          # [layer, function, start, end, parent index]
        self._stack = []
        self.enabled = True
        self.counts = Counter()
        self._factors = []       # (module, SuperLU) for the nnz count

    def span(self, layer, fn, on_result=None):
        """Wrap fn so each call records one span of `layer`."""
        name = getattr(fn, "__qualname__", fn.__name__)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [layer, name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()
            if on_result is not None:
                on_result(result)
            return result
        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        """Import every vortibc module and wrap its layers in place."""
        import vortibc

        for info in pkgutil.iter_modules(vortibc.__path__):
            importlib.import_module(f"vortibc.{info.name}")
        hooks = {
            "picard_solve": self._on_picard,
            "apply_velocity_map": self._on_velocity_map,
        }
        for layer, (module, names) in FUNCTION_LAYERS.items():
            mod = sys.modules[module]
            for name in names:
                orig = getattr(mod, name)
                _rebind(orig, self.span(layer, orig, hooks.get(name)))
        for layer, (module, cls_name, meth) in METHOD_LAYERS.items():
            cls = getattr(sys.modules[module], cls_name)
            setattr(cls, meth, self.span(layer, getattr(cls, meth)))
        for short in FACTOR_MODULES:
            mod = sys.modules[f"vortibc.{short}"]
            mod.splu = self._factor_wrapper(short, mod.splu)
        self._count_vector_allocs(sys.modules["vortibc.fields"].VectorField)
        elliptic_log = logging.getLogger("vortibc.elliptic")
        elliptic_log.setLevel(logging.DEBUG)
        elliptic_log.addHandler(_RepairCounter(self.counts))

    def _factor_wrapper(self, short, splu):
        factor = self.span(f"{short}.factor", splu)

        @functools.wraps(splu)
        def traced_splu(*args, **kwargs):
            lu = factor(*args, **kwargs)
            if not self.enabled:
                return lu
            self._factors.append((short, lu))
            return _TimedLU(lu, self.span(f"{short}.backsolve", lu.solve))
        return traced_splu

    def _count_vector_allocs(self, cls):
        orig = cls.__post_init__
        counts = self.counts

        def __post_init__(field):
            if self.enabled:
                counts["fields.VectorField.allocs"] += 1
            orig(field)
        cls.__post_init__ = __post_init__

    def _on_picard(self, sol):
        self.counts["fixedpoint.picard_iters"] += len(sol.trace)
        self.counts["fixedpoint.steps_delivered"] += len(sol.u) - 1

    def _on_velocity_map(self, v_hist):
        self.counts["fixedpoint.map_steps"] += len(v_hist) - 1

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer calls, self time and outermost inclusive time, plus the
        counters.  Call after the traced work, with tracing disabled."""
        spans = self.spans
        self_s = [end - start for _, _, start, end, _ in spans]
        outer = []
        for layer, _, start, end, parent in spans:
            if parent >= 0:
                self_s[parent] -= end - start
            p = parent
            while p >= 0 and spans[p][0] != layer:
                p = spans[p][4]
            outer.append(p < 0)
        out = {f"{layer}.{kind}": 0 for layer in LAYERS
               for kind in ("calls", "self_s", "s")}
        out.update({name: self.counts[name] for name in COUNTERS})
        out.update({f"{m}.lu_nnz": 0 for m in FACTOR_MODULES})
        for (layer, _, start, end, _), own, top in zip(spans, self_s, outer):
            out[f"{layer}.self_s"] += own
            if top:
                out[f"{layer}.calls"] += 1
                out[f"{layer}.s"] += end - start
        for short, lu in self._factors:
            out[f"{short}.lu_nnz"] += lu.L.nnz + lu.U.nnz
        inits = out["stepping.init.calls"]
        out["stepping.factor_reuse"] = (
            1.0 - out["stepping.factor.calls"] / inits if inits else 0.0)
        delivered = out["fixedpoint.steps_delivered"]
        out["fixedpoint.map_steps_per_step"] = (
            out["fixedpoint.map_steps"] / delivered if delivered else 0.0)
        out["trace.spans"] = len(spans)
        return out

    def write_spans(self, path):
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            f.write("index,layer,function,start_s,end_s,parent\n")
            for i, (layer, fn, start, end, parent) in enumerate(self.spans):
                f.write(f"{i},{layer},{fn},{start - t0:.9f},{end - t0:.9f},{parent}\n")


def _rebind(orig, wrapped):
    """Point every vortibc module attribute that holds orig at wrapped."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "vortibc" or name.startswith("vortibc.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)
