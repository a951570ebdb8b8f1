"""Flat key = value run configuration.

Format: one `key = value` per line, `#` starts a comment, keys use dotted
section prefixes (domain., physics., solver., output.).  Values are parsed
as int, float, bool, or string; lists are comma separated.  Parsing then
serializing then re-parsing yields an identical structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .geometry import DomainKind, DomainSpec


def _parse_scalar(text: str):
    t = text.strip()
    if t.lower() in ("true", "false"):
        return t.lower() == "true"
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    return t


def parse_kv_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        val = val.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if "," in val:
            out[key] = [_parse_scalar(v) for v in val.split(",")]
        else:
            out[key] = _parse_scalar(val)
    return out


def _format_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return ", ".join(_format_value(x) for x in v)
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


@dataclass
class RunConfig:
    """Validated run configuration for all CLI commands."""

    domain_kind: str = "annulus"
    r_inner: float = 1.0
    r_outer: float = 2.0
    length_x: float = 6.283185307179586
    length_y: float = 6.283185307179586
    n1: int = 32
    n2: int = 32

    mu: float = 0.1
    T: float = 0.5
    dt: float = 0.0
    mu_list: list = field(default_factory=list)
    initial_condition: str = "zero"
    ic_params: dict = field(default_factory=dict)
    boundary_data: str = "zero"
    bd_params: dict = field(default_factory=dict)

    tol_fix: float = 1e-8
    max_iter: int = 12
    contraction_window: int = 3
    scheme: str = "backward-euler"
    seed: int = 0

    out_dir: str = "out"
    checkpoint_stride: int = 0   # 0: only final state

    def domain_spec(self) -> DomainSpec:
        try:
            kind = DomainKind(self.domain_kind)
        except ValueError:
            raise ConfigError(f"unknown domain kind {self.domain_kind!r}")
        return DomainSpec(kind, r_inner=self.r_inner, r_outer=self.r_outer,
                          length_x=self.length_x, length_y=self.length_y)

    def effective_dt(self, grid) -> float:
        # dt = 0 selects the default desk-scale step: the largest step of at
        # most min(h^2, T/100) that divides T, as an explicit dt must
        if self.dt > 0:
            return self.dt
        cap = min(grid.min_spacing() ** 2, self.T / 100.0)
        # the slack keeps a rounded T / (T/100) at 100 steps, not 101
        return self.T / math.ceil(self.T / cap * (1.0 - 1e-9))


_KEYMAP = {
    "domain.kind": "domain_kind",
    "domain.r_inner": "r_inner",
    "domain.r_outer": "r_outer",
    "domain.length_x": "length_x",
    "domain.length_y": "length_y",
    "domain.n1": "n1",
    "domain.n2": "n2",
    "physics.mu": "mu",
    "physics.T": "T",
    "physics.dt": "dt",
    "physics.mu_list": "mu_list",
    "physics.initial_condition": "initial_condition",
    "physics.boundary_data": "boundary_data",
    "solver.tol_fix": "tol_fix",
    "solver.max_iter": "max_iter",
    "solver.contraction_window": "contraction_window",
    "solver.scheme": "scheme",
    "solver.seed": "seed",
    "output.directory": "out_dir",
    "output.checkpoint_stride": "checkpoint_stride",
}

# declared type of each RunConfig field ("int", "float", ...)
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}

_NUMERIC_RANGES = {
    "mu": (0.0, None),
    "max_iter": (2, None), "n1": (1, None), "n2": (1, None), "seed": (0, None),
    "dt": (0.0, None), "checkpoint_stride": (0, None), "contraction_window": (1, None),
}


def _number(key, val, kind):
    """val as a number of the declared kind: an int field takes only an
    integral value, which it stores as int."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{key} = {val!r} is not a number")
    if kind == "int":
        if not float(val).is_integer():
            raise ConfigError(f"{key} = {val!r} is not an integer")
        return int(val)
    return val


def check_ranges(cfg: RunConfig) -> None:
    """Raise ConfigError when a numeric field leaves its range; run again
    after command-line overrides."""
    for attr, (lo, hi) in _NUMERIC_RANGES.items():
        v = getattr(cfg, attr)
        if lo is not None and v < lo:
            raise ConfigError(f"{attr} = {v} below minimum {lo}")
        if hi is not None and v > hi:
            raise ConfigError(f"{attr} = {v} above maximum {hi}")
    # every time loop and the default dt divide by T, and a Picard run stops
    # only once an increment falls to tol_fix
    for attr in ("T", "tol_fix"):
        if not getattr(cfg, attr) > 0:
            raise ConfigError(f"{attr} = {getattr(cfg, attr)} must be positive")
    # each sweep viscosity is a log-log fit abscissa, so it must be positive
    for m in cfg.mu_list:
        if not _number("physics.mu_list", m, "float") > 0:
            raise ConfigError(f"physics.mu_list entry {m} must be positive")


def parse_config(text: str) -> RunConfig:
    kv = parse_kv_text(text)
    cfg = RunConfig()
    for key, val in kv.items():
        # nan passes every range check below (nan < lo is False)
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (val if isinstance(val, list) else [val])):
            raise ConfigError(f"{key} = {val} is not finite")
        if key.startswith("physics.ic."):
            cfg.ic_params[key[len("physics.ic."):]] = val
            continue
        if key.startswith("physics.bd."):
            cfg.bd_params[key[len("physics.bd."):]] = val
            continue
        attr = _KEYMAP.get(key)
        if attr is None:
            raise ConfigError(f"unknown config key {key!r}")
        if attr == "mu_list" and not isinstance(val, list):
            val = [val]
        if _FIELD_TYPES[attr] in ("int", "float"):
            val = _number(key, val, _FIELD_TYPES[attr])
        setattr(cfg, attr, val)
    check_ranges(cfg)
    if cfg.dt > cfg.T:
        raise ConfigError(f"dt = {cfg.dt} exceeds T = {cfg.T}")
    # the time loops run round(T / dt) steps, so a remainder would change the end time
    steps = cfg.T / cfg.dt if cfg.dt > 0 else 0.0
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ConfigError(f"dt = {cfg.dt} does not divide T = {cfg.T}")
    if cfg.scheme not in ("backward-euler", "crank-nicolson"):
        raise ConfigError(f"unknown scheme {cfg.scheme!r}")
    cfg.domain_spec()  # validates geometry
    return cfg


_SERIALIZE_ORDER = (
    "domain_kind", "r_inner", "r_outer", "length_x", "length_y",
    "n1", "n2", "mu", "T", "dt", "mu_list", "initial_condition",
    "boundary_data", "tol_fix", "max_iter", "contraction_window",
    "scheme", "seed", "out_dir", "checkpoint_stride")


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    inverse = {v: k for k, v in _KEYMAP.items()}
    for attr in _SERIALIZE_ORDER:
        key = inverse[attr]
        val = getattr(cfg, attr)
        if attr == "mu_list" and not val:
            continue
        lines.append(f"{key} = {_format_value(val)}")
    for k, v in sorted(cfg.ic_params.items()):
        lines.append(f"physics.ic.{k} = {_format_value(v)}")
    for k, v in sorted(cfg.bd_params.items()):
        lines.append(f"physics.bd.{k} = {_format_value(v)}")
    return "\n".join(lines) + "\n"


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc.strerror}")
    return parse_config(text)
