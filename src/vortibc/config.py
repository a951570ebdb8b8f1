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
from .io import format_float


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
        return format_float(v)
    return str(v)


def _key(default, key: str, lo=None, strict: bool = False):
    """A RunConfig field set by the dotted config key `key`, its default a
    factory when callable.  A numeric field stays at or above lo, or above
    it when strict; every strict bound is 0 ("must be positive")."""
    meta = {"key": key, "lo": lo, "strict": strict}
    if callable(default):
        return field(default_factory=default, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """Validated run configuration for all CLI commands.  Each keyed field
    declares its key and bound; serialize_config writes them in this order."""

    domain_kind: str = _key("annulus", "domain.kind")
    # the domain's lengths and radii are validated by DomainSpec
    r_inner: float = _key(1.0, "domain.r_inner")
    r_outer: float = _key(2.0, "domain.r_outer")
    length_x: float = _key(6.283185307179586, "domain.length_x")
    length_y: float = _key(6.283185307179586, "domain.length_y")
    n1: int = _key(32, "domain.n1", lo=1)
    n2: int = _key(32, "domain.n2", lo=1)

    mu: float = _key(0.1, "physics.mu", lo=0.0)
    # every time loop and the default dt divide by T
    T: float = _key(0.5, "physics.T", lo=0.0, strict=True)
    dt: float = _key(0.0, "physics.dt", lo=0.0)
    mu_list: list = _key(list, "physics.mu_list")
    initial_condition: str = _key("zero", "physics.initial_condition")
    ic_params: dict = field(default_factory=dict)   # physics.ic.*
    boundary_data: str = _key("zero", "physics.boundary_data")
    bd_params: dict = field(default_factory=dict)   # physics.bd.*

    # a Picard run stops only once an increment falls to tol_fix
    tol_fix: float = _key(1e-8, "solver.tol_fix", lo=0.0, strict=True)
    max_iter: int = _key(12, "solver.max_iter", lo=2)
    contraction_window: int = _key(3, "solver.contraction_window", lo=1)
    scheme: str = _key("backward-euler", "solver.scheme")
    seed: int = _key(0, "solver.seed", lo=0)

    out_dir: str = _key("out", "output.directory")
    checkpoint_stride: int = _key(0, "output.checkpoint_stride", lo=0)   # 0: only final state

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
        steps = self.T / cap * (1.0 - 1e-9)
        if not math.isfinite(steps):
            raise ConfigError(f"T / dt = {self.T} / {cap} overflows the step count")
        return self.T / math.ceil(steps)


# the keyed fields by dotted key, in declaration order
_SCHEMA = {f.metadata["key"]: f for f in fields(RunConfig) if "key" in f.metadata}


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
    for f in _SCHEMA.values():
        lo, v = f.metadata["lo"], getattr(cfg, f.name)
        if lo is None:
            continue
        if f.metadata["strict"]:
            if not v > lo:
                raise ConfigError(f"{f.name} = {v} must be positive")
        elif v < lo:
            raise ConfigError(f"{f.name} = {v} below minimum {lo}")
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
        f = _SCHEMA.get(key)
        if f is None:
            raise ConfigError(f"unknown config key {key!r}")
        if f.type == "list" and not isinstance(val, list):
            val = [val]
        if f.type == "str" and not (isinstance(val, str) and val):
            raise ConfigError(f"{key} needs a name, got {_format_value(val) or 'nothing'}")
        if f.type in ("int", "float"):
            val = _number(key, val, f.type)
        setattr(cfg, f.name, val)
    check_ranges(cfg)
    if cfg.dt > cfg.T:
        raise ConfigError(f"dt = {cfg.dt} exceeds T = {cfg.T}")
    # the time loops run round(T / dt) steps, so a remainder would change the end time
    steps = cfg.T / cfg.dt if cfg.dt > 0 else 0.0
    if not math.isfinite(steps):
        raise ConfigError(f"T / dt = {cfg.T} / {cfg.dt} overflows the step count")
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ConfigError(f"dt = {cfg.dt} does not divide T = {cfg.T}")
    if cfg.scheme not in ("backward-euler", "crank-nicolson"):
        raise ConfigError(f"unknown scheme {cfg.scheme!r}")
    cfg.domain_spec()  # validates geometry
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    lines = [f"{key} = {_format_value(getattr(cfg, f.name))}" for key, f in _SCHEMA.items()
             if f.name != "mu_list" or cfg.mu_list]
    for prefix, params in (("physics.ic", cfg.ic_params), ("physics.bd", cfg.bd_params)):
        lines += [f"{prefix}.{k} = {_format_value(v)}" for k, v in sorted(params.items())]
    return "\n".join(lines) + "\n"


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc.strerror}")
    return parse_config(text)
