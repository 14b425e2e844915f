"""Run configuration: a versioned, JSON-serializable bundle of settings.

It also defines the two failures that set the command line's exit codes:
``ConfigError`` (2, an unusable config or path) and ``NumericalError`` (3).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from .io import read_json, write_json

__all__ = [
    "ConfigError",
    "NumericalError",
    "ParamsConfig",
    "BasisConfig",
    "StationaryConfig",
    "ActuatorConfig",
    "RiccatiConfig",
    "RunConfig",
    "SimConfig",
    "load_config",
    "save_config",
    "apply_override",
]

SCHEMA_VERSION = 1
# most rows a run may record (sim.t_end / sim.dt / sim.record_every): at this
# bound and N = 3 the record arrays hold 8 doubles a row, 640 MB
MAX_RECORDED_ROWS = 10**7
# most modes basis.M may ask for.  The gain keeps R in compact form, O(M N)
# doubles, so what holds memory at this bound is the cached M x M cosine
# matrices (128 MiB each) and, on a nonconstant state, solve_care's dense
# true-loop check (two (2M)^2 arrays, 512 MiB each, and LAPACK's workspace)
MAX_MODES = 4096
# sim.t_end must be a whole number of sim.dt steps to this relative rounding
STEP_COUNT_RTOL = 1e-9


class ConfigError(ValueError):
    """Invalid configuration; maps to CLI exit code 2."""


class NumericalError(RuntimeError):
    """A stage's numerics failed; maps to CLI exit code 3.

    The keyword facts (a time, a residual, an iterate log) are kept in ``facts``.
    """

    def __init__(self, message: str, **facts):
        super().__init__(message)
        self.facts = facts


@dataclass
class ParamsConfig:
    nu: float = 0.1
    l0: float = 1.0
    gamma0: float = 1.0


@dataclass
class BasisConfig:
    L: float = 1.0
    M: int = 64


@dataclass
class StationaryConfig:
    mode: str = "constant"  # "constant" | "minimize"
    which: int = 0  # constant branch: -1, 0, +1
    theta: float = 0.0  # theta_inf: written to stationary.json, read by no stage
    C: float = 0.0
    init_value: float = 0.9  # minimize: initial constant level ...
    init_cos: float = 0.0  # ... plus this amplitude of cos(pi x / L)
    tol: float = 1e-8
    max_iters: int = 20000  # minimize: pseudo-transient steps, accepted or rejected


@dataclass
class ActuatorConfig:
    a: float = 0.25
    b: float = 0.75
    T0: float = 1.0


@dataclass
class RiccatiConfig:
    method: str = "newton"  # Newton-Kleinman, the only solver
    tol: float = 1e-9
    max_iters: int = 50


@dataclass
class RunConfig:
    # SBDF2 with implicit feedback (also simulate's default scheme): its step
    # is not limited by the gain, and 5e-3 still leaves the rate fit >= 20
    # recorded rows in the second half of a t_end = 2.5, record_every = 10 run
    dt: float = 5e-3
    t_end: float = 20.0
    rho: float = 1e-2
    closed_loop: bool = True
    nonlinear: bool = True
    scheme: str = "imex2"  # "imex1" | "imex2"
    record_every: int = 1


@dataclass
class SimConfig:
    schema_version: int = SCHEMA_VERSION
    params: ParamsConfig = field(default_factory=ParamsConfig)
    basis: BasisConfig = field(default_factory=BasisConfig)
    stationary: StationaryConfig = field(default_factory=StationaryConfig)
    actuator: ActuatorConfig = field(default_factory=ActuatorConfig)
    riccati: RiccatiConfig = field(default_factory=RiccatiConfig)
    sim: RunConfig = field(default_factory=RunConfig)
    seed: int = 1234
    output_dir: str = "runs/default"

    def validate(self) -> "SimConfig":
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version {self.schema_version} unsupported (expected {SCHEMA_VERSION})"
            )
        sections = [getattr(self, name) for name in _SECTIONS]
        for name, section in zip(_SECTIONS, sections):
            for f in fields(section):
                dotted, value = f"{name}.{f.name}", getattr(section, f.name)
                # a NaN passes "value <= 0", and an infinity is positive
                if isinstance(value, float) and not math.isfinite(value):
                    raise ConfigError(f"{dotted} must be finite, got {value}")
                if dotted in _POSITIVE and value <= 0:
                    raise ConfigError(f"{dotted} must be positive, got {value}")
        _, b, s, a, r, run = sections
        if not 4 <= b.M <= MAX_MODES:
            raise ConfigError(f"basis.M must be in [4, {MAX_MODES}], got {b.M}")
        if s.mode not in ("constant", "minimize"):
            raise ConfigError(f"stationary.mode must be 'constant' or 'minimize', got {s.mode!r}")
        if s.mode == "constant" and s.which not in (-1, 0, 1):
            raise ConfigError(f"stationary.which must be -1, 0 or +1, got {s.which}")
        if not (0.0 < a.a < a.b < b.L):
            raise ConfigError(
                f"actuator interval ({a.a}, {a.b}) must satisfy 0 < a < b < L={b.L}"
            )
        if r.method != "newton":
            raise ConfigError(
                f"riccati.method must be 'newton', got {r.method!r}; the integrated "
                "Riccati route is a test oracle in tests/oracles.py"
            )
        if run.scheme not in ("imex1", "imex2"):
            raise ConfigError(f"sim.scheme must be 'imex1' or 'imex2', got {run.scheme!r}")
        if run.record_every < 1:
            raise ConfigError(f"sim.record_every must be >= 1, got {run.record_every}")
        # one float quotient against an exact int: no conversion can overflow
        if run.t_end / run.dt > MAX_RECORDED_ROWS * run.record_every:
            raise ConfigError(
                f"sim.t_end / sim.dt / sim.record_every asks for "
                f"{run.t_end / run.dt / run.record_every:.3e} recorded rows, above "
                f"{MAX_RECORDED_ROWS:.0e}"
            )
        step_count(run.t_end, run.dt)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        return self


def step_count(t_end: float, dt: float) -> int:
    """round(t_end / dt), the steps of a run from 0 to t_end.

    ConfigError (a ValueError) unless that is a whole number >= 1 to
    rounding, within ``STEP_COUNT_RTOL`` of t_end / dt: a run of another
    length would end at another time than t_end and still report t_end.
    """
    steps = t_end / dt
    count = round(steps) if math.isfinite(steps) else 0
    if count < 1 or abs(steps - count) > STEP_COUNT_RTOL * count:
        raise ConfigError(
            f"sim.t_end = {t_end!r} is not a positive whole number of sim.dt = {dt!r} "
            f"steps (t_end / dt = {steps:.6g})"
        )
    return count


_SECTIONS = {
    "params": ParamsConfig,
    "basis": BasisConfig,
    "stationary": StationaryConfig,
    "actuator": ActuatorConfig,
    "riccati": RiccatiConfig,
    "sim": RunConfig,
}
# the fields SimConfig.validate requires to be > 0
_POSITIVE = {
    "params.nu", "params.l0", "params.gamma0", "basis.L", "stationary.tol",
    "stationary.max_iters", "actuator.T0", "riccati.tol", "riccati.max_iters",
    "sim.dt", "sim.t_end", "sim.rho",
}


def _from_dict(where: str, cls: type, items):
    """cls built from items; ConfigError unless each key is a field and each value of its type.

    A value has its field default's type, except that a float field takes
    an int, stored as a float: equal configs then save, and hash into the
    gain digest, alike.  A bool is not an int.
    """
    if not isinstance(items, dict):
        raise ConfigError(f"{where} must be an object, got {items!r}")
    known = {f.name: f for f in fields(cls)}
    bad = set(items) - set(known)
    if bad:
        raise ConfigError(f"unknown keys in {where}: {sorted(bad)}")
    values = {}
    for key, value in items.items():
        if key in _SECTIONS:
            values[key] = _from_dict(key, _SECTIONS[key], value)
            continue
        expected = type(known[key].default)
        allowed = (int, float) if expected is float else expected
        if isinstance(value, bool) != (expected is bool) or not isinstance(value, allowed):
            raise ConfigError(f"{where}.{key} must be {expected.__name__}, got {value!r}")
        try:
            values[key] = float(value) if expected is float else value
        except OverflowError:
            raise ConfigError(f"{where}.{key} is an int too large for a float") from None
    return cls(**values)


def load_config(path: str | Path | None = None, data: dict | None = None) -> SimConfig:
    """Load and validate a config from a JSON file (or an in-memory dict)."""
    if data is None:
        if path is None:
            return SimConfig().validate()
        try:
            data = read_json(path)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
        except ValueError as exc:  # not JSON, or not UTF-8 text
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    return _from_dict("config", SimConfig, data).validate()


def save_config(cfg: SimConfig, path: str | Path) -> None:
    write_json(path, asdict(cfg))


def apply_override(cfg: SimConfig, dotted: str, raw_value: str) -> SimConfig:
    """Apply one 'section.field=value' style override in place."""
    parts = dotted.split(".")
    target = cfg
    for part in parts[:-1]:
        if not hasattr(target, part) or not is_dataclass(getattr(target, part)):
            raise ConfigError(f"unknown config section {dotted!r}")
        target = getattr(target, part)
    leaf = parts[-1]
    if not hasattr(target, leaf):
        raise ConfigError(f"unknown config field {dotted!r}")
    current = getattr(target, leaf)
    if is_dataclass(current):
        raise ConfigError(f"{dotted!r} is a config section; set one of its fields")
    try:
        if isinstance(current, bool):
            value = {"true": True, "false": False}[raw_value.lower()]
        elif isinstance(current, int):
            value = int(raw_value)
        elif isinstance(current, float):
            value = float(raw_value)
        else:
            value = raw_value
    except (ValueError, KeyError):
        raise ConfigError(f"cannot parse {raw_value!r} for {dotted!r} ({type(current).__name__})")
    setattr(target, leaf, value)
    return cfg
