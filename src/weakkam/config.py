"""Run configuration: a flat key-value text format with JSON-encoded values.

Each non-comment line is ``dotted.key = <json value>``; unknown keys are
rejected with the offending line number, as are value-level validation
failures.  The same schema round-trips through ``serialize_config``.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .hamiltonians import SwingModel, TrigPoly, make_integrable, make_pendulum
from .swingsim import COMPARE_RECORD_EVERY, MIN_FIT_SAMPLES, MIN_TABLE_ROWS

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config",
           "serialize_config", "model_from_config"]


class ConfigError(ValueError):
    pass


def _key(key: str, default):
    """A RunConfig field read from and written to the dotted config ``key``;
    a list default is copied for every instance."""
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata={"key": key})
    return field(default=default, metadata={"key": key})


@dataclass
class RunConfig:
    # model; model.n and model.m must match the model the other model.* keys build
    model_name: str = _key("model.name", "pendulum")
    model_a: float = _key("model.a", 1.0)            # pendulum amplitude
    model_n: int = _key("model.n", 1)
    model_m: int = _key("model.m", 0)
    model_alpha: list = _key("model.alpha", [0.0])
    model_lam: list = _key("model.lam", [0.5])
    model_omega: list = _key("model.omega", [])
    model_beta: list = _key("model.beta", [])        # n x n of TrigPoly dicts
    # grid
    N_x: int = _key("grid.N_x", 128)
    N_phi: int = _key("grid.N_phi", 1)
    diff_mode: str = _key("grid.diff", "spectral")
    # cell problem
    P: list = _key("P", [0.0])
    k_schedule: list = _key("k_schedule", [8.0, 16.0, 32.0, 64.0])
    tau_steps: int = _key("tau_steps", 4)
    gtol: float = _key("tol.gtol", 1e-8)
    max_iter: int = _key("tol.max_iter", 2000)
    # simulator
    sim_T: float = _key("sim.T", 100.0)
    sim_dt: float = _key("sim.dt", 1e-3)
    sim_x0: list = _key("sim.x0", [0.0])
    sim_y0: list = _key("sim.y0", [1.5])
    sim_record_every: int = _key("sim.record_every", 10)
    sim_burn_in: float = _key("sim.burn_in", 0.1)
    sim_compare: bool = _key("sim.compare", False)
    sim_samples: int = _key("sim.samples", 5)
    # oracle table
    oracle_P: list = _key("oracle.P_range", [0.0, 3.0, 0.05])   # start, stop, step
    # run control
    out: str = _key("out", "runs")
    seed: int = _key("seed", 7)
    dump_sigma: bool = _key("flags.dump_sigma", False)


_KEYS = {f.name: f.metadata["key"] for f in fields(RunConfig)}   # field -> dotted key
_FIELDS = {key: name for name, key in _KEYS.items()}                 # dotted key -> field
_DEFAULTS = {f.name: f.default_factory() if f.default is MISSING else f.default
             for f in fields(RunConfig)}


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        try:
            value = json.loads(rhs.strip())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from None
        setattr(cfg, _FIELDS[key], value)
    validate_config(cfg, source)
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text, source=str(path))


def config_items(cfg: RunConfig) -> dict:
    """``{dotted key: value}`` of every field, in declaration order."""
    return {key: getattr(cfg, name) for name, key in _KEYS.items()}


def serialize_config(cfg: RunConfig) -> str:
    return "".join(f"{key} = {json.dumps(value)}\n" for key, value in config_items(cfg).items())


def field_error(name: str, msg: str, source: str | None = None) -> ConfigError:
    """The error for a bad value of the RunConfig field ``name``, naming its key."""
    where = f"{source}: " if source else ""
    return ConfigError(f"{where}field {_KEYS[name]!r}: {msg}")


def oracle_P_values(cfg: RunConfig) -> np.ndarray:
    """The P column of the oracle table: ``oracle.P_range``'s start, stop and
    step, the stop included up to half a step of rounding."""
    start, stop, step = cfg.oracle_P
    return np.arange(start, stop + 0.5 * step, step)


def _type_needed(default, value) -> str | None:
    """What a field whose default is ``default`` needs, if ``value`` is not of
    its type: an int stands for a float, a bool never for a number."""
    if isinstance(default, bool):
        ok, need = isinstance(value, bool), "true or false"
    elif isinstance(default, (int, float)):
        ok = _is_number(value, (int, float) if isinstance(default, float) else int)
        need = "a number" if isinstance(default, float) else "an integer"
    elif isinstance(default, list):
        ok, need = isinstance(value, list), "a list"
    else:
        ok, need = isinstance(value, str), "a string"
    return None if ok else need


def _is_number(value, kind=(int, float)) -> bool:
    """Whether ``value`` is a finite number of ``kind``: never a bool, and
    never the NaN or infinity that JSON reads from ``NaN``, ``Infinity`` or
    ``1e400``."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and (isinstance(value, int) or math.isfinite(value)))


def _elements_needed(name: str, value) -> str | None:
    """What the list field ``name`` needs if an element of ``value`` is not a
    number (for ``P``, a number or a list of numbers); ``model_from_config``
    checks the TrigPoly dicts of ``model.beta``."""
    if name == "model_beta" or not isinstance(value, list):
        return None
    if name == "P":
        ok = all(_is_number(p) or isinstance(p, list) and all(map(_is_number, p)) for p in value)
        return None if ok else "a list of numbers or of lists of numbers"
    return None if all(map(_is_number, value)) else "a list of numbers"


def validate_config(cfg: RunConfig, source: str) -> None:
    """Raise a ConfigError, prefixed by ``source``, for the first bad value.
    Types are checked first, against each field's default; no value is
    converted, so an int stays an int wherever it stands."""
    for name, default in _DEFAULTS.items():
        value = getattr(cfg, name)
        need = _type_needed(default, value) or _elements_needed(name, value)
        if need is not None:
            raise field_error(name, f"must be {need}, not {json.dumps(value)}", source)
    if cfg.model_name not in ("pendulum", "integrable", "swing"):
        raise field_error("model_name", f"unknown model {cfg.model_name!r}", source)
    if cfg.model_name == "pendulum" and cfg.model_a <= 0:
        raise field_error("model_a", "must be positive", source)
    if cfg.model_n < 1:
        raise field_error("model_n", "must be >= 1", source)
    if cfg.model_m < 0:
        raise field_error("model_m", "must be >= 0", source)
    ks = list(cfg.k_schedule)
    if not ks or any(b <= a for a, b in zip(ks, ks[1:])) or ks[0] <= 0:
        raise field_error("k_schedule", "must be positive and strictly increasing", source)
    if not cfg.P:
        raise field_error("P", "must be non-empty", source)
    if cfg.tau_steps < 1:
        raise field_error("tau_steps", "must be >= 1", source)
    if cfg.gtol <= 0:
        raise field_error("gtol", "must be positive", source)
    if cfg.max_iter < 1:
        raise field_error("max_iter", "must be >= 1", source)
    if cfg.seed < 0:
        raise field_error("seed", "must be >= 0", source)
    if cfg.diff_mode not in ("spectral", "fd2"):
        raise field_error("diff_mode", f"unknown scheme {cfg.diff_mode!r}", source)
    if cfg.N_x < 4 or cfg.N_x % 2:
        raise field_error("N_x", "must be even and >= 4", source)
    if cfg.N_phi < 1:
        raise field_error("N_phi", "must be >= 1", source)
    if cfg.sim_dt <= 0 or cfg.sim_T < cfg.sim_dt:
        raise field_error("sim_dt", "need dt > 0 and T >= dt", source)
    if cfg.sim_record_every < 1:
        raise field_error("sim_record_every", "must be >= 1", source)
    if cfg.sim_compare and cfg.sim_samples < 1:
        raise field_error("sim_samples", "must be >= 1 when sim.compare is on", source)
    if not 0.0 <= cfg.sim_burn_in <= 0.9:
        raise field_error("sim_burn_in", "must lie in [0, 0.9]", source)
    # rotation_number fits a slope to the samples after the burn-in window;
    # reject a window too short for it before any step runs
    steps = int(round(cfg.sim_T / cfg.sim_dt))
    windows = [("sim_record_every", cfg.sim_record_every, "the recorded orbit")]
    if cfg.sim_compare:
        windows.append(("sim_T", COMPARE_RECORD_EVERY, "the compared orbits"))
    for name, stride, orbit in windows:
        samples = steps // stride + 1
        fitted = samples - int(np.ceil(cfg.sim_burn_in * (samples - 1)))
        if fitted < MIN_FIT_SAMPLES:
            raise field_error(name, f"{steps} steps recorded every {stride} leave {orbit} "
                              f"{fitted} samples after the burn-in window; "
                              f"need >= {MIN_FIT_SAMPLES}", source)
    if len(cfg.oracle_P) != 3 or cfg.oracle_P[2] <= 0:
        raise field_error("oracle_P", "expected [start, stop, step] with step > 0", source)
    rows = len(oracle_P_values(cfg))
    need = MIN_TABLE_ROWS if cfg.sim_compare else 1
    if rows < need:
        raise field_error("oracle_P", f"gives {rows} rows; the "
                          f"{'comparison' if cfg.sim_compare else 'table'} needs >= {need}",
                          source)
    try:
        p_vectors(cfg)          # builds the model, which model.n, model.m and P must fit
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def model_from_config(cfg: RunConfig) -> SwingModel:
    """The model the config describes; model.n and model.m must match it."""
    try:
        if cfg.model_name == "pendulum":
            model = make_pendulum(cfg.model_a)
        elif cfg.model_name == "integrable":
            model = make_integrable(cfg.model_n, cfg.model_m)
        else:
            model = SwingModel(alpha=cfg.model_alpha, beta=_beta_table(cfg), lam=cfg.model_lam,
                               omega=cfg.model_omega)
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"field 'model.*': {exc}") from None
    for name, built in (("model_n", model.n), ("model_m", model.m)):
        if getattr(cfg, name) != built:
            raise field_error(name, f"is {getattr(cfg, name)!r}, but the {cfg.model_name} "
                              f"model it describes has {built}")
    return model


def _beta_table(cfg: RunConfig) -> tuple:
    """``model.beta`` as an n x n table of TrigPoly (all zero when unset)."""
    table = cfg.model_beta or [[{"const": 0.0}] * cfg.model_n for _ in range(cfg.model_n)]
    try:
        return tuple(tuple(TrigPoly.from_dict(d) for d in row) for row in table)
    except (TypeError, ValueError) as exc:
        raise field_error("model_beta", str(exc)) from None


def p_vectors(cfg: RunConfig) -> list[np.ndarray]:
    """Normalize cfg.P (scalars or vectors) to a list of n-vectors."""
    n = model_from_config(cfg).n
    out = []
    for p in cfg.P:
        vec = np.atleast_1d(np.asarray(p, dtype=float))
        if vec.shape != (n,):
            raise field_error("P", f"entry {p!r} is not a vector of length {n}")
        out.append(vec)
    return out
