"""Run configuration: a flat key-value text format with JSON-encoded values.

Each non-comment line is ``dotted.key = <json value>``; unknown keys are
rejected with the offending line number, as are value-level validation
failures.  The same schema round-trips through ``serialize_config``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .hamiltonians import SwingModel, TrigPoly, make_integrable, make_pendulum
from .swingsim import COMPARE_RECORD_EVERY, MIN_FIT_SAMPLES

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config",
           "serialize_config", "model_from_config"]


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    # model descriptor
    model_name: str = "pendulum"
    model_a: float = 1.0            # pendulum amplitude
    model_n: int = 1
    model_m: int = 0
    model_alpha: list = field(default_factory=lambda: [0.0])
    model_lam: list = field(default_factory=lambda: [0.5])
    model_omega: list = field(default_factory=list)
    model_beta: list = field(default_factory=list)   # n x n of TrigPoly dicts
    # grid
    N_x: int = 128
    N_phi: int = 1
    diff_mode: str = "spectral"
    # cell problem
    P: list = field(default_factory=lambda: [0.0])
    k_schedule: list = field(default_factory=lambda: [8.0, 16.0, 32.0, 64.0])
    tau_steps: int = 4
    gtol: float = 1e-8
    rtol: float = 1e-6
    max_iter: int = 2000
    # simulator
    sim_T: float = 100.0
    sim_dt: float = 1e-3
    sim_x0: list = field(default_factory=lambda: [0.0])
    sim_y0: list = field(default_factory=lambda: [1.5])
    sim_record_every: int = 10
    sim_burn_in: float = 0.1
    sim_compare: bool = False
    sim_samples: int = 5
    # oracle table
    oracle_P: list = field(default_factory=lambda: [0.0, 3.0, 0.05])  # start, stop, step
    # run control
    out: str = "runs"
    seed: int = 7
    jobs: int = 0            # 0 = one worker per core
    dump_sigma: bool = False
    unwrap: bool = True


_KEYMAP = {
    "model.name": "model_name",
    "model.a": "model_a",
    "model.n": "model_n",
    "model.m": "model_m",
    "model.alpha": "model_alpha",
    "model.lam": "model_lam",
    "model.omega": "model_omega",
    "model.beta": "model_beta",
    "grid.N_x": "N_x",
    "grid.N_phi": "N_phi",
    "grid.diff": "diff_mode",
    "P": "P",
    "k_schedule": "k_schedule",
    "tau_steps": "tau_steps",
    "tol.gtol": "gtol",
    "tol.rtol": "rtol",
    "tol.max_iter": "max_iter",
    "sim.T": "sim_T",
    "sim.dt": "sim_dt",
    "sim.x0": "sim_x0",
    "sim.y0": "sim_y0",
    "sim.record_every": "sim_record_every",
    "sim.burn_in": "sim_burn_in",
    "sim.compare": "sim_compare",
    "sim.samples": "sim_samples",
    "oracle.P_range": "oracle_P",
    "out": "out",
    "seed": "seed",
    "jobs": "jobs",
    "flags.dump_sigma": "dump_sigma",
    "flags.unwrap": "unwrap",
}
_ATTRMAP = {v: k for k, v in _KEYMAP.items()}


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
        if key not in _KEYMAP:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        try:
            value = json.loads(rhs.strip())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from None
        setattr(cfg, _KEYMAP[key], value)
    _validate(cfg, source)
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text, source=str(path))


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        lines.append(f"{_ATTRMAP[f.name]} = {json.dumps(getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"


def _fail(source, key, msg):
    raise ConfigError(f"{source}: field {key!r}: {msg}")


def _validate(cfg: RunConfig, source: str) -> None:
    if cfg.model_name not in ("pendulum", "integrable", "swing"):
        _fail(source, "model.name", f"unknown model {cfg.model_name!r}")
    if cfg.model_name == "pendulum" and cfg.model_a <= 0:
        _fail(source, "model.a", "must be positive")
    if cfg.model_n < 1 or cfg.model_m < 0:
        _fail(source, "model.n", "need n >= 1 and m >= 0")
    ks = list(cfg.k_schedule)
    if not ks or any(b <= a for a, b in zip(ks, ks[1:])) or ks[0] <= 0:
        _fail(source, "k_schedule", "must be positive and strictly increasing")
    if not cfg.P:
        _fail(source, "P", "must be non-empty")
    if cfg.tau_steps < 1:
        _fail(source, "tau_steps", "must be >= 1")
    for name in ("gtol", "rtol"):
        if getattr(cfg, name) <= 0:
            _fail(source, f"tol.{name}", "must be positive")
    if cfg.max_iter < 1:
        _fail(source, "tol.max_iter", "must be >= 1")
    if cfg.diff_mode not in ("spectral", "fd2"):
        _fail(source, "grid.diff", f"unknown scheme {cfg.diff_mode!r}")
    if cfg.N_x < 4 or cfg.N_x % 2:
        _fail(source, "grid.N_x", "must be even and >= 4")
    if cfg.N_phi < 1:
        _fail(source, "grid.N_phi", "must be >= 1")
    if cfg.sim_dt <= 0 or cfg.sim_T < cfg.sim_dt:
        _fail(source, "sim.dt", "need dt > 0 and T >= dt")
    if cfg.sim_record_every < 1:
        _fail(source, "sim.record_every", "must be >= 1")
    if cfg.sim_compare and cfg.sim_samples < 1:
        _fail(source, "sim.samples", "must be >= 1 when sim.compare is on")
    if not 0.0 <= cfg.sim_burn_in <= 0.9:
        _fail(source, "sim.burn_in", "must lie in [0, 0.9]")
    # rotation_number fits a slope to the samples after the burn-in window;
    # reject a window too short for it before any step runs
    steps = int(round(cfg.sim_T / cfg.sim_dt))
    windows = [("sim.record_every", cfg.sim_record_every, "the recorded orbit")]
    if cfg.sim_compare:
        windows.append(("sim.T", COMPARE_RECORD_EVERY, "the compared orbits"))
    for key, stride, orbit in windows:
        samples = steps // stride + 1
        fitted = samples - int(np.ceil(cfg.sim_burn_in * (samples - 1)))
        if fitted < MIN_FIT_SAMPLES:
            _fail(source, key, f"{steps} steps recorded every {stride} leave {orbit} "
                  f"{fitted} samples after the burn-in window; need >= {MIN_FIT_SAMPLES}")
    if len(cfg.oracle_P) != 3 or cfg.oracle_P[2] <= 0:
        _fail(source, "oracle.P_range", "expected [start, stop, step] with step > 0")
    if cfg.jobs < 0:
        _fail(source, "jobs", "must be >= 0 (0 = one worker per core)")


def model_from_config(cfg: RunConfig) -> SwingModel:
    try:
        if cfg.model_name == "pendulum":
            return make_pendulum(cfg.model_a)
        if cfg.model_name == "integrable":
            return make_integrable(cfg.model_n, cfg.model_m)
        n = cfg.model_n
        beta_rows = cfg.model_beta or [[{"const": 0.0}] * n for _ in range(n)]
        beta = tuple(tuple(TrigPoly.from_dict(d) for d in row) for row in beta_rows)
        return SwingModel(alpha=cfg.model_alpha, beta=beta, lam=cfg.model_lam,
                          omega=cfg.model_omega)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"field 'model.*': {exc}") from None


def p_vectors(cfg: RunConfig) -> list[np.ndarray]:
    """Normalize cfg.P (scalars or vectors) to a list of n-vectors."""
    n = model_from_config(cfg).n
    out = []
    for p in cfg.P:
        vec = np.atleast_1d(np.asarray(p, dtype=float))
        if vec.shape != (n,):
            raise ConfigError(f"field 'P': entry {p!r} is not an {n}-vector")
        out.append(vec)
    return out
