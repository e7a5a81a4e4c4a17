"""The four benchmark workloads: seeded inputs, requests and output checks.

Every request is a call into weakkam's public API with default solver
options (``ladder_2d`` alone states an iteration budget).  Inputs of pass
``i`` come from ``numpy.random.default_rng([seed, i])``, so a seed fixes
the inputs of every pass however many passes a run makes.  Oracle
references are computed in ``prepare``, outside the timed region.

Output checks reuse the repository's bounds and never loosen them:
- criterion 2: ``0 <= oracle - Hbar^64 <= 0.15`` on the pendulum;
- criterion 10: ``|joint - fiber| <= 1e-8`` on the quasi-periodic rotor;
- ``continuation_solve``'s monotonicity slack: ``Hbar_k`` may not drop by
  more than 1e-8 along the k schedule;
- the simulator's rotation gap: ``gap <= 0.10 |predicted|`` on rotating
  orbits (criterion 8) and ``|measured| <= 2 / T`` on trapped orbits
  (``test_compare_flat_piece_trapped``).
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from weakkam import (
    CellProblem,
    ContinuationError,
    SolverOptions,
    SwingParams,
    TorusGrid,
    TrigPoly,
    cli,
    continuation_solve,
    effective_hamiltonian_1d,
    fiber_decomposed_solve,
    integrate_swing,
    make_pendulum,
    make_swing,
    potential_from_model,
    solve_cell,
)

MONOTONE_SLACK = 1e-8        # continuation_solve's own slack
ORACLE_GAP_MAX = 0.15        # acceptance criterion 2
FIBER_GAP_MAX = 1e-8         # acceptance criterion 10
ROTATION_REL_MAX = 0.10      # acceptance criterion 8

NO_SPAN = lambda name: contextlib.nullcontext()


@dataclass
class Outcome:
    """What one request delivered: stages and checks attempted and failed."""

    stages: int = 0
    stages_failed: int = 0
    checks: int = 0
    checks_failed: int = 0
    error: float = 0.0       # the workload's result_err contribution

    def check(self, ok: bool) -> None:
        self.checks += 1
        self.checks_failed += not ok

    def monotone(self, hbars) -> float:
        """Check Hbar_k along the schedule; return the largest drop."""
        drop = max([a - b for a, b in zip(hbars, hbars[1:])], default=0.0)
        self.check(drop <= MONOTONE_SLACK)
        return max(drop, 0.0)


def _write_config(path: Path, pairs: dict) -> Path:
    """Write a weakkam config: one ``key = <json value>`` line per pair."""
    path.write_text("".join(f"{k} = {json.dumps(v)}\n" for k, v in pairs.items()),
                    encoding="utf-8")
    return path


def _run_cli(span, args) -> int:
    with span("cli.main"):
        return cli.main(args)


def _manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))


def _cli_stages(outcome: Outcome, manifest: dict) -> list[float]:
    """Count the k stages a cell command ran; return their Hbar_k values."""
    solves = manifest["solves"]
    outcome.stages += len(solves) + (manifest["error"] is not None)
    outcome.stages_failed += manifest["error"] is not None
    return [r["Hbar_k"] for r in solves if r["converged"]]


QP_BETA = {"const": 1.0, "modes": [[[1], 0.5, 0.0]]}   # configs/swing_quasiperiodic.cfg


def _qp_params(beta: dict) -> SwingParams:
    return SwingParams(alpha=[0.0], beta=((TrigPoly.from_dict(beta),),), lam=[0.5],
                       omega=[math.sqrt(2.0)])


class Workload:
    """Base: ``build`` and ``warm`` are what a fresh process pays (setup_s)."""

    name = ""
    pass_size = ""
    result_err = ""          # what the run's result_err line reports

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, index])

    def model_classes(self) -> list:
        return [type(m) for m in self.models]

    def prepare(self, index: int) -> list:
        """Inputs of pass ``index`` plus their references; untimed."""
        raise NotImplementedError

    def request(self, item, span=NO_SPAN):
        """One timed request; returns what ``check`` needs."""
        raise NotImplementedError

    def check(self, item, result) -> Outcome:
        raise NotImplementedError


class PendulumSweep(Workload):
    """``weakkam cell`` per P on the pendulum, like configs/pendulum_sweep.cfg.

    A pass is the config's 11-point grid shifted by 0.1: -2.4, -1.9, ..., 2.6.
    Five points lie on the flat piece |P| <= 4/pi.  One of them, |P| = 0.1,
    is where the default optimizer fails (see bench/README.md), so every
    pass shows that defect once.  The cost of a solve is chaotic in P, so a
    seeded offset would make each run's failure count random; the seed
    instead flips the sign of each P (x -> -x), which changes the input but
    neither its difficulty nor the oracle value.
    """

    name = "pendulum_sweep"
    pass_size = "11 P x k in {8,16,32,64}, N_x=256, tau_steps=4"
    result_err = "max |Hbar^64 - oracle| over P"
    K = [8, 16, 32, 64]
    GRID = [round(-2.4 + 0.5 * j, 10) for j in range(11)]

    def build(self):
        self.models = [make_pendulum(1.0)]
        self.grid = TorusGrid(n=1, N_x=256)
        self.pot = potential_from_model(self.models[0])

    def warm(self):
        solve_cell(CellProblem(self.models[0], [0.6], self.K[0], self.grid, 0.25))

    def prepare(self, index):
        signs = self.rng(index).choice([-1.0, 1.0], size=len(self.GRID))
        items = []
        for j, P in enumerate(float(s * p) for s, p in zip(signs, self.GRID)):
            cfg = _write_config(self.work / f"pendulum_{j}.cfg", {
                "model.name": "pendulum", "model.a": 1.0, "grid.N_x": 256,
                "P": [P], "k_schedule": self.K, "tau_steps": 4})
            items.append((cfg, self.work / f"pendulum_{j}", effective_hamiltonian_1d(self.pot, P)))
        return items

    def request(self, item, span=NO_SPAN):
        cfg, out, _ = item
        return _run_cli(span, ["cell", "--config", str(cfg), "--out", str(out)])

    def check(self, item, code):
        _, out, oracle = item
        o = Outcome()
        m = _manifest(out)
        hbars = _cli_stages(o, m)
        o.monotone(hbars)
        if len(hbars) == len(self.K):
            gap = oracle - hbars[-1]
            o.check(0.0 <= gap <= ORACLE_GAP_MAX)
            o.error = abs(gap)
        return o


class QuasiPeriodic(Workload):
    """Joint continuation with diagnostics (``weakkam cell``, k 8 -> 16) on
    the model of configs/swing_quasiperiodic.cfg, then
    ``fiber_decomposed_solve`` at k=16: one large system and 16 small cold
    fiber solves on the same cell layer.

    Iteration counts of these solves are chaotic in the input (the fiber
    pass takes 4261 to 6273 iterations for P within 0.7 +- 0.005, and a
    drive phase shift by 11 * 2pi/16 moves it from 5265 to 7262), so the seed
    only draws the sign of P (x -> -x), which leaves the work unchanged.
    |P| is the value a seeded P ~ U(0.6, 0.8) drew where the fiber path
    reports converged=False (assembled gradient norm 1.67e-8 > gtol 1e-8):
    a known defect, counted as a failed stage on every pass.
    """

    name = "quasi_periodic"
    result_err = "max |joint - fiber| Hbar_16"
    pass_size = ("1 P, n=1 m=1, N_x=128 N_phi=16: weakkam cell k 8->16, then "
                 "fiber_decomposed_solve at k=16 (2 requests)")
    P_ABS = 0.7886112211144736

    def build(self):
        self.models = [make_swing(_qp_params(QP_BETA))]
        self.grid = TorusGrid(n=1, m=1, N_x=128, N_phi=16)

    def warm(self):
        solve_cell(CellProblem(self.models[0], [self.P_ABS], 8.0, self.grid, 0.25))

    def prepare(self, index):
        P = self.P_ABS * float(self.rng(index).choice([-1.0, 1.0]))
        cfg = _write_config(self.work / "qp.cfg", {
            "model.name": "swing", "model.n": 1, "model.m": 1, "model.alpha": [0.0],
            "model.lam": [0.5], "model.omega": [math.sqrt(2.0)], "model.beta": [[QP_BETA]],
            "grid.N_x": 128, "grid.N_phi": 16, "P": [P], "k_schedule": [8, 16],
            "tau_steps": 4})
        out = self.work / "qp"
        # two requests: the fiber check compares with the joint manifest
        return [("joint", cfg, out), ("fiber", P, out)]

    def request(self, item, span=NO_SPAN):
        if item[0] == "joint":
            return _run_cli(span, ["cell", "--config", str(item[1]), "--out", str(item[2])])
        with span("cell.fiber"):
            try:
                return fiber_decomposed_solve(CellProblem(self.models[0], [item[1]], 16.0,
                                                          self.grid))
            except ContinuationError:
                return None

    def check(self, item, result):
        o = Outcome()
        m = _manifest(item[2])
        if item[0] == "joint":
            o.monotone(_cli_stages(o, m))
            return o
        fiber = result
        o.stages = 1
        o.stages_failed = fiber is None or not fiber.converged
        joint = [r["Hbar_k"] for r in m["solves"] if r["converged"] and r["k"] == 16.0]
        if joint and fiber is not None:
            o.error = abs(joint[0] - fiber.Hbar_k)
            o.check(o.error <= FIBER_GAP_MAX)
        return o


class Ladder2D(Workload):
    """``continuation_solve`` on a coupled n=2, m=0 swing pair with spectral
    derivatives, N_x=32, k in {8,16,32}, under a 350-iteration budget per
    stage.  Known defect (ROADMAP item 3): the k=32 stage exhausts that
    budget (300 quasi-Newton steps, then Newton steps on a capped PCG); it
    is counted as a failed stage, not hidden.  The budget leaves the other
    stages room (they take at most 319 iterations here) while keeping a
    pass near 7 s, so a 25 s run holds several passes.

    As on ``quasi_periodic``, iteration counts are chaotic in P, so the seed
    draws a symmetry image of P = (0.3, 0.6): its sign (x -> -x).  Swapping
    the two rotors is a symmetry too, but it changes the k=16 stage from 19
    to 33 Newton steps, so it is not used.
    """

    name = "ladder_2d"
    result_err = "largest drop of Hbar_k along k"
    pass_size = "1 P, n=2 m=0, N_x=32 spectral, k 8->16->32, tau_steps=4, max_iter=350"
    OPTS = SolverOptions(max_iter=350)
    P_BASE = (0.3, 0.6)
    BETA = ((0.4, 0.3), (0.0, 0.4))

    def build(self):
        self.models = [make_swing(SwingParams(
            alpha=[0.0, 0.0], beta=tuple(tuple(TrigPoly(b) for b in row) for row in self.BETA),
            lam=[1.0, 1.0]))]
        self.grid = TorusGrid(n=2, N_x=32)

    def warm(self):
        solve_cell(CellProblem(self.models[0], list(self.P_BASE), 8.0, self.grid, 0.25), None,
                   self.OPTS)

    def prepare(self, index):
        sign = float(self.rng(index).choice([-1.0, 1.0]))
        return [[sign * p for p in self.P_BASE]]

    def request(self, P, span=NO_SPAN):
        with span("cell.continuation"):
            try:
                return continuation_solve(self.models[0], P, [8, 16, 32], 4, self.grid,
                                          self.OPTS), None
            except ContinuationError as exc:
                return exc.partial, exc

    def check(self, P, result):
        sols, exc = result
        o = Outcome()
        o.stages = len(sols) + (exc is not None)
        o.stages_failed = exc is not None
        o.error = o.monotone([s.Hbar_k for s in sols])
        return o


class SwingSim(Workload):
    """``weakkam simulate`` twice per pass: a pendulum config like
    configs/pendulum_simulate.cfg with the horizon cut to T=20 (oracle table
    plus rotation comparison over 5 momenta), and the quasi-periodic rotor
    of configs/swing_quasiperiodic.cfg with a seeded drive amplitude over
    T=60.  No cell code runs; step counts do not depend on the seed."""

    name = "swing_sim"
    result_err = "max rotation gap"
    pass_size = "pendulum T=20 + 5 compared orbits, 61-row oracle; quasi-periodic T=60; dt=1e-3"
    T_PEND, T_QP = 20.0, 60.0

    def build(self):
        self.models = [make_pendulum(1.0)]
        self.pot = potential_from_model(self.models[0])

    def warm(self):
        integrate_swing(_qp_params(QP_BETA), [0.0], [2.0], 1.0, 1e-3)

    def prepare(self, index):
        rng = self.rng(index)
        offset, y_pend, y_qp, drive = rng.uniform(size=4)
        pend = _write_config(self.work / "sim_pendulum.cfg", {
            "model.name": "pendulum", "model.a": 1.0, "sim.T": self.T_PEND, "sim.dt": 1e-3,
            "sim.x0": [0.0], "sim.y0": [2.2 + 0.8 * y_pend], "sim.record_every": 10,
            "sim.burn_in": 0.1, "sim.compare": True, "sim.samples": 5,
            "oracle.P_range": [0.05 * offset, 3.0 + 0.05 * offset, 0.05]})
        qp = _write_config(self.work / "sim_qp.cfg", {
            "model.name": "swing", "model.n": 1, "model.m": 1, "model.alpha": [0.0],
            "model.lam": [0.5], "model.omega": [math.sqrt(2.0)],
            "model.beta": [[{"const": 1.0, "modes": [[[1], 0.3 + 0.4 * drive, 0.0]]}]],
            "sim.T": self.T_QP, "sim.dt": 1e-3, "sim.x0": [0.0], "sim.y0": [1.5 + y_qp],
            "sim.record_every": 10})
        return [(pend, self.work / "sim_pendulum", self.T_PEND),
                (qp, self.work / "sim_qp", self.T_QP)]

    def request(self, item, span=NO_SPAN):
        cfg, out, _ = item
        return _run_cli(span, ["simulate", "--config", str(cfg), "--out", str(out)])

    def check(self, item, code):
        _, out, T = item
        o = Outcome(stages=1, stages_failed=code != 0)
        if code != 0:
            return o
        m = _manifest(out)
        o.check(m["samples"] == int(round(T / 1e-3)) // 10 + 1
                and all(math.isfinite(r) for r in m["rotation_lsq"]))
        for row in m["comparison"] or []:
            if abs(row["rotation_predicted"]) <= 1e-12:      # trapped orbit, flat piece
                o.check(abs(row["rotation_measured"]) <= 2.0 / T)
            else:
                o.check(row["gap"] <= ROTATION_REL_MAX * abs(row["rotation_predicted"]))
            o.error = max(o.error, row["gap"])
        return o


WORKLOADS = {w.name: w for w in (PendulumSweep, QuasiPeriodic, Ladder2D, SwingSim)}
