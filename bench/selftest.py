"""The benchmark's own tests.  Not part of the repository's test suite; run
from the repository root with

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from weakkam import CellProblem, TorusGrid, make_pendulum  # noqa: E402
from weakkam import cell  # noqa: E402


def _traced_counts(wl, items) -> dict:
    tracer = tracing.Tracer()
    with tracing.installed(tracer, wl.model_classes()):
        for item in items:
            wl.request(item, tracer.span)
    return tracing.layer_metrics(tracer.spans, 1)


def _item_inputs(items) -> list:
    """Generated inputs, with config files read and models described."""
    def describe(part):
        if isinstance(part, Path):
            return part.read_text() if part.is_file() else part.name
        return getattr(part, "descriptor", part)
    return [[describe(p) for p in (item if isinstance(item, tuple) else (item,))]
            for item in items]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    generated = []
    for attempt in ("a", "b"):
        work = tmp_path / attempt
        work.mkdir()
        wl = workloads.WORKLOADS[name](11, work)
        wl.build()
        generated.append([_item_inputs(wl.prepare(i)) for i in range(3)])
    assert generated[0] == generated[1]
    other = workloads.WORKLOADS[name](12, tmp_path / "a")
    other.build()
    assert [_item_inputs(other.prepare(i)) for i in range(3)] != generated[0]


def test_same_seed_same_counts(tmp_path):
    counts = []
    for attempt in ("a", "b"):
        work = tmp_path / attempt
        work.mkdir()
        pend = workloads.PendulumSweep(5, work)
        pend.build()
        sim = workloads.SwingSim(5, work)
        sim.build()
        a = _traced_counts(pend, pend.prepare(0)[:2] + pend.prepare(0)[6:7])
        b = _traced_counts(sim, sim.prepare(0)[1:])
        counts.append((a["cell.iters"], a["hamiltonians.eval_calls"], b["swingsim.steps"]))
    assert counts[0] == counts[1]
    assert counts[0][0] > 0 and counts[0][1] > 0 and counts[0][2] == 60000


def test_pcg_applies_matches_hand_count():
    """Count the Newton-operator applies directly, by the function that calls
    div_values, and compare with the derived count."""
    model = make_pendulum(1.0)
    # flat piece at k=16 from a cold start: the default optimizer runs out of
    # quasi-Newton budget and escalates to Newton-CG
    problem = CellProblem(model, [0.5], 16.0, TorusGrid(n=1, N_x=32))
    by_caller = {}
    tracer = tracing.Tracer()
    with tracing.installed(tracer, [type(model)]):
        traced_div = cell.div_values

        def counting(*args, **kwargs):
            caller = sys._getframe(1).f_code.co_name
            by_caller[caller] = by_caller.get(caller, 0) + 1
            return traced_div(*args, **kwargs)

        cell.div_values = counting
        try:
            cell.solve_cell(problem)
        finally:
            cell.div_values = traced_div
    layers = tracing.layer_metrics(tracer.spans, 1)
    assert set(by_caller) == {"_evaluate", "apply_A"}
    assert by_caller["apply_A"] > 0
    assert layers["cell.pcg_applies"] == by_caller["apply_A"]
    assert layers["cell.precond_solves"] > 0 and layers["cell.factor_calls"] > 0
    assert layers["cell.self_s"] + layers["cell.child_s"] == pytest.approx(layers["cell.solve_s"])


def test_originals_restored(tmp_path):
    wl = workloads.PendulumSweep(1, tmp_path)
    wl.build()
    names = tracing.wrapped_names(wl.model_classes())
    before = [vars(owner).get(attr) for owner, attr in names]
    current = lambda: [vars(owner).get(attr) for owner, attr in names]

    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer(), wl.model_classes()):
            assert all(now is not was for now, was in zip(current(), before))
            raise RuntimeError("leave the block early")
    assert all(now is was for now, was in zip(current(), before))

    plain, traced, outcomes, tracer = run.measure_traced(wl, 0.0, run.Clock(), tracing)
    assert len(plain) == len(traced) == 1 and tracer.spans
    assert all(now is was for now, was in zip(current(), before))


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tail_percentile():
    assert run._tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    values = [float(i) for i in range(40)]
    value, pct = run._tail(values)
    assert value == 29.0 and pct == 75.0
    assert sum(v > value for v in values) == 10


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "swing_sim",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
