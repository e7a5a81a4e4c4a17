"""weakkam benchmark: one workload, one closed-loop caller, seeded inputs.

Run from the repository root:

    python3 bench/run.py --workload pendulum_sweep --seed 1 --seconds 25 --trace 0

One caller sends the next request when the previous one has returned (a
closed loop, no process pool).  A pass is one workload-defined batch of
requests; passes run until the next one would end after ``--seconds``
(at least one pass runs).  Inputs, oracle references and output checks stay
outside the timed region.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` runs every pass twice on the same inputs, once with the span
tracer installed and once without, and prints the per-layer metrics plus
the tracing overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
the same numbers for people, with the unscaled times next to them.

Times are reported in seconds at a reference machine speed (see ``Clock``):
the speed of the 2-core VM this was tuned on drifts by up to a third within
minutes, which would otherwise swamp every bound.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
CAL_REPS = 1500
CAL_REF_S = 0.03    # median calibration time on the reference 2-core VM

# the bounded end-to-end metrics; unit_s_tail, fail_ratio and result_err are
# printed but not bounded (see bench/README.md)
END_TO_END_UNITS = {"wall_s": "s", "unit_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _import_program():
    if not (SRC / "weakkam" / "__init__.py").is_file():
        sys.exit(f"bench: no weakkam sources at {SRC.relative_to(ROOT)}; "
                 "run from a full checkout of the repository")
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


class Clock:
    """Times calls in seconds at the reference machine speed.

    A fixed numpy kernel that never touches weakkam (the calibration, about
    30 ms) runs before and after every timed call.  The call's raw time is
    scaled by ``CAL_REF_S`` over the mean of those two calibration times, so
    a slower or faster machine phase cancels out; the program's own speed
    does not enter the calibration.  On a 2-core VM whose speed drifted by a
    third within minutes, this cut the spread of repeated identical pendulum
    solves from 17.5% to 9% (CV), and the drift between the halves of a
    40-solve series from 35% to 0.8%.
    """

    def __init__(self):
        self._signal = np.random.default_rng(0).normal(size=256)
        self._last = self._calibrate()

    def _calibrate(self) -> float:
        t0 = time.perf_counter()
        for _ in range(CAL_REPS):
            np.fft.irfft(np.fft.rfft(self._signal) * 1.0001, n=256)
        return time.perf_counter() - t0

    def time(self, fn, *args, **kwargs):
        """Call fn; return (result, scaled seconds, raw seconds)."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        cal = self._calibrate()
        scaled = raw * CAL_REF_S / (0.5 * (self._last + cal))
        self._last = cal
        return out, scaled, raw


def _setup_seconds(workload: str, clock: Clock) -> list[tuple[float, float]]:
    """(scaled, raw) times of fresh processes that import, build and make one
    warm call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", workload]
    return [clock.time(subprocess.run, cmd, check=True, cwd=ROOT, timeout=120)[1:]
            for _ in range(SETUP_REPEATS)]


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond
    it; with fewer than 11 samples, the maximum (percentile 100)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _timed_pass(wl, items, clock: Clock, span=None):
    """Run one pass; returns (scaled latencies, raw pass seconds, results)."""
    latencies, raw, results = [], 0.0, []
    for item in items:
        args = (item,) if span is None else (item, span)
        result, scaled, seconds = clock.time(wl.request, *args)
        latencies.append(scaled)
        raw += seconds
        results.append(result)
    return latencies, raw, results


def _loop(seconds: float, run_pass):
    """Call ``run_pass(index)`` until the next pass would end after ``seconds``."""
    start = time.perf_counter()
    index = 0
    while True:
        t0 = time.perf_counter()
        run_pass(index)
        index += 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return index


def measure(wl, seconds: float, clock: Clock):
    """Returns (scaled pass times, raw pass times, scaled latencies, outcomes)."""
    passes, raw_passes, latencies, outcomes = [], [], [], []

    def run_pass(index):
        items = wl.prepare(index)
        lat, raw, results = _timed_pass(wl, items, clock)
        passes.append(sum(lat))
        raw_passes.append(raw)
        latencies.extend(lat)
        outcomes.extend(wl.check(i, r) for i, r in zip(items, results))

    _loop(seconds, run_pass)
    return passes, raw_passes, latencies, outcomes


def measure_traced(wl, seconds: float, clock: Clock, tracing):
    """Each pass runs untraced and traced on the same inputs, alternating
    which goes first; returns (untraced, traced scaled pass times, outcomes,
    tracer)."""
    tracer = tracing.Tracer()
    plain, traced, outcomes = [], [], []

    def traced_pass(index, items):
        latencies, results = [], []
        with tracing.installed(tracer, wl.model_classes()):
            for k, item in enumerate(items):
                tracer.request = f"{index}.{k}"
                with tracer.span("request"):
                    lat, _, res = _timed_pass(wl, [item], clock, tracer.span)
                latencies += lat
                results += res
        tracer.request = None
        return latencies, results

    def run_pass(index):
        items = wl.prepare(index)
        for traced_now in ((False, True) if index % 2 == 0 else (True, False)):
            if traced_now:
                lat, results = traced_pass(index, items)
            else:
                lat, _, results = _timed_pass(wl, items, clock)
            (traced if traced_now else plain).append(sum(lat))
            outcomes.extend(wl.check(i, r) for i, r in zip(items, results))

    _loop(seconds, run_pass)
    return plain, traced, outcomes, tracer


def _totals(outcomes) -> tuple[int, int]:
    """(attempted, failed) stages plus checks."""
    return (sum(o.stages + o.checks for o in outcomes),
            sum(o.stages_failed + o.checks_failed for o in outcomes))


def _result_line(outcomes, metrics: dict) -> str:
    attempted, failed = _totals(outcomes)
    return json.dumps({
        "correct": not any(o.checks_failed for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def _summary(wl, outcomes, seconds, trace) -> None:
    attempted, failed = _totals(outcomes)
    print(f"workload {wl.name}  seed {wl.seed}  seconds {seconds:g}  trace {trace}")
    print(f"  pass: {wl.pass_size}; closed loop, 1 caller")
    print(f"  fail_ratio     {failed / attempted:.6g}  ({failed} of {attempted} stages "
          f"and checks; {sum(o.checks_failed for o in outcomes)} of "
          f"{sum(o.checks for o in outcomes)} checks failed)")
    print(f"  result_err     {max(o.error for o in outcomes):.6g}  ({wl.result_err})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.setup_child:
        wl = workloads.WORKLOADS[args.workload](0, ROOT)
        wl.build()
        wl.warm()
        return 0

    work = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        wl.build()
        clock = Clock()
        if args.trace:
            import tracing
            plain, traced, outcomes, tracer = measure_traced(wl, args.seconds, clock, tracing)
            layers = tracing.layer_metrics(tracer.spans, len(traced))
            layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            trace_file = out / f"trace_{wl.name}_seed{wl.seed}.tsv"
            tracer.write(trace_file)
            _summary(wl, outcomes, args.seconds, 1)
            print(f"  traced passes {len(traced)}, spans {len(tracer.spans)} "
                  f"written to {trace_file.relative_to(ROOT)}")
            print(f"  wall_s untraced {statistics.median(plain):.6g} s, "
                  f"traced {statistics.median(traced):.6g} s (scaled); per-layer "
                  "times are unscaled seconds per traced pass")
            metrics = {name: (layers[name], unit) for name, unit in tracing.LAYER_UNITS.items()}
        else:
            setup = _setup_seconds(wl.name, clock)
            passes, raw_passes, latencies, outcomes = measure(wl, args.seconds, clock)
            tail, pct = _tail(latencies)
            metrics = {
                "wall_s": statistics.median(passes),
                "unit_s_p50": statistics.median(latencies),
                "setup_s": statistics.median(scaled for scaled, _ in setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            _summary(wl, outcomes, args.seconds, 0)
            print(f"  unit_s_tail    {tail:.6g} s  (p{pct:.4g} of {len(latencies)} requests "
                  f"in {len(passes)} passes{'; the maximum' if pct == 100 else ''})")
            print(f"  unscaled: wall_s {statistics.median(raw_passes):.6g} s, setup runs "
                  f"{', '.join(f'{raw:.3f}' for _, raw in setup)} s")
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        for name, (value, unit) in metrics.items():
            print(f"  {name:<34} {value:.6g} {unit}")
        print(_result_line(outcomes, metrics))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
