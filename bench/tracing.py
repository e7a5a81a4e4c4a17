"""In-memory span tracing of weakkam's module boundaries, installed from outside.

weakkam has no tracing of its own.  Each layer calls the next through a
module-level name that is looked up at call time (``weakkam.cell`` calls
``grad_values`` through its own global, ``weakkam.cli`` calls
``continuation_solve`` through its own, the Newton preconditioner imports
``scipy.sparse.linalg.splu`` when it runs), so rebinding those names to
timing wrappers records a span at every layer boundary without touching the
program.  ``installed`` rebinds them for the length of a ``with`` block and
puts every original object back afterwards, also when the block raises.

A span is ``[name, start, end, parent, request, info]``: ``parent`` is the
index of the enclosing span (or None), ``request`` the id of the benchmark
request it belongs to, ``info`` a count attached by the wrapper (iterations,
evaluated points, integrator steps, table rows).
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager

NAME, START, END, PARENT, REQUEST, INFO = range(6)

LAYER_UNITS = {
    "fields.grad_calls": "count", "fields.grad_s": "s",
    "fields.div_calls": "count", "fields.div_s": "s",
    "hamiltonians.eval_calls": "count", "hamiltonians.eval_points": "count",
    "hamiltonians.eval_s": "s",
    "cell.solve_calls": "count", "cell.solve_s": "s", "cell.self_s": "s", "cell.child_s": "s",
    "cell.iters": "count", "cell.evals_per_iter": "ratio", "cell.pcg_applies": "count",
    "cell.factor_calls": "count", "cell.factor_s": "s",
    "cell.precond_solves": "count", "cell.precond_solve_s": "s",
    "measures.calls": "count", "measures.s": "s", "measures.eval_calls": "count",
    "oracle1d.rows": "count", "oracle1d.table_s": "s", "oracle1d.potential_s": "s",
    "swingsim.steps": "count", "swingsim.integrate_s": "s",
    "swingsim.us_per_step_autonomous": "us", "swingsim.us_per_step_qp": "us",
    "swingsim.compare_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans kept in memory; one tracer per traced run, single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def write(self, path) -> None:
        """Tab-separated dump: index, name, start, end, parent, request, info."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\trequest\tinfo\n")
            for i, (name, t0, t1, parent, req, info) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{t0!r}\t{t1!r}\t{'' if parent is None else parent}"
                         f"\t{'' if req is None else req}\t{'' if info is None else info}\n")


def _timed(tracer: Tracer, name: str, fn, note=None):
    """Wrap fn in a span; ``note(args, kwargs, result)`` gives the span's info."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if note is not None:
            tracer.spans[idx][INFO] = note(args, kwargs, out)
        return out

    return wrapper


class _TracedLU:
    """Proxy for the factorization ``splu`` returns; times each ``solve``."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        with self._tracer.span("cell.precond_solve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _steps_note(fn):
    sig = inspect.signature(fn)

    def note(args, kwargs, traj):
        bound = sig.bind(*args, **kwargs)
        steps = int(round(bound.arguments["T"] / bound.arguments["dt"]))
        # the trajectory carries an energy column only when autonomous (m = 0)
        return (steps, traj.energy is not None)

    return note


def _targets(model_classes):
    """(owner, attribute, span name, note) for every name the benchmark wraps."""
    import scipy.sparse.linalg as sla
    from weakkam import cell, cli, oracle1d, swingsim

    iterations = lambda a, k, sol: sol.iterations
    rows = lambda a, k, table: len(table)
    points = lambda a, k, ev: ev.h.size
    return [
        (cli, "continuation_solve", "cell.continuation", None),
        (cli, "gibbs_measure", "measures.gibbs", None),
        (cli, "measure_stats", "measures.stats", None),
        (cli, "default_speed_threshold", "measures.threshold", None),
        (cli, "oracle_table", "oracle1d.table", rows),
        (cli, "integrate_swing", "swingsim.integrate", _steps_note(swingsim.integrate_swing)),
        (cli, "rotation_number", "swingsim.rotation", None),
        (cli, "compare_with_homogenization", "swingsim.compare", None),
        (cell, "solve_cell", "cell.solve", iterations),
        (cell, "grad_values", "fields.grad", None),
        (cell, "div_values", "fields.div", None),
        (swingsim, "integrate_swing", "swingsim.integrate", _steps_note(swingsim.integrate_swing)),
        (sla, "splu", "cell.factor", None),
        (oracle1d.Potential1D, "from_callable", "oracle1d.potential", None),
    ] + [(cls, "evaluate", "hamiltonians.evaluate", points)
         for cls in dict.fromkeys(model_classes)]


def wrapped_names(model_classes) -> list[tuple]:
    """(owner, attribute) of every name ``installed`` rebinds."""
    return [(owner, attr) for owner, attr, _, _ in _targets(model_classes)]


@contextmanager
def installed(tracer: Tracer, model_classes):
    """Rebind every traced name to a wrapper; restore the originals on exit.

    ``model_classes`` are the concrete Hamiltonian classes (``type(model)``
    of the base models the workload builds) whose ``evaluate`` is wrapped.
    """
    saved = []
    try:
        for owner, attr, name, note in _targets(model_classes):
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            if isinstance(original, classmethod):
                replacement = classmethod(_timed(tracer, name, original.__func__, note))
            elif attr == "splu":
                factor = _timed(tracer, name, original, note)
                replacement = functools.wraps(original)(
                    lambda *a, _f=factor, **k: _TracedLU(_f(*a, **k), tracer))
            else:
                replacement = _timed(tracer, name, original, note)
            saved.append((owner, attr, own, original))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, own, original in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def layer_metrics(spans: list[list], passes: int) -> dict:
    """Per-layer metrics per traced pass, from one traced run's spans.

    Self time of a span is its duration minus the durations of its direct
    children (spans never overlap: the program is single-threaded).
    ``cell.pcg_applies`` is derived: inside ``solve_cell`` every objective
    evaluation makes one Hamiltonian evaluation and one ``div_values`` call,
    and every Newton-operator apply makes one more ``div_values`` call.
    """
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    in_solve = [False] * n
    in_measures = [False] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p is not None:
            child[p] += dur[i]
            in_solve[i] = in_solve[p]
            in_measures[i] = in_measures[p]
        in_solve[i] = in_solve[i] or s[NAME] == "cell.solve"
        in_measures[i] = in_measures[i] or s[NAME].startswith("measures.")

    calls, secs = {}, {}
    for i, s in enumerate(spans):
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        secs[s[NAME]] = secs.get(s[NAME], 0.0) + dur[i]

    def select(name, flags=None):
        return [i for i, s in enumerate(spans)
                if s[NAME] == name and (flags is None or flags[i])]

    evals_in_solve = len(select("hamiltonians.evaluate", in_solve))
    divs_in_solve = len(select("fields.div", in_solve))
    solves = select("cell.solve")
    iters = sum(spans[i][INFO] for i in solves)
    integrations = [spans[i][INFO] + (dur[i],) for i in select("swingsim.integrate")]

    def us_per_step(autonomous):
        steps = sum(st for st, auto, _ in integrations if auto == autonomous)
        time_s = sum(t for st, auto, t in integrations if auto == autonomous)
        return 1e6 * time_s / steps if steps else 0.0

    measure_names = ("measures.gibbs", "measures.stats", "measures.threshold")
    per_pass = {
        "fields.grad_calls": calls.get("fields.grad", 0),
        "fields.grad_s": secs.get("fields.grad", 0.0),
        "fields.div_calls": calls.get("fields.div", 0),
        "fields.div_s": secs.get("fields.div", 0.0),
        "hamiltonians.eval_calls": calls.get("hamiltonians.evaluate", 0),
        "hamiltonians.eval_points": sum(spans[i][INFO] for i in select("hamiltonians.evaluate")),
        "hamiltonians.eval_s": secs.get("hamiltonians.evaluate", 0.0),
        "cell.solve_calls": len(solves),
        "cell.solve_s": sum(dur[i] for i in solves),
        "cell.self_s": sum(dur[i] - child[i] for i in solves),
        "cell.child_s": sum(child[i] for i in solves),
        "cell.iters": iters,
        "cell.pcg_applies": divs_in_solve - evals_in_solve,
        "cell.factor_calls": calls.get("cell.factor", 0),
        "cell.factor_s": secs.get("cell.factor", 0.0),
        "cell.precond_solves": calls.get("cell.precond_solve", 0),
        "cell.precond_solve_s": secs.get("cell.precond_solve", 0.0),
        "measures.calls": sum(calls.get(m, 0) for m in measure_names),
        "measures.s": sum(secs.get(m, 0.0) for m in measure_names),
        "measures.eval_calls": len(select("hamiltonians.evaluate", in_measures)),
        "oracle1d.rows": sum(spans[i][INFO] for i in select("oracle1d.table")),
        "oracle1d.table_s": secs.get("oracle1d.table", 0.0),
        "oracle1d.potential_s": secs.get("oracle1d.potential", 0.0),
        "swingsim.steps": sum(st for st, _, _ in integrations),
        "swingsim.integrate_s": secs.get("swingsim.integrate", 0.0),
        "swingsim.compare_s": secs.get("swingsim.compare", 0.0),
        "cli.self_s": sum(dur[i] - child[i] for i in select("cli.main")),
    }
    out = {k: v / passes for k, v in per_pass.items()}
    out["cell.evals_per_iter"] = evals_in_solve / iters if iters else 0.0
    out["swingsim.us_per_step_autonomous"] = us_per_step(True)
    out["swingsim.us_per_step_qp"] = us_per_step(False)
    return out
