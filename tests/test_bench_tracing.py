"""The benchmark tracer rebinds weakkam's module-level names by attribute
name, and the benchmark workloads call weakkam's public API; a rename or
removal in the package breaks them without failing a test of the package
itself.  These guards enter and leave the tracer's ``installed``, check that
it counts every orbit the simulator steps, and set up every workload."""

import importlib.util
import sys
from pathlib import Path

from weakkam import cli
from weakkam.hamiltonians import SwingModel

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    """The module bench/<name>.py, loaded by path (and registered, as
    ``dataclass`` looks its module up)."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_name():
    tracing = _load("tracing")
    names = tracing.wrapped_names([SwingModel])
    assert names
    # every wrapped name resolves before the tracer is installed
    before = {(id(owner), attr): vars(owner).get(attr, getattr(owner, attr))
              for owner, attr in names}
    with tracing.installed(tracing.Tracer(), [SwingModel]):
        for owner, attr in names:
            assert vars(owner)[attr] is not before[(id(owner), attr)]
    for owner, attr in names:
        assert vars(owner).get(attr, getattr(owner, attr)) is before[(id(owner), attr)]


def test_tracer_counts_the_steps_of_every_orbit(tmp_path):
    # the trajectory and each compared momentum are one integrate_swing call
    # of T/dt steps apiece
    tracing = _load("tracing")
    cfg = tmp_path / "sim.cfg"
    cfg.write_text('model.name = "pendulum"\nsim.T = 2.0\nsim.dt = 0.001\n'
                   'sim.compare = true\nsim.samples = 3\noracle.P_range = [0.0, 3.0, 0.5]\n')
    tracer = tracing.Tracer()
    with tracing.installed(tracer, [SwingModel]):
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "rotation_comparison.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    steps = tracing.layer_metrics(tracer.spans, 1)["swingsim.steps"]
    assert steps == (1 + len(rows)) * 2000


def test_every_workload_builds_and_warms(tmp_path):
    # build and warm are what each benchmark run pays first; SwingSim.warm
    # passes a SwingParams to integrate_swing
    workloads = _load("workloads")
    for name, cls in workloads.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        workload = cls(7, work)
        workload.build()
        workload.warm()
        assert workload.model_classes() == [SwingModel]
