"""The benchmark tracer rebinds weakkam's module-level names by attribute
name; a rename or removal in the package breaks it without failing a test
of the package itself.  These guards enter and leave its ``installed``, and
check that it counts every orbit the simulator steps."""

import importlib.util
from pathlib import Path

from weakkam import cli
from weakkam.hamiltonians import SwingModel

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_name():
    tracing = _tracing()
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
    tracing = _tracing()
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
