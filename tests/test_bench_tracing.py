"""The benchmark tracer rebinds weakkam's module-level names by attribute
name; a rename or removal in the package breaks it without failing a test
of the package itself.  This guard enters and leaves its ``installed``."""

import importlib.util
from pathlib import Path

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
