import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import weakkam
from weakkam import oracle1d
from weakkam.cli import main, manifest_fingerprint
from weakkam.config import (
    ConfigError,
    RunConfig,
    load_config,
    model_from_config,
    p_vectors,
    parse_config,
    serialize_config,
)

CELL_CFG = """
model.name = "pendulum"
model.a = 1.0
grid.N_x = 128
P = [0.9]
k_schedule = [8, 16]
tau_steps = 2
seed = 7
"""

SWEEP_CFG = """
model.name = "pendulum"
grid.N_x = 128
P = [2.0, 1.6, 1.8, 2.2, 2.4]
k_schedule = [8, 16]
tau_steps = 2
"""


def run(args):
    return main([str(a) for a in args])


def test_config_roundtrip_identity():
    cfg = parse_config(CELL_CFG)
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert parse_config(serialize_config(RunConfig())) == RunConfig()


NON_DEFAULT_CFG = """
model.name = "swing"
model.a = 2.0
model.n = 2
model.m = 1
model.alpha = [0.1, 0.0]
model.lam = [1.0, 1.0]
model.omega = [1.5]
model.beta = [[{"const": 1.0}, {"const": 0.0}], [{"const": 0.0}, {"const": 0.5}]]
grid.N_x = 64
grid.N_phi = 4
grid.diff = "fd2"
P = [[0.3, 0.6]]
k_schedule = [4.0, 8.0]
tau_steps = 2
tol.gtol = 1e-9
tol.max_iter = 50
sim.T = 10.0
sim.dt = 0.01
sim.x0 = [0.5, 0.0]
sim.y0 = [1.0, 2.0]
sim.record_every = 5
sim.burn_in = 0.2
sim.compare = true
sim.samples = 3
oracle.P_range = [0.0, 2.0, 0.1]
out = "elsewhere"
seed = 11
flags.dump_sigma = true
"""


def test_every_field_has_one_key_and_round_trips():
    keys = [f.metadata["key"] for f in fields(RunConfig)]
    assert all(isinstance(k, str) and k for k in keys)
    assert len(set(keys)) == len(keys)
    assert [line.split(" = ")[0] for line in serialize_config(RunConfig()).splitlines()] == keys
    # a config that sets every field, each to a value other than its default
    cfg = parse_config(NON_DEFAULT_CFG)
    default = RunConfig()
    assert [f.name for f in fields(RunConfig)
            if getattr(cfg, f.name) == getattr(default, f.name)] == []
    assert parse_config(serialize_config(cfg)) == cfg


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match=":2:"):
        parse_config("\nnot.a.key = 1\n")


def test_config_rejects_retired_method_key(tmp_path, capsys):
    # one optimizer remains, tol.gtol is the one convergence test (it bounds
    # the weak residual too), the sweep sizes its own process pool and
    # trajectory.csv always holds the unwrapped x; an old config naming any
    # retired key fails on it as an unknown key
    for key, value in (("solver.method", '"newton"'), ("tol.rtol", "1e-6"), ("jobs", "2"),
                       ("flags.unwrap", "false")):
        with pytest.raises(ConfigError, match=f":3: unknown key '{key}'"):
            parse_config(f"P = [0.9]\n\n{key} = {value}\n")
        cfg = tmp_path / "old.cfg"
        cfg.write_text(CELL_CFG + f"{key} = {value}\n")
        assert run(["cell", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert f"unknown key '{key}'" in capsys.readouterr().err


def test_cell_rejects_spectral_2d_beyond_envelope(tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text('model.name = "integrable"\nmodel.n = 2\nmodel.alpha = [0.0, 0.0]\n'
                   'model.lam = [1.0, 1.0]\ngrid.N_x = 128\nP = [[0.3, 0.6]]\n')
    assert run(["cell", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert 'grid.diff = "fd2"' in capsys.readouterr().err


def test_cell_rejects_spectral_3d_before_any_solve(tmp_path, capsys, monkeypatch):
    # no preconditioner serves a spectral n = 3 grid: the run exits 2 naming
    # the n <= 2 envelope and fd2, where it used to fail in its first Newton
    # step on an array shape
    from weakkam import cell
    solves = []
    monkeypatch.setattr(cell, "solve_cell", lambda *args, **kwargs: solves.append(args))
    cfg = tmp_path / "n3.cfg"
    cfg.write_text('model.name = "integrable"\nmodel.n = 3\nmodel.alpha = [0.0, 0.0, 0.0]\n'
                   'model.lam = [1.0, 1.0, 1.0]\ngrid.N_x = 8\nP = [[0.3, 0.6, 0.2]]\n')
    out = tmp_path / "o"
    assert run(["cell", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err == (
        "problem outside the solver's envelope: spectral grids need n <= 2 (here n = 3); "
        'use grid.diff = "fd2" beyond it\n')
    assert solves == [] and not (out / "manifest.json").exists()


def test_config_rejects_bad_json():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("P = [1.0,,]\n")


def test_config_names_bad_field():
    with pytest.raises(ConfigError, match="k_schedule"):
        parse_config("k_schedule = [8, 8]\n")
    with pytest.raises(ConfigError, match="tau_steps"):
        parse_config("tau_steps = 0\n")


@pytest.mark.parametrize("line, key, need", [
    ('model.n = "2"', "model.n", "an integer"),
    ("k_schedule = 8", "k_schedule", "a list"),
    ("model.a = true", "model.a", "a number"),
    ("tau_steps = 4.0", "tau_steps", "an integer"),
    ("flags.dump_sigma = 1", "flags.dump_sigma", "true or false"),
    ("grid.diff = 2", "grid.diff", "a string"),
    ('k_schedule = ["8"]', "k_schedule", "a list of numbers"),
    ('oracle.P_range = [0, "3", 0.5]', "oracle.P_range", "a list of numbers"),
    ('P = ["a"]', "P", "a list of numbers or of lists of numbers"),
], ids=["str-for-int", "int-for-list", "bool-for-float", "float-for-int", "int-for-bool",
        "int-for-str", "str-in-number-list", "str-in-oracle-range", "str-in-P"])
def test_config_rejects_a_value_of_the_wrong_type(tmp_path, capsys, line, key, need):
    # each value is checked against its default's JSON type before any
    # comparison, so a wrong type is a configuration error (exit 1), not a
    # TypeError traceback
    with pytest.raises(ConfigError, match=f"field '{key}': must be {need}"):
        parse_config(line + "\n")
    cfg = tmp_path / "typed.cfg"
    cfg.write_text(line + "\n")
    assert run(["cell", "--config", cfg, "--out", tmp_path / "o"]) == 1
    assert f"field '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("command, line, key", [
    ("cell", "sim.dt = NaN", "sim.dt"),
    ("simulate", "sim.dt = NaN", "sim.dt"),
    ("oracle", "oracle.P_range = [0, 3, NaN]", "oracle.P_range"),
    ("simulate", "sim.T = Infinity", "sim.T"),
    ("simulate", "sim.T = 1e400", "sim.T"),
    ("cell", "P = [NaN]", "P"),
    ("cell", "P = [[-Infinity]]", "P"),
    ("cell", "tol.gtol = NaN", "tol.gtol"),
    ("verify", "seed = -3", "seed"),
    ("verify", "--seed -1", "seed"),
], ids=["dt_nan_cell", "dt_nan_simulate", "nan_in_oracle_range", "T_infinity", "T_overflow",
        "nan_P", "infinite_P_vector", "gtol_nan", "negative_seed", "negative_seed_flag"])
def test_config_refuses_numbers_no_command_can_use(tmp_path, capsys, command, line, key):
    # JSON reads NaN, Infinity and 1e400 (as inf); each is a configuration
    # error naming its key (exit 1), as is a negative seed, from the config
    # or from the command line, before any output is written
    cfg = tmp_path / "bad.cfg"
    flags = line.split() if line.startswith("--") else []
    cfg.write_text("grid.N_x = 32\nk_schedule = [4]\n" + ("" if flags else line + "\n"))
    assert run([command, "--config", cfg, "--out", tmp_path / "o", *flags]) == 1
    assert f"field '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_types_accept_an_int_for_a_float_and_store_it_as_written():
    cfg = parse_config("model.a = 2\nk_schedule = [8, 16]\nsim.T = 20\n")
    assert cfg.model_a == 2 and type(cfg.model_a) is int
    assert cfg.k_schedule == [8, 16] and all(type(k) is int for k in cfg.k_schedule)
    assert "k_schedule = [8, 16]\n" in serialize_config(cfg)


def test_swing_model_config_roundtrip():
    # a swing model's config keys, serialized and parsed again, rebuild it
    text = """
model.name = "swing"
model.n = 1
model.m = 1
model.alpha = [0.0]
model.lam = [0.5]
model.omega = [1.0]
model.beta = [[{"const": 1.0, "modes": [[[1], 0.5, 0.0]]}]]
"""
    cfg = parse_config(text)
    model = model_from_config(cfg)
    again = model_from_config(parse_config(serialize_config(cfg)))
    for name in ("alpha", "lam", "omega"):
        assert np.array_equal(getattr(again, name), getattr(model, name))
    assert again.beta == model.beta and model.beta[0][0].modes == (((1,), 0.5, 0.0),)


def test_every_bundled_config_loads():
    # a retired key or a bad value left in any bundled config fails here
    from pathlib import Path
    bundled = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
    assert bundled
    for path in bundled:
        cfg = load_config(path)
        model = model_from_config(cfg)
        assert [p.shape for p in p_vectors(cfg)] == [(model.n,)] * len(cfg.P)


def test_cell_command_and_exit_codes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CELL_CFG)
    out = tmp_path / "out"
    assert run(["cell", "--config", cfg, "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "cell"
    assert len(manifest["solves"]) == 2
    for rec in manifest["solves"]:
        assert rec["converged"]
        assert {"P", "k", "tau", "Hbar_k", "grad_norm", "el_residual",
                "iterations", "sup_Dxu", "wall_time_s"} <= rec.keys()
    assert (out / "hbar_table.csv").read_text().startswith("P,k,hbar")


def test_cell_manifest_is_one_json_text(tmp_path):
    # the manifest file holds exactly json.dumps of its content, indent 1,
    # with one closing newline
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CELL_CFG)
    assert run(["cell", "--config", cfg, "--out", tmp_path / "out"]) == 0
    raw = (tmp_path / "out" / "manifest.json").read_bytes()
    assert raw == (json.dumps(json.loads(raw), indent=1) + "\n").encode("utf-8")


def test_parser_built_once_per_process():
    # main reuses one parser; each parse gets a fresh namespace, so flags of
    # one call do not reach the next
    from weakkam import cli
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    first = parser.parse_args(["sweep", "--dump-sigma"])
    second = parser.parse_args(["sweep"])
    assert first.dump_sigma and not second.dump_sigma


@pytest.mark.parametrize("argv, code", [
    (["cell", "--bogus"], 1),
    (["cell", "--help"], 0),
    (["sweep", "--help"], 0),
    (["frobnicate"], 1),
], ids=["unknown_flag", "cell_help", "sweep_help", "unknown_command"])
def test_usage_errors_exit_1(argv, code, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    if code:
        assert "usage: weakkam" in capsys.readouterr().err


def test_each_flag_only_where_it_is_read(capsys):
    # the subcommands that read each overriding flag; every other one refuses it
    takers = {("--seed", "3"): {"verify"}, ("--dump-sigma",): {"cell", "sweep"}}
    from weakkam import cli
    parser = cli._build_parser()
    refused = 0
    for command in ("cell", "sweep", "oracle", "simulate", "verify", "report"):
        head = [command] + (["manifest.json"] if command == "report" else [])
        for args, commands in takers.items():
            args = list(args)
            if command in commands:
                assert parser.parse_args(head + args)
                continue
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(head + args)
            assert exc.value.code == 1
            assert f"unrecognized arguments: {' '.join(args)}" in capsys.readouterr().err
            refused += 1
    assert refused == 9


def test_cell_rejects_multiple_P(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CELL_CFG.replace("P = [0.9]", "P = [0.9, 1.0]"))
    assert run(["cell", "--config", cfg, "--out", tmp_path / "o"]) == 1
    assert f"configuration error: {cfg}: field 'P': the cell command takes exactly one P" \
        in capsys.readouterr().err


def test_validation_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("k_schedule = [16, 8]\n")
    assert run(["cell", "--config", cfg, "--out", tmp_path / "o"]) == 1


def test_nonconvergence_exit_code(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CELL_CFG + "tol.max_iter = 3\nP = [1.5]\nk_schedule = [64]\n")
    out = tmp_path / "out"
    assert run(["cell", "--config", cfg, "--out", out]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"]


def test_cell_keeps_the_stages_before_a_failed_one(tmp_path, monkeypatch):
    # a stage that fails after a converged one: the converged stage is
    # recorded without a measure block and tabulated, and the error names
    # the failed stage once
    from weakkam import cli
    from weakkam.cell import ContinuationError, continuation_solve

    def fail_at_second_k(model, P, k_schedule, tau_steps, grid, opts):
        done = continuation_solve(model, P, k_schedule[:1], tau_steps, grid, opts)
        raise ContinuationError(f"stage (tau=1, k={k_schedule[1]:g}) did not converge (stub)",
                                done, 1.0, k_schedule[1])

    monkeypatch.setattr(cli, "continuation_solve", fail_at_second_k)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CELL_CFG)
    out = tmp_path / "out"
    assert run(["cell", "--config", cfg, "--out", out]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    [record] = manifest["solves"]
    assert record["k"] == 8.0 and record["converged"] and "measure" not in record
    with open(out / "hbar_table.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["P", "k", "hbar"], ["0.9", "8.0", repr(record["Hbar_k"])]]
    assert manifest["error"] == "stage (tau=1, k=16) did not converge (stub)"


FIBERED_2D_CFG = """
model.name = "swing"
model.n = 2
model.m = 1
model.alpha = [0.0, 0.0]
model.lam = [1.0, 1.0]
model.omega = [1.0]
model.beta = [[{"const": 0.6, "modes": [[[1], 0.2, 0.0]]}, {"const": 0.3}], [{"const": 0.0}, {"const": 0.4}]]
grid.N_x = 12
grid.N_phi = 3
P = [[0.3, 0.8]]
k_schedule = [8, 16]
tau_steps = 2
"""


def test_cell_solves_fibered_2d_fiber_by_fiber(tmp_path):
    # an n=2 grid with fiber axes runs one fiber pass per k, with no tau
    # walk: one record per k, each at tau = 1 with one value per fiber
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FIBERED_2D_CFG)
    out = tmp_path / "out"
    assert run(["cell", "--config", cfg, "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] is None
    assert [(r["k"], r["tau"]) for r in manifest["solves"]] == [(8.0, 1.0), (16.0, 1.0)]
    for r in manifest["solves"]:
        assert r["converged"] and "measure" in r and len(r["fiber_values"]) == 3


def test_cell_refuses_a_gtol_its_fibers_cannot_meet(tmp_path, capsys):
    # 3 fibers would each need gtol / sqrt(3) < 1e-12: exit 2 before any solve
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FIBERED_2D_CFG + "tol.gtol = 1e-12\n")
    out = tmp_path / "out"
    assert run(["cell", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err == (
        "problem outside the solver's envelope: gtol 1e-12 is below what 3 fibers can meet: "
        "each would need gtol / sqrt(3) = 5.77e-13 < 1e-12; use tol.gtol >= 1.73e-12\n")
    assert not (out / "manifest.json").exists()


def test_cell_keeps_the_fiber_passes_before_a_failed_one(tmp_path, monkeypatch):
    # a fiber that fails in the k = 16 pass fails the stage (tau = 1, k = 16);
    # the k = 8 pass is recorded without a measure block
    from weakkam import cell
    solve = cell.solve_cell

    def fail_at_16(problem, init=None, opts=None, state=None):
        if problem.k == 16.0:
            opts = cell.SolverOptions(max_iter=1)
        return solve(problem, init, opts, state)

    monkeypatch.setattr(cell, "solve_cell", fail_at_16)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FIBERED_2D_CFG)
    out = tmp_path / "out"
    assert run(["cell", "--config", cfg, "--out", out]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    [record] = manifest["solves"]
    assert record["k"] == 8.0 and record["tau"] == 1.0 and record["converged"]
    assert "measure" not in record and len(record["fiber_values"]) == 3
    assert manifest["error"].startswith("stage (tau=1, k=16): fiber (0,) did not converge")
    with open(out / "hbar_table.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["P_0", "P_1", "k", "hbar"], ["0.3", "0.8", "8.0", repr(record["Hbar_k"])]]


def test_sweep_reports_every_failed_P_once(tmp_path):
    # two Newton steps reach the homotopy tolerance on every rung below k = 8
    # but not gtol at k = 8, for any of the three P
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("grid.N_x = 64\ntol.max_iter = 2\nP = [0.5, 1.2, 2.0]\n")
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out", out]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert [f["P"] for f in manifest["failures"]] == [[0.5], [1.2], [2.0]]
    for failure in manifest["failures"]:
        assert failure["error"].startswith("stage (tau=1, k=8) did not converge (max_iter")
        assert failure["error"].endswith("> gtol 1e-08)")
        assert failure["error"].count("stage") == 1
    assert manifest["solves"] == [] and manifest["sweep_convexity"] is None


def test_manifest_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CELL_CFG)
    run(["cell", "--config", cfg, "--out", tmp_path / "a", "--dump-sigma"])
    run(["cell", "--config", cfg, "--out", tmp_path / "b", "--dump-sigma"])
    ma = manifest_fingerprint(json.loads((tmp_path / "a/manifest.json").read_text()))
    mb = manifest_fingerprint(json.loads((tmp_path / "b/manifest.json").read_text()))
    assert json.dumps(ma, sort_keys=True) == json.dumps(mb, sort_keys=True)


def test_sweep_parallel_independence(tmp_path, monkeypatch):
    # the pool's manifest is the in-process one, bit for bit
    from weakkam import cli
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    assert run(["sweep", "--config", cfg, "--out", tmp_path / "j1"]) == 0
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert run(["sweep", "--config", cfg, "--out", tmp_path / "j2"]) == 0
    m1 = manifest_fingerprint(json.loads((tmp_path / "j1/manifest.json").read_text()))
    m2 = manifest_fingerprint(json.loads((tmp_path / "j2/manifest.json").read_text()))
    assert json.dumps(m1, sort_keys=True) == json.dumps(m2, sort_keys=True)
    # rows are ordered by P then k
    ps = [rec["P"][0] for rec in m1["solves"]]
    assert ps == sorted(ps)


@pytest.mark.parametrize("n_P, cores, workers", [
    (11, 64, 11), (3, 2, 2), (3, 1, None), (3, None, None),
], ids=["one_per_P", "one_per_core", "one_core_in_process", "unknown_cores_in_process"])
def test_sweep_sizes_its_own_pool(tmp_path, monkeypatch, n_P, cores, workers):
    # one worker per P, up to one per core; a single worker runs in-process
    # and builds no pool.  The fake pool maps in-process and the solves are
    # stubbed, so no process starts
    from weakkam import cli
    built, ran = [], []

    class FakePool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(cli, "_run_one_P", lambda cfg, P: ran.append(P[0]) or ([], None))
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"P = {[i / 10 for i in range(n_P)]}\n")
    assert run(["sweep", "--config", cfg, "--out", tmp_path / "o"]) == 0
    assert built == ([] if workers is None else [workers])
    assert ran == [i / 10 for i in range(n_P)]


def test_sweep_convexity_entry(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    run(["sweep", "--config", cfg, "--out", tmp_path / "o"])
    manifest = json.loads((tmp_path / "o/manifest.json").read_text())
    conv = manifest["sweep_convexity"]
    assert conv["k"] == 16.0
    assert conv["max_violation"] <= 1e-3


def test_sweep_needs_three_points(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG.replace("P = [2.0, 1.6, 1.8, 2.2, 2.4]", "P = [1.0, 2.0]"))
    assert run(["sweep", "--config", cfg, "--out", tmp_path / "o"]) == 1
    assert f"configuration error: {cfg}: field 'P': a sweep needs at least 3 values" \
        in capsys.readouterr().err


def test_oracle_command(tmp_path):
    cfg = tmp_path / "o.cfg"
    cfg.write_text('model.name = "pendulum"\noracle.P_range = [0.0, 2.0, 0.5]\n')
    out = tmp_path / "out"
    assert run(["oracle", "--config", cfg, "--out", out]) == 0
    rows = (out / "oracle_table.csv").read_text().strip().splitlines()
    assert rows[0] == "P,hbar"
    assert len(rows) == 6
    assert float(rows[1].split(",")[1]) == 2.0


def test_oracle_rejects_an_empty_table(tmp_path, capsys):
    cfg = tmp_path / "o.cfg"
    cfg.write_text('model.name = "pendulum"\noracle.P_range = [3.0, 0.0, 0.05]\n')
    assert run(["oracle", "--config", cfg, "--out", tmp_path / "o"]) == 1
    assert "'oracle.P_range': gives 0 rows" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, name", [
    ('model.name = "swing"\nmodel.n = 2\nmodel.m = 3\nmodel.alpha = [0.0]\n'
     'model.omega = [1.0]\nmodel.beta = [[{"const": 1.0, "modes": [[[1], 0.5, 0.0]]}]]',
     "model.n"),
    ('model.name = "swing"\nmodel.m = 3\nmodel.omega = [1.0]\n'
     'model.beta = [[{"const": 1.0, "modes": [[[1], 0.5, 0.0]]}]]', "model.m"),
    ('model.name = "pendulum"\nmodel.n = 3', "model.n"),
    ('model.name = "pendulum"\nmodel.m = 1', "model.m"),
    ('model.name = "swing"\nmodel.n = 2\nmodel.beta = [[{"const": 1.0}]]', "model.n"),
    ("P = [[]]", "P"),
    ("P = [[0.1, 0.2]]", "P"),
    ("model.m = -1", "model.m"),
    ('model.name = "swing"\nmodel.beta = [[1.0]]', "model.beta"),
    ('model.name = "swing"\nmodel.beta = [["x"]]', "model.beta"),
    # a misspelt key would drop the coupling or the drive, a fractional
    # wave-vector would be truncated
    ('model.name = "swing"\nmodel.beta = [[{"cosnt": 1.0}]]', "model.beta"),
    ('model.name = "swing"\nmodel.m = 1\nmodel.omega = [1.0]\n'
     'model.beta = [[{"const": 1.0, "modse": [[[1], 0.5, 0.0]]}]]', "model.beta"),
    ('model.name = "swing"\nmodel.m = 1\nmodel.omega = [1.0]\n'
     'model.beta = [[{"const": 1.0, "modes": [[[1.5], 0.5, 0.0]]}]]', "model.beta"),
    # a coefficient of the wrong JSON type is refused, not converted
    ('model.name = "swing"\nmodel.beta = [[{"const": "1.5"}]]', "model.beta"),
    ('model.name = "swing"\nmodel.beta = [[{"const": true}]]', "model.beta"),
    ('model.name = "swing"\nmodel.m = 1\nmodel.omega = [1.0]\n'
     'model.beta = [[{"const": 1.0, "modes": [[[1], "0.5", false]]}]]', "model.beta"),
], ids=["swing_n", "swing_m", "pendulum_n", "pendulum_m", "swing_n_beta_1x1", "P_empty",
        "P_too_long", "negative_m", "beta_number", "beta_string", "beta_unknown_key",
        "beta_unknown_modes_key", "beta_fractional_wave_vector", "beta_string_const",
        "beta_bool_const", "beta_string_bool_mode"])
def test_model_dimensions_must_match_the_model(tmp_path, capsys, text, name):
    # loading a config builds its model, from well-formed model.* values,
    # and checks each P against it, so the error names the config and the
    # key like every other validation error
    with pytest.raises(ConfigError, match=f"^<config>: field '{name}'"):
        parse_config(text)
    cfg = tmp_path / "m.cfg"
    cfg.write_text(text + "\n")
    assert run(["cell", "--config", cfg, "--out", tmp_path / "o"]) == 1
    assert f"configuration error: {cfg}: field '{name}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_and_report(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("""
model.name = "pendulum"
sim.T = 40.0
sim.dt = 0.001
sim.y0 = [2.6]
sim.compare = true
sim.samples = 2
oracle.P_range = [0.0, 3.0, 0.25]
""")
    out = tmp_path / "sim_out"
    assert run(["simulate", "--config", cfg, "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["energy_drift"] <= 1e-6
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,x_0,y_0,energy"
    assert manifest["comparison"]

    rep = tmp_path / "rep"
    assert run(["report", out / "manifest.json", "--out", rep]) == 0
    assert (rep / "rotation_comparison.csv").exists()


def test_simulate_builds_oracle_potential_once(tmp_path, monkeypatch):
    built = []
    from_callable = oracle1d.Potential1D.from_callable
    monkeypatch.setattr(oracle1d.Potential1D, "from_callable", classmethod(
        lambda cls, *a, **k: built.append(a) or from_callable(*a, **k)))
    cfg = tmp_path / "sim.cfg"
    cfg.write_text('model.name = "pendulum"\nsim.T = 2.0\nsim.compare = true\n'
                   'sim.samples = 2\noracle.P_range = [0.0, 3.0, 0.5]\n')
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 0
    assert len(built) == 1


@pytest.mark.parametrize("extra", [
    "sim.record_every = 0",
    "sim.x0 = [0.0, 0.0]",
    'model.name = "swing"\nmodel.n = 2\nmodel.alpha = [0.0, 0.0]\n'
    'model.lam = [1.0, 1.0]\nsim.x0 = [0.0, 0.0]\nsim.y0 = [1.5]',
    "sim.compare = true\nsim.samples = 0",
    "sim.record_every = 200",
    "sim.dt = 0.02\nsim.record_every = 1\nsim.compare = true",
    # the comparison needs an autonomous, untilted rotor: refused before any step
    'model.name = "swing"\nmodel.m = 1\nmodel.omega = [1.0]\n'
    'model.beta = [[{"const": 1.0, "modes": [[[1], 0.5, 0.0]]}]]\nsim.compare = true',
    'model.name = "swing"\nmodel.alpha = [0.1]\nmodel.beta = [[{"const": 1.0}]]\n'
    'sim.compare = true',
    # a tilt too small to break V's periodicity check
    'model.name = "swing"\nmodel.alpha = [1e-14]\nmodel.beta = [[{"const": 1.0}]]\n'
    'sim.compare = true',
    # a table of 2 rows leaves no centered difference: refused before any step
    "sim.compare = true\noracle.P_range = [0.0, 0.05, 0.05]",
], ids=["record_every_zero", "x0_length", "y0_length", "compare_without_samples",
        "record_every_beyond_window", "compare_window", "compare_driven", "compare_tilted",
        "compare_barely_tilted", "compare_two_row_table"])
def test_simulate_config_errors_exit_1(tmp_path, capsys, extra):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(f'model.name = "pendulum"\nsim.T = 1.0\n{extra}\n')
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 1
    # every refusal names the config file, whether loading or the command finds it
    assert f"configuration error: {cfg}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_window_boundary(tmp_path, capsys):
    # 1000 steps recorded every 100 leave exactly 10 samples after the
    # burn-in window, the fewest the rotation fit takes; every 101 leave 9
    cfg = tmp_path / "sim.cfg"
    cfg.write_text('model.name = "pendulum"\nsim.T = 1.0\nsim.record_every = 100\n')
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 0
    cfg.write_text('model.name = "pendulum"\nsim.T = 1.0\nsim.record_every = 101\n')
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "o2"]) == 1
    assert "'sim.record_every'" in capsys.readouterr().err


@pytest.mark.parametrize("extra, reason", [
    ('model.name = "swing"\nmodel.alpha = [1e300]\nsim.dt = 10.0\nsim.T = 200.0\n'
     'sim.record_every = 1', "last valid sample index 0"),
    ('model.name = "pendulum"\nsim.T = 1.0\nsim.y0 = [2e154]\nsim.record_every = 10',
     "no valid sample"),
], ids=["blow_up", "infinite_energy_start"])
def test_simulate_non_finite_orbit_exits_2(tmp_path, capsys, extra, reason):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(extra + "\n")
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "simulation blew up" in err and reason in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_report_on_cell_manifest(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CELL_CFG)
    out = tmp_path / "out"
    run(["cell", "--config", cfg, "--out", out, "--dump-sigma"])
    rep = tmp_path / "rep"
    assert run(["report", out / "manifest.json", "--out", rep]) == 0
    kcsv = (rep / "Hbar_vs_k.csv").read_text().strip().splitlines()
    assert kcsv[0] == "P,k,hbar"
    assert len(kcsv) == 3
    assert (rep / "sigma_profile.csv").exists()
    pcsv = (rep / "Hbar_vs_P.csv").read_text().strip().splitlines()
    ps = [float(r.split(",")[0]) for r in pcsv[1:]]
    assert ps == sorted(ps)


def test_cell_table_has_a_column_per_component_of_P(tmp_path):
    cfg = tmp_path / "n2.cfg"
    cfg.write_text('model.name = "integrable"\nmodel.n = 2\nmodel.alpha = [0.0, 0.0]\n'
                   'model.lam = [1.0, 1.0]\ngrid.N_x = 16\nP = [[0.3, 0.6]]\n'
                   'k_schedule = [4, 8]\ntau_steps = 1\n')
    out = tmp_path / "o"
    assert run(["cell", "--config", cfg, "--out", out]) == 0
    with open(out / "hbar_table.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["P_0", "P_1", "k", "hbar"]
    assert [r[:3] for r in rows[1:]] == [["0.3", "0.6", "4.0"], ["0.3", "0.6", "8.0"]]
    for r in rows[1:]:
        assert abs(float(r[3]) - 0.5 * (0.3 ** 2 + 0.6 ** 2)) <= 1e-10


def test_report_on_two_dimensional_manifest(tmp_path):
    solves = [{"P": P, "k": k, "Hbar_k": h} for P, k, h in (
        ([0.5, -0.2], 8.0, 0.3), ([0.1, 0.4], 16.0, 0.2), ([0.1, 0.4], 8.0, 0.1),
        ([0.5, -0.2], 16.0, 0.4))]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": "sweep", "solves": solves}))
    rep = tmp_path / "rep"
    assert run(["report", manifest, "--out", rep]) == 0
    tables = {}
    for name in ("Hbar_vs_k.csv", "Hbar_vs_P.csv"):
        with open(rep / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["P_0", "P_1", "k", "hbar"]
        tables[name] = [tuple(float(x) for x in r) for r in rows[1:]]
    assert tables["Hbar_vs_k.csv"] == [(0.1, 0.4, 8.0, 0.1), (0.1, 0.4, 16.0, 0.2),
                                       (0.5, -0.2, 8.0, 0.3), (0.5, -0.2, 16.0, 0.4)]
    assert tables["Hbar_vs_P.csv"] == [(0.1, 0.4, 8.0, 0.1), (0.5, -0.2, 8.0, 0.3),
                                       (0.1, 0.4, 16.0, 0.2), (0.5, -0.2, 16.0, 0.4)]


def test_report_on_sweep_manifest(tmp_path):
    # Hbar_vs_k.csv runs through k at each P, Hbar_vs_P.csv through P at each k
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out", out]) == 0
    rep = tmp_path / "rep"
    assert run(["report", out / "manifest.json", "--out", rep]) == 0
    tables = {}
    for name in ("Hbar_vs_k.csv", "Hbar_vs_P.csv"):
        lines = (rep / name).read_text().strip().splitlines()
        assert lines[0] == "P,k,hbar"
        tables[name] = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    by_k, by_P = tables["Hbar_vs_k.csv"], tables["Hbar_vs_P.csv"]
    assert len(by_k) == 10 and sorted(by_k) == sorted(by_P)
    assert [(p, k) for p, k, _ in by_k] == sorted((p, k) for p, k, _ in by_k)
    assert [(k, p) for p, k, _ in by_P] == sorted((k, p) for p, k, _ in by_P)
    assert [p for p, _, _ in by_P[:5]] == [1.6, 1.8, 2.0, 2.2, 2.4]


def test_report_missing_manifest(tmp_path):
    assert run(["report", tmp_path / "nope.json", "--out", tmp_path / "r"]) == 1


@pytest.mark.parametrize("text, reason", [
    ("[]", "AttributeError: 'list' object has no attribute 'get'"),
    ('{"solves": [{"k": 1}]}', "KeyError: 'P'"),
    ('{"oracle_table": 5}', "TypeError: 'int' object is not iterable"),
], ids=["list", "solve_without_P", "number_for_oracle_table"])
def test_report_refuses_a_file_that_is_not_a_manifest(tmp_path, capsys, text, reason):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text)
    assert run(["report", manifest, "--out", tmp_path / "r"]) == 1
    assert f"{manifest} is not a weakkam manifest: {reason}" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_readme_flags_table_matches_the_parser():
    # each row of the README's flags table lists exactly the options the
    # parser gives its subcommands; report's manifest argument is MANIFEST
    import argparse
    from pathlib import Path
    from weakkam import cli
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Flags, each only on the subcommands that read it:")[1].split("\n\n")[1]
    documented = {}
    for row in table.splitlines()[2:]:
        commands, flags = row.strip("|").split("|")
        for command in re.findall(r"`([^`]+)`", commands):
            documented[command] = {flag.split()[0] for flag in re.findall(r"`([^`]+)`", flags)}
    [subcommands] = [a for a in cli._build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    taken = {name: {a.option_strings[0] if a.option_strings else a.dest.upper()
                    for a in sub._actions if a.dest != "help"}
             for name, sub in subcommands.choices.items()}
    assert documented == taken


def test_readme_constants_match_the_code():
    # each `NAME = value` the README quotes for an upper-case underscored
    # name is a constant of weakkam.cell or weakkam.verify with that value
    import ast
    from pathlib import Path
    from weakkam import cell, verify
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quoted = re.findall(r"`([A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+) = ([^`]+)`", readme)
    assert {name for name, _ in quoted} >= {
        "REFACTOR_APPLIES", "LAM_WARM_FLOOR", "FIBER_LADDER", "STATIONARITY_TOL",
        "WEAK_RESIDUAL_SLACK", "HOMOTOPY_GTOL"}
    for name, value in quoted:
        owners = [m for m in (cell, verify) if hasattr(m, name)]
        assert owners, f"{name} is in neither weakkam.cell nor weakkam.verify"
        assert getattr(owners[0], name) == ast.literal_eval(value), name


def test_env_var_out_dir(tmp_path, monkeypatch):
    cfg = tmp_path / "o.cfg"
    cfg.write_text('model.name = "pendulum"\noracle.P_range = [0.0, 1.0, 0.5]\n')
    monkeypatch.setenv("WEAKKAM_OUT", str(tmp_path / "envout"))
    assert run(["oracle", "--config", cfg]) == 0
    assert (tmp_path / "envout" / "oracle_table.csv").exists()


def _child_env() -> dict:
    """The environment of a child Python that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(weakkam.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_python_dash_m_entry_point(tmp_path):
    # `python -m weakkam` runs the CLI without the installed console script
    env = _child_env()
    cfg = tmp_path / "o.cfg"
    cfg.write_text('model.name = "pendulum"\noracle.P_range = [0.0, 2.0, 0.5]\n')
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-m", "weakkam", "oracle", "--config", str(cfg),
                           "--out", str(out)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert len((out / "oracle_table.csv").read_text().strip().splitlines()) == 6
    bad = subprocess.run([sys.executable, "-m", "weakkam", "oracle", "--config",
                          str(tmp_path / "missing.cfg")], env=env, capture_output=True,
                         text=True)
    assert bad.returncode == 1


def test_cli_import_leaves_scipy_quadrature_unloaded():
    # only the oracle needs scipy.integrate and scipy.optimize; importing the
    # CLI must not pay for them.  A bare `import weakkam` loads no scipy
    # module at all: scipy.linalg alone would add about 0.2 s to every start
    for module, banned in [("weakkam.cli", ("scipy.integrate", "scipy.optimize")),
                           ("weakkam", ("scipy",))]:
        code = (f"import sys, {module}; print(sorted(m for m in sys.modules "
                f"if any(m == b or m.startswith(b + '.') for b in {banned!r})))")
        done = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]", module


VERIFY_CHECKS = [
    "calculus.adjoint-gradient-divergence",
    "calculus.gradient-of-constant-vanishes",
    "calculus.gradient-has-zero-mean",
    "calculus.log-mean-exp-monotone-and-jensen",
    "hamiltonian.derivatives-match-finite-differences",
    "hamiltonian.uniform-convexity-midpoint",
    "hamiltonian.fenchel-young-duality",
    "hamiltonian.swing-torus-periodicity",
    "solver.objective-gradient-vs-central-differences",
    "solver.integrable-exactness",
    "solver.separable-2d-identity",
    "solver.fibered-separable-identity",
    "solver.descent-and-mean-zero",
    "solver.effective-energy-monotone-in-k",
    "solver.inf-max-upper-bound",
    "solver.weak-residual-below-gradient",
    "measure.normalization-and-density-identity",
    "measure.closedness",
    "measure.energy-bounds-envelope",
    "measure.energy-concentration-in-k",
    "oracle.evenness-flat-piece-convexity",
    "sim.free-motion-rotation-exact",
    "sim.energy-drift-and-2nd-order",
    "sim.time-reversibility",
]


def test_verify_default_config_passes(tmp_path, capsys):
    assert run(["verify", "--out", tmp_path / "v"]) == 0
    text = capsys.readouterr().out
    assert "[FAIL]" not in text
    manifest = json.loads((tmp_path / "v/manifest.json").read_text())
    assert all(c["passed"] for c in manifest["checks"])
    assert [c["name"] for c in manifest["checks"]] == VERIFY_CHECKS


def test_verify_solves_once(monkeypatch):
    # every solver.* check that reads a solve and every measure.* check
    # read one pendulum continuation (the one at P = 1.5); the other
    # continuations are solver.fibered-separable-identity's, three on its
    # own models for each of its four grids
    from weakkam import cell
    from weakkam.verify import run_checks
    calls = []
    solve = cell.continuation_solve
    monkeypatch.setattr(cell, "continuation_solve",
                        lambda *args, **kwargs: calls.append(args) or solve(*args, **kwargs))
    assert all(r.passed for r in run_checks())
    assert [args[1] for args in calls].count([1.5]) == 1
    assert len(calls) == 1 + 3 * 4


def test_verify_fails_the_checks_of_a_solve_that_raised(tmp_path, monkeypatch):
    # the checks that read the pendulum continuation fail with its error;
    # every other check still runs and passes
    from weakkam import verify

    def refuse(cfg):
        raise RuntimeError("stub solve")

    monkeypatch.setattr(verify, "_pendulum_continuation", refuse)
    assert run(["verify", "--out", tmp_path / "v"]) == 3
    manifest = json.loads((tmp_path / "v/manifest.json").read_text())
    failed = {c["name"]: c["detail"] for c in manifest["checks"] if not c["passed"]}
    assert sorted(failed) == sorted([
        "solver.descent-and-mean-zero", "solver.effective-energy-monotone-in-k",
        "solver.inf-max-upper-bound", "solver.weak-residual-below-gradient",
        "measure.normalization-and-density-identity", "measure.closedness",
        "measure.energy-bounds-envelope", "measure.energy-concentration-in-k"])
    assert set(failed.values()) == {"raised RuntimeError: stub solve"}
    assert len(manifest["checks"]) - len(failed) == 16


def test_verify_empty_config_passes(tmp_path):
    # an empty config is the default one, which test_verify_default_config_passes
    # runs; test_verify_negative_control covers --config reaching verify
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("# nothing overridden\n")
    assert load_config(cfg) == RunConfig()


def test_bundled_sweep_shows_flat_region(tmp_path):
    from pathlib import Path
    bundled = Path(__file__).resolve().parents[1] / "configs" / "pendulum_sweep.cfg"
    out = tmp_path / "o"
    assert run(["sweep", "--config", bundled, "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert not manifest["failures"]
    col64 = {rec["P"][0]: rec["Hbar_k"] for rec in manifest["solves"]
             if rec["k"] == 64.0}
    # flat region |P| <= 4/pi sits within 0.15 of the potential ceiling 2
    for P in (-1.0, -0.5, 0.0, 0.5, 1.0):
        assert abs(col64[P] - 2.0) <= 0.15
    assert col64[2.5] > 4.0
    assert manifest["sweep_convexity"]["k"] == 64.0
    assert manifest["sweep_convexity"]["max_violation"] <= 1e-3


def test_integrable_sweep_matches_quadratic(tmp_path):
    cfg = tmp_path / "itg.cfg"
    cfg.write_text("""
model.name = "integrable"
model.n = 1
grid.N_x = 64
P = [0.0, 0.5, 1.0, 1.5]
k_schedule = [8, 16]
tau_steps = 1
""")
    out = tmp_path / "o"
    assert run(["sweep", "--config", cfg, "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for rec in manifest["solves"]:
        P = rec["P"][0]
        assert abs(rec["Hbar_k"] - 0.5 * P * P) <= 1e-10


def test_bundled_pendulum_config(tmp_path):
    from pathlib import Path
    bundled = Path(__file__).resolve().parents[1] / "configs" / "pendulum_cell.cfg"
    cfg = tmp_path / "quick.cfg"
    # same model, smaller budget for the smoke test
    cfg.write_text(bundled.read_text().replace("[8, 16, 32, 64]", "[8, 16]"))
    out = tmp_path / "o"
    assert run(["cell", "--config", cfg, "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert all(rec["converged"] for rec in manifest["solves"])
    hb = [rec["Hbar_k"] for rec in manifest["solves"]]
    assert hb == sorted(hb)


def test_bundled_quasiperiodic_config(tmp_path):
    # the joint quasi-periodic continuation, k 8 -> 16, as the bundled config
    # runs it; Hbar_k is that of the former tau walk
    from pathlib import Path
    bundled = Path(__file__).resolve().parents[1] / "configs" / "swing_quasiperiodic.cfg"
    out = tmp_path / "o"
    assert run(["cell", "--config", bundled, "--out", out]) == 0
    records = json.loads((out / "manifest.json").read_text())["solves"]
    assert [(r["k"], r["converged"]) for r in records] == [(8.0, True), (16.0, True)]
    assert records[0]["Hbar_k"] == pytest.approx(2.489907982150954, abs=1e-10)
    assert records[1]["Hbar_k"] == pytest.approx(2.700409618011114, abs=1e-10)


def test_cell_measures_evaluate_nothing(tmp_path, monkeypatch):
    # the measure of every record is built from its solve's final evaluation:
    # no Hamiltonian evaluation happens outside solve_cell
    from pathlib import Path
    from weakkam import cell
    from weakkam.hamiltonians import SwingModel
    depth, outside = [0], []
    solve = cell.solve_cell

    def counted_solve(*args, **kwargs):
        depth[0] += 1
        try:
            return solve(*args, **kwargs)
        finally:
            depth[0] -= 1

    evaluate = SwingModel.evaluate

    def watched(*args, **kwargs):
        if not depth[0]:
            outside.append(args)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(cell, "solve_cell", counted_solve)
    monkeypatch.setattr(SwingModel, "evaluate", watched)
    bundled = Path(__file__).resolve().parents[1] / "configs" / "pendulum_cell.cfg"
    assert run(["cell", "--config", bundled, "--out", tmp_path / "o"]) == 0
    manifest = json.loads((tmp_path / "o/manifest.json").read_text())
    assert len(manifest["solves"]) == 4 and all("measure" in r for r in manifest["solves"])
    assert outside == []


def test_verify_negative_control(tmp_path, capsys):
    # a sloppy solver tolerance must surface as failed stationarity and
    # measure checks
    cfg = tmp_path / "sloppy.cfg"
    cfg.write_text("tol.gtol = 1e-2\nseed = 7\n")
    assert run(["verify", "--config", cfg, "--out", tmp_path / "v"]) == 3
    manifest = json.loads((tmp_path / "v/manifest.json").read_text())
    failed = {c["name"] for c in manifest["checks"] if not c["passed"]}
    assert any("closedness" in name or "stationarity" in name for name in failed)
    assert any(name.startswith("measure.") for name in failed)
