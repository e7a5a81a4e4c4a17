"""Command-line orchestration: cell solves, P-sweeps, oracle tables,
simulation, verification and report extraction.

Outputs are machine-readable: one ``manifest.json`` per run plus CSV tables
(schemas documented in the README).  Exit codes: 0 success, 1 configuration
or usage error, 2 solver non-convergence, a problem outside the solver's
envelope or a simulated orbit that blows up, 3 verification failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
import time
from dataclasses import replace
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from .cell import ContinuationError, SolverOptions, continuation_solve
from .config import (
    ConfigError,
    RunConfig,
    config_items,
    field_error,
    load_config,
    model_from_config,
    oracle_P_values,
    p_vectors,
    validate_config,
)
from .fields import TorusGrid
from .measures import default_speed_threshold, gibbs_measure, measure_stats
from .oracle1d import oracle_table, potential_from_model
from .swingsim import (NonFiniteStateError, compare_with_homogenization, integrate_swing,
                       rotation_number)
from .verify import run_checks

OUT_ENV_VAR = "WEAKKAM_OUT"


# manifest helpers -----------------------------------------------------------

def _versions() -> dict:
    import scipy
    return {
        "weakkam": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def manifest_fingerprint(manifest: dict) -> dict:
    """Manifest minus wall-clock and environment fields; the fingerprint
    is byte-reproducible for identical (config, seed)."""
    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items()
                    if k not in ("wall_time_s", "versions")}
        if isinstance(obj, list):
            return [strip(x) for x in obj]
        return obj
    return strip(manifest)


def _solve_record(sol, stats=None, sigma_dump=None) -> dict:
    rec = {
        "P": [float(p) for p in sol.P],
        "k": sol.k,
        "tau": sol.tau,
        "Hbar_k": sol.Hbar_k,
        "grad_norm": sol.grad_norm,
        "el_residual": sol.el_residual,
        "iterations": sol.iterations,
        "sup_Dxu": sol.sup_Dxu,
        "converged": sol.converged,
        "status": sol.status,
        "warnings": list(sol.warnings),
        "fiber_values": np.asarray(sol.fiber_values).ravel().tolist(),
        "wall_time_s": sol.wall_time_s,
    }
    if stats is not None:
        rec["measure"] = {
            "Q": [float(q) for q in stats.Q],
            "energy_mean": stats.energy_mean,
            "energy_var": stats.energy_var,
            "tail_mass": stats.tail_mass,
            "tail_threshold": stats.tail_threshold,
        }
    if sigma_dump is not None:
        rec["sigma"] = sigma_dump
    return rec


def _write_manifest(out_dir: Path, manifest: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "manifest.json"
    # one write of the whole text: json.dump would stream many small writes
    path.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return path


def _write_csv(path: Path, header: list, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


def _hbar_table(records, n: int) -> tuple[list, list]:
    """Header and rows of the Hbar table of solve records: one row (P, k,
    hbar) each, P in the column ``P`` when n = 1, else in ``P_0..P_{n-1}``."""
    header = (["P"] if n == 1 else [f"P_{i}" for i in range(n)]) + ["k", "hbar"]
    return header, [(*r["P"], r["k"], r["Hbar_k"]) for r in records]


def _tables(manifest: dict) -> dict:
    """``{CSV file name: (header, rows)}`` of the oracle table and the
    rotation comparison a manifest holds."""
    tables = {}
    if manifest.get("oracle_table"):
        tables["oracle_table.csv"] = (["P", "hbar"], [list(r) for r in manifest["oracle_table"]])
    if manifest.get("comparison"):
        tables["rotation_comparison.csv"] = (
            ["P", "rotation_measured", "rotation_predicted", "gap"],
            [(r["P"], r["rotation_measured"], r["rotation_predicted"], r["gap"])
             for r in manifest["comparison"]])
    return tables


def _write_tables(out_dir: Path, tables: dict) -> None:
    for name, (header, rows) in tables.items():
        _write_csv(out_dir / name, header, rows)


# subcommands ----------------------------------------------------------------

def _sigma_dump(measure) -> dict:
    x, phi = measure.sigma.grid.meshes()
    coords = [c.ravel().tolist() for c in x] + [c.ravel().tolist() for c in phi]
    return {"coords": coords, "density": measure.sigma.values.ravel().tolist()}


def _run_one_P(cfg: RunConfig, P):
    """Continuation schedule at one P on the config's model, grid and
    tolerances; returns (records, error_message)."""
    model = model_from_config(cfg)
    grid = TorusGrid(n=model.n, m=model.m, N_x=cfg.N_x, N_phi=cfg.N_phi,
                     diff_mode=cfg.diff_mode)
    opts = SolverOptions(gtol=cfg.gtol, max_iter=cfg.max_iter)
    records = []
    try:
        sols = continuation_solve(model, P, cfg.k_schedule, cfg.tau_steps, grid, opts)
    except ContinuationError as exc:
        for sol in exc.partial:
            records.append(_solve_record(sol))
        return records, str(exc)
    for sol in sols:
        measure = gibbs_measure(sol)
        stats = measure_stats(measure, speed_threshold=default_speed_threshold(measure))
        dump = _sigma_dump(measure) if cfg.dump_sigma else None
        records.append(_solve_record(sol, stats, dump))
    return records, None


def cmd_cell(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
    P_list = p_vectors(cfg)
    if len(P_list) != 1:
        raise field_error("P", "the cell command takes exactly one P")
    n, m = cfg.model_n, cfg.model_m         # model_from_config holds them to the model's
    t0 = time.perf_counter()
    records, error = _run_one_P(cfg, P_list[0])
    manifest = {
        "command": "cell",
        "config": config_items(cfg),
        "versions": _versions(),
        "solves": records,
        "error": error,
        "wall_time_s": time.perf_counter() - t0,
    }
    _write_manifest(out_dir, manifest)
    _write_csv(out_dir / "hbar_table.csv", *_hbar_table(records, n))
    if cfg.dump_sigma:
        for r in records:
            if "sigma" in r:
                cols = r["sigma"]["coords"]
                rows = zip(*cols, r["sigma"]["density"])
                names = [f"x_{i}" for i in range(n)] + \
                        [f"phi_{l}" for l in range(m)] + ["sigma"]
                _write_csv(out_dir / f"sigma_k{r['k']:g}.csv", names, rows)
    return (2 if error else 0), manifest


def cmd_sweep(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
    P_list = p_vectors(cfg)
    if len(P_list) < 3:
        raise field_error("P", "a sweep needs at least 3 values")
    P_sorted = sorted(P_list, key=tuple)
    run = partial(_run_one_P, cfg)
    # one worker per P up to one per core; a single worker runs in-process,
    # where a pool would only add a fork
    workers = min(len(P_sorted), os.cpu_count() or 1)
    t0 = time.perf_counter()
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, P_sorted))
    else:
        results = list(map(run, P_sorted))

    solves, failures = [], []
    for p, (records, error) in zip(P_sorted, results):
        solves.extend(records)
        if error:
            failures.append({"P": p.tolist(), "error": error})

    # convexity of the largest-k column on a 1-D uniform P grid
    convexity = None
    k_max = float(cfg.k_schedule[-1])
    if all(p.size == 1 for p in P_sorted):
        ps = np.array([float(p[0]) for p in P_sorted])
        hs = np.array([next((r["Hbar_k"] for r in records if r["k"] == k_max), np.nan)
                       for (records, _e) in results])
        good = np.isfinite(hs)
        if good.all() and len(ps) >= 3 and np.allclose(np.diff(ps), ps[1] - ps[0]):
            second = hs[:-2] - 2.0 * hs[1:-1] + hs[2:]
            convexity = {"k": k_max, "max_violation": float(max(0.0, -second.min()))}

    manifest = {
        "command": "sweep",
        "config": config_items(cfg),
        "versions": _versions(),
        "solves": solves,
        "failures": failures,
        "sweep_convexity": convexity,
        "wall_time_s": time.perf_counter() - t0,
    }
    _write_manifest(out_dir, manifest)
    _write_csv(out_dir / "hbar_table.csv", *_hbar_table(solves, P_sorted[0].size))
    return (2 if failures else 0), manifest


def _oracle_potential(model):
    try:
        return potential_from_model(model)
    except ValueError as exc:
        raise ConfigError(f"model unsuitable for the 1-D oracle: {exc}") from None


def cmd_oracle(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
    pot = _oracle_potential(model_from_config(cfg))
    t0 = time.perf_counter()
    table = oracle_table(pot, oracle_P_values(cfg))
    manifest = {
        "command": "oracle",
        "config": config_items(cfg),
        "versions": _versions(),
        "oracle_table": [[float(p), float(h)] for p, h in table],
        "wall_time_s": time.perf_counter() - t0,
    }
    _write_manifest(out_dir, manifest)
    _write_tables(out_dir, _tables(manifest))
    return 0, manifest


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
    model = model_from_config(cfg)
    for name in ("sim_x0", "sim_y0"):
        value = getattr(cfg, name)
        try:
            ok = np.asarray(value, dtype=float).shape == (model.n,)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            plural = "s" if model.n > 1 else ""
            raise field_error(name, f"expected {model.n} number{plural}, got {value!r}")
    t0 = time.perf_counter()
    # a model the comparison cannot take is a configuration error before any step
    pot = _oracle_potential(model) if cfg.sim_compare else None
    traj = integrate_swing(model, cfg.sim_x0, cfg.sim_y0, cfg.sim_T, cfg.sim_dt,
                           record_every=cfg.sim_record_every)
    rot = rotation_number(traj, cfg.sim_burn_in)
    header = (["t"] + [f"x_{i}" for i in range(model.n)]
              + [f"y_{i}" for i in range(model.n)]
              + (["energy"] if traj.energy is not None else []))
    columns = [traj.times, traj.x, traj.y] + ([traj.energy] if traj.energy is not None else [])
    _write_csv(out_dir / "trajectory.csv", header, np.column_stack(columns).tolist())

    comparison = None
    if cfg.sim_compare:
        comparison = compare_with_homogenization(
            model, oracle_table(pot, oracle_P_values(cfg)), samples=cfg.sim_samples,
            T=cfg.sim_T, dt=cfg.sim_dt, burn_in=cfg.sim_burn_in, pot=pot)

    drift = None
    if traj.energy is not None and abs(traj.energy[0]) > 0:
        drift = float(np.max(np.abs(traj.energy - traj.energy[0]))
                      / abs(traj.energy[0]))
    manifest = {
        "command": "simulate",
        "config": config_items(cfg),
        "versions": _versions(),
        "rotation_estimate": [float(r) for r in traj.rotation_estimate],
        "rotation_lsq": [float(r) for r in rot],
        "energy_drift": drift,
        "samples": len(traj.times),
        "trajectory_file": "trajectory.csv",
        "comparison": comparison,
        "wall_time_s": time.perf_counter() - t0,
    }
    _write_manifest(out_dir, manifest)
    _write_tables(out_dir, _tables(manifest))
    return 0, manifest


def cmd_verify(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
    t0 = time.perf_counter()
    results = run_checks(cfg)
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} invariants passed")
    manifest = {
        "command": "verify",
        "config": config_items(cfg),
        "versions": _versions(),
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                   for r in results],
        "wall_time_s": time.perf_counter() - t0,
    }
    _write_manifest(out_dir, manifest)
    return (3 if n_fail else 0), manifest


def cmd_report(manifest_path: Path, out_dir: Path) -> tuple[int, dict]:
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read manifest {manifest_path}: {exc}") from None

    # every table is built before the first is written, so a file that is not
    # a weakkam manifest is refused with no output
    try:
        tables = _tables(manifest)
        solves = manifest.get("solves") or []
        if solves:
            n = len(solves[0]["P"])
            header, rows = _hbar_table(solves, n)
            rows.sort()
            tables["Hbar_vs_k.csv"] = header, rows
            tables["Hbar_vs_P.csv"] = header, sorted(rows, key=lambda row: (row[n], row[:n]))
            dumped = [r for r in solves if "sigma" in r]
            if dumped:
                best = max(dumped, key=lambda r: r["k"])
                cols = best["sigma"]["coords"]
                tables["sigma_profile.csv"] = ([f"c_{i}" for i in range(len(cols))] + ["sigma"],
                                               list(zip(*cols, best["sigma"]["density"])))
    except (AttributeError, IndexError, KeyError, TypeError) as exc:
        raise ConfigError(f"{manifest_path} is not a weakkam manifest: "
                          f"{type(exc).__name__}: {exc}") from None
    _write_tables(out_dir, tables)
    return 0, manifest


# entry point ----------------------------------------------------------------

# flags that override the config field of the same name, with their argparse settings
_OVERRIDES = {
    "seed": dict(type=int, help="seed for randomized checks"),
    "dump_sigma": dict(action="store_const", const=True,
                       help="dump Gibbs densities into the manifest and CSVs"),
}


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on any other configuration error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    returns a fresh namespace on every call, so ``main`` can reuse it.
    Each subcommand takes only the overriding flags it reads."""
    parser = _Parser(
        prog="weakkam",
        description="Effective Hamiltonians, correctors and minimal-measure "
                    "diagnostics on the torus; swing-equation simulation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags, help_ in [
        ("cell", ["dump_sigma"], "continuation solve at a single P with full diagnostics"),
        ("sweep", ["dump_sigma"], "parallel cell solves over a list of P values"),
        ("oracle", [], "1-D effective Hamiltonian table by quadrature"),
        ("simulate", [], "integrate the swing equation and extract rotations"),
        ("verify", ["seed"], "run every module invariant suite"),
        ("report", [], "extract plot-ready CSV tables from a manifest"),
    ]:
        p = sub.add_parser(name, help=help_)
        if name == "report":
            p.add_argument("manifest", type=Path, help="path to manifest.json")
        else:
            p.add_argument("--config", type=Path, default=None,
                           help="run configuration file (defaults used if omitted)")
        p.add_argument("--out", type=Path, default=None,
                       help=f"output directory (overrides config and ${OUT_ENV_VAR})")
        for flag in flags:
            p.add_argument("--" + flag.replace("_", "-"), **_OVERRIDES[flag])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = getattr(args, "config", None)      # report reads a manifest instead
        cfg = RunConfig() if config is None else load_config(config)
        overrides = {name: value for name in _OVERRIDES
                     if (value := getattr(args, name, None)) is not None}
        if overrides:
            cfg = replace(cfg, **overrides)
            validate_config(cfg, "command line")
        out_dir = args.out or Path(os.environ.get(OUT_ENV_VAR) or cfg.out)

        if args.command == "report":
            code, _ = cmd_report(args.manifest, out_dir)
        else:
            try:
                code, _ = {
                    "cell": cmd_cell,
                    "sweep": cmd_sweep,
                    "oracle": cmd_oracle,
                    "simulate": cmd_simulate,
                    "verify": cmd_verify,
                }[args.command](cfg, out_dir)
            except ConfigError as exc:      # name the file, as validate_config does
                raise exc if config is None else ConfigError(f"{config}: {exc}") from None
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NonFiniteStateError as exc:
        print(f"simulation blew up: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:           # a problem the solver refuses up front
        print(f"problem outside the solver's envelope: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
