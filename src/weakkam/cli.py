"""Command-line orchestration: cell solves, P-sweeps, oracle tables,
simulation, verification and report extraction.

Outputs are machine-readable: one ``manifest.json`` per run plus CSV tables
(schemas documented in the README).  Exit codes: 0 success, 1 configuration
error, 2 solver non-convergence, a problem outside the solver's envelope or a
simulated orbit that blows up, 3 verification failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .cell import ContinuationError, SolverOptions, continuation_solve
from .config import (
    ConfigError,
    RunConfig,
    load_config,
    model_from_config,
    p_vectors,
    parse_config,
    serialize_config,
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
    """Manifest minus wall-clock, environment and worker-count fields; the
    fingerprint is byte-reproducible for identical (config, seed)."""
    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items()
                    if k not in ("wall_time_s", "versions", "jobs")}
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
            "closedness": stats.closedness,
            "tail_mass": stats.tail_mass,
            "tail_threshold": stats.tail_threshold,
            "Lbar_Q": stats.Lbar_Q,
            "duality_gap": stats.duality_gap,
        }
    if sigma_dump is not None:
        rec["sigma"] = sigma_dump
    return rec


def _write_manifest(out_dir: Path, manifest: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return path


def _write_csv(path: Path, header: list, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


def _grid(cfg: RunConfig, model) -> TorusGrid:
    return TorusGrid(n=model.n, m=model.m, N_x=cfg.N_x, N_phi=cfg.N_phi,
                     diff_mode=cfg.diff_mode)


def _opts(cfg: RunConfig) -> SolverOptions:
    return SolverOptions(gtol=cfg.gtol, rtol=cfg.rtol, max_iter=cfg.max_iter)


def _config_echo(cfg: RunConfig) -> dict:
    return {line.split(" = ")[0]: json.loads(line.split(" = ", 1)[1])
            for line in serialize_config(cfg).strip().splitlines()}


# subcommands ----------------------------------------------------------------

def _sigma_dump(measure) -> dict:
    x, phi = measure.sigma.grid.meshes()
    coords = [c.ravel().tolist() for c in x] + [c.ravel().tolist() for c in phi]
    return {"coords": coords, "density": measure.sigma.values.ravel().tolist()}


def _run_one_P(cfg: RunConfig, model, grid, opts, P):
    """Continuation schedule at one P; returns (records, error_message)."""
    records = []
    try:
        sols = continuation_solve(model, P, cfg.k_schedule, cfg.tau_steps, grid, opts)
    except ContinuationError as exc:
        for sol in exc.partial:
            records.append(_solve_record(sol))
        return records, f"stage (tau={exc.tau:g}, k={exc.k:g}): {exc}"
    for sol in sols:
        measure = gibbs_measure(sol)
        stats = measure_stats(measure, speed_threshold=default_speed_threshold(measure))
        dump = _sigma_dump(measure) if cfg.dump_sigma else None
        records.append(_solve_record(sol, stats, dump))
    return records, None


def cmd_cell(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
    P_list = p_vectors(cfg)
    if len(P_list) != 1:
        raise ConfigError("field 'P': the cell command takes exactly one P")
    model = model_from_config(cfg)
    grid = _grid(cfg, model)
    t0 = time.perf_counter()
    records, error = _run_one_P(cfg, model, grid, _opts(cfg), P_list[0])
    manifest = {
        "command": "cell",
        "config": _config_echo(cfg),
        "versions": _versions(),
        "solves": records,
        "error": error,
        "wall_time_s": time.perf_counter() - t0,
    }
    _write_manifest(out_dir, manifest)
    _write_csv(out_dir / "hbar_table.csv", ["P", "k", "hbar"],
               [(r["P"][0] if len(r["P"]) == 1 else tuple(r["P"]), r["k"], r["Hbar_k"])
                for r in records])
    if cfg.dump_sigma:
        for r in records:
            if "sigma" in r:
                cols = r["sigma"]["coords"]
                rows = zip(*cols, r["sigma"]["density"])
                names = [f"x_{i}" for i in range(model.n)] + \
                        [f"phi_{l}" for l in range(model.m)] + ["sigma"]
                _write_csv(out_dir / f"sigma_k{r['k']:g}.csv", names, rows)
    return (2 if error else 0), manifest


def _sweep_worker(args):
    text, P = args
    cfg = parse_config(text)
    model = model_from_config(cfg)
    grid = _grid(cfg, model)
    records, error = _run_one_P(cfg, model, grid, _opts(cfg), np.asarray(P))
    return records, error


def cmd_sweep(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
    P_list = p_vectors(cfg)
    if len(P_list) < 3:
        raise ConfigError("field 'P': a sweep needs at least 3 values")
    P_sorted = sorted(P_list, key=tuple)
    text = serialize_config(cfg)
    tasks = [(text, p.tolist()) for p in P_sorted]
    t0 = time.perf_counter()
    if cfg.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_sweep_worker, tasks))
    else:
        results = [_sweep_worker(t) for t in tasks]

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
        "config": _config_echo(cfg),
        "versions": _versions(),
        "solves": solves,
        "failures": failures,
        "sweep_convexity": convexity,
        "wall_time_s": time.perf_counter() - t0,
    }
    _write_manifest(out_dir, manifest)
    _write_csv(out_dir / "hbar_table.csv", ["P", "k", "hbar"],
               [(r["P"][0] if len(r["P"]) == 1 else tuple(r["P"]), r["k"], r["Hbar_k"])
                for r in solves])
    return (2 if failures else 0), manifest


def _oracle_potential(cfg: RunConfig):
    try:
        return potential_from_model(model_from_config(cfg))
    except ValueError as exc:
        raise ConfigError(f"model unsuitable for the 1-D oracle: {exc}") from None


def cmd_oracle(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
    pot = _oracle_potential(cfg)
    start, stop, step = cfg.oracle_P
    ps = np.arange(start, stop + 0.5 * step, step)
    t0 = time.perf_counter()
    table = oracle_table(pot, ps)
    manifest = {
        "command": "oracle",
        "config": _config_echo(cfg),
        "versions": _versions(),
        "oracle_table": [[float(p), float(h)] for p, h in table],
        "wall_time_s": time.perf_counter() - t0,
    }
    _write_manifest(out_dir, manifest)
    _write_csv(out_dir / "oracle_table.csv", ["P", "hbar"], manifest["oracle_table"])
    return 0, manifest


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
    params = model_from_config(cfg).params
    for key, value in (("sim.x0", cfg.sim_x0), ("sim.y0", cfg.sim_y0)):
        try:
            ok = np.asarray(value, dtype=float).shape == (params.n,)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ConfigError(f"field {key!r}: expected {params.n} numbers, got {value!r}")
    t0 = time.perf_counter()
    traj = integrate_swing(params, cfg.sim_x0, cfg.sim_y0, cfg.sim_T, cfg.sim_dt,
                           record_every=cfg.sim_record_every)
    rot = rotation_number(traj, cfg.sim_burn_in)
    x_out = traj.x if cfg.unwrap else traj.wrapped_x()
    header = (["t"] + [f"x_{i}" for i in range(params.n)]
              + [f"y_{i}" for i in range(params.n)]
              + (["energy"] if traj.energy is not None else []))
    columns = [traj.times, x_out, traj.y] + ([traj.energy] if traj.energy is not None else [])
    _write_csv(out_dir / "trajectory.csv", header, np.column_stack(columns).tolist())

    comparison = None
    if cfg.sim_compare:
        pot = _oracle_potential(cfg)
        start, stop, step = cfg.oracle_P
        table = oracle_table(pot, np.arange(start, stop + 0.5 * step, step))
        comparison = compare_with_homogenization(
            params, table, samples=cfg.sim_samples, T=cfg.sim_T, dt=cfg.sim_dt,
            burn_in=cfg.sim_burn_in, pot=pot)
        _write_csv(out_dir / "rotation_comparison.csv",
                   ["P", "rotation_measured", "rotation_predicted", "gap"],
                   [(r["P"], r["rotation_measured"], r["rotation_predicted"], r["gap"])
                    for r in comparison])

    drift = None
    if traj.energy is not None and abs(traj.energy[0]) > 0:
        drift = float(np.max(np.abs(traj.energy - traj.energy[0]))
                      / abs(traj.energy[0]))
    manifest = {
        "command": "simulate",
        "config": _config_echo(cfg),
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
        "config": _config_echo(cfg),
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

    solves = manifest.get("solves") or []
    if solves:
        rows = [(p[0] if len(p) == 1 else p, k, h) for p, k, h in
                sorted((tuple(r["P"]), r["k"], r["Hbar_k"]) for r in solves)]
        _write_csv(out_dir / "Hbar_vs_k.csv", ["P", "k", "hbar"], rows)
        _write_csv(out_dir / "Hbar_vs_P.csv", ["P", "k", "hbar"],
                   sorted(rows, key=lambda row: (row[1], row[0])))
        dumped = [r for r in solves if "sigma" in r]
        if dumped:
            best = max(dumped, key=lambda r: r["k"])
            cols = best["sigma"]["coords"]
            n_coords = len(cols)
            names = [f"c_{i}" for i in range(n_coords)] + ["sigma"]
            _write_csv(out_dir / "sigma_profile.csv", names,
                       zip(*cols, best["sigma"]["density"]))
    if manifest.get("comparison"):
        _write_csv(out_dir / "rotation_comparison.csv",
                   ["P", "rotation_measured", "rotation_predicted", "gap"],
                   [(r["P"], r["rotation_measured"], r["rotation_predicted"], r["gap"])
                    for r in manifest["comparison"]])
    if manifest.get("oracle_table"):
        _write_csv(out_dir / "oracle_table.csv", ["P", "hbar"],
                   manifest["oracle_table"])
    return 0, manifest


# entry point ----------------------------------------------------------------

@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    returns a fresh namespace on every call, so ``main`` can reuse it."""
    parser = argparse.ArgumentParser(
        prog="weakkam",
        description="Effective Hamiltonians, correctors and minimal-measure "
                    "diagnostics on the torus; swing-equation simulation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in [
        ("cell", "continuation solve at a single P with full diagnostics"),
        ("sweep", "parallel cell solves over a list of P values"),
        ("oracle", "1-D effective Hamiltonian table by quadrature"),
        ("simulate", "integrate the swing equation and extract rotations"),
        ("verify", "run every module invariant suite"),
        ("report", "extract plot-ready CSV tables from a manifest"),
    ]:
        p = sub.add_parser(name, help=help_)
        if name == "report":
            p.add_argument("manifest", type=Path, help="path to manifest.json")
        else:
            p.add_argument("--config", type=Path, default=None,
                           help="run configuration file (defaults used if omitted)")
        p.add_argument("--out", type=Path, default=None,
                       help=f"output directory (overrides config and ${OUT_ENV_VAR})")
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes for sweeps (default: all cores)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for randomized checks")
        p.add_argument("--dump-sigma", action="store_true",
                       help="dump Gibbs densities into the manifest and CSVs")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            cfg = RunConfig()
        elif args.config is not None:
            cfg = load_config(args.config)
        else:
            cfg = RunConfig()
        if args.jobs is not None:
            if args.jobs < 0:
                raise ConfigError("--jobs must be >= 0 (0 = one worker per core)")
            cfg.jobs = args.jobs
        if cfg.jobs == 0:
            cfg.jobs = os.cpu_count() or 1
        if args.seed is not None:
            cfg.seed = args.seed
        if args.dump_sigma:
            cfg.dump_sigma = True
        out_dir = args.out or Path(os.environ.get(OUT_ENV_VAR) or cfg.out)
        out_dir = Path(out_dir)

        if args.command == "report":
            code, _ = cmd_report(args.manifest, out_dir)
        else:
            code, _ = {
                "cell": cmd_cell,
                "sweep": cmd_sweep,
                "oracle": cmd_oracle,
                "simulate": cmd_simulate,
                "verify": cmd_verify,
            }[args.command](cfg, out_dir)
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except ContinuationError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 2
    except NonFiniteStateError as exc:
        print(f"simulation blew up: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:           # a problem the solver refuses up front
        print(f"problem outside the solver's envelope: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
