"""Command-line front end.

Subcommands: evolve, sweep, fit, phase-diagram, convergence.  Every run is
driven by a flat JSON configuration file whose keys match the ModelParams /
PropagationConfig field names; unknown keys are a hard error so parameter
typos cannot silently fall back to defaults, and so is a value of the wrong
type (a string, a bool, or null where the field takes no None).  All
outputs are plain CSV or JSON with fixed formatting (12 significant digits,
'\n' line endings), so identical configurations produce byte-identical
files.

Exit codes: 0 success, 2 configuration or usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import fields, replace
from itertools import groupby, product
from operator import attrgetter
from pathlib import Path

from dickeqb import analysis, observables
from dickeqb.dynamics import PropagationConfig, _check_dim, propagate
from dickeqb.errors import (
    ConfigError,
    DomainError,
    NumericalError,
    ResourceError,
    SimulationError,
)
from dickeqb.model import ModelParams, static_hamiltonian

MODEL_KEYS = {f.name for f in fields(ModelParams)}
PROP_KEYS = {f.name for f in fields(PropagationConfig)}
# sweep.csv's columns: the grid axes, N innermost, then each point's maxima.
# The axes before N name a cell, whose N series sweep propagates as one batch
# and fit takes one of.
SWEEP_COLUMNS = ("g", "Omega", "eta", "N", "E_max", "P_max", "t_star_E", "t_star_P")
SWEEP_AXES = SWEEP_COLUMNS[:4]
CELL_KEYS = SWEEP_AXES[:3]
GRID_CAP_DEFAULT = 10_000
PHASE_KEYS = (MODEL_KEYS - {"Omega", "omegad", "T", "n_init"}) | {"grid_cap"}

# evolve and sweep warn on stderr when a trajectory puts more than this
# population on the top Fock level |N_ph>: the cutoff then holds weight the
# untruncated cavity would carry higher up.  It equals the convergence
# audit's threshold.  Over 18 instances at N=2..5 (eta=0.8, t_max=20) the
# audit deviation was 0.06 to 15 times the worst edge population, and every
# instance the audit failed had an edge population above 1e-5.  At N=5 the
# weak instance g=0.1, Omega=0.1 reaches 1.8e-6 (audit 4.5e-7) and
# g=0.5, Omega=1 reaches 8.0e-2 (audit 2.6e-1).  A warning is a hint, which
# can also fire on a converged run; the `convergence` command is the check.
EDGE_POPULATION_LIMIT = 1e-5


def _fmt(x) -> str:
    if isinstance(x, (int,)) and not isinstance(x, bool):
        return str(x)
    return "%.12g" % x


def _write(path: Path, text: str) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)] + [",".join(_fmt(x) for x in row) for row in rows]
    _write(path, "\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def _check_keys(cfg: dict, allowed: set, command: str) -> None:
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) for {command}: {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )


INT_KEYS = ("N", "N_ph", "n_init", "sample_stride", "max_dim", "grid_cap", "delta_ph")
TEXT_KEYS = ("coupling_mode",)
NULLABLE_KEYS = ("N_ph", "n_init", "T")  # fields that take None


def _number(key: str, value):
    """A numeric config value, checked: finite, and an integer for INT_KEYS.

    JSON true/false are rejected although Python counts them as integers.
    """
    if value is None and key in NULLABLE_KEYS:
        return None
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not math.isfinite(value)):
        raise ConfigError(f"key {key!r} must be a finite number, got {json.dumps(value)}")
    if key in INT_KEYS:
        if value != int(value):
            raise ConfigError(f"key {key!r} must be an integer, got {value!r}")
        return int(value)
    return value


def _scalars(cfg: dict, keys) -> dict:
    """``cfg``'s entries named in ``keys``, each but coupling_mode checked by
    ``_number``, in sorted order so that an error names a fixed key."""
    return {k: cfg[k] if k in TEXT_KEYS else _number(k, cfg[k])
            for k in sorted(keys & cfg.keys())}


def _model_params(cfg: dict, **overrides) -> ModelParams:
    kwargs = {**_scalars(cfg, MODEL_KEYS), **overrides}
    if "N" not in kwargs:
        raise ConfigError("config must set the atom count N")
    return ModelParams(**kwargs)


def _prop_config(cfg: dict) -> PropagationConfig:
    return PropagationConfig(**_scalars(cfg, PROP_KEYS))


def _value_list(cfg: dict, key: str, default) -> list:
    raw = cfg.get(key, default)
    if not isinstance(raw, list):
        raw = [raw]
    if not raw:
        raise ConfigError(f"key {key!r} must not be an empty list")
    values = sorted(_number(key, v) for v in raw)
    for a, b in zip(values, values[1:]):
        if a == b:
            raise ConfigError(f"key {key!r} repeats the value {json.dumps(b)}")
    return values


def _grid(cfg: dict, axes: tuple, **fixed) -> list:
    """ModelParams over the product of the sorted ``axes``, the last axis
    innermost; every other key of ``cfg``, and ``fixed``, is shared by all
    points."""
    values = [_value_list(cfg, k, [0.0]) for k in axes]
    size = math.prod(len(v) for v in values)
    grid_cap = _number("grid_cap", cfg.get("grid_cap", GRID_CAP_DEFAULT))
    if size > grid_cap:
        raise ConfigError(f"grid size {size} exceeds cap {grid_cap}")
    base = {k: v for k, v in cfg.items() if k not in axes}
    return [_model_params(base, **dict(zip(axes, point)), **fixed) for point in product(*values)]


def _out_dir(args) -> Path:
    """The --out directory, created if missing; called once the config is
    checked and before any propagation or solve."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _summarize(traj) -> dict:
    e_rec = analysis.find_max(traj, "E_b")
    p_rec = analysis.find_max(traj, "P_b")
    return {
        "E_max": e_rec.value,
        "t_star_E": e_rec.t_star,
        "P_max": p_rec.value,
        "t_star_P": p_rec.t_star,
        "final_norm": float(traj.norms[-1]),
    }


def _warn_edge_population(params: ModelParams, edge_population: float) -> None:
    if edge_population > EDGE_POPULATION_LIMIT:
        print(
            f"warning: {edge_population:.1e} of the population reaches the top Fock level "
            f"N_ph={params.photon_cutoff} (limit {EDGE_POPULATION_LIMIT:g}) at N={params.N} "
            f"g={params.g:g} Omega={params.Omega:g} eta={params.eta:g}; "
            "check the cutoff with the convergence command",
            file=sys.stderr,
        )


def cmd_evolve(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, MODEL_KEYS | PROP_KEYS, "evolve")
    params = _model_params(cfg)
    pcfg = _prop_config(cfg)
    out = _out_dir(args)
    traj = propagate(params, pcfg)
    _write_csv(out / "trajectory.csv", ["t", "E_b", "P_b", "dE_b", "Jz_mean", "norm"],
               zip(traj.times, traj.E_b, traj.P_b, traj.dE_b, traj.Jz_mean, traj.norms))
    _write_json(out / "summary.json", _summarize(traj))
    print(f"wrote {out / 'trajectory.csv'} and {out / 'summary.json'}")
    _warn_edge_population(params, traj.edge_population)
    return 0


def _sweep_cell(task):
    """Rows and edge populations of one (g, Omega, eta) cell, its N values
    propagated as one batch."""
    batch, pcfg = task
    out = []
    for params, traj in zip(batch, propagate(batch, pcfg)):
        s = _summarize(traj)
        row = tuple(getattr(params, k) if k in SWEEP_AXES else s[k] for k in SWEEP_COLUMNS)
        out.append((row, traj.edge_population))
    return out


def _run_pool(worker, tasks, jobs: int):
    """worker over tasks, in order, on at most ``jobs`` processes and never
    more processes than tasks."""
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [worker(t) for t in tasks]
    # Imported here: the pool brings in multiprocessing, which a serial run
    # never uses.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, MODEL_KEYS | PROP_KEYS | {"grid_cap"}, "sweep")
    if "N" not in cfg:
        raise ConfigError("sweep config must set N (scalar or list)")
    pcfg = _prop_config(cfg)
    points = _grid(cfg, SWEEP_AXES)
    out = _out_dir(args)
    # N is the innermost axis, so each cell's points are consecutive; the
    # cells, not --jobs, decide which points are propagated together.
    cells = [list(cell) for _, cell in groupby(points, attrgetter(*CELL_KEYS))]
    tasks = [(cell, pcfg) for cell in cells]
    results = [point for cell in _run_pool(_sweep_cell, tasks, args.jobs) for point in cell]
    rows = [row for row, _ in results]
    _write_csv(out / "sweep.csv", SWEEP_COLUMNS, rows)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} grid points)")
    # Printed here, in grid order, so the worker count cannot reorder them.
    for params, (_, edge_population) in zip(points, results):
        _warn_edge_population(params, edge_population)
    return 0


def cmd_fit(args) -> int:
    series = "P_max" if args.mode == "power" else "E_max"
    try:
        with open(args.csv) as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"N", series} <= set(reader.fieldnames):
                raise ConfigError(f"{args.csv} must contain columns N and {series}")
            cell_keys = [k for k in CELL_KEYS if k in reader.fieldnames]
            rows = [
                (float(r["N"]), float(r[series]), tuple(float(r[k]) for k in cell_keys))
                for r in reader
            ]
    except OSError as exc:
        raise ConfigError(f"cannot read {args.csv}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"non-numeric entry in {args.csv}: {exc}") from exc
    cells = sorted({r[2] for r in rows})
    if len(cells) > 1:
        names = "; ".join(
            " ".join(f"{k}={v:g}" for k, v in zip(cell_keys, cell)) for cell in cells
        )
        raise ConfigError(
            f"{args.csv} holds {len(cells)} cells ({names}); fit one cell at a time"
        )
    n_list = [r[0] for r in rows]
    y_list = [r[1] for r in rows]
    repeated = sorted({n for n in n_list if n_list.count(n) > 1})
    if repeated:
        raise ConfigError(
            f"N repeats in {args.csv} ({', '.join(f'{n:g}' for n in repeated)}); "
            "fit needs one row per N"
        )
    if args.mode == "power":
        fit = analysis.fit_power_law(n_list, y_list)
        result = {"alpha": fit.alpha, "beta": fit.beta, "r_squared": fit.r_squared}
    else:
        slope, intercept, r2 = analysis.fit_linear(n_list, y_list)
        result = {"slope": slope, "intercept": intercept, "r_squared": r2}
    out = _out_dir(args)
    _write_json(out / "fit.json", {
        **result,
        "mode": args.mode,
        "n_points": len(n_list),
        "N_list": n_list,
        series.replace("_max", "_list"): y_list,
        "params": {"source": str(args.csv), "series": series, "mode": args.mode},
    })
    echo = " ".join(f"{'r2' if k == 'r_squared' else k}={v:.6g}" for k, v in result.items())
    print(
        f"fit[{args.mode}] over N in [{min(n_list):g}, {max(n_list):g}] "
        f"({len(n_list)} points): {echo}"
    )
    return 0


def _phase_point(params):
    try:
        result = observables.ground_state(static_hamiltonian(params), params.dims)
        return (params.eta, params.g, result.magnetization, result.gap, "")
    except NumericalError as exc:
        return (params.eta, params.g, float("nan"), float("nan"), str(exc))


def cmd_phase_diagram(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, PHASE_KEYS, "phase-diagram")
    # n_init only sets the propagation's initial state; 0 is valid at any N_ph.
    tasks = _grid(cfg, ("eta", "g"), n_init=0)
    # The default max_dim of evolve, sweep and convergence, on the full
    # space the ground state is solved in, checked before any Hamiltonian
    # is assembled.
    _check_dim(tasks[0].dims.total_dim, PropagationConfig.max_dim, "total")
    out = _out_dir(args)
    results = _run_pool(_phase_point, tasks, args.jobs)
    warnings = 0
    rows = []
    for eta, g, mag, gap, err in results:
        if err:
            warnings += 1
            print(f"warning: ground state failed at eta={eta} g={g}: {err}", file=sys.stderr)
        rows.append((eta, g, mag, gap))
    _write_csv(out / "phase_diagram.csv", ["eta", "g", "magnetization", "gap"], rows)
    print(f"wrote {out / 'phase_diagram.csv'} ({len(rows)} points, {warnings} warnings)")
    return 0


def cmd_convergence(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, (MODEL_KEYS - {"N_ph"}) | PROP_KEYS | {"delta_ph"}, "convergence")
    delta_ph = _number("delta_ph", cfg.get("delta_ph", 4))
    # Also checked by analysis.convergence_check, which runs after --out exists.
    if delta_ph < 1:
        raise ConfigError(f"delta_ph must be >= 1, got {delta_ph}")
    params = _model_params(cfg)
    pcfg = _prop_config(cfg)
    out = _out_dir(args)
    checks = []
    for factor in (2, 3, 4):
        trial = replace(params, N_ph=factor * params.N)
        deviation = analysis.convergence_check(trial, delta_ph, pcfg)
        ok = deviation < analysis.CONVERGENCE_THRESHOLD
        checks.append({"N_ph": factor * params.N, "deviation": deviation, "pass": ok})
        print(f"N_ph={factor * params.N}: deviation={deviation:.3e} ({'pass' if ok else 'fail'})")
    payload = {
        "N": params.N,
        "delta_ph": delta_ph,
        "threshold": analysis.CONVERGENCE_THRESHOLD,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
    _write_json(out / "convergence.json", payload)
    print(f"wrote {out / 'convergence.json'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickeqb",
        description="Driven Dicke quantum-battery simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, jobs=False, config=True):
        p = sub.add_parser(name, help=help_text)
        if config:
            p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        if jobs:
            p.add_argument("--jobs", type=int, default=1, help="worker processes")
        p.set_defaults(func=func)
        return p

    add("evolve", cmd_evolve, "single charging trajectory -> CSV + summary JSON")
    add("sweep", cmd_sweep, "parameter-grid sweep -> per-point summary CSV", jobs=True)
    fit_p = add("fit", cmd_fit, "scaling fit of a sweep CSV -> JSON", config=False)
    fit_p.add_argument("csv", help="sweep summary CSV with N and E_max/P_max columns")
    fit_p.add_argument("--mode", choices=("power", "linear"), default="power")
    add("phase-diagram", cmd_phase_diagram,
        "ground-state magnetization over an (eta, g) grid -> CSV", jobs=True)
    add("convergence", cmd_convergence, "photon-truncation audit -> JSON report")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        return args.func(args)
    except (ConfigError, DomainError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
