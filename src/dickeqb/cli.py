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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from itertools import product
from pathlib import Path

from dickeqb import analysis, observables
from dickeqb.dynamics import PropagationConfig, propagate
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
SWEEP_AXES = ("g", "Omega", "eta", "N")
# Sweep columns that name a cell: fit takes the N series of one cell.
FIT_CELL_KEYS = ("g", "Omega", "eta")
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


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def _require_scalar(cfg: dict, key: str):
    value = cfg[key]
    if isinstance(value, (list, dict)):
        raise ConfigError(f"key {key!r} must be a scalar here, got {type(value).__name__}")
    return value


INT_KEYS = ("N", "N_ph", "n_init", "sample_stride", "max_dim", "grid_cap", "delta_ph")
TEXT_KEYS = ("coupling_mode", "method")
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


def _numbers(kwargs: dict) -> dict:
    # Sorted, so the key an error names does not depend on set iteration order.
    return {k: v if k in TEXT_KEYS else _number(k, v) for k, v in sorted(kwargs.items())}


def _model_params(cfg: dict, **overrides) -> ModelParams:
    kwargs = {k: _require_scalar(cfg, k) for k in MODEL_KEYS if k in cfg}
    kwargs.update(overrides)
    if "N" not in kwargs:
        raise ConfigError("config must set the atom count N")
    try:
        return ModelParams(**_numbers(kwargs))
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _prop_config(cfg: dict) -> PropagationConfig:
    kwargs = {k: _require_scalar(cfg, k) for k in PROP_KEYS if k in cfg}
    try:
        return PropagationConfig(**_numbers(kwargs))
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _value_list(cfg: dict, key: str, default) -> list:
    raw = cfg.get(key, default)
    if not isinstance(raw, list):
        raw = [raw]
    if not raw:
        raise ConfigError(f"key {key!r} must not be an empty list")
    return sorted(_number(key, v) for v in raw)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
    traj.to_csv(out / "trajectory.csv")
    _write_json(out / "summary.json", _summarize(traj))
    print(f"wrote {out / 'trajectory.csv'} and {out / 'summary.json'}")
    _warn_edge_population(params, traj.edge_population)
    return 0


def _sweep_point(task):
    params, pcfg = task
    traj = propagate(params, pcfg)
    s = _summarize(traj)
    row = (
        params.g,
        params.Omega,
        params.eta,
        params.N,
        s["E_max"],
        s["P_max"],
        s["t_star_E"],
        s["t_star_P"],
    )
    return row, traj.edge_population


def _run_pool(worker, tasks, jobs: int):
    if jobs <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks))


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian grid over (g, Omega, eta, N) plus the fixed remainder."""

    g: list
    Omega: list
    eta: list
    N: list
    base: dict = field(default_factory=dict)
    prop: PropagationConfig = field(default_factory=PropagationConfig)
    grid_cap: int = GRID_CAP_DEFAULT

    @classmethod
    def from_config(cls, cfg: dict) -> "SweepSpec":
        if "N" not in cfg:
            raise ConfigError("sweep config must set N (scalar or list)")
        axes = {k: _value_list(cfg, k, [0.0]) for k in SWEEP_AXES}
        base = {k: v for k, v in cfg.items() if k not in SWEEP_AXES and k != "grid_cap"}
        return cls(base=base, prop=_prop_config(base),
                   grid_cap=_number("grid_cap", cfg.get("grid_cap", GRID_CAP_DEFAULT)), **axes)

    @property
    def size(self) -> int:
        return len(self.g) * len(self.Omega) * len(self.eta) * len(self.N)

    def points(self):
        """Grid points in deterministic order: sorted axes, g-major."""
        if self.size > self.grid_cap:
            raise ConfigError(f"grid size {self.size} exceeds cap {self.grid_cap}")
        for g, om, eta, n in product(self.g, self.Omega, self.eta, self.N):
            yield _model_params(self.base, g=g, Omega=om, eta=eta, N=n)


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, MODEL_KEYS | PROP_KEYS | {"grid_cap"}, "sweep")
    spec = SweepSpec.from_config(cfg)
    tasks = [(params, spec.prop) for params in spec.points()]
    results = _run_pool(_sweep_point, tasks, args.jobs)
    rows = [row for row, _ in results]
    out = _out_dir(args)
    _write_csv(
        out / "sweep.csv",
        ["g", "Omega", "eta", "N", "E_max", "P_max", "t_star_E", "t_star_P"],
        rows,
    )
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} grid points)")
    # Printed here, in grid order, so the worker count cannot reorder them.
    for (params, _), (_, edge_population) in zip(tasks, results):
        _warn_edge_population(params, edge_population)
    return 0


def cmd_fit(args) -> int:
    series = "P_max" if args.mode == "power" else "E_max"
    try:
        with open(args.csv) as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"N", series} <= set(reader.fieldnames):
                raise ConfigError(f"{args.csv} must contain columns N and {series}")
            cell_keys = [k for k in FIT_CELL_KEYS if k in reader.fieldnames]
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
    if len(rows) < 3:
        raise ConfigError(f"fit needs at least 3 rows, got {len(rows)}")
    meta = {"source": str(args.csv), "series": series, "mode": args.mode}
    if args.mode == "power":
        fit = analysis.fit_power_law(n_list, y_list)
        payload = {
            "mode": "power",
            "alpha": fit.alpha,
            "beta": fit.beta,
            "r_squared": fit.r_squared,
            "n_points": fit.n_points,
            "N_list": n_list,
            "P_list": y_list,
            "params": meta,
        }
        echo = f"alpha={fit.alpha:.6g} beta={fit.beta:.6g} r2={fit.r_squared:.6g}"
    else:
        slope, intercept, r2 = analysis.fit_linear(n_list, y_list)
        payload = {
            "mode": "linear",
            "slope": slope,
            "intercept": intercept,
            "r_squared": r2,
            "n_points": len(n_list),
            "N_list": n_list,
            "E_list": y_list,
            "params": meta,
        }
        echo = f"slope={slope:.6g} intercept={intercept:.6g} r2={r2:.6g}"
    out = _out_dir(args)
    _write_json(out / "fit.json", payload)
    print(
        f"fit[{args.mode}] over N in [{min(n_list):g}, {max(n_list):g}] "
        f"({len(n_list)} points): {echo}"
    )
    return 0


def _phase_point(task):
    params = task
    try:
        result = observables.ground_state(static_hamiltonian(params))
        return (params.eta, params.g, result.magnetization, result.gap, "")
    except NumericalError as exc:
        return (params.eta, params.g, float("nan"), float("nan"), str(exc))


def cmd_phase_diagram(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, PHASE_KEYS, "phase-diagram")
    etas = _value_list(cfg, "eta", [0.0])
    gs = _value_list(cfg, "g", [0.0])
    grid_cap = _number("grid_cap", cfg.get("grid_cap", GRID_CAP_DEFAULT))
    if len(etas) * len(gs) > grid_cap:
        raise ConfigError(f"grid size {len(etas) * len(gs)} exceeds cap {grid_cap}")
    base_cfg = {k: v for k, v in cfg.items() if k not in ("eta", "g", "grid_cap")}
    tasks = [
        _model_params(base_cfg, eta=eta, g=g)
        for eta in etas
        for g in gs
    ]
    results = _run_pool(_phase_point, tasks, args.jobs)
    warnings = 0
    rows = []
    for eta, g, mag, gap, err in results:
        if err:
            warnings += 1
            print(f"warning: ground state failed at eta={eta} g={g}: {err}", file=sys.stderr)
        rows.append((eta, g, mag, gap))
    out = _out_dir(args)
    _write_csv(out / "phase_diagram.csv", ["eta", "g", "magnetization", "gap"], rows)
    print(f"wrote {out / 'phase_diagram.csv'} ({len(rows)} points, {warnings} warnings)")
    return 0


def cmd_convergence(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, (MODEL_KEYS - {"N_ph"}) | PROP_KEYS | {"delta_ph"}, "convergence")
    delta_ph = _number("delta_ph", cfg.get("delta_ph", 4))
    base_cfg = {k: v for k, v in cfg.items() if k != "delta_ph"}
    params = _model_params(base_cfg)
    pcfg = _prop_config(base_cfg)
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
    out = _out_dir(args)
    _write_json(out / "convergence.json", payload)
    print(f"wrote {out / 'convergence.json'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickeqb",
        description="Driven Dicke quantum-battery simulator",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="reserved; the engine is deterministic")
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
