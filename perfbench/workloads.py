"""Workload inputs, output parsing and the correctness gate.

A workload turns a seed into JSON configs and the CLI argument lists that
run them.  Its outputs are parsed into operations (one trajectory, one fit
or one phase point), each a dict of numbers, and compared with the outputs
the seed commit produced for the same choice (``reference.json``).

Each seed-dependent choice is restricted to inputs that do identical work
(same exponential and matvec counts), so the spread of a metric across
seeds is machine noise and not a change of problem size.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

ATOL = 1e-6
RTOL = 1e-6

# Table 1 cells (g, eta) at Omega = 0.1 on the acceptance suite's sweep grid.
# Only the g = 2.0 half of the acceptance grid is used: its cells all take
# 7 Taylor terms per exponential, while the g = 0.1 cells take 5, which
# would make wall time depend on the seed by ~30%.
TABLE1_CELLS = ((2.0, -0.5), (2.0, -1.0), (2.0, 0.5), (2.0, 1.0))
TABLE1_NS = (1, 2, 3, 4, 5, 6)
TABLE1_GRID = {"Omega": 0.1, "t_max": 20.0, "dt": 4e-3, "sample_stride": 5}

# evolve at N = 8, Omega = 1; every point takes 5 Taylor terms per exponential.
EVOLVE_POINTS = ((0.5, 0.8), (0.5, -0.8), (0.5, 0.4), (0.5, -0.4),
                 (0.4, 0.8), (0.4, -0.8), (0.4, 0.4), (0.4, -0.4))
EVOLVE_GRID = {"N": 8, "Omega": 1.0, "t_max": 0.5, "dt": 1e-3}

# Criterion-8 grid of the acceptance suite.
PHASE_ETAS = [round(-1.0 + 0.2 * i, 10) for i in range(11)]
PHASE_GS = [0.05] + [round(0.2 * i, 10) for i in range(1, 11)]
PHASE_BASE = {"N": 5, "N_ph": 20}


def _key(*pairs) -> str:
    return ",".join(f"{name}={value:.12g}" for name, value in pairs)


@dataclass(frozen=True)
class Plan:
    """Configs to write and CLI argument lists to run, for one choice."""

    workload: str
    choice: str
    configs: dict  # file name -> JSON object
    commands: list  # argument lists; "{cfg}" and "{out}" are directories


def plan(workload: str, seed: int) -> Plan:
    if workload == "table1-cell":
        g, eta = TABLE1_CELLS[seed % len(TABLE1_CELLS)]
        cfg = {"N": list(TABLE1_NS), "g": g, "eta": eta, **TABLE1_GRID}
        return Plan(workload, _key(("g", g), ("eta", eta)), {"sweep.json": cfg}, [
            ["sweep", "--config", "{cfg}/sweep.json", "--out", "{out}", "--jobs", "1"],
            ["fit", "{out}/sweep.csv", "--mode", "power", "--out", "{out}"],
        ])
    if workload == "evolve-n8":
        g, eta = EVOLVE_POINTS[seed % len(EVOLVE_POINTS)]
        cfg = {"g": g, "eta": eta, **EVOLVE_GRID}
        return Plan(workload, _key(("g", g), ("eta", eta)), {"evolve.json": cfg}, [
            ["evolve", "--config", "{cfg}/evolve.json", "--out", "{out}"],
        ])
    if workload == "phase-n5":
        # The CLI sorts the axes, so the seed only permutes the config lists.
        rng = random.Random(seed)
        etas, gs = PHASE_ETAS[:], PHASE_GS[:]
        rng.shuffle(etas)
        rng.shuffle(gs)
        cfg = {"eta": etas, "g": gs, **PHASE_BASE}
        return Plan(workload, "criterion-8", {"phase.json": cfg}, [
            ["phase-diagram", "--config", "{cfg}/phase.json", "--out", "{out}", "--jobs", "1"],
        ])
    raise ValueError(f"unknown workload {workload!r}")


def choices(workload: str) -> list:
    """Seeds covering every choice the workload can make."""
    count = {"table1-cell": len(TABLE1_CELLS), "evolve-n8": len(EVOLVE_POINTS),
             "phase-n5": 1}[workload]
    return list(range(count))


def commands(p: Plan, cfg_dir: Path, out_dir: Path) -> list:
    return [[arg.replace("{cfg}", str(cfg_dir)).replace("{out}", str(out_dir))
             for arg in argv] for argv in p.commands]


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def parse(workload: str, out_dir: Path) -> dict:
    """Operations found in the outputs: op id -> {field: value}.

    A missing or unreadable output yields no operations, which the gate
    counts as failures.
    """
    ops = {}
    try:
        if workload == "table1-cell":
            for row in _read_csv(out_dir / "sweep.csv"):
                ops[_key(("N", row.pop("N")))] = row
            fit = _read_json(out_dir / "fit.json")
            ops["fit"] = {"alpha": fit["alpha"], "beta": fit["beta"]}
        elif workload == "evolve-n8":
            ops["trajectory"] = _read_json(out_dir / "summary.json")
        elif workload == "phase-n5":
            for row in _read_csv(out_dir / "phase_diagram.csv"):
                ops[_key(("eta", row.pop("eta")), ("g", row.pop("g")))] = row
    except (OSError, ValueError, KeyError, TypeError):
        pass
    return ops


def reference_ops(workload: str, observed: dict) -> dict:
    """The fields of each operation that the reference pins."""
    if workload == "phase-n5":
        # The gap is solver noise at parity doublets; only magnetization is pinned.
        return {op: {"magnetization": v["magnetization"]} for op, v in observed.items()}
    return observed


def _close(value, expected) -> bool:
    return (isinstance(value, (int, float)) and math.isfinite(value)
            and abs(value - expected) <= ATOL + RTOL * abs(expected))


def compare(observed: dict, expected: dict) -> list:
    """Ids of the expected operations that are missing, non-finite or off."""
    failed = []
    for op, fields in expected.items():
        got = observed.get(op)
        if (got is None
                or not all(isinstance(v, (int, float)) and math.isfinite(v) for v in got.values())
                or not all(_close(got.get(k), v) for k, v in fields.items())):
            failed.append(op)
    return failed
