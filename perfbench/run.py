#!/usr/bin/env python3
"""End-to-end benchmark of the dickeqb CLI, with a traced per-layer breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each repetition is a fresh interpreter (perfbench/worker.py) that
imports ``dickeqb.cli`` and calls ``main`` with generated configs, one worker
process and BLAS pinned to one thread.  Every output is checked against the
seed commit's outputs in perfbench/reference.json.

Repetitions run while the next one is expected to end within ``--seconds``
(at least one; with ``--trace 1`` at least one untraced and one traced).
With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over repetitions); with ``--trace 1`` untraced and traced
repetitions alternate and it reports the per-layer metrics of the traced
ones, plus the tracing overhead.  The line before it records the
environment, which a result must be compared under.

``setup_s`` is measured in set-up-only processes, each right after a
baseline process that starts the interpreter and imports only NumPy and
SciPy (worker.BASELINE_IMPORTS).  This machine's speed drifts by tens of
percent from run to run, and start-up time with it, so a run reports the
median ratio of the two times scaled by BASELINE_NOMINAL_S: the set-up time
at a fixed machine speed.  Work that dickeqb adds to or removes from its
import moves the ratio; the machine's drift moves both times alike.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKER = HERE / "worker.py"

PROBE_EVERY_S = 3.0
# Fixed scale that turns set-up ratios into seconds: about the baseline
# process's start-up time on the reference machine when it is quiet (2 vCPU
# x86-64 VM, Python 3.11, NumPy and SciPy as in the environment record).
BASELINE_NOMINAL_S = 0.30
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ops_ok_frac": "fraction"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "DICKEQB_KERNEL", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(args: list, deadline: float) -> dict:
    """Run one worker; return its result dict, or {} if it failed."""
    result_file = WORK / f"result-{os.getpid()}.json"
    result_file.unlink(missing_ok=True)
    timeout = max(1.0, deadline - time.monotonic())
    cmd = [sys.executable, str(WORKER), "--result", str(result_file), *args,
           "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    try:
        proc = subprocess.run(cmd, cwd=WORK, env=child_env(), timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker timed out after {timeout:.0f} s", file=sys.stderr)
        return {}
    if proc.returncode != 0 or not result_file.exists():
        print(f"perfbench: worker exited with {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        return {}
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    with open(result_file) as fh:
        result = json.load(fh)
    result_file.unlink()
    src = str(ROOT / "src")
    if not result.get("dickeqb_file", src).startswith(src):
        raise BenchError(f"dickeqb was imported from {result['dickeqb_file']}, not {src}")
    return result


def execute(plan, trace: bool, deadline: float):
    """Write the plan's configs, run its CLI commands in a worker, parse outputs.

    Returns the worker's result ({} if it failed) and the operations found.
    """
    cfg_dir, out_dir = WORK / "cfg", WORK / "out"
    for d in (cfg_dir, out_dir):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    for name, cfg in plan.configs.items():
        (cfg_dir / name).write_text(json.dumps(cfg))
    commands_file = cfg_dir / "commands.json"
    commands_file.write_text(json.dumps(workloads.commands(plan, cfg_dir, out_dir)))
    args = ["--commands", str(commands_file)]
    if trace:
        args.append("--trace")
    result = spawn(args, deadline)
    ok_run = bool(result) and all(code == 0 for code in result["exit_codes"])
    return result, workloads.parse(plan.workload, out_dir) if ok_run else {}


def run_rep(plan, expected: dict, trace: bool, deadline: float) -> dict:
    """One repetition, with its outputs checked against ``expected``."""
    result, observed = execute(plan, trace, deadline)
    failed = workloads.compare(observed, expected)
    if failed:
        print(f"perfbench: {len(failed)} failed operation(s): {', '.join(failed[:8])}",
              file=sys.stderr)
    result.update(trace=trace, attempted=len(expected), failed=len(failed))
    return result


def environment(backend) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: "1" for var in THREAD_VARS},
        "jobs": 1,
        "kernel_backend": backend,
    }


def median(values):
    return statistics.median(values) if values else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("table1-cell", "evolve-n8", "phase-n5"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=str(HERE / "reference.json"),
                        help="seed-commit outputs to check against")
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (ROOT / "src" / "dickeqb" / "cli.py").is_file():
        raise BenchError(f"no dickeqb sources under {ROOT / 'src'}")
    plan = workloads.plan(args.workload, args.seed)
    with open(args.reference) as fh:
        expected = workloads.reference_ops(
            args.workload, json.load(fh)[args.workload][plan.choice])
    WORK.mkdir(exist_ok=True)

    spawn([], deadline)  # warm-up: byte-compiles the sources, fills the page cache
    setup_ratios = []
    reps = []
    window_end = time.monotonic() + args.seconds
    while True:
        start = time.monotonic()
        trace = bool(args.trace) and bool(reps) and not reps[-1]["trace"]
        reps.append(run_rep(plan, expected, trace, deadline))
        if not reps[-1].get("exit_codes"):
            break  # the worker itself failed; more repetitions would too
        # Set-up probes follow each repetition in proportion to its length, so
        # they sample the machine's slower and faster spells as evenly as the
        # repetitions do.
        for _ in range(max(2, round((time.monotonic() - start) / PROBE_EVERY_S))):
            baseline = spawn(["--baseline"], deadline).get("setup_s")
            setup = spawn([], deadline).get("setup_s")
            if baseline and setup:
                setup_ratios.append(setup / baseline)
        now = time.monotonic()
        complete = not args.trace or len({r["trace"] for r in reps}) == 2
        if complete and now + (now - start) > window_end:
            break
        if now + 1.5 * (now - start) >= deadline:
            break
    plain = [r for r in reps if not r["trace"] and "wall_s" in r]
    traced = [r for r in reps if r["trace"] and "layers" in r]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if args.trace:
        metrics = {}
        for name, (unit, _) in spans.METRICS.items():
            values = [r["layers"][name] for r in traced]
            value = None if not values or None in values else median(values)
            metrics[name] = {"value": value, "unit": unit}
        overhead = None
        if traced and plain:
            overhead = (median([r["wall_s"] for r in traced])
                        - median([r["wall_s"] for r in plain]))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        values = {
            "wall_s": median([r["wall_s"] for r in plain]),
            "setup_s": BASELINE_NOMINAL_S * median(setup_ratios) if setup_ratios else None,
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            "ops_ok_frac": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    backend = next((r.get("backend") for r in reps if "backend" in r), None)
    shutil.rmtree(WORK / "cfg", ignore_errors=True)
    shutil.rmtree(WORK / "out", ignore_errors=True)
    print(json.dumps({"env": environment(backend), "repetitions": len(reps)}))
    print(json.dumps({"correct": failed == 0 and bool(plain or traced),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
