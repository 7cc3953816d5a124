#!/usr/bin/env python3
"""The benchmark's own checks (takes a few minutes).

    python3 perfbench/selftest.py

1. Each workload's traced pass, run twice, gives identical counts.
2. The layer self times plus cli.self_s add up to the traced wall time.
3. The traced run shows the expected layer split: no exponentials on
   phase-n5; model assembly at most 5% of the traced wall time on
   table1-cell and evolve-n8 and at least 50% on phase-n5.
4. A run against a perturbed reference reports the failed operations,
   and a perturbation within the tolerance is not reported.
5. A hook whose target is missing nulls its metrics and changes neither
   the run's exit code nor its outputs.  Without the CsrExpm hook the
   kernel's matvecs are still counted, at SciPy's boundary.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table1-cell", "evolve-n8", "phase-n5")
COUNT_UNITS = ("count", "B")


def bench(*args) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_traced_passes() -> None:
    for workload in WORKLOADS:
        first, second = (bench("--workload", workload, "--seed", "0", "--seconds", "1",
                               "--trace", "1") for _ in range(2))
        m = {k: v["value"] for k, v in first["metrics"].items()}
        for name, (unit, _) in spans.METRICS.items():
            if unit in COUNT_UNITS:
                assert m[name] == second["metrics"][name]["value"], (workload, name)
        assert first["correct"] and second["correct"], workload
        parts = sum(m[k] for k in spans.SELF_TIME_METRICS)
        assert math.isclose(parts, m["trace.wall_s"], rel_tol=1e-9, abs_tol=1e-6), \
            (workload, parts, m["trace.wall_s"])
        assert m["trace.overhead_s"] is not None, workload
        share = m["model.assemble_s"] / m["trace.wall_s"]
        if workload == "phase-n5":
            assert m["kernels.exp_calls"] == 0 and share >= 0.5, (workload, m)
        else:
            assert share <= 0.05, (workload, share)
        print(f"{workload}: exp_calls={m['kernels.exp_calls']} matvecs={m['kernels.matvecs']} "
              f"solver_matvecs={m['observables.solver_matvecs']} dim={m['model.dim']} "
              f"nnz={m['model.nnz']} assemble_share={share:.3f} "
              f"overhead_s={m['trace.overhead_s']:.3f}", flush=True)


def check_perturbed_reference() -> None:
    reference = json.loads((HERE / "reference.json").read_text())
    points = reference["phase-n5"][workloads.plan("phase-n5", 0).choice]
    off, within = sorted(points)[:2]
    points[off]["magnetization"] += 2e-6
    points[within]["magnetization"] += 5e-7
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        path = Path(tmp) / "reference.json"
        path.write_text(json.dumps(reference))
        result = bench("--workload", "phase-n5", "--seed", "0", "--seconds", "1",
                       "--trace", "0", "--reference", str(path))
    reps = result["attempted"] // len(points)
    assert not result["correct"] and result["failed"] == reps, result
    assert result["metrics"]["ops_ok_frac"]["value"] < 1.0, result
    print(f"perturbed reference: {result['failed']} of {result['attempted']} operations failed")


def check_missing_hook() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import dickeqb.cli as cli

    without_apply = [h for h in spans.HOOKS if h[2] != "kernels.apply"]
    without_apply.append(("dickeqb.dynamics", "CsrExpm.no_such_method", "kernels.apply"))
    cfg = {"N": 2, "g": 0.5, "Omega": 1.0, "eta": 0.8, "t_max": 0.2, "dt": 1e-3}
    outputs = []
    metrics = []
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        (Path(tmp) / "cfg.json").write_text(json.dumps(cfg))
        for i, hooks in enumerate((None, spans.HOOKS, without_apply)):
            out = Path(tmp) / f"out{i}"
            tracer = spans.Tracer()
            if hooks is not None:
                tracer.install(hooks)
            tracer.enter("cli.main")
            try:
                code = cli.main(["evolve", "--config", str(Path(tmp) / "cfg.json"),
                                 "--out", str(out)])
            finally:
                tracer.exit()
                tracer.uninstall()
            assert code == 0
            outputs.append([(out / f).read_bytes() for f in ("trajectory.csv", "summary.json")])
            metrics.append(tracer.metrics())
    assert outputs[0] == outputs[1] == outputs[2], "tracing changed the outputs"
    full, m = metrics[1], metrics[2]
    needs_apply = [k for k, (_, needs) in spans.METRICS.items() if "kernels.apply" in needs]
    assert all(m[k] is None for k in needs_apply), m
    assert full["kernels.matvecs"] > 0, full
    for k in ("kernels.matvecs", "kernels.bytes_computed"):
        assert m[k] is not None and m[k] == full[k], (k, m[k], full[k])
    assert m["dynamics.samples"] == 21 and m["model.assemble_calls"] == 3, m
    parts = sum(m[k] for k in spans.SELF_TIME_METRICS if m[k] is not None)
    assert math.isclose(parts, m["trace.wall_s"], rel_tol=1e-9, abs_tol=1e-6)
    print(f"missing hook: {', '.join(needs_apply)} null; kernels.matvecs "
          f"{m['kernels.matvecs']} as with the hook; outputs unchanged")


def main() -> int:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    check_missing_hook()
    check_perturbed_reference()
    check_traced_passes()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
