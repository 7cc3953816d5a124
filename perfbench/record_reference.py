#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks every run against.

    python3 perfbench/record_reference.py

Runs every choice of every workload once through the same worker as the
benchmark and writes perfbench/reference.json.  Run it only on the commit
whose outputs define "correct"; a later commit that changes the numerics
must match the recorded outputs within the tolerance in workloads.py.
"""

import json
import sys
import time

import run
import workloads


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    reference = {}
    for workload in ("table1-cell", "evolve-n8", "phase-n5"):
        reference[workload] = {}
        for seed in workloads.choices(workload):
            plan = workloads.plan(workload, seed)
            result, observed = run.execute(plan, False, time.monotonic() + 600.0)
            if not observed:
                print(f"{workload} {plan.choice}: run failed", file=sys.stderr)
                return 1
            reference[workload][plan.choice] = workloads.reference_ops(workload, observed)
            print(f"{workload} {plan.choice}: {len(observed)} operations, "
                  f"{result['wall_s']:.2f} s", flush=True)
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
