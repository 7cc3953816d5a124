"""One timed repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --spawned-at T --result FILE [--trace] [--commands FILE]
    python3 perfbench/worker.py --spawned-at T --result FILE --baseline

``T`` is the parent's CLOCK_MONOTONIC reading just before it started this
process, so ``setup_s`` covers interpreter start-up and ``import
dickeqb.cli``.  Without ``--commands`` the worker only measures set-up.
Otherwise it calls ``dickeqb.cli.main`` once per argument list in the
commands file, in this process, and times the calls.  With ``--baseline``
it imports only BASELINE_IMPORTS instead of dickeqb, a fixed start-up that
no change to dickeqb can move.  The result is written as JSON to
``--result``; stdout belongs to the CLI.
"""

import argparse
import importlib
import json
import resource
import sys
import time

# The third-party modules of dickeqb's import chain (NumPy and SciPy).
BASELINE_IMPORTS = ("numpy", "scipy.linalg", "scipy.sparse")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--commands")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()

    if args.baseline:
        for name in BASELINE_IMPORTS:
            importlib.import_module(name)
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
        with open(args.result, "w") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    import dickeqb.cli as cli

    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    result = {"setup_s": setup_s, "dickeqb_file": cli.__file__}
    if args.commands:
        with open(args.commands) as fh:
            commands = json.load(fh)
        result.update(run_commands(cli, commands, args.trace))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def run_commands(cli, commands, trace: bool) -> dict:
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    wall = 0.0
    exit_codes = []
    for argv in commands:
        start = time.perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            tracer.enter("cli.main")
            try:
                code = cli.main(argv)
            finally:
                tracer.exit()
        wall += time.perf_counter() - start
        exit_codes.append(code)
        if code != 0:
            break
    out = {"wall_s": wall, "exit_codes": exit_codes, "backend": kernel_backend()}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        out["missing_hooks"] = tracer.missing
    return out


def kernel_backend():
    """Backend CsrExpm picks when the CLI passes none, or None if unknown."""
    try:
        from dickeqb._kernels import default_backend
    except ImportError:
        return None
    return default_backend()


if __name__ == "__main__":
    sys.exit(main())
