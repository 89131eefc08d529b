"""One benchmark child process: set up a workload, run it, check it, write a result file.

run.py starts this script in a fresh interpreter for every measured run
and every set-up probe:

    python3 perfbench/child.py --workload NAME --spawned T0 --result FILE
                               [--setup-only] [--trace]

``--spawned`` is the parent's ``time.monotonic()`` just before the
spawn (CLOCK_MONOTONIC is system-wide on Linux), so ``setup_s`` covers
interpreter start, the numpy/scipy/voltmark imports and the workload's
config or model construction, up to the first call into voltmark compute.
"""

import argparse
import time

_ARGS = argparse.ArgumentParser(description=__doc__)
_ARGS.add_argument("--workload", required=True)
_ARGS.add_argument("--spawned", type=float, required=True)
_ARGS.add_argument("--result", required=True)
_ARGS.add_argument("--setup-only", action="store_true")
_ARGS.add_argument("--trace", action="store_true")


def _blas_record() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def main() -> int:
    args = _ARGS.parse_args()

    import json
    import os
    import traceback

    import numpy
    import scipy

    import voltmark
    import workloads

    work_dir = os.path.dirname(os.path.abspath(args.result))
    expected_src = os.path.join(os.getcwd(), "src", "voltmark")
    if os.path.dirname(os.path.abspath(voltmark.__file__)) != expected_src:
        raise SystemExit(f"voltmark imported from {voltmark.__file__}, not from {expected_src}")

    workload = workloads.WORKLOADS[args.workload](work_dir)
    setup_s = time.monotonic() - args.spawned
    result = {
        "setup_s": setup_s,
        "path_steps": workload.path_steps,
        "mc_seed": workloads.MC_SEED,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                     "blas": _blas_record(), "voltmark": voltmark.__version__},
    }
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            per_call_s = Tracer.calibrate()
            tracer = Tracer(f"{args.workload}-pid{os.getpid()}")
            tracer.install()
        t0 = time.monotonic()
        try:
            outcome = workload.run()
            checks = outcome.gates + workloads.compare_reference(args.workload, outcome.values)
            result["values"] = outcome.values
        except Exception:
            checks = [("run", False, traceback.format_exc())]
        result["wall_s"] = time.monotonic() - t0
        result["checks"] = checks
        result["passed"] = all(ok for _, ok, _ in checks)
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(result["wall_s"], per_call_s)
            tracer.write_spans(os.path.splitext(args.result)[0] + ".spans.jsonl")
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if result.get("passed", True) else 1


if __name__ == "__main__":
    raise SystemExit(main())
