"""voltmark benchmark: run one workload in fresh child processes and print its metrics.

    python3 perfbench/run.py --workload {full,frontier_t5,refine_t5} --seed N
                             --seconds S --trace {0,1}

Run from the root of a voltmark checkout; the program is imported from
its ``src/``.  With ``--trace 0`` the command starts SETUP_PROBES
set-up-only children, then runs the workload in a fresh child until
``--seconds`` have passed (at least once), and reports the end-to-end
metrics as medians over the children.  With ``--trace 1`` it runs the
workload once under the outside-in tracer and reports the per-layer
metrics.  Human-readable lines and the run record come first; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Scratch files go to ``.bench_work/``.
See perfbench/README.md for the metric definitions.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("full", "frontier_t5", "refine_t5")
SETUP_PROBES = 2
BLAS_THREADS = 1         # one BLAS thread is steadier on a shared host; see README.md
DEADLINE_S = 170.0       # every child is stopped before the run exceeds this

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "path_steps_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("unique_ratio"):
        return "ratio"
    if name == "cli.bytes_written":
        return "B"
    return "count"


def src_record(root: str) -> dict:
    """Line count and content hash of src/ (the checkout need not be a git repository)."""
    lines = 0
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, "src")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(name.encode() + b"\0" + data)
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def git_sha(root: str):
    """HEAD of the checkout when it is itself a git work tree, else None."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def run_child(args, env, work, tag: str, deadline: float, extra=()):
    """Start one child, wait for it with os.wait4 and return (result, exit code, peak RSS MB)."""
    result_path = os.path.join(work, f"{tag}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--result", result_path, *extra]
    with open(os.path.join(work, f"{tag}.log"), "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], stdout=log,
                                stderr=subprocess.STDOUT, env=env)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak_rss_mb = usage.ru_maxrss / 1024.0     # this child's own rusage (KB on Linux)
    result = None
    if os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    if proc.returncode != 0:
        with open(os.path.join(work, f"{tag}.log"), encoding="utf-8") as fh:
            sys.stderr.write(f"child {tag} exited {proc.returncode}:\n{fh.read()[-4000:]}\n")
    return result, proc.returncode, peak_rss_mb


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7041)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    deadline = started + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "voltmark", "__init__.py")):
        print(f"no voltmark sources under {os.path.join(root, 'src')}; "
              "run from the root of a voltmark checkout", file=sys.stderr)
        return 2
    work = os.path.join(root, ".bench_work")
    os.makedirs(work, exist_ok=True)

    threads = str(BLAS_THREADS)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0", VOLTMARK_THREADS=threads, OMP_NUM_THREADS=threads,
               OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    base = f"{args.workload}-seed{args.seed}"

    children = []          # (result, exit code, peak RSS MB) of every workload child
    setup_samples = []
    if args.trace:
        children.append(run_child(args, env, work, f"{base}-trace", deadline, ["--trace"]))
    else:
        for k in range(SETUP_PROBES):
            result, code, _ = run_child(args, env, work, f"{base}-setup{k}", deadline,
                                        ["--setup-only"])
            if code != 0 or result is None:
                print("set-up probe failed", file=sys.stderr)
                return 1
            setup_samples.append(result["setup_s"])
        measure_start = time.monotonic()
        while True:
            rep_start = time.monotonic()
            children.append(run_child(args, env, work, f"{base}-rep{len(children)}", deadline))
            now = time.monotonic()
            if now - measure_start >= args.seconds or now + (now - rep_start) > deadline:
                break

    finished = [(r, code, rss) for r, code, rss in children if r is not None and "wall_s" in r]
    if not finished:
        print("no workload child finished", file=sys.stderr)
        return 1
    failed = sum(1 for r, code, _ in children
                 if r is None or code != 0 or not r.get("passed", False))
    attempted = len(children)
    first = finished[0][0]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": git_sha(root), **src_record(root),
        "nproc": os.cpu_count(), "blas_threads": int(threads),
        "versions": first["versions"], "path_steps": first["path_steps"],
        "mc_seed": first["mc_seed"],
        "children": attempted,
    }
    failed_checks = [(name, detail) for r, _, _ in finished
                     for name, ok, detail in r["checks"] if not ok]

    walls = [r["wall_s"] for r, _, _ in finished]
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in first["layers"].items()}
    else:
        setup_samples += [r["setup_s"] for r, _, _ in finished]
        wall = statistics.median(walls)
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup_samples),
            "path_steps_per_s": first["path_steps"] / wall,
            "peak_rss_mb": statistics.median(rss for _, _, rss in finished),
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}

    print(f"record: {json.dumps(record, sort_keys=True)}")
    for name, detail in failed_checks:
        print(f"FAILED CHECK {name}: {detail}")
    print(f"failed_frac = {failed / attempted:.4g} ({failed} of {attempted} runs)")
    print(f"wall_s per child: {', '.join(f'{w:.3f}' for w in walls)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    with open(os.path.join(work, f"{base}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "metrics": metrics, "walls": walls,
                   "setup_samples": setup_samples, "failed_checks": failed_checks}, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
