"""sloshspec benchmark: one workload, a fixed number of passes.

    python3 perfbench/run.py --workload fem-fine|fem-coarse|model \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass over the workload's
operation list runs in a fresh worker process (perfbench/worker.py), so
every pass starts from the same state: no evaluator cache or lazy import
carries over, and its peak RSS belongs to that workload alone.  Passes
run back to back (closed loop, one client); the BLAS pool is pinned to
one thread.  The number of passes depends only on the workload and
`--seconds` (see pass_count), never on how fast the passes ran, so
every run of the same code rests on the same number of samples.

With --trace 0 the last stdout line reports the end-to-end metrics:
setup_s (median time for a fresh process to import sloshspec and write
the seeded inputs, over at least seven processes), pass_s (median pass
time), op_p50_s and op_p90_s (over all operations), and peak_rss_mb.

With --trace 1 the passes alternate traced and untraced, at least two
traced and one untraced.  Traced passes wrap the layer entry points
(see tracing.py); the report holds the per-layer metrics, each count
checked to repeat exactly between traced passes, and trace.overhead_s,
the traced minus the untraced median pass time.

Every operation's output is checked (see workloads.py), also across
passes, which must produce byte-identical artifacts traced or not.
`failed` counts the operations that raised, exited non-zero or failed a
check; failed / attempted is the workload's failure fraction.  The
benchmark exits non-zero without a report when the checkout holds no
sloshspec sources or a worker process dies.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MiB",
}
MIN_SETUP_SAMPLES = 7
# Wall time of one pass, worker start included, measured when the
# benchmark was added (2 vCPU VM); pass_count divides the run time by it.
NOMINAL_PASS_S = {"fem-fine": 25.0, "fem-coarse": 2.1, "model": 7.0}
WORKER_TIMEOUT_S = 170.0
# One BLAS thread: on two shared cores a second thread that gets
# preempted stalls every parallel region, and the dense stages here are
# too small to gain from it.
BLAS_THREADS = "1"


class BenchError(RuntimeError):
    pass


def spawn(workdir, index, args, traced=False, setup_only=False):
    """Run one worker in its own directory; return its result dict."""
    pass_dir = os.path.join(workdir, f"p{index}")
    os.makedirs(pass_dir)
    result_path = os.path.join(pass_dir, "result.json")
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        "--trace", "1" if traced else "0", "--result", result_path,
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)],
            cwd=pass_dir, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"worker failed with code {proc.returncode}:\n{proc.stderr[-3000:]}")
    with open(result_path, encoding="utf-8") as fh:
        out = json.load(fh)
    out["wall_s"] = time.monotonic() - spawned_at
    shutil.rmtree(pass_dir)
    return out


def pass_count(workload, seconds, traced):
    """Passes that fill about `seconds`: at least one, and for a traced
    run at least two traced and one untraced."""
    return max(3 if traced else 1, int(seconds // NOMINAL_PASS_S[workload]))


def run_passes(workdir, args):
    """A fixed number of passes; traced runs alternate traced/untraced."""
    passes = []
    for index in range(pass_count(args.workload, args.seconds, args.trace)):
        traced = bool(args.trace) and index % 2 == 0
        out = spawn(workdir, index, args, traced=traced)
        out["traced"] = traced
        passes.append(out)
    return passes


def pass_seconds(p):
    return sum(op["seconds"] for op in p["ops"])


def check_passes(passes):
    """Failed op count and run-level problems, across all passes."""
    failed, problems = 0, []
    first = {op["name"]: op["digest"] for op in passes[0]["ops"]}
    for i, p in enumerate(passes):
        for op in p["ops"]:
            op_problems = list(op["problems"])
            if not op_problems and op["digest"] != first.get(op["name"]):
                op_problems.append("artifacts differ from the first pass")
            if op_problems:
                failed += 1
                problems += [f"pass {i} {op['name']}: {msg}" for msg in op_problems]
        if p.get("wrapped_before"):
            problems.append(f"pass {i} untraced but wrapped: {p['wrapped_before']}")
        if p.get("wrapped_after_restore"):
            problems.append(f"pass {i} left wrappers installed: {p['wrapped_after_restore']}")
    return failed, problems


def end_to_end(workdir, args, passes):
    setups = [p["setup_s"] for p in passes]
    index = len(passes)
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(spawn(workdir, index, args, setup_only=True)["setup_s"])
        index += 1
    op_times = [op["seconds"] for p in passes for op in p["ops"]]
    return {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(pass_seconds(p) for p in passes),
        "op_p50_s": statistics.median(op_times),
        "op_p90_s": statistics.quantiles(op_times, n=10, method="inclusive")[-1],
        "peak_rss_mb": max(p["maxrss_kb"] for p in passes) / 1024.0,
    }, dict(END_TO_END)


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    metrics, mismatches = tracing.combine_passes(
        [tracing.pass_layer_metrics(p["trace"], pass_seconds(p)) for p in traced],
        [pass_seconds(p) for p in traced],
        [pass_seconds(p) for p in untraced],
    )
    problems = [f"count {name} differs between traced passes" for name in mismatches]
    return metrics, dict(tracing.PER_LAYER), problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full", help="tiny is for the self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sloshspec", "__init__.py")):
        print(f"no sloshspec sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir)
    try:
        passes = run_passes(workdir, args)
        failed, problems = check_passes(passes)
        if args.trace:
            values, units, more = per_layer(passes)
            problems += more
        else:
            values, units = end_to_end(workdir, args, passes)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    for msg in problems[:50]:
        print(f"CHECK FAILED {msg}", file=sys.stderr)
    attempted = sum(len(p["ops"]) for p in passes)
    print(json.dumps({"environment": passes[0]["environment"]}, sort_keys=True))
    print(f"{args.workload}: {len(passes)} passes, {attempted} operations, {failed} failed")
    for name, value in values.items():
        print(f"  {name:44s} {value!r} {units[name]}")
    report = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
