"""Run every workload and print its metrics by name, with units.

    python3 perfbench/report.py [--seeds N] [--trace 0|1]

Each (workload, seed) is one `run.py` invocation in its own process.
For every metric the table shows the median over seeds and, with four
or more seeds, the quartile spread (Q3 - Q1) / median, the figure the
bounds in BENCHMARK.json are checked against.  `failed_frac` is failed
over attempted operations, summed over the runs.  Runs last
BENCHMARK.json's run_seconds; by default every workload runs, seed 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [
            run_once(workload, seed, bench["run_seconds"], args.trace)
            for seed in range(1, args.seeds + 1)
        ]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs, correct={correct}, "
              f"failed_frac={failed / attempted!r} ({failed}/{attempted})")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            note = ""
            if s is not None:
                note = f"  spread {s:.4f}"
                if name in bounds:
                    note += f" (bound {bounds[name]}, {'ok' if s < bounds[name] else 'TOO WIDE'})"
            print(f"  {name:44s} {statistics.median(values)!r} {first['unit']}{note}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
