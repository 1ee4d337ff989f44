"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks three things:

1. The tracer wraps every layer entry point it names and `restore`
   puts back the very same objects, leaving no wrapper behind.
2. Every workload, run untraced at its tiny size, passes every output
   check; its worker processes find no wrapper installed.
3. Every workload, run traced at its tiny size (two traced passes and
   one untraced), passes every check, restores every attribute, repeats
   every count exactly, and writes artifacts byte-identical to the
   untraced pass.

Exits 0 when all hold and prints each failure otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

EXPECTED_WRAPPERS = (
    "sloshspec.cli.main",
    "sloshspec.geometry.mesh.generate_mesh",
    "sloshspec.geometry.mesh.Delaunay",
    "sloshspec.fem_steklov.generate_mesh",
    "sloshspec.fem_steklov.dtn_matrix",
    "sloshspec.harness.solve_steklov",
    "sloshspec.model_solutions.peters.exp_neg_I_continued",
    "scipy.sparse.linalg.splu",
    "scipy.linalg.eigh",
    "PetersEvaluator.__init__",
)


def check_restore():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import sloshspec.cli  # noqa: F401

    import tracing

    def snapshot():
        return {
            (id(owner), attribute): value
            for owner in tracing.traced_owners()
            for attribute, value in list(vars(owner).items())
        }

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    installed = tracing.wrapped_attributes()
    tracer.restore()
    after = snapshot()
    failures = [f"tracer did not wrap {name}" for name in EXPECTED_WRAPPERS if name not in installed]
    failures += [f"left wrapped: {name}" for name in tracing.wrapped_attributes()]
    changed = [key for key in before if after.get(key) is not before[key]]
    failures += [f"attribute not restored to the original object: {key[1]}" for key in changed]
    return failures


def run_workload(workload, trace):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
        "--seconds", "0", "--trace", str(trace), "--size", "tiny",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    label = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if report["correct"] and report["failed"] == 0:
        return []
    return [f"{label}: {report['failed']}/{report['attempted']} failed\n{proc.stderr[-2000:]}"]


def main():
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    failures = check_restore()
    print(f"tracer install/restore: {'ok' if not failures else 'FAILED'}", flush=True)
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = run_workload(workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            failures += found
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
