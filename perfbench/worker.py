"""One pass of a workload in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --size full|tiny \
        --trace 0|1 --spawned-at T --result FILE [--setup-only]

Run from inside the pass directory; the benchmark's run.py starts it
with the BLAS pool already pinned in the environment.  The worker
imports sloshspec from the checkout's ``src/``, writes the seeded
inputs, and records ``setup_s`` as the time from `--spawned-at` (the
parent's time.monotonic() just before it started this process) until
the inputs exist.  It then runs the workload's operations once, checks
each output, and writes a JSON result: per-op wall times, problems and
artifact digests, peak RSS, and with --trace 1 the recorded spans.
"""

import argparse
import importlib.util
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_pass(ops, references, tracer):
    import workloads

    records, done, digests = [], {}, {}
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        start = time.perf_counter()
        try:
            result = op.call()
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.op = None
        record = {"name": op.name, "seconds": seconds, "problems": [], "digest": None}
        if error is not None:
            record["problems"].append(error)
        else:
            try:
                record["problems"] += workloads.check(op, result, references, done)
                record["digest"] = digests[op.name] = workloads.digest(op, result)
                if op.same_as is not None and record["digest"] != digests[op.same_as]:
                    record["problems"].append(f"artifacts differ from {op.same_as}")
            except Exception as exc:  # unreadable output fails the op
                record["problems"].append(f"check raised {type(exc).__name__}: {exc}")
            done[op.name] = result
        records.append(record)
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import sloshspec  # noqa: F401  (the import is part of set-up)
    import sloshspec.cli  # noqa: F401

    import tracing
    import workloads

    spec = workloads.generate_inputs(args.workload, args.seed, args.size)
    setup_s = time.monotonic() - args.spawned_at
    out = {"setup_s": setup_s, "environment": environment()}
    if not args.setup_only:
        references = workloads.load_references()
        ops = workloads.operations(spec, references)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        else:
            out["wrapped_before"] = tracing.wrapped_attributes()
        try:
            out["ops"] = run_pass(ops, references, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        if tracer is not None:
            out["wrapped_after_restore"] = tracing.wrapped_attributes()
            out["trace"] = {
                "spans": tracer.spans,
                "counts": [[list(key), n] for key, n in tracer.counts.items()],
                "samples": tracer.samples,
            }
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tmp = args.result + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
