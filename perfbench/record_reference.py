"""Record reference.json: outputs of every seed-independent operation.

    python3 perfbench/record_reference.py

Runs the fixed-input operations of every workload at both sizes with
the sloshspec sources of this checkout and stores their checked values,
plus the literature eigenvalue columns of the two worked examples (from
tests/_tables.py).  Re-record only when a change is meant to move the
eigenvalues; the benchmark otherwise holds every later version of the
program to these numbers.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    sys.path.insert(0, HERE)
    from _tables import EX1_TABLE, EX2_TABLE

    import workloads

    refs = {
        "literature:example_1:neumann": [row[1] for row in EX1_TABLE],
        "literature:example_1:dirichlet": [row[3] for row in EX1_TABLE],
        "literature:example_2:omega_plus": [row[1] for row in EX2_TABLE],
        "literature:example_2:omega_minus": [row[3] for row in EX2_TABLE],
    }
    workdir = os.path.join(ROOT, ".perfbench-work", "record")
    os.makedirs(workdir, exist_ok=True)
    cwd = os.getcwd()
    try:
        for workload in workloads.WORKLOADS:
            for size in workloads.SIZES:
                os.chdir(workdir)
                spec = workloads.generate_inputs(workload, 0, size)
                for op in workloads.operations(spec, refs):
                    if not op.fixed:
                        continue
                    result = op.call()
                    for key, (_, numbers) in op.values(result).items():
                        refs[f"{op.name}:{key}"] = [float(v) for v in numbers]
                    print(f"{workload}/{size}: {op.name}", flush=True)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.reference_path(), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
