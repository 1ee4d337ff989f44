"""Seeded inputs, operation lists and output checks of the three workloads.

A workload is a fixed list of operations.  Each operation is one CLI
invocation through ``sloshspec.cli.main(argv)`` or one call of a public
library function.  The seed only shapes the generated inputs (domain
JSON files, experiment configs, sector angles); sloshspec never sees it.

Every operation's output is checked.  Checks that need no reference run
for every seed: eigenvalues finite, ascending and non-negative, Peters
phases close to the closed-form chi, Neumann and Dirichlet SL spectra
equal away from zero, and artifacts byte-identical when an operation is
repeated.  Operations whose inputs do not depend on the seed are also
compared with the values in ``reference.json``, recorded by
``record_reference.py``; example 1 at h <= 0.02 is also held to the
literature table of criterion 2.  Example 2 is only run at h = 0.02,
too coarse for the criterion-3 table (which needs h = 0.005).
"""

import collections
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("fem-fine", "fem-coarse", "model")
SIZES = ("full", "tiny")

EIGEN_RTOL = 1e-10  # eigenvalues against the path recorded in reference.json
# Residuals and eigenvalue gaps amplify eigenvalue rounding by about
# lambda / gap (up to ~1e4 here), so they get a looser relative tolerance.
DERIVED_RTOL = 1e-5
PHASE_TOL = 0.02
SL_EQUAL_ATOL = 1e-8
LITERATURE_RTOL = 1e-2
LITERATURE_K5_RTOL = 5e-3

# Peters sectors of the criterion-7 set: (alpha, wall condition)
CRITERION_7 = tuple(
    (math.pi / d, bc) for d in (3, 4, 5) for bc in ("neumann", "dirichlet")
)


@dataclass
class CliResult:
    code: int
    stdout: str


@dataclass
class Op:
    """One timed operation and what to check about its output.

    `values(result)` returns {key: (kind, numbers)}; kind "eigen" must be
    finite, ascending and non-negative, "exact" and "derived" finite.
    With `fixed`, every key is compared with reference.json: "eigen" and
    "exact" to EIGEN_RTOL, "derived" to DERIVED_RTOL.  `extra(result,
    done)` returns further problems; `done` maps earlier op names of the
    pass to their results.  `files` lists the artifacts the op writes,
    relative to the pass directory; with `same_as`, stdout or the returned
    array and the files must match that earlier op byte for byte.
    """

    name: str
    call: object
    values: object = None
    fixed: bool = False
    extra: object = None
    files: tuple = ()
    same_as: str = None


def run_cli(argv):
    from sloshspec import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return CliResult(code, buf.getvalue())


def cli_op(name, argv, **kw):
    return Op(name, lambda: run_cli(argv), **kw)


def digest(op, result):
    """Hash of what an op produced: stdout or the returned array, and files."""
    if isinstance(result, CliResult):
        parts = [result.stdout.encode()]
    else:
        parts = [np.ascontiguousarray(result).tobytes()]
    for path in op.files:
        with open(path, "rb") as fh:
            parts.append(fh.read())
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


# -- output parsing ---------------------------------------------------------


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _column(rows, name):
    return [float(r[name]) for r in rows]


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def report_values(result):
    doc = json.loads(result.stdout)
    return {
        f"{b['label']}.lambda": ("eigen", [r["lambda"] for r in b["rows"]])
        for b in doc["blocks"]
    }


def residual_values(result):
    rows = _csv_rows(result.stdout)
    return {
        "sigma": ("exact", _column(rows, "sigma")),
        "residual": ("derived", _column(rows, "residual")),
        "nearest_gap": ("derived", _column(rows, "nearest_gap")),
    }


def table_values(path, columns):
    def values(result):
        rows = _csv_rows(_read(path))
        return {name: (kind, _column(rows, name)) for name, kind in columns.items()}

    return values


def convergence_values(result):
    rows = _csv_rows(result.stdout)
    out = {}
    for h in sorted({r["h"] for r in rows}, key=float):
        out[f"lambda@h={h}"] = ("eigen", [float(r["lambda"]) for r in rows if r["h"] == h])
    out["richardson"] = ("derived", [float(r["richardson"]) for r in rows])
    return out


def sl_values(result):
    return {"lambda": ("eigen", [r["lambda"] for r in json.loads(result.stdout)])}


# -- checks -----------------------------------------------------------------


def _sane(key, kind, values):
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return [f"{key}: empty"]
    if not np.all(np.isfinite(arr)):
        return [f"{key}: non-finite values"]
    if kind != "eigen":
        return []
    problems = []
    if np.any(arr < 0):
        problems.append(f"{key}: negative eigenvalue {arr.min()!r}")
    if np.any(np.diff(arr) < 0):
        problems.append(f"{key}: eigenvalues not ascending")
    return problems


def _close(key, values, reference, rtol):
    if len(values) != len(reference):
        return [f"{key}: {len(values)} values, reference has {len(reference)}"]
    worst = max(
        abs(v - r) / max(abs(r), 1.0) for v, r in zip(values, reference)
    )
    return [f"{key}: deviates from reference by {worst:.3e} relative"] if worst > rtol else []


def check(op, result, references, done):
    """Problems with one op's output; an empty list means it passed."""
    if isinstance(result, CliResult) and result.code != 0:
        return [f"exit code {result.code}: {result.stdout.strip()[:200]}"]
    problems = []
    values = op.values(result) if op.values else {}
    for key, (kind, numbers) in sorted(values.items()):
        problems += _sane(key, kind, numbers)
        if op.fixed:
            ref = references.get(f"{op.name}:{key}")
            if ref is None:
                problems.append(f"{key}: no reference recorded for {op.name}")
            else:
                rtol = DERIVED_RTOL if kind == "derived" else EIGEN_RTOL
                problems += _close(key, numbers, ref, rtol)
    if op.extra:
        problems += op.extra(result, done)
    return problems


def literature_example_1(references):
    """Criterion 2: the (2pi/5, pi/6) triangle against the printed table."""

    def extra(result, done):
        problems = []
        values = report_values(result)
        for label in ("neumann", "dirichlet"):
            computed = values[f"{label}.lambda"][1]
            table = references["literature:example_1:" + label]
            for k, (lam, ref) in enumerate(zip(computed, table), start=1):
                if ref == 0.0:
                    bad = abs(lam) > 1e-10
                else:
                    tol = LITERATURE_K5_RTOL if k == 5 else LITERATURE_RTOL
                    bad = abs(lam - ref) / ref > tol
                if bad:
                    problems.append(f"{label} k={k}: {lam!r} is off the literature value {ref!r}")
        return problems

    return extra


def _wrap_angle(value):
    return (value + math.pi) % (2 * math.pi) - math.pi


def peters_phase_extra(meta_path):
    def extra(result, done):
        meta = json.loads(_read(meta_path))
        err = abs(_wrap_angle(meta["fitted_phase"] - meta["closed_form_phase"]))
        return [f"fitted phase off chi by {err:.3e}"] if err >= PHASE_TOL else []

    return extra


def sl_pair_extra(neumann_op):
    """Nonzero Neumann eigenvalues equal the Dirichlet ones (criterion 4)."""

    def extra(result, done):
        neumann = [lam for lam in sl_values(done[neumann_op])["lambda"][1] if lam > 1e-8]
        dirichlet = sl_values(result)["lambda"][1]
        worst = max(abs(a - b) for a, b in zip(neumann, dirichlet))
        return [f"Neumann/Dirichlet spectra differ by {worst:.3e}"] if worst >= SL_EQUAL_ATOL else []

    return extra


def dtn_dump_extra(path):
    def extra(result, done):
        with open(path, "rb") as fh:
            raw = fh.read()
        n = int(np.frombuffer(raw[:8], dtype="<u8")[0])
        if len(raw) != 8 + 8 * n * n:
            return [f"DtN dump holds {len(raw)} bytes for n={n}"]
        D = np.frombuffer(raw[8:], dtype="<f8").reshape(n, n)
        return [] if np.array_equal(D, D.T) else ["dumped DtN matrix is not symmetric"]

    return extra


def unit_norm_extra(result, done):
    norm = float(np.linalg.norm(result))
    return [] if abs(norm - 1.0) < 1e-12 else [f"quasimode trace norm {norm!r}"]


# -- inputs and operation lists -------------------------------------------


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _triangle_with_area(alpha, beta, area):
    """Surface length giving a triangle of the requested area."""
    return math.sqrt(2.0 * area * math.sin(alpha + beta) / (math.sin(alpha) * math.sin(beta)))


def generate_inputs(workload, seed, size):
    """Write the seeded input files into the current directory.

    Returns a plain dict describing the drawn inputs; `operations` turns
    it into the op list.  The draws keep the amount of work per pass
    nearly constant across seeds (fixed areas, fixed op counts).
    """
    from sloshspec.geometry import build_rectangle_domain, build_triangle_domain, domain_to_json

    rng = random.Random(f"{workload}:{seed}")
    spec = {"workload": workload, "size": size}
    if workload == "fem-coarse":
        length = rng.uniform(1.0, 1.5)
        walls = tuple(rng.choice(("neumann", "dirichlet")) for _ in range(3))
        _write_json("rectangle.json", domain_to_json(build_rectangle_domain(length, 0.6 / length, walls)))
        alpha = math.radians(rng.uniform(25.0, 80.0))
        beta = math.radians(rng.uniform(25.0, 80.0))
        walls = ("neumann", "dirichlet") if rng.random() < 0.5 else ("dirichlet", "neumann")
        length = _triangle_with_area(alpha, beta, 0.5)
        _write_json("triangle.json", domain_to_json(build_triangle_domain(alpha, beta, length, walls)))
        qs = (2, 3, 4) if size == "full" else (2,)
        for q in qs:
            _write_json(f"sl_q{q}.json", {"kind": "sl_vs_sloshing", "q": q, "h": 0.02, "label": f"sl_q{q}"})
        spec["sl_q"] = qs
    elif workload == "model":
        # eight distinct sectors fit the evaluator cache, so every repeat
        # is a hit and the work per pass does not depend on the seed
        extra_pairs = 2 if size == "full" else 1
        fixed = list(CRITERION_7 if size == "full" else CRITERION_7[:2])
        drawn = [
            (rng.uniform(math.pi / 8, math.pi / 2 - 0.05), rng.choice(("neumann", "dirichlet")))
            for _ in range(extra_pairs)
        ]
        pairs = fixed + drawn
        rng.shuffle(pairs)
        order = list(range(len(pairs)))
        for _ in range(3 if size == "full" else 1):
            i = rng.randrange(len(pairs))
            order.insert(rng.randrange(order.index(i) + 1, len(order) + 1), i)
        for i, (alpha, bc) in enumerate(pairs):
            _write_json(
                f"peters_{i}.json",
                {"kind": "peters_phase", "alpha": alpha, "condition": bc, "label": f"peters_{i}"},
            )
        spec["pairs"] = pairs
        spec["order"] = order
        spec["sl_q"] = tuple(range(2, 9)) if size == "full" else (2, 3)
        spec["hl"] = [(q, rng.uniform(0.8, 1.5)) for q in ((2, 3, 4) if size == "full" else (2,))]
    return spec


def operations(spec, references):
    """The ordered op list of one pass over a workload."""
    workload, size = spec["workload"], spec["size"]
    if workload == "fem-fine":
        return _fem_fine_ops(size, references)
    if workload == "fem-coarse":
        return _fem_coarse_ops(spec)
    return _model_ops(spec)


def _fem_fine_ops(size, references):
    h_repro, h_resid = ("0.005", "0.002") if size == "full" else ("0.04", "0.02")
    return [
        cli_op(
            f"reproduce-ex1-h{h_repro}",
            ["reproduce", "--example", "1", "--h", h_repro, "--format", "json"],
            values=report_values,
            fixed=True,
            extra=literature_example_1(references) if float(h_repro) <= 0.02 else None,
        ),
        cli_op(
            f"residual-q2-h{h_resid}",
            ["residual", "--q", "2", "--h", h_resid, "--k", "4,6,8"],
            values=residual_values,
            fixed=True,
        ),
    ]


def _fem_coarse_ops(spec):
    # Example 2 runs twice: the repeat checks byte-identical output on the
    # curved-boundary path and puts the slowest op at 2 of 9 per pass, so
    # op_p90_s falls among one op's times rather than in the gap between two.
    ops = [
        cli_op(
            name,
            ["reproduce", "--example", "2", "--h", "0.02", "--format", "json"],
            values=report_values,
            fixed=same_as is None,  # the repeat must match the first byte for byte
            same_as=same_as,
        )
        for name, same_as in (("reproduce-ex2-h0.02", None), ("reproduce-ex2-h0.02-repeat", "reproduce-ex2-h0.02"))
    ]
    ops += [
        cli_op(
            "reproduce-ex1-h0.04",
            ["reproduce", "--example", "1", "--h", "0.04"],
            values=lambda r: {
                f"{label}.lambda": ("eigen", _column(_csv_rows(r.stdout), f"lambda_{label}"))
                for label in ("neumann", "dirichlet")
            },
            fixed=True,
        ),
        cli_op(
            "convergence-rectangle",
            ["convergence", "--domain", "rectangle.json", "--h", "0.08,0.04,0.02"],
            values=convergence_values,
        ),
    ]
    for name, same_as in (("fem-triangle", None), ("fem-triangle-repeat", "fem-triangle")):
        mesh_path, dtn_path = f"{name}.mesh.txt", f"{name}.dtn.bin"
        ops.append(
            cli_op(
                name,
                ["fem", "--domain", "triangle.json", "--h", "0.02", "--neigs", "6",
                 "--dump-mesh", mesh_path, "--dump-dtn", dtn_path],
                values=lambda r: {
                    "lambda": ("eigen", _column(_csv_rows(r.stdout), "lambda")),
                    "errbar": ("derived", _column(_csv_rows(r.stdout), "errbar")),
                },
                extra=dtn_dump_extra(dtn_path),
                files=(mesh_path, dtn_path),
                same_as=same_as,
            )
        )
    for q in spec["sl_q"]:
        out = f"out/sl_q{q}"
        ops.append(
            cli_op(
                f"run-sl_vs_sloshing-q{q}-h0.02",
                ["run", "--config", f"sl_q{q}.json", "--out", out],
                values=table_values(f"{out}/sl_q{q}.csv", {"lambda": "eigen", "sigma": "eigen"}),
                fixed=True,
                files=tuple(
                    f"{out}/sl_q{q}{suffix}"
                    for suffix in (".csv", "_meta.json", "_fem_vs_ode_lambda.csv", "_fem_vs_ode_sigma.csv")
                ),
            )
        )
    return ops


def _model_ops(spec):
    from sloshspec.model_solutions import hanson_lewy, peters

    ops = []
    seen = collections.Counter()
    for i in spec["order"]:
        alpha, bc = spec["pairs"][i]
        repeat = seen[i] > 0
        tag = f"peters_{i}" + (f"-repeat{seen[i]}" if repeat else "")
        out = f"out/peters_{i}"
        files = tuple(f"{out}/peters_{i}{s}" for s in (".csv", "_meta.json", "_remainder.csv"))
        ops.append(
            cli_op(
                f"run-{tag}",
                ["run", "--config", f"peters_{i}.json", "--out", out],
                extra=peters_phase_extra(files[1]),
                files=files,
                same_as=f"run-peters_{i}" if repeat else None,
            )
        )
        params = peters.SectorParams(alpha, bc)
        radii = np.linspace(0.5, 20.0, 64)
        for frac in (0.25, 0.5, 0.75):
            z = radii * np.exp(-1j * alpha * frac)
            ops.append(
                Op(
                    f"interior-{tag}-dir{frac}",
                    lambda params=params, z=z: peters.eval_peters(params, z),
                    values=lambda v: {"abs_f": ("derived", np.abs(v))},
                    same_as=f"interior-peters_{i}-dir{frac}" if repeat else None,
                )
            )
        seen[i] += 1
    for q in spec["sl_q"]:
        for bc in ("neumann", "dirichlet"):
            ops.append(
                cli_op(
                    f"sl-q{q}-{bc}",
                    ["sl", "--q", str(q), "--bc", bc, "--kmax", "20", "--format", "json"],
                    values=sl_values,
                    fixed=True,
                    extra=sl_pair_extra(f"sl-q{q}-neumann") if bc == "dirichlet" else None,
                )
            )
    for q, length in spec["hl"]:
        sigma = (math.pi * (q + 1.5) - math.pi * q / 2.0) / length  # lattice index k = q + 2
        samples = np.linspace(0.0, length, 2001)
        ops.append(
            Op(
                f"quasimode-q{q}",
                lambda q=q, sigma=sigma, samples=samples, length=length: hanson_lewy.quasimode_trace(
                    q, sigma, samples, length
                ),
                values=lambda v: {"trace": ("derived", v)},
                extra=unit_norm_extra,
            )
        )
    return ops


def reference_path():
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_references():
    with open(reference_path(), encoding="utf-8") as fh:
        return json.load(fh)
