"""The benchmark's tracer still finds every entry point it wraps.

perfbench/tracing.py wraps sloshspec functions by module attribute name,
so renaming one under src/ would silently drop its span from the traced
benchmark run.  The tracer is installed and restored in process here.
"""

import importlib.util
import json
import math
import os

import numpy as np

import sloshspec.cli  # noqa: F401  (loads every module the tracer patches)
from sloshspec.geometry import build_rectangle_domain, domain_to_json

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_expected_entry_point_and_restores_them():
    tracing = _load("tracing")
    expected = _load("selftest").EXPECTED_WRAPPERS
    tracer = tracing.Tracer()
    tracer.install()
    try:
        installed = tracing.wrapped_attributes()
    finally:
        tracer.restore()
    assert [name for name in expected if name not in installed] == []
    assert tracing.wrapped_attributes() == []


def test_traced_cli_records_surface_size_and_residual_applications(tmp_path, capsys):
    # the traced benchmark reads the dense DtN size from dtn_matrix and
    # counts each application of the callable that dtn_action returns;
    # dtn_matrix must not go through dtn_action, or its column blocks
    # would be counted as residual applications
    domain_path = tmp_path / "rectangle.json"
    domain_path.write_text(json.dumps(domain_to_json(build_rectangle_domain(math.pi, 1.0))))
    dump = tmp_path / "dtn.bin"
    tracer = _load("tracing").Tracer()
    tracer.install()
    try:
        fem = ["fem", "--domain", str(domain_path), "--h", "0.1", "--neigs", "3", "--dump-dtn", str(dump)]
        assert sloshspec.cli.main(fem) == 0
        assert sloshspec.cli.main(["residual", "--q", "2", "--h", "0.02", "--k", "4,6"]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    n = int(np.frombuffer(dump.read_bytes()[:8], dtype="<u8")[0])
    sizes = [value for _, name, value in tracer.samples if name == "fem_steklov.surface_nodes"]
    assert sizes == [n]
    applications = [span for span in tracer.spans if span[3] == "fem_steklov.dtn_apply"]
    assert len(applications) == 2


def test_every_factorization_and_assembly_runs_inside_a_fem_entry_span(capsys):
    # the harness reaches the FEM layer only through solve_steklov and
    # the DtN builders, so the traced benchmark attributes every
    # assembly and sparse factorization to one of those spans
    tracer = _load("tracing").Tracer()
    tracer.install()
    try:
        assert sloshspec.cli.main(["reproduce", "--example", "1", "--h", "0.04"]) == 0
        assert sloshspec.cli.main(["residual", "--q", "2", "--h", "0.02", "--k", "4,6"]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    entries = {"fem_steklov.solve_steklov", "fem_steklov.dtn_action", "fem_steklov.dtn_matrix"}
    by_id = {span[1]: span for span in tracer.spans}

    def ancestors(span):
        parent = span[2]
        while parent is not None:
            yield by_id[parent][3]
            parent = by_id[parent][2]

    inner = [span for span in tracer.spans if span[3] in ("fem_steklov.splu", "fem_steklov.assemble")]
    # example 1: four assemblies and four pencils; the residual mesh mirrors,
    # so one assembly per half pencil, the two half pencils, the system the
    # study reads off its spectrum and the odd half's K_II
    assert len(inner) == 14
    # the residual study's dual norm uses a banded surface-mass factor,
    # so no factorization is left outside them.  The one assembly outside
    # is the spectrum's system, assembled again when the study first reads
    # it; its own span books its time to fem_steklov
    stray = [(span[3], by_id[span[2]][3]) for span in inner if not entries.intersection(ancestors(span))]
    assert stray == [("fem_steklov.assemble", "harness.quasimode_residual_study")]


def test_traced_model_route_records_the_decay_deviation_and_points(capsys):
    # the tracer reads mu and condition off far_field_fit's first argument,
    # and the benchmark's workloads build that corner as peters.SectorParams
    from sloshspec.model_solutions import peters

    alpha = math.pi / 3
    z = np.linspace(0.5, 20.0, 64) * np.exp(-0.5j * alpha)
    tracer = _load("tracing").Tracer()
    tracer.install()
    try:
        assert sloshspec.cli.main(["peters", "--alpha", repr(alpha), "--samples", "40", "--xmax", "20"]) == 0
        peters.eval_peters(peters.SectorParams(alpha, "dirichlet"), z)
    finally:
        tracer.restore()
    capsys.readouterr()
    deviations = [value for _, name, value in tracer.samples if name == "peters.decay_exponent_dev"]
    assert len(deviations) == 1 and math.isfinite(deviations[0])
    points = [value for _, name, value in tracer.samples if name == "peters.points"]
    assert points == [40, z.size]
