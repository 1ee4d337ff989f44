"""The CLI's error contract on hostile input: exit 1 or 2 with one JSON error object, no traceback."""

import json
import math
import os
import tracemalloc
import warnings

import pytest

from sloshspec import cli, harness
from sloshspec.geometry.domain import build_rectangle_domain, build_triangle_domain
from sloshspec.geometry.io import domain_to_json

# config files written beside the domains: cfg.json's domain is a directory
CONFIGS = {
    "cfg.json": {"kind": "custom", "domain": "adir", "h": 0.1, "kmax": 2},
    "kind_list.json": {"kind": []},
    "kind_object.json": {"kind": {}},
    "kind_number.json": {"kind": 5},
    "repeat.json": {"kind": "convergence", "domain": "tri.json", "h_list": [0.2, 0.1], "k_list": [2, 2]},
    "q_huge.json": {"kind": "sl", "q": 1e23},
    "q_fraction.json": {"kind": "sl", "q": 2.7},
}

# (argv, exit code, error type, field); run in a directory holding tiny.json
# (a 1e-200 square, below qhull's precision), tri.json, the directories
# adir and existing, the regular file afile, and CONFIGS
CASES = [
    (["fem", "--domain", "tiny.json", "--h", "0.1"], 1, "numerical", None),
    (["residual", "--q", "2", "--h", "0.05", "--k", "4", "--length", "1e-300"], 1, "numerical", None),
    (["sl", "--q", "2", "--length", "1e-320"], 1, "numerical", None),
    (["fem", "--domain", "adir", "--h", "0.1"], 2, "config", "domain"),
    (["run", "--config", "cfg.json"], 2, "config", "domain"),
    (["run", "--config", "cfg.json", "--out", "afile"], 2, "config", "out"),
    (["asymptotics", "--alpha", "1", "--beta", "1", "--out", "afile/x"], 2, "config", "out"),
    (["fem", "--domain", "tri.json", "--h", "0.1", "--neigs", "2", "--dump-mesh", "existing"], 2, "config", "dump-mesh"),
    (["fem", "--domain", "tri.json", "--h", "0.1", "--neigs", "2", "--dump-dtn", "existing"], 2, "config", "dump-dtn"),
    (["residual", "--k", "4,x"], 2, "config", "k"),
    (["residual", "--k", ","], 2, "config", "k"),
    (["asymptotics", "--alpha", "1", "--beta", "1", "--kmax", "0"], 2, "config", "kmax"),
    (["sl", "--q", "2", "--kmax", "0"], 2, "config", "kmax"),
    (["sl", "--q", "0"], 2, "config", "q"),
    (["run", "--config", "kind_list.json"], 2, "config", "kind"),
    (["run", "--config", "kind_object.json"], 2, "config", "kind"),
    (["run", "--config", "kind_number.json"], 2, "config", "kind"),
    # a repeated index printed its rows, or wrote and listed its artifact, twice
    (["convergence", "--domain", "tri.json", "--h", "0.2,0.1", "--k", "1,1"], 2, "config", "k"),
    (["residual", "--h", "0.05", "--k", "4,4"], 2, "config", "k"),
    (["run", "--config", "repeat.json", "--out", "existing"], 2, "config", "k_list"),
    # a malformed number was an argparse usage text on stderr, with no JSON
    (["sl", "--q", "x"], 2, "config", "q"),
    (["sl", "--q", "2", "--kmax", "2.5"], 2, "config", "kmax"),
    (["fem", "--domain", "tri.json", "--h", "abc"], 2, "config", "h"),
    (["fem", "--domain", "tri.json", "--h", "0.1", "--neigs", "2.5"], 2, "config", "neigs"),
    (["fem", "--domain", "tri.json", "--h", "0.1", "--neigs", "0"], 2, "config", "neigs"),
    (["peters", "--alpha", "0.7", "--samples", "2.5"], 2, "config", "samples"),
    (["reproduce", "--example", "1", "--h", "x"], 2, "config", "h"),
    (["residual", "--grading", "y"], 2, "config", "grading"),
    (["residual", "--length", "1,0"], 2, "config", "length"),
    (["convergence", "--domain", "tri.json", "--h", "0.2,0.1", "--grading", "1/2"], 2, "config", "grading"),
    (["asymptotics", "--alpha", "x", "--beta", "1"], 2, "config", "alpha"),
    (["asymptotics", "--alpha", "1", "--beta", "1", "--kmax", "3.0"], 2, "config", "kmax"),
    # a whole number too large for a float to hold exactly read "must be an integer"
    (["sl", "--q", "100000000000000000000000"], 2, "config", "q"),
    (["run", "--config", "q_huge.json"], 2, "config", "q"),
    (["sl", "--q", "4.5"], 2, "config", "q"),
    (["run", "--config", "q_fraction.json"], 2, "config", "q"),
]

# the reason each of the last four cases gives
REASONS = {
    "sl --q 100000000000000000000000": "out of range",
    "run --config q_huge.json": "out of range",
    "sl --q 4.5": "must be an integer",
    "run --config q_fraction.json": "must be an integer",
}


@pytest.mark.parametrize("argv, code, kind, field_name", CASES, ids=[" ".join(case[0]) for case in CASES])
def test_hostile_input_exits_with_one_json_error(tmp_path, monkeypatch, capsys, argv, code, kind, field_name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.json").write_text(json.dumps(domain_to_json(build_rectangle_domain(1e-200, 1e-200))))
    (tmp_path / "tri.json").write_text(json.dumps(domain_to_json(build_triangle_domain(math.pi / 4, math.pi / 4, 1.0))))
    for name, config in CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(config))
    (tmp_path / "afile").write_text("")
    (tmp_path / "adir").mkdir()
    (tmp_path / "existing").mkdir()
    assert cli.main(argv) == code
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == kind
    assert error.get("field") == field_name
    assert REASONS.get(" ".join(argv), "") in error["message"]
    assert not list(tmp_path.rglob("*.tmp"))
    assert (tmp_path / "existing").is_dir() and not list((tmp_path / "existing").iterdir())


# counts that size a table far past harness._MAX_ROWS rows; run, each
# would allocate tens of gigabytes
OVERSIZED = {
    "sl_kmax.json": {"kind": "sl", "kmax": 10**9},
    "peters_samples.json": {"kind": "peters_phase", "samples": 10**9},
}
OVERSIZED_CASES = [
    (["sl", "--q", "2", "--kmax", "1000000000"], "kmax"),
    (["asymptotics", "--alpha", "1", "--beta", "1", "--kmax", "1000000000"], "kmax"),
    (["peters", "--alpha", "0.7", "--samples", "1000000000"], "samples"),
    (["run", "--config", "sl_kmax.json"], "kmax"),
    (["run", "--config", "peters_samples.json"], "samples"),
]


@pytest.mark.parametrize("argv, field_name", OVERSIZED_CASES, ids=[" ".join(case[0]) for case in OVERSIZED_CASES])
def test_a_count_past_the_row_bound_is_refused_before_it_allocates(tmp_path, monkeypatch, capsys, argv, field_name):
    monkeypatch.chdir(tmp_path)
    for name, config in OVERSIZED.items():
        (tmp_path / name).write_text(json.dumps(config))

    def computed(*args):
        raise AssertionError("a count past the bound reached its computation")

    # should the bound go, the run stops here rather than allocate
    for module, name in ((cli, "compute_experiment"), (harness, "compute_experiment"), (cli, "quasi_frequency")):
        monkeypatch.setattr(module, name, computed)
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 2**20
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "config" and error["field"] == field_name
    assert f"must be at most {harness._MAX_ROWS}" in error["message"]


def test_asymptotics_takes_kmax_up_to_the_row_bound(monkeypatch):
    # the lattice itself is not computed: only the bound is under test
    counts = []
    monkeypatch.setattr(cli, "quasi_frequency", lambda model, k: 0.0)
    monkeypatch.setattr(cli, "_emit", lambda args, stem, result: counts.append(len(result.rows)) or 0)
    assert cli.main(["asymptotics", "--alpha", "1", "--beta", "1", "--kmax", str(harness._MAX_ROWS)]) == 0
    assert counts == [harness._MAX_ROWS]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fem", "--domain", "tri.json", "--h", "0.1", "--neigs", "0"], "neigs: must be at least 1, got 0"),
        (["sl", "--q", "2", "--kmax", "0"], "kmax: must be at least 1, got 0"),
        (["asymptotics", "--alpha", "1", "--beta", "1", "--kmax", "0"], "kmax: must be at least 1, got 0"),
        (["sl", "--q", "0"], "q: must be a positive integer, got 0"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_a_config_error_names_the_flag_typed_once(tmp_path, monkeypatch, capsys, argv, message):
    # fem --neigs sets field kmax: the reason must not repeat the field's own name
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tri.json").write_text(json.dumps(domain_to_json(build_triangle_domain(math.pi / 4, math.pi / 4, 1.0))))
    assert cli.main(argv) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == {"field": argv[-2].lstrip("-"), "message": message, "type": "config"}


def test_a_triangle_the_mesher_cannot_refine_exits_one_without_a_warning(tmp_path, capsys):
    # refining this sharp triangle meets a degenerate band triangle whose
    # circumcentre is not finite; the clearance query once raised a raw
    # ValueError on it.  It is now rejected like any centre outside the
    # polygon, and no floating-point warning reaches stderr on the way
    domain = build_triangle_domain(
        0.43670467849510486, 1.1946927988160798, 2.2447339267077036, wall_conditions=("dirichlet", "neumann")
    )
    path = tmp_path / "sharp.json"
    path.write_text(json.dumps(domain_to_json(domain)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["fem", "--domain", str(path), "--h", "0.0561183", "--neigs", "6"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "numerical"
    assert "20 degree" in error["message"]


def test_a_run_refused_by_one_target_leaves_out_as_it_was(tmp_path, monkeypatch, capsys):
    # the main table used to be written before the metadata's target was found to be a directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "peters.json").write_text(json.dumps({"kind": "peters_phase", "alpha": 0.7, "samples": 30, "xmax": 10}))
    (tmp_path / "out" / "peters_phase_meta.json").mkdir(parents=True)
    assert cli.main(["run", "--config", "peters.json", "--out", "out"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert (error["type"], error["field"]) == ("config", "out")
    assert "peters_phase_meta.json" in error["message"]
    assert [p.name for p in (tmp_path / "out").rglob("*")] == ["peters_phase_meta.json"]


@pytest.mark.parametrize(
    "config, code",
    [
        ({"kind": "custom", "domain": {"x": 1}, "kmax": 1000}, 2),  # not a domain document
        ({"kind": "custom", "domain": "tiny.json", "h": 0.1}, 1),  # MeshError
        ({"kind": "sl", "q": 2, "kmax": 3}, 0),
    ],
    ids=["config-error", "mesh-error", "success"],
)
def test_run_into_a_missing_out_makes_it_only_for_a_result(tmp_path, monkeypatch, capsys, config, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.json").write_text(json.dumps(domain_to_json(build_rectangle_domain(1e-200, 1e-200))))
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert cli.main(["run", "--config", "cfg.json", "--out", "new/nested"]) == code
    lines = capsys.readouterr().out.splitlines()
    if code:
        assert len(lines) == 1 and "error" in json.loads(lines[0])
        assert not (tmp_path / "new").exists()
    else:
        assert lines == [os.path.join("new", "nested", "sl.csv")]
        assert (tmp_path / "new" / "nested" / "sl.csv").is_file()
