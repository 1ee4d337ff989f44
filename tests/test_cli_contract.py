"""The CLI's error contract on hostile input: exit 1 or 2 with one JSON error object, no traceback."""

import json
import math

import pytest

from sloshspec import cli
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
