"""The CLI's error contract on hostile input: exit 1 or 2 with one JSON error object, no traceback."""

import json
import math

import pytest

from sloshspec import cli
from sloshspec.geometry.domain import build_rectangle_domain, build_triangle_domain
from sloshspec.geometry.io import domain_to_json

# (argv, exit code, error type, field); run in a directory holding tiny.json
# (a 1e-200 square, below qhull's precision), tri.json, the directories
# adir and existing, the regular file afile, and cfg.json, whose domain is adir
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
]


@pytest.mark.parametrize("argv, code, kind, field_name", CASES, ids=[" ".join(case[0]) for case in CASES])
def test_hostile_input_exits_with_one_json_error(tmp_path, monkeypatch, capsys, argv, code, kind, field_name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.json").write_text(json.dumps(domain_to_json(build_rectangle_domain(1e-200, 1e-200))))
    (tmp_path / "tri.json").write_text(json.dumps(domain_to_json(build_triangle_domain(math.pi / 4, math.pi / 4, 1.0))))
    (tmp_path / "cfg.json").write_text(json.dumps({"kind": "custom", "domain": "adir", "h": 0.1, "kmax": 2}))
    (tmp_path / "afile").write_text("")
    (tmp_path / "adir").mkdir()
    (tmp_path / "existing").mkdir()
    assert cli.main(argv) == code
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == kind
    assert error.get("field") == field_name
    assert not list(tmp_path.rglob("*.tmp"))
    assert (tmp_path / "existing").is_dir() and not list((tmp_path / "existing").iterdir())
