"""The README's library example runs and its command lines build their configs as written."""

import json
import pathlib
import re
import shlex

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # ten (k, lambda_k, sigma_k) rows, then the assembled system's sizes
    assert [int(line.split()[0]) for line in lines[:10]] == list(range(1, 11))
    assert all(len(line.split()) == 3 for line in lines[:10])
    assert len(lines) == 11


class _Built(Exception):
    """Carries the config a command line built, in place of computing it."""


def test_readme_command_lines_parse(tmp_path, monkeypatch, capsys):
    # each line runs through cli.main up to the config it builds, in a
    # directory holding stand-in domain and config files, so a malformed
    # number in the README is a config error and fails here
    from sloshspec import cli, harness
    from sloshspec.geometry import build_triangle_domain
    from sloshspec.geometry.io import domain_to_json

    monkeypatch.chdir(tmp_path)
    (tmp_path / "tank.json").write_text(json.dumps(domain_to_json(build_triangle_domain(1.0, 0.7, 1.0))))
    (tmp_path / "experiment.json").write_text(json.dumps({"kind": "custom", "domain": "tank.json"}))

    def built(config):
        raise _Built(config)

    monkeypatch.setattr(cli, "compute_experiment", built)
    monkeypatch.setattr(harness, "compute_experiment", built)
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, flags=re.S).group(1)
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("sloshspec ")]
    assert len(lines) == 8
    kinds = []
    for words in lines:
        if words[1] == "asymptotics":  # the one subcommand with no kind computes its table at once
            assert cli.main(words[1:]) == 0
            continue
        with pytest.raises(_Built) as raised:
            cli.main(words[1:])
        kinds.append(raised.value.args[0].kind)
    capsys.readouterr()
    assert kinds == ["sl", "peters_phase", "custom", "reproduce_example_1", "quasimode_residual", "convergence", "custom"]
