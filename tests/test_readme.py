"""The README's library example runs and its command lines parse as written."""

import pathlib
import re
import shlex

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


def test_readme_command_lines_parse():
    from sloshspec import cli

    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, flags=re.S).group(1)
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("sloshspec ")]
    assert len(lines) == 8
    for words in lines:
        # a line that does not parse exits through argparse with status 2
        assert cli.build_parser().parse_args(words[1:]).command == words[1]
