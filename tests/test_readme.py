"""The README's library example runs as written."""

import pathlib
import re

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
