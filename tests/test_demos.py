"""Smoke test: every demo script runs to completion and prints something.

`command_line.py` is left out: it only shells out to CLI commands that
`test_cli.py` already covers, one subprocess each.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted(
    path
    for path in (Path(__file__).resolve().parent.parent / "demos").glob("*.py")
    if path.name != "command_line.py"
)


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
