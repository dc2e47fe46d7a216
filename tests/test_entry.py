"""The process entry `bellmodel.__main__.run`: it freezes the heap, `main` never does,
and a process started through it writes what `main` writes."""

import gc
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bellmodel.__main__ as entry
from bellmodel.cli import main

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

#: (argv, exit code)
REQUESTS = [
    (["chsh", "--format", "json"], 0),
    (["measure", "--format", "csv"], 0),
    (["sample", "--n", "1000", "--format", "json"], 0),
    (["lhv-fit", "--format", "json"], 0),
    (["sample", "--n", "-1"], 2),  # malformed: one error line on stderr
]


def test_run_freezes_the_heap_before_main(monkeypatch):
    seen = []

    def stub():
        seen.append(gc.get_freeze_count())
        return 3

    monkeypatch.setattr(entry, "main", stub)
    try:
        with pytest.raises(SystemExit) as exc:
            entry.run()
    finally:
        gc.unfreeze()
    assert exc.value.code == 3
    assert len(seen) == 1 and seen[0] > 0


def test_main_in_process_never_freezes(capsys):
    before = gc.get_freeze_count()
    assert main(["chsh", "--format", "json"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv, expected", REQUESTS, ids=[" ".join(a) for a, _ in REQUESTS])
def test_module_entry_writes_what_main_writes(capsys, argv, expected):
    proc = subprocess.run([sys.executable, "-m", "bellmodel", *argv], capture_output=True)
    code = main(argv)
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (
        code, captured.out, captured.err)
    assert code == expected


def test_installed_command_runs_the_entry():
    """Read as text: Python 3.10 has no tomllib."""
    scripts = PYPROJECT.read_text().split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r"^(\S+) = \"(.*)\"$", scripts, re.MULTILINE) == [
        ("bellmodel", "bellmodel.__main__:run")]
