"""The process entry `bellmodel.__main__.run`: it freezes the heap, `main` never does,
a process started through it writes what `main` writes, and it ends with
`os._exit` once its output is flushed."""

import errno
import gc
import io
import os
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
    (["--help"], 0),
    (["--version"], 0),
    (["chsh", "--strict"], 1),  # the conditional combination violates the bound
    (["chsh", "--bogus"], 2),  # usage error: usage and one error line on stderr
]

#: (argv, exit code) with stdout on a pipe that no one reads
CLOSED_PIPE = [
    (["--help"], 0),
    (["--version"], 0),
    (["chsh"], 0),
    (["sample", "--n", "10"], 0),
    (["sample", "--n", "1000000"], 0),  # overflows the pipe buffer while writing
    (["chsh", "--strict"], 1),
]


def test_run_freezes_the_heap_before_main(monkeypatch):
    seen, exits = [], []

    def stub():
        seen.append(gc.get_freeze_count())
        return 3

    def exit_now(code):  # os._exit would end the test process itself
        exits.append(code)
        raise SystemExit(code)

    monkeypatch.setattr(entry, "main", stub)
    monkeypatch.setattr(entry.os, "_exit", exit_now)
    try:
        with pytest.raises(SystemExit) as exc:
            entry.run()
    finally:
        gc.unfreeze()
    assert exc.value.code == 3 and exits == [3]
    assert len(seen) == 1 and seen[0] > 0


def test_run_exits_normally_when_a_flush_fails(monkeypatch):
    """A stream that cannot be flushed is left to the interpreter's own exit."""

    class BrokenStdout(io.StringIO):
        def flush(self):
            raise BrokenPipeError

    def exit_now(code):
        raise AssertionError(f"os._exit({code}) after a failed flush")

    monkeypatch.setattr(entry, "main", lambda: 3)
    monkeypatch.setattr(entry.os, "_exit", exit_now)
    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    try:
        with pytest.raises(SystemExit) as exc:
            entry.run()
    finally:
        gc.unfreeze()
    assert exc.value.code == 3


def test_main_in_process_never_freezes(capsys):
    before = gc.get_freeze_count()
    assert main(["chsh", "--format", "json"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv, expected", REQUESTS, ids=[" ".join(a) for a, _ in REQUESTS])
def test_module_entry_writes_what_main_writes(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help to the terminal
    proc = subprocess.run([sys.executable, "-m", "bellmodel", *argv], capture_output=True)
    code = main(argv)
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (
        code, captured.out, captured.err)
    assert code == expected


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv, expected", CLOSED_PIPE, ids=[" ".join(a) for a, _ in CLOSED_PIPE])
def test_closed_stdout_keeps_the_exit_code(argv, expected, unbuffered):
    """A reader that closed stdout before the process started: the exit code
    is the request's and stderr stays empty, also when argparse leaves the
    --help or --version text in a buffered stdout."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "bellmodel", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr.decode()) == (expected, "")


@pytest.mark.parametrize("argv", [["chsh"], ["sample", "--n", "10"]], ids=" ".join)
def test_closed_fd1_is_one_error_line(argv):
    """Started with fd 1 closed, Python has no sys.stdout: a request that
    writes a document says so on one line and exits 2."""
    proc = subprocess.run([sys.executable, "-m", "bellmodel", *argv],
                          preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stderr.decode()) == (2, "error: stdout is closed\n")


#: (argv, exit code) with fd 2 closed
CLOSED_STDERR = [
    (["chsh", "--angles", "1"], 2),
    (["sample", "--n", "0"], 2),
    (["chsh", "--bogus"], 2),  # argparse's usage error
    (["chsh", "--strict"], 1),
]


@pytest.mark.parametrize("argv, expected", CLOSED_STDERR,
                         ids=[" ".join(a) for a, _ in CLOSED_STDERR])
def test_closed_fd2_keeps_the_code_and_stdout(capsys, argv, expected):
    """Started with fd 2 closed, Python has no sys.stderr: a failing request
    still exits 2 and writes nothing to stdout, and --strict keeps its exit 1
    and its document."""
    proc = subprocess.run([sys.executable, "-m", "bellmodel", *argv],
                          preexec_fn=lambda: os.close(2), stdout=subprocess.PIPE)
    code = main(argv)
    out = capsys.readouterr().out
    assert (proc.returncode, proc.stdout.decode()) == (code, out)
    assert code == expected and (out == "") == (code == 2)


def test_unwritable_stderr_still_exits_2(monkeypatch, capsys):
    """A sys.stderr over a closed descriptor: the error line is lost, the exit code is not."""

    class ClosedStderr(io.StringIO):
        def write(self, text):
            raise OSError(errno.EBADF, "Bad file descriptor")

    monkeypatch.setattr(sys, "stderr", ClosedStderr())
    assert main(["chsh", "--angles", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_installed_command_runs_the_entry():
    """Read as text: Python 3.10 has no tomllib."""
    scripts = PYPROJECT.read_text().split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r"^(\S+) = \"(.*)\"$", scripts, re.MULTILINE) == [
        ("bellmodel", "bellmodel.__main__:run")]
