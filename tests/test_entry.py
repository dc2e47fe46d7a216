"""The process entry `bellmodel.__main__.run`: it ends the process with
`os._exit(main())`, neither it nor `main` freezes the heap, a process started
through it writes what `main` writes, and a stdout that cannot be written
exits 2 with one error line."""

import errno
import gc
import io
import os
import re
import resource
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


def test_run_exits_with_mains_code_and_never_freezes(monkeypatch):
    """The entry hands `main`'s code straight to `os._exit` and leaves the
    collector as the import left it."""
    exits = []

    def exit_now(code):  # os._exit would end the test process itself
        exits.append(code)

    before = gc.get_freeze_count()
    monkeypatch.setattr(entry, "main", lambda: 3)
    monkeypatch.setattr(entry.os, "_exit", exit_now)
    entry.run()
    assert exits == [3]
    assert gc.get_freeze_count() == before


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
    is the request's and stderr stays empty, also for the --help and
    --version text, buffered or not."""
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


#: requests whose stdout cannot be written, each exiting 2
UNWRITABLE = [
    ["chsh"],
    ["lhv-fit", "--format", "json"],
    ["sample", "--n", "100000"],
    ["--help"],
    ["--version"],
]


@pytest.mark.parametrize("argv", UNWRITABLE, ids=" ".join)
def test_unwritable_stdout_is_one_error_line(tmp_path, argv):
    """Buffered stdout appended to a file already at the process's size
    limit: every write fails with EFBIG (Python ignores SIGXFSZ), as ENOSPC
    or EIO would.  The request exits 2 with one error line, not a traceback
    or a second report at exit."""
    limit = 1024
    out = tmp_path / "full.out"
    out.write_bytes(b"\0" * limit)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with out.open("ab") as stdout:
        proc = subprocess.run(
            [sys.executable, "-m", "bellmodel", *argv], stdout=stdout, stderr=subprocess.PIPE,
            env=env, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)))
    lines = proc.stderr.decode().splitlines()
    assert (proc.returncode, len(lines)) == (2, 1), proc.stderr.decode()
    assert lines[0].startswith("error: ")
    assert out.stat().st_size == limit


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [*UNWRITABLE, ["chsh", "--help"]], ids=" ".join)
def test_short_write_is_one_error_line(tmp_path, argv, unbuffered):
    """Stdout appended to a file 4 bytes below the process's size limit: the
    first write stops short at the limit and the next one fails with EFBIG.
    An unbuffered stdout's raw file reports only the short count, which
    CPython's write-through text layer and argparse both ignore, so the
    request must finish the write itself to see the error and exit 2."""
    limit = 1024
    out = tmp_path / "short.out"
    out.write_bytes(b"\0" * (limit - 4))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with out.open("ab") as stdout:
        proc = subprocess.run(
            [sys.executable, "-m", "bellmodel", *argv], stdout=stdout, stderr=subprocess.PIPE,
            env=env, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)))
    assert (proc.returncode, proc.stderr.decode()) == (2, "error: [Errno 27] File too large\n")
    assert out.stat().st_size == limit


def test_help_on_a_full_stdout_exits_2(monkeypatch, capsys):
    """--help reaches stdout through `main`'s own write, whose flush fails."""

    class FullStdout(io.StringIO):
        def flush(self):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(sys, "stdout", FullStdout())
    assert main(["--help"]) == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


def test_installed_command_runs_the_entry():
    """Read as text: Python 3.10 has no tomllib."""
    scripts = PYPROJECT.read_text().split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r"^(\S+) = \"(.*)\"$", scripts, re.MULTILINE) == [
        ("bellmodel", "bellmodel.__main__:run")]
