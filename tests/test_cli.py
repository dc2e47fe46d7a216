"""Exercises every subcommand through main(), plus config handling and exit codes."""

import contextlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from bellmodel import __version__, cli
from bellmodel.cli import main
from bellmodel.montecarlo import CHUNK
from bellmodel.probspace import COLUMN_ORDER, ROW_ORDER, chsh_measure
from bellmodel.singlet import TSIRELSON_ANGLES

SQRT2 = math.sqrt(2.0)
M_LOWER_BOUND = (2 * SQRT2 - 2) / 16


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestMeasure:
    def test_csv_matches_library(self, capsys):
        code, out, _ = run(capsys, "measure", "--format", "csv")
        assert code == 0
        assert out == chsh_measure(TSIRELSON_ANGLES).to_csv()

    def test_json_cells(self, capsys):
        doc = run_json(capsys, "measure", "--format", "json")
        assert len(doc["cells"]) == 16
        assert doc["cells"][0]["p"] == pytest.approx((2 + SQRT2) / 32, abs=1e-15)
        assert doc["angles"]["a1"] == pytest.approx(math.pi / 4, abs=1e-15)

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "measure")
        assert code == 0
        assert "a0b0" in out and "a0b1" in out
        assert out.startswith("angles:")

    def test_degrees_equivalent_to_radians(self, capsys):
        degs = (0.0, 45.0, 22.5, 67.5)
        rads = ",".join(repr(math.radians(v)) for v in degs)
        _, out_deg, _ = run(
            capsys, "measure", "--angles", ",".join(map(repr, degs)), "--degrees",
            "--format", "csv",
        )
        _, out_rad, _ = run(capsys, "measure", "--angles", rads, "--format", "csv")
        assert out_deg == out_rad

    def test_settings_flag(self, capsys):
        doc = run_json(
            capsys, "measure", "--settings", "0.7,0.1,0.1,0.1", "--format", "json"
        )
        assert doc["settings"]["p00"] == pytest.approx(0.7)
        column_mass = sum(
            c["p"] for c in doc["cells"] if (c["i"], c["j"]) == (0, 0)
        )
        assert column_mass == pytest.approx(0.7, abs=1e-12)

    def test_settings_uniform_word(self, capsys):
        doc = run_json(capsys, "measure", "--settings", "Uniform", "--format", "json")
        assert doc["settings"] == {"p00": 0.25, "p01": 0.25, "p10": 0.25, "p11": 0.25}


class TestChsh:
    def test_conditional_json(self, capsys):
        doc = run_json(capsys, "chsh", "--format", "json")
        assert doc["mode"] == "conditional"
        assert doc["combined_value"] == pytest.approx(2 * SQRT2, abs=1e-12)
        assert doc["bound"] == 2.0
        assert doc["satisfied"] is False

    def test_partial_json(self, capsys):
        doc = run_json(capsys, "chsh", "--mode", "partial", "--format", "json")
        assert doc["combined_value"] == pytest.approx(SQRT2 / 2, abs=1e-12)
        assert doc["satisfied"] is True

    def test_strict_exit_codes(self, capsys):
        code, _, _ = run(capsys, "chsh", "--strict")
        assert code == 1  # conditional combination exceeds the bound
        code, _, _ = run(capsys, "chsh", "--mode", "partial", "--strict")
        assert code == 0
        for fmt in ("table", "json"):  # a violation still prints the whole document
            plain = run(capsys, "chsh", "--format", fmt)
            strict = run(capsys, "chsh", "--format", fmt, "--strict")
            assert (plain[0], strict[0]) == (0, 1)
            assert strict[1:] == plain[1:] and plain[1].endswith("\n")

    def test_table_output(self, capsys):
        code, out, _ = run(capsys, "chsh")
        assert code == 0
        assert "combined: 2.8284271247461" in out
        assert "satisfied: False" in out

    def test_bad_mode(self, capsys):
        code, _, err = run(capsys, "chsh", "--mode", "sideways")
        assert code == 2
        assert "error:" in err


class TestBell:
    def test_reference_configuration(self, capsys):
        doc = run_json(capsys, "bell", "--format", "json")
        assert doc["lhs"] == pytest.approx(SQRT2 / 6, abs=1e-12)
        assert doc["rhs"] == pytest.approx(1 - SQRT2 / 6, abs=1e-12)
        assert doc["satisfied"] is True

    def test_needs_three_angles(self, capsys):
        code, _, err = run(capsys, "bell", "--angles", "0,1,2,3")
        assert code == 2
        assert "3 comma-separated values" in err

    def test_rejects_nonzero_swapped_pair_weight(self, capsys):
        code, _, err = run(capsys, "bell", "--settings", "0.25,0.25,0.25,0.25")
        assert code == 2
        assert "anti-correlate" in err

    def test_strict_on_satisfied_case(self, capsys):
        code, _, _ = run(capsys, "bell", "--strict")
        assert code == 0


class TestAnalysisCommands:
    def test_nosignal(self, capsys):
        doc = run_json(capsys, "nosignal", "--format", "json")
        assert doc["max_deviation"] <= 1e-12

    def test_factorize(self, capsys):
        doc = run_json(capsys, "factorize", "--format", "json")
        assert doc["residual"] == pytest.approx(1 / 32, abs=1e-9)

    @pytest.mark.parametrize("angles", ["--angles=0,0,0,0", "--angles=0,0,1.5707963267948966,0"])
    def test_factorize_unit_correlators(self, capsys, angles):
        """Every |E_ij| = 1: the flat table, exactly."""
        code, out, _ = run(capsys, "factorize", angles)
        assert code == 0
        assert out == (
            "p_plus_a0: 0.5\np_plus_a1: 0.5\np_plus_b0: 0.5\np_plus_b1: 0.5\nresidual: 0.0625\n"
        )

    @pytest.mark.parametrize("flag", [("--grid", "3"), ("--restarts", "2")])
    def test_factorize_takes_no_search_flags(self, capsys, flag):
        code, out, err = run(capsys, "factorize", *flag)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in err

    def test_witness(self, capsys):
        doc = run_json(capsys, "witness", "--format", "json", "--grid", "2000")
        assert doc["contradiction"] is True
        assert doc["power"] == pytest.approx(math.pi / 2, abs=1e-8)
        assert doc["response_amplitude_max"] == pytest.approx(SQRT2, abs=1e-8)

    def test_lhv_fit(self, capsys):
        doc = run_json(
            capsys, "lhv-fit", "--format", "json", "--grid", "8", "--restarts", "2",
            "--seed", "0",
        )
        assert doc["m_hat"] >= M_LOWER_BOUND - 1e-9
        assert doc["m_hat"] == pytest.approx(M_LOWER_BOUND, abs=1e-6)
        assert len(doc["model"]["rho"]) == 8


class TestLhvFitCertificate:
    def test_json_carries_bound_and_gap(self, capsys):
        doc = run_json(capsys, "lhv-fit", "--format", "json", "--restarts", "0")
        assert doc["lower_bound"] == pytest.approx(M_LOWER_BOUND, abs=1e-12)
        assert 0.0 <= doc["gap"] + 1e-12 and doc["gap"] <= 1e-9
        assert doc["gap"] == doc["m_hat"] - doc["lower_bound"]

    def test_json_structure(self, capsys):
        """Key order and the 16 deviation records, in table order."""
        doc = run_json(capsys, "lhv-fit", "--format", "json")
        assert list(doc) == [
            "angles", "grid_size", "restarts", "seed", "m_hat", "lower_bound", "gap",
            "per_setting_deviations", "model",
        ]
        records = doc["per_setting_deviations"]
        cells = [(x, y, i, j) for (x, y) in ROW_ORDER for (i, j) in COLUMN_ORDER]
        assert [(r["x"], r["y"], r["i"], r["j"]) for r in records] == cells
        assert all(list(r) == ["x", "y", "i", "j", "deviation"] for r in records)
        assert doc["m_hat"] == max(r["deviation"] for r in records)

    def test_table_output_has_no_certificate_lines(self, capsys):
        code, out, _ = run(capsys, "lhv-fit", "--grid", "2", "--restarts", "0")
        assert code == 0
        assert out.startswith("m_hat: ") and "bound" not in out and "gap" not in out


class TestSample:
    def test_csv_deterministic(self, capsys):
        _, first, _ = run(capsys, "sample", "--n", "5000", "--seed", "42")
        _, second, _ = run(capsys, "sample", "--n", "5000", "--seed", "42")
        assert first == second
        lines = first.splitlines()
        assert lines[0] == "n,x,y,i,j"
        assert len(lines) == 5001

    def test_json_counts(self, capsys):
        doc = run_json(
            capsys, "sample", "--n", "1000", "--seed", "7", "--format", "json"
        )
        assert sum(doc["counts"]) == 1000
        assert doc["generator"].startswith("philox4x64/")
        assert set(doc["partial_expectations"]) == {"a0b0", "a1b0", "a1b1", "a0b1"}

    def test_bad_n(self, capsys):
        code, _, err = run(capsys, "sample", "--n", "zero")
        assert code == 2
        assert "must be an integer" in err

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    @pytest.mark.parametrize("bad", [("--n", "0"), ("--seed", "-1")])
    def test_bad_value_writes_nothing(self, capsys, fmt, bad):
        """The stream is checked before its first piece: no partial header."""
        code, out, err = run(capsys, "sample", *bad, "--format", fmt)
        assert code == 2
        assert out == ""
        assert one_error_line(err)

    # cli.main at 64 chunks: json and table hold one block of uniforms, bound
    # at an eighth of the 4 MB the run's cells would take; csv holds one chunk
    # of cells and one block of text, bound far below its 70 MB of text.
    @pytest.mark.parametrize("fmt, bound_mb", [("json", 0.5), ("table", 0.5), ("csv", 3)])
    def test_peak_memory_bounded(self, fmt, bound_mb):
        argv = ["sample", "--n", str(64 * CHUNK), "--seed", "3", "--format", fmt]
        with open(os.devnull, "w", encoding="ascii") as sink:
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(sink):
                    code = main(argv)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < bound_mb * 2**20


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = partial  # flavor\nformat = json\n")
        doc = run_json(capsys, "chsh", "--config", str(cfg))
        assert doc["mode"] == "partial"

    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = partial\nformat = json\n")
        doc = run_json(capsys, "chsh", "--config", str(cfg), "--mode", "conditional")
        assert doc["mode"] == "conditional"

    def test_config_strict_string(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("strict = true\n")
        code, _, _ = run(capsys, "chsh", "--config", str(cfg))
        assert code == 1

    def test_config_strict_off(self, capsys, tmp_path):
        """The default conditional CHSH is violated; strict = off still exits 0."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("strict = off\nformat = json\n")
        doc = run_json(capsys, "chsh", "--config", str(cfg))
        assert doc["satisfied"] is False

    def test_bad_strict_value_writes_nothing(self, capsys, tmp_path):
        """An exit 2 never follows a whole document on stdout."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("strict = maybe\n")
        code, out, err = run(capsys, "chsh", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert one_error_line(err) and "--strict must be a boolean, got 'maybe'" in err

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("palette = mauve\n")
        code, _, err = run(capsys, "chsh", "--config", str(cfg))
        assert code == 2
        assert "unknown option" in err

    def test_malformed_line_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        code, _, err = run(capsys, "chsh", "--config", str(cfg))
        assert code == 2
        assert "expected 'key = value'" in err

    def test_size_limit(self, capsys, tmp_path):
        """The file is read up to one character past the limit, never whole."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = json\n".ljust(cli._MAX_CONFIG_CHARS, "#"))
        assert run_json(capsys, "chsh", "--config", str(cfg))["mode"] == "conditional"
        cfg.write_text("format = json\n".ljust(cli._MAX_CONFIG_CHARS + 1, "#"))
        code, out, err = run(capsys, "chsh", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert one_error_line(err) and str(cfg) in err and str(cli._MAX_CONFIG_CHARS) in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "chsh", "--config", str(tmp_path / "absent.cfg"))
        assert code == 2
        assert "error:" in err


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_no_command(self, capsys):
        assert run(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_version(self, capsys):
        assert run(capsys, "--version") == (0, f"bellmodel {__version__}\n", "")

    def test_bad_angle_token(self, capsys):
        code, _, err = run(capsys, "measure", "--angles", "0,zero,1,2")
        assert code == 2
        assert "comma-separated numbers" in err

    def test_bad_format(self, capsys):
        code, _, err = run(capsys, "measure", "--format", "yaml")
        assert code == 2
        assert "must be one of" in err

    def test_bad_settings(self, capsys):
        code, _, err = run(capsys, "measure", "--settings", "0.5,0.5")
        assert code == 2
        assert "--settings" in err

    def test_negative_settings(self, capsys):
        code, _, err = run(capsys, "measure", "--settings", "-0.1,0.4,0.4,0.3")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("measure", "--angles", "0,zero,1,2", "--format", "yaml"),
             "--angles must be comma-separated numbers, got '0,zero,1,2'"),
            (("sample", "--settings", "0.5,0.5", "--n", "10000001"),
             "--settings needs 'uniform' or 4 values p00,p01,p10,p11, got 2"),
            (("lhv-fit", "--format", "yaml", "--grid", "1025"),
             "--format must be one of table, json; got 'yaml'"),
            (("chsh", "--mode", "sideways", "--format", "yaml"),
             "--mode must be 'conditional' or 'partial', got 'sideways'"),
            (("lhv-fit", "--grid", "1025", "--restarts", "1001"),
             "--grid must be at most 1024, got 1025"),
            (("sample", "--n", "0", "--seed", "-1", "--format", "yaml"),
             "--format must be one of csv, json, table; got 'yaml'"),
        ],
    )
    def test_first_flaw_wins(self, capsys, argv, message):
        """Options are checked in a fixed order: angles, settings, mode,
        format, grid, restarts, n, seed; the first flaw is the one reported."""
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


#: Every subcommand that takes --angles, with a negative first angle and
#: flags that keep the run short.
NEGATIVE_FIRST_ANGLE = [
    ("measure", "-2.3,1,0.5,0.2", ("--format", "csv")),
    ("chsh", "-2.3,1,0.5,0.2", ("--format", "json")),
    ("bell", "-0.5,0.3,1.2", ("--format", "json")),
    ("nosignal", "-2.3,1,0.5,0.2", ("--format", "json")),
    ("factorize", "-2.3,1,0.5,0.2", ("--format", "json")),
    ("lhv-fit", "-2.3,1,0.5,0.2", ("--grid", "2", "--restarts", "0", "--format", "json")),
    ("sample", "-2.3,1,0.5,0.2", ("--n", "300")),
]

#: (a -0 spelling, the 0 spelling) of the same angles or settings
NEGATIVE_ZERO = [
    (("--angles=-0,1,2,3",), ("--angles=0,1,2,3",)),
    (("--degrees", "--angles=-180,45,-360,90"), ("--degrees", "--angles=0,45,0,90")),
    (("--settings", "-0,0.5,0.25,0.25"), ("--settings", "0,0.5,0.25,0.25")),
]


class TestNegativeAngles:
    """``--angles -2.3,...`` reads like ``--angles=-2.3,...``."""

    @pytest.mark.parametrize("degrees", [(), ("--degrees",)], ids=["radians", "degrees"])
    @pytest.mark.parametrize(
        "command, angles, rest", NEGATIVE_FIRST_ANGLE, ids=[c[0] for c in NEGATIVE_FIRST_ANGLE]
    )
    def test_space_form_matches_equals_form(self, capsys, command, angles, rest, degrees):
        joined = run(capsys, command, f"--angles={angles}", *rest, *degrees)
        spaced = run(capsys, command, "--angles", angles, *rest, *degrees)
        assert joined[0] == 0, joined[2]
        assert spaced == joined

    @pytest.mark.parametrize("command", [["measure"], ["sample", "--n", "5"]], ids=" ".join)
    @pytest.mark.parametrize("negative, zero", NEGATIVE_ZERO, ids=["rad", "deg", "settings"])
    def test_negative_zero_reads_as_zero(self, capsys, command, negative, zero):
        """-0 and -k*pi angles and -0 settings are stored as 0: same document, same digest."""
        spelled = run(capsys, *command, *negative, "--format", "json")
        assert spelled[0] == 0, spelled[2]
        assert spelled == run(capsys, *command, *zero, "--format", "json")

    def test_angles_are_used(self, capsys):
        doc = run_json(capsys, "chsh", "--angles", "-45,0,30,60", "--degrees", "--format", "json")
        assert doc["angles"]["a0"] == pytest.approx(math.radians(135), abs=1e-15)
        assert doc["angles"]["b1"] == pytest.approx(math.radians(60), abs=1e-15)

    @pytest.mark.parametrize("angles", ["-2.3,1,0.5", "-.5,1,zero,2"])
    def test_errors_match_equals_form(self, capsys, angles):
        joined = run(capsys, "measure", f"--angles={angles}")
        spaced = run(capsys, "measure", "--angles", angles)
        assert joined[0] == 2 and one_error_line(joined[2])
        assert spaced == joined

    def test_missing_value_still_a_usage_error(self, capsys):
        code, _, err = run(capsys, "measure", "--angles", "--degrees")
        assert code == 2
        assert "argument --angles: expected one argument" in err


def one_error_line(err):
    lines = [line for line in err.splitlines() if line.strip()]
    return len(lines) == 1 and lines[0].startswith("error:") and "Traceback" not in err


class TestExitCodeContract:
    """Exit 1 means only "violated under --strict"; every other failure exits 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("witness", "--grid", "1000001"),
            ("lhv-fit", "--grid", "1025"),
            ("lhv-fit", "--restarts", "1001"),
            ("sample", "--n", "10000001"),
            ("sample", "--n", str(10**18)),
        ],
    )
    def test_size_flags_bounded_before_allocation(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert one_error_line(err) and "must be at most" in err

    def test_bound_applies_to_config_values(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid = 2000\n")
        code, _, err = run(capsys, "lhv-fit", "--config", str(cfg))
        assert code == 2
        assert one_error_line(err) and "--grid must be at most 1024" in err

    def test_bounds_documented_in_help(self, capsys):
        for argv, text in (
            (("witness", "--help"), "at most 1000000"),
            (("lhv-fit", "--help"), "at most 1024"),
            (("sample", "--help"), "at most 10000000"),
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert text in " ".join(out.split())

    def test_closed_stdout_is_not_a_failure(self):
        """A reader that stops early: 10^6 trials overflow any pipe buffer,
        so the writer meets the closed pipe."""
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        cmd = [sys.executable, "-m", "bellmodel", "sample", "--n", "1000000"]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline() == b"n,x,y,i,j\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert err == b""

    @pytest.mark.parametrize("exc", [MemoryError(), RuntimeError("solver blew up\nsecond line")])
    def test_unexpected_failure_exits_2(self, capsys, monkeypatch, exc):
        def failing(*_args, **_kwargs):
            raise exc

        monkeypatch.setattr(cli, "fourier_witness_check", failing)
        code, out, err = run(capsys, "witness")
        assert code == 2
        assert out == ""
        assert one_error_line(err) and type(exc).__name__ in err

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    @pytest.mark.parametrize("grid", [[], ["--grid", "4"], ["--grid", "4", "--restarts", "0"]])
    def test_lhv_fit_seed_out_of_range(self, capsys, seed, grid):
        code, out, err = run(capsys, "lhv-fit", "--seed", seed, *grid)
        assert code == 2
        assert out == ""
        assert one_error_line(err) and "seed must fit in an unsigned 64-bit integer" in err
