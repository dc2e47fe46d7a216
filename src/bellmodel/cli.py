"""Command-line interface.

One subcommand per capability; each returns one document (json, csv, or an
aligned table) and an exit code, and `main` alone writes it to stdout, with
diagnostics on stderr as one ``error:`` line.  Exit codes: 0 success, 1
inequality violated under --strict (the document is still written), 2 any
other failure (usage, configuration, an error while computing, or a stdout
that cannot be written, such as a full disk or a file at its size limit).
A reader that closes stdout early is not a failure: writing stops, nothing
is printed on stderr and the exit code is the subcommand's.  Two failed
writes go unreported: with PYTHONUNBUFFERED set, CPython's write-through
stdout ignores a short write, so a document cut at a size limit still exits
0; and on an unbuffered stdout argparse itself discards a failed --help or
--version write.  Size flags (--n, --grid, --restarts) have upper bounds,
checked before anything is allocated.

Shared option values can come from a config file (--config PATH) holding
``key = value`` lines with ``#`` comments; explicit flags win over the
file, which wins over built-in defaults.  The file is read up to 65536
characters; a longer one is an error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from typing import Any, Callable, Iterable, Iterator, Sequence, Union

from . import __version__
from .inequalities import (
    BELL_TEST_ANGLES,
    BELL_TEST_SETTINGS,
    bell_original,
    chsh_conditional,
    chsh_partial,
)
from .lhv import (
    factorizability_fit,
    fourier_witness_check,
    m_separability_search,
    no_signaling_report,
)
# `sample` is not called here: `sample_chunks` draws the same trials.  It
# stays importable as bellmodel.cli.sample, a name bench/layers.py wraps.
from .montecarlo import (  # noqa: F401
    GENERATOR_ID,
    empirical_measure,
    empirical_partial_expectation,
    sample,
    sample_chunks,
    trial_csv,
)
from .probspace import (
    _ANGLE_NAMES,
    _COLUMN_LABELS,
    COLUMN_ORDER,
    ROW_ORDER,
    JointMeasure,
    SettingsDistribution,
    chsh_measure,
    sig17,
)
from .singlet import TSIRELSON_ANGLES, DetectorAngle

__all__ = ["main"]

#: Largest accepted --n.  `sample` streams one chunk of trials at a time,
#: so memory does not grow with n; the bound caps run time and output size
#: instead (10^7 trials are 169 MB of trial CSV).
_MAX_N = 10_000_000
#: Largest accepted --restarts.
_MAX_RESTARTS = 1000
#: Largest accepted --grid per subcommand: witness holds a few complex arrays
#: of grid nodes, lhv-fit builds a model on grid latent points.
_MAX_GRID = {"witness": 1_000_000, "lhv-fit": 1024}

#: Largest accepted --config file, in characters; reading stops one past it,
#: so an endless file such as /dev/zero is rejected, not read until memory runs out.
_MAX_CONFIG_CHARS = 65536

#: A flag without a value; None when absent, so a --config value still applies.
_SWITCH = {"action": "store_true", "default": None}

#: Shared options in argparse registration order, each with its
#: ``add_argument`` keywords ("{grid}" in a help text is the subcommand's
#: --grid bound); also the keys a --config file may set.
_OPTIONS: dict[str, dict[str, Any]] = {
    "angles": {"help": "comma-separated detector orientations"},
    "settings": {"help": "'uniform' or p00,p01,p10,p11"},
    "format": {"help": "output format"},
    "seed": {"help": "random seed (unsigned 64-bit)"},
    "n": {"help": f"number of trials (at most {_MAX_N})"},
    "grid": {"help": "grid size (at most {grid})"},
    "restarts": {"help": f"number of random restarts (at most {_MAX_RESTARTS})"},
    "mode": {"help": "'conditional' or 'partial'"},
    "strict": {**_SWITCH, "help": "exit 1 if the inequality is violated"},
    "degrees": {**_SWITCH, "help": "interpret --angles in degrees"},
}


class _CommandParser(argparse.ArgumentParser):
    """Subcommand parser that reads a value opening with a negative number,
    as in ``--angles -2.3,1,0.5,0.2``, like ``--angles=-2.3,1,0.5,0.2``:
    plain argparse takes such a token for an unknown option unless it is a
    bare number like ``-2.3``."""

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read(_MAX_CONFIG_CHARS + 1)
    if len(text) > _MAX_CONFIG_CHARS:
        raise ValueError(f"{path}: config file is larger than {_MAX_CONFIG_CHARS} characters")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _OPTIONS:
            raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
        values[key] = value
    return values


class _Options(dict[str, Any]):
    """Flag values merged with the config file; flags win."""

    def __init__(self, args: argparse.Namespace):
        config = _load_config(args.config) if args.config else {}
        flags = {k: v for k, v in vars(args).items() if k in _OPTIONS and v is not None}
        super().__init__({**config, **flags})

    def get_int(self, key: str, default: int, maximum: int | None = None) -> int:
        value = self.get(key, default)
        try:
            number = int(value)
        except (TypeError, ValueError):
            raise ValueError(f"--{key} must be an integer, got {value!r}") from None
        if maximum is not None and number > maximum:
            raise ValueError(f"--{key} must be at most {maximum}, got {number}")
        return number

    def get_bool(self, key: str) -> bool:
        value = self.get(key, False)
        if isinstance(value, bool):
            return value
        lowered = str(value).strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"--{key} must be a boolean, got {value!r}")


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in str(text).split(",")]
    except ValueError:
        raise ValueError(f"--{flag} must be comma-separated numbers, got {text!r}") from None


def _parse_angles(opts: _Options, count: int, default: Sequence[DetectorAngle]) -> tuple:
    raw = opts.get("angles")
    if raw is None:
        return tuple(default)
    values = _parse_floats(raw, "angles")
    if len(values) != count:
        raise ValueError(f"--angles needs {count} comma-separated values, got {len(values)}")
    if opts.get_bool("degrees"):
        values = [math.radians(v) for v in values]
    return tuple(DetectorAngle(v) for v in values)


def _parse_settings(opts: _Options, default: SettingsDistribution) -> SettingsDistribution:
    raw = opts.get("settings")
    if raw is None:
        return default
    if str(raw).strip().lower() == "uniform":
        return SettingsDistribution.uniform()
    values = _parse_floats(raw, "settings")
    if len(values) != 4:
        raise ValueError(
            f"--settings needs 'uniform' or 4 values p00,p01,p10,p11, got {len(values)}"
        )
    return SettingsDistribution(p00=values[0], p01=values[1], p10=values[2], p11=values[3])


def _format(opts: _Options, default: str, allowed: tuple[str, ...]) -> str:
    fmt = str(opts.get("format", default)).strip().lower()
    if fmt not in allowed:
        raise ValueError(f"--format must be one of {', '.join(allowed)}; got {fmt!r}")
    return fmt


def _angles_doc(angles: Sequence[DetectorAngle], names: Sequence[str] = _ANGLE_NAMES) -> dict:
    return {name: a.radians for name, a in zip(names, angles)}


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (document, exit code) and writes nothing
# ---------------------------------------------------------------------------

_Output = Union[dict, str, Iterator[str]]  # a json object, text, or text pieces


def _cmd_measure(opts: _Options) -> tuple[_Output, int]:
    angles = _parse_angles(opts, 4, TSIRELSON_ANGLES)
    settings = _parse_settings(opts, SettingsDistribution.uniform())
    fmt = _format(opts, "table", ("table", "json", "csv"))
    measure = chsh_measure(angles, settings)
    if fmt == "json":
        return measure.as_dict(), 0
    if fmt == "csv":
        return measure.to_csv(), 0
    return _measure_table(measure), 0


def _measure_table(measure: JointMeasure) -> str:
    angles = _angles_doc(measure.angles)
    lines = ["angles:   " + "  ".join(f"{n}={v:.6f}" for n, v in angles.items())]
    lines.append("settings: " + "  ".join(f"{n}={p:.6f}" for n, p in measure.settings.items()))
    rows = [["x", "y", *_COLUMN_LABELS]]
    table = measure.table
    for row, (x, y) in enumerate(ROW_ORDER):
        cells = [sig17(table[row, i, j]) for (i, j) in COLUMN_ORDER]
        rows.append([f"{x:+d}", f"{y:+d}"] + cells)
    widths = [max(len(r[c]) for r in rows) for c in range(6)]
    for r in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines)


def _cmd_chsh(opts: _Options) -> tuple[_Output, int]:
    angles = _parse_angles(opts, 4, TSIRELSON_ANGLES)
    settings = _parse_settings(opts, SettingsDistribution.uniform())
    mode = str(opts.get("mode", "conditional")).strip().lower()
    if mode not in ("conditional", "partial"):
        raise ValueError(f"--mode must be 'conditional' or 'partial', got {mode!r}")
    fmt = _format(opts, "table", ("table", "json"))
    measure = chsh_measure(angles, settings)
    report = chsh_conditional(measure) if mode == "conditional" else chsh_partial(measure)
    code = int(opts.get_bool("strict") and not report.satisfied)
    if fmt == "json":
        return {
            "mode": mode,
            "angles": _angles_doc(angles),
            "settings": dict(settings.items()),
            **report.as_dict(),
        }, code
    lines = [f"mode: {mode}"]
    for label, t in zip(_COLUMN_LABELS, report.term_values):
        lines.append(f"term {label}: {sig17(t)}")
    lines.append(f"combined: {sig17(report.combined_value)}")
    lines.append(f"bound: {sig17(report.bound)}")
    lines.append(f"satisfied: {report.satisfied}")
    return "\n".join(lines), code


def _cmd_bell(opts: _Options) -> tuple[_Output, int]:
    angles = _parse_angles(opts, 3, BELL_TEST_ANGLES)
    settings = _parse_settings(opts, BELL_TEST_SETTINGS)
    fmt = _format(opts, "table", ("table", "json"))
    report = bell_original(angles[0], angles[1], angles[2], settings)
    code = int(opts.get_bool("strict") and not report.satisfied)
    if fmt == "json":
        return {
            "angles": _angles_doc(angles, ("a0", "shared", "b1")),
            "settings": dict(settings.items()),
            **report.as_dict(),
        }, code
    lines = [
        f"lhs: {sig17(report.lhs)}",
        f"rhs: {sig17(report.rhs)}",
        f"satisfied: {report.satisfied}",
    ]
    return "\n".join(lines), code


def _cmd_nosignal(opts: _Options) -> tuple[_Output, int]:
    angles = _parse_angles(opts, 4, TSIRELSON_ANGLES)
    settings = _parse_settings(opts, SettingsDistribution.uniform())
    fmt = _format(opts, "table", ("table", "json"))
    report = no_signaling_report(chsh_measure(angles, settings))
    if fmt == "json":
        return {"angles": _angles_doc(angles), **report.as_dict()}, 0
    lines = []
    for (party, outcome, own, other), cond in report.conditional_marginals.items():
        lines.append(f"P[{party}={outcome:+d} | own={own}, other={other}] = {sig17(cond)}")
    if report.skipped:
        lines.append("skipped pairs: " + ", ".join(f"a{i}b{j}" for i, j in report.skipped))
    lines.append(f"max deviation: {sig17(report.max_deviation)}")
    return "\n".join(lines), 0


def _cmd_factorize(opts: _Options) -> tuple[_Output, int]:
    angles = _parse_angles(opts, 4, TSIRELSON_ANGLES)
    fmt = _format(opts, "table", ("table", "json"))
    fit = factorizability_fit(chsh_measure(angles, SettingsDistribution.uniform()))
    if fmt == "json":
        return {"angles": _angles_doc(angles), **fit.as_dict()}, 0
    return "\n".join(f"{name}: {sig17(value)}" for name, value in fit.as_dict().items()), 0


def _cmd_witness(opts: _Options) -> tuple[_Output, int]:
    fmt = _format(opts, "table", ("table", "json"))
    grid = opts.get_int("grid", 10000, _MAX_GRID["witness"])
    report = fourier_witness_check(grid_size=grid)
    if fmt == "json":
        return report.as_dict(), 0
    lines = [
        f"first moment |.|: {sig17(report.first_moment_abs)}",
        f"second moment |.|: {sig17(report.second_moment_abs)}",
        f"power: {sig17(report.power)} (target {sig17(math.pi / 2)})",
        f"response amplitude max: {sig17(report.response_amplitude_max)}",
        f"grid size: {report.grid_size}",
        f"contradiction: {report.contradiction}",
    ]
    return "\n".join(lines), 0


def _cmd_lhv_fit(opts: _Options) -> tuple[_Output, int]:
    angles = _parse_angles(opts, 4, TSIRELSON_ANGLES)
    fmt = _format(opts, "table", ("table", "json"))
    grid = opts.get_int("grid", 16, _MAX_GRID["lhv-fit"])
    restarts = opts.get_int("restarts", 8, _MAX_RESTARTS)
    seed = opts.get_int("seed", 0)
    result = m_separability_search(angles, grid_size=grid, restarts=restarts, seed=seed)
    if fmt == "json":
        return {
            "angles": _angles_doc(angles),
            "grid_size": grid,
            "restarts": restarts,
            "seed": seed,
            **result.as_dict(),
        }, 0
    lines = [f"m_hat: {sig17(result.m_hat)}", f"latent points: {result.model.size}"]
    for (x, y, i, j), d in sorted(result.per_setting_deviations.items()):
        lines.append(f"cell x={x:+d} y={y:+d} a{i}b{j}: deviation {sig17(d)}")
    return "\n".join(lines), 0


def _cmd_sample(opts: _Options) -> tuple[_Output, int]:
    angles = _parse_angles(opts, 4, TSIRELSON_ANGLES)
    settings = _parse_settings(opts, SettingsDistribution.uniform())
    fmt = _format(opts, "csv", ("csv", "json", "table"))
    n = opts.get_int("n", 10000, _MAX_N)
    seed = opts.get_int("seed", 0)
    measure = chsh_measure(angles, settings)
    draw = sample_chunks(measure, n, seed)
    if fmt == "csv":
        return trial_csv(draw), 0
    empirical = empirical_measure(draw)
    partials = {
        label: empirical_partial_expectation(empirical, i, j)
        for label, (i, j) in zip(_COLUMN_LABELS, COLUMN_ORDER)
    }
    if fmt == "json":
        return {
            "seed": seed,
            "n": n,
            "generator": GENERATOR_ID,
            "measure_digest": measure.digest(),
            "counts": [int(c) for c in empirical.counts],
            "frequencies": [float(f) for f in empirical.frequencies],
            "partial_expectations": partials,
        }, 0
    lines = [f"n: {n}", f"seed: {seed}", f"generator: {GENERATOR_ID}"]
    lines += [f"partial E {label}: {sig17(value)}" for label, value in partials.items()]
    counts = " ".join(str(int(c)) for c in empirical.counts)
    lines.append(f"counts: {counts}")
    return "\n".join(lines), 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, command: str, *names: str) -> None:
    for name, spec in _OPTIONS.items():
        if name in names:
            help_text = spec["help"].format(grid=_MAX_GRID.get(command))
            sub.add_argument(f"--{name}", **{**spec, "help": help_text})
    sub.add_argument("--config", help="file of 'key = value' defaults")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellmodel",
        description="Probability model and inequality analysis of the four-setting experiment",
    )
    parser.add_argument("--version", action="version", version=f"bellmodel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    handlers: dict[str, tuple[Callable[[_Options], tuple[_Output, int]], tuple[str, ...], str]] = {
        "measure": (_cmd_measure, ("angles", "settings", "format", "degrees"),
                    "print the 16-cell joint probability table"),
        "chsh": (_cmd_chsh, ("angles", "settings", "mode", "format", "strict", "degrees"),
                 "evaluate the CHSH combination"),
        "bell": (_cmd_bell, ("angles", "settings", "format", "strict", "degrees"),
                 "evaluate the original single-sided inequality (3 angles: a0, shared, b1)"),
        "nosignal": (_cmd_nosignal, ("angles", "settings", "format", "degrees"),
                     "report single-detector marginals across the other detector's settings"),
        "factorize": (_cmd_factorize, ("angles", "format", "degrees"),
                      "fit the best product-form table (uniform settings)"),
        "witness": (_cmd_witness, ("format", "grid"),
                    "run the response-amplitude quadrature check"),
        "lhv-fit": (_cmd_lhv_fit, ("angles", "format", "grid", "restarts", "seed", "degrees"),
                    "search for the best finite hidden-variable model"),
        "sample": (_cmd_sample, ("angles", "settings", "n", "seed", "format", "degrees"),
                   "draw reproducible trials from the joint table"),
    }
    for name, (handler, flags, help_text) in handlers.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p, name, *flags)
        p.set_defaults(handler=handler)
    return parser


def _write(pieces: Iterable[str]) -> None:
    """Write to stdout and flush it; a reader that closed stdout is not a failure."""
    try:
        for piece in pieces:  # the trial CSV arrives one chunk of trials at a time
            sys.stdout.write(piece)
        sys.stdout.flush()
    except BrokenPipeError:  # stop writing
        # fd 1 on devnull, so that the flush at interpreter exit finds no pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse wrote help, the version or a usage error
            if sys.stdout is not None:  # without fd 1, argparse writes to stderr
                _write(())
            return int(exc.code or 0)
        if sys.stdout is None:  # the process started with fd 1 closed
            raise OSError("stdout is closed")
        output, code = args.handler(_Options(args))
        if isinstance(output, dict):
            output = json.dumps(output)
        if isinstance(output, str):
            output = [output if output.endswith("\n") else output + "\n"]
        _write(output)
        return code
    except Exception as exc:  # exit 1 is reserved for a violation under --strict
        detail = exc if isinstance(exc, (ValueError, OSError)) else repr(exc)
        with contextlib.suppress(OSError):  # a closed stderr changes neither code nor stdout
            print(f"error: {detail}", file=sys.stderr)
        return 2
