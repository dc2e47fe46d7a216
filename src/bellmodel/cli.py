"""Command-line interface.

One subcommand per capability; every command writes a single document to
stdout (json, csv, or an aligned table) and keeps diagnostics on stderr.
Exit codes: 0 success, 1 inequality violated under --strict, 2 any other
failure (usage, configuration, or an error while computing).  Size flags
(--n, --grid, --restarts) have upper bounds, checked before anything is
allocated.

Shared option values can come from a config file (--config PATH) holding
``key = value`` lines with ``#`` comments; explicit flags win over the
file, which wins over built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Any, Callable, Sequence

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
#: Largest accepted --grid per subcommand: factorize scans grid^2 points,
#: witness holds a few complex arrays of grid nodes, lhv-fit builds a model
#: on grid latent points.
_MAX_GRID = {"factorize": 32, "witness": 1_000_000, "lhv-fit": 1024}

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
        for lineno, raw in enumerate(handle, start=1):
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


class _Options:
    """Flag values merged with the config file; flags win."""

    def __init__(self, args: argparse.Namespace):
        self._args = args
        self._config = _load_config(args.config) if getattr(args, "config", None) else {}

    def get(self, key: str, default: Any = None) -> Any:
        flag = getattr(self._args, key.replace("-", "_"), None)
        if flag is not None:
            return flag
        if key in self._config:
            return self._config[key]
        return default

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


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(doc: dict) -> None:
    _emit(json.dumps(doc))


def _angles_doc(angles: Sequence[DetectorAngle], names: Sequence[str]) -> dict:
    return {name: a.radians for name, a in zip(names, angles)}


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_measure(args: argparse.Namespace) -> int:
    opts = _Options(args)
    angles = _parse_angles(opts, 4, TSIRELSON_ANGLES)
    settings = _parse_settings(opts, SettingsDistribution.uniform())
    fmt = _format(opts, "table", ("table", "json", "csv"))
    measure = chsh_measure(angles, settings)
    if fmt == "json":
        _emit_json(measure.as_dict())
    elif fmt == "csv":
        _emit(measure.to_csv())
    else:
        _emit(_measure_table(measure))
    return 0


def _measure_table(measure: JointMeasure) -> str:
    lines = []
    names = ("a0", "a1", "b0", "b1")
    lines.append("angles:   " + "  ".join(f"{n}={a.radians:.6f}" for n, a in zip(names, measure.angles)))
    lines.append("settings: " + "  ".join(f"{n}={p:.6f}" for n, p in measure.settings.items()))
    header = ["x", "y"] + [f"a{i}b{j}" for (i, j) in COLUMN_ORDER]
    rows = [header]
    table = measure.table
    for row, (x, y) in enumerate(ROW_ORDER):
        cells = [sig17(table[row, i, j]) for (i, j) in COLUMN_ORDER]
        rows.append([f"{x:+d}", f"{y:+d}"] + cells)
    widths = [max(len(r[c]) for r in rows) for c in range(6)]
    for r in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines)


def _cmd_chsh(args: argparse.Namespace) -> int:
    opts = _Options(args)
    angles = _parse_angles(opts, 4, TSIRELSON_ANGLES)
    settings = _parse_settings(opts, SettingsDistribution.uniform())
    mode = str(opts.get("mode", "conditional")).strip().lower()
    if mode not in ("conditional", "partial"):
        raise ValueError(f"--mode must be 'conditional' or 'partial', got {mode!r}")
    fmt = _format(opts, "table", ("table", "json"))
    measure = chsh_measure(angles, settings)
    report = chsh_conditional(measure) if mode == "conditional" else chsh_partial(measure)
    if fmt == "json":
        doc = {
            "mode": mode,
            "angles": _angles_doc(angles, ("a0", "a1", "b0", "b1")),
            "settings": dict(settings.items()),
        }
        doc.update(report.as_dict())
        _emit_json(doc)
    else:
        lines = [f"mode: {mode}"]
        for (i, j), t in zip(COLUMN_ORDER, report.term_values):
            lines.append(f"term a{i}b{j}: {sig17(t)}")
        lines.append(f"combined: {sig17(report.combined_value)}")
        lines.append(f"bound: {sig17(report.bound)}")
        lines.append(f"satisfied: {report.satisfied}")
        _emit("\n".join(lines))
    if opts.get_bool("strict") and not report.satisfied:
        return 1
    return 0


def _cmd_bell(args: argparse.Namespace) -> int:
    opts = _Options(args)
    angles = _parse_angles(opts, 3, BELL_TEST_ANGLES)
    settings = _parse_settings(opts, BELL_TEST_SETTINGS)
    fmt = _format(opts, "table", ("table", "json"))
    report = bell_original(angles[0], angles[1], angles[2], settings)
    if fmt == "json":
        doc = {
            "angles": _angles_doc(angles, ("a0", "shared", "b1")),
            "settings": dict(settings.items()),
        }
        doc.update(report.as_dict())
        _emit_json(doc)
    else:
        _emit(
            "\n".join(
                [
                    f"lhs: {sig17(report.lhs)}",
                    f"rhs: {sig17(report.rhs)}",
                    f"satisfied: {report.satisfied}",
                ]
            )
        )
    if opts.get_bool("strict") and not report.satisfied:
        return 1
    return 0


def _cmd_nosignal(args: argparse.Namespace) -> int:
    opts = _Options(args)
    angles = _parse_angles(opts, 4, TSIRELSON_ANGLES)
    settings = _parse_settings(opts, SettingsDistribution.uniform())
    fmt = _format(opts, "table", ("table", "json"))
    report = no_signaling_report(chsh_measure(angles, settings))
    if fmt == "json":
        doc = {"angles": _angles_doc(angles, ("a0", "a1", "b0", "b1"))}
        doc.update(report.as_dict())
        _emit_json(doc)
    else:
        lines = []
        for (party, outcome, own, other), cond in report.conditional_marginals.items():
            lines.append(
                f"P[{party}={outcome:+d} | own={own}, other={other}] = {sig17(cond)}"
            )
        if report.skipped:
            lines.append("skipped pairs: " + ", ".join(f"a{i}b{j}" for i, j in report.skipped))
        lines.append(f"max deviation: {sig17(report.max_deviation)}")
        _emit("\n".join(lines))
    return 0


def _cmd_factorize(args: argparse.Namespace) -> int:
    opts = _Options(args)
    angles = _parse_angles(opts, 4, TSIRELSON_ANGLES)
    fmt = _format(opts, "table", ("table", "json"))
    grid = opts.get_int("grid", 21, _MAX_GRID["factorize"])
    restarts = opts.get_int("restarts", 5, _MAX_RESTARTS)
    measure = chsh_measure(angles, SettingsDistribution.uniform())
    fit = factorizability_fit(measure, grid_points=grid, restarts=restarts)
    if fmt == "json":
        doc = {"angles": _angles_doc(angles, ("a0", "a1", "b0", "b1"))}
        doc.update(fit.as_dict())
        _emit_json(doc)
    else:
        lines = [f"{name}: {sig17(value)}" for name, value in fit.as_dict().items()]
        _emit("\n".join(lines))
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    opts = _Options(args)
    fmt = _format(opts, "table", ("table", "json"))
    grid = opts.get_int("grid", 10000, _MAX_GRID["witness"])
    report = fourier_witness_check(grid_size=grid)
    if fmt == "json":
        _emit_json(report.as_dict())
    else:
        lines = [
            f"first moment |.|: {sig17(report.first_moment_abs)}",
            f"second moment |.|: {sig17(report.second_moment_abs)}",
            f"power: {sig17(report.power)} (target {sig17(math.pi / 2)})",
            f"response amplitude max: {sig17(report.response_amplitude_max)}",
            f"grid size: {report.grid_size}",
            f"contradiction: {report.contradiction}",
        ]
        _emit("\n".join(lines))
    return 0


def _cmd_lhv_fit(args: argparse.Namespace) -> int:
    opts = _Options(args)
    angles = _parse_angles(opts, 4, TSIRELSON_ANGLES)
    fmt = _format(opts, "table", ("table", "json"))
    grid = opts.get_int("grid", 16, _MAX_GRID["lhv-fit"])
    restarts = opts.get_int("restarts", 8, _MAX_RESTARTS)
    seed = opts.get_int("seed", 0)
    result = m_separability_search(angles, grid_size=grid, restarts=restarts, seed=seed)
    if fmt == "json":
        doc = {
            "angles": _angles_doc(angles, ("a0", "a1", "b0", "b1")),
            "grid_size": grid,
            "restarts": restarts,
            "seed": seed,
        }
        doc.update(result.as_dict())
        _emit_json(doc)
    else:
        lines = [f"m_hat: {sig17(result.m_hat)}", f"latent points: {result.model.size}"]
        for (x, y, i, j), d in sorted(result.per_setting_deviations.items()):
            lines.append(f"cell x={x:+d} y={y:+d} a{i}b{j}: deviation {sig17(d)}")
        _emit("\n".join(lines))
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    opts = _Options(args)
    angles = _parse_angles(opts, 4, TSIRELSON_ANGLES)
    settings = _parse_settings(opts, SettingsDistribution.uniform())
    fmt = _format(opts, "csv", ("csv", "json", "table"))
    n = opts.get_int("n", 10000, _MAX_N)
    seed = opts.get_int("seed", 0)
    measure = chsh_measure(angles, settings)
    chunks = sample_chunks(measure, n, seed)
    if fmt == "csv":
        for piece in trial_csv(chunks):  # each piece ends with a newline
            sys.stdout.write(piece)
        return 0
    empirical = empirical_measure(chunks)
    partials = {
        f"a{i}b{j}": empirical_partial_expectation(empirical, i, j) for (i, j) in COLUMN_ORDER
    }
    if fmt == "json":
        doc = {
            "seed": seed,
            "n": n,
            "generator": GENERATOR_ID,
            "measure_digest": measure.digest(),
            "counts": [int(c) for c in empirical.counts],
            "frequencies": [float(f) for f in empirical.frequencies],
            "partial_expectations": partials,
        }
        _emit_json(doc)
    else:
        lines = [f"n: {n}", f"seed: {seed}", f"generator: {GENERATOR_ID}"]
        lines += [f"partial E {label}: {sig17(value)}" for label, value in partials.items()]
        counts = " ".join(str(int(c)) for c in empirical.counts)
        lines.append(f"counts: {counts}")
        _emit("\n".join(lines))
    return 0


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

    handlers: dict[str, tuple[Callable[[argparse.Namespace], int], tuple[str, ...], str]] = {
        "measure": (_cmd_measure, ("angles", "settings", "format", "degrees"),
                    "print the 16-cell joint probability table"),
        "chsh": (_cmd_chsh, ("angles", "settings", "mode", "format", "strict", "degrees"),
                 "evaluate the CHSH combination"),
        "bell": (_cmd_bell, ("angles", "settings", "format", "strict", "degrees"),
                 "evaluate the original single-sided inequality (3 angles: a0, shared, b1)"),
        "nosignal": (_cmd_nosignal, ("angles", "settings", "format", "degrees"),
                     "report single-detector marginals across the other detector's settings"),
        "factorize": (_cmd_factorize, ("angles", "format", "grid", "restarts", "degrees"),
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 is reserved for a violation under --strict
        print(f"error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
