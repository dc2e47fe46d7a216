"""Output checks that do not depend on the code under test.

Every expected value comes from the closed form of the singlet table,

    p(x, y | a, b) = sin^2(a - b) / 2  if x == y,  cos^2(a - b) / 2 otherwise,

scaled by the setting probability p_ij, or from the benchmark's own linear
program over the 16 deterministic strategies.  Nothing here imports
bellmodel.  `check` returns a `Verdict`; every failed request counts.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

#: Setting-pair columns and outcome rows of the canonical 16-cell layout:
#: cell index = column * 4 + row.
COLUMNS = ((0, 0), (1, 0), (1, 1), (0, 1))
ROWS = ((1, 1), (-1, 1), (1, -1), (-1, -1))
_COLUMN_LABELS = tuple(f"a{i}b{j}" for i, j in COLUMNS)

_ABS = 1e-12  # agreement of closed-form probabilities and expectations
_LP_TOL = 1e-9  # agreement with the LP optimum


@dataclass
class Verdict:
    ok: bool
    detail: str = ""
    info: dict = field(default_factory=dict)


class _Mismatch(Exception):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise _Mismatch(message)


def _close(actual: float, expected: float, what: str, tol: float = _ABS) -> None:
    _expect(abs(float(actual) - expected) <= tol, f"{what}: got {actual!r}, expected {expected!r}")


# ---------------------------------------------------------------------------
# Closed-form model
# ---------------------------------------------------------------------------


def conditional_prob(x: int, y: int, a: float, b: float) -> float:
    d = a - b
    return 0.5 * math.sin(d) ** 2 if x == y else 0.5 * math.cos(d) ** 2


def setting_prob(settings, i: int, j: int) -> float:
    return settings[2 * i + j]  # settings are (p00, p01, p10, p11)


def joint_cells(angles, settings) -> list[float]:
    """The 16 cells p(x, y, i, j) in canonical order."""
    a, b = angles[:2], angles[2:]
    return [
        setting_prob(settings, i, j) * conditional_prob(x, y, a[i], b[j])
        for (i, j) in COLUMNS
        for (x, y) in ROWS
    ]


def correlation(a: float, b: float) -> float:
    """E[XY | a, b] = sin^2(a - b) - cos^2(a - b)."""
    return -math.cos(2.0 * (a - b))


def lp_optimum(angles) -> tuple[float, int]:
    """Smallest worst-cell deviation over all local models, and the LP support.

    Every local model predicts a convex mixture of the 16 deterministic
    strategies (Fine 1982), so min over mixtures of the max deviation from
    the conditional table is a 17-variable linear program.
    """
    from scipy.optimize import linprog

    a, b = angles[:2], angles[2:]
    target = np.array([[[conditional_prob(x, y, a[i], b[j]) for j in (0, 1)] for i in (0, 1)]
                       for (x, y) in ROWS])
    tables = np.zeros((16, 4, 2, 2))
    for k in range(16):
        xs = [1 if (k >> bit) & 1 else -1 for bit in (0, 1)]
        ys = [1 if (k >> bit) & 1 else -1 for bit in (2, 3)]
        for row, (x, y) in enumerate(ROWS):
            for i in (0, 1):
                for j in (0, 1):
                    tables[k, row, i, j] = float(xs[i] == x and ys[j] == y)
    columns = tables.reshape(16, 16).T  # (cell, strategy)
    ones = np.ones((16, 1))
    a_ub = np.vstack([np.hstack([columns, -ones]), np.hstack([-columns, -ones])])
    b_ub = np.concatenate([target.ravel(), -target.ravel()])
    cost = np.zeros(17)
    cost[16] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=[[1.0] * 16 + [0.0]], b_eq=[1.0],
                  bounds=[(0.0, 1.0)] * 16 + [(0.0, None)], method="highs")
    if not res.success:
        raise RuntimeError(f"benchmark LP failed: {res.message}")
    return float(res.fun), int(np.sum(res.x[:16] > 1e-9))


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------


def _text(out: bytes) -> str:
    text = out.decode("ascii")
    _expect(text.endswith("\n"), "stdout does not end with a newline")
    return text


def _json(out: bytes) -> dict:
    doc = json.loads(_text(out))
    _expect(isinstance(doc, dict), "stdout is not a JSON object")
    return doc


def _key_values(out: bytes) -> dict[str, str]:
    """``key: value`` lines; the value is the first token after the colon."""
    values = {}
    for line in _text(out).splitlines():
        key, sep, rest = line.partition(": ")
        _expect(bool(sep) and bool(rest.split()), f"unexpected line {line!r}")
        values[key] = rest.split()[0]
    return values


def _bool(text) -> bool:
    _expect(text in (True, False, "True", "False"), f"not a boolean: {text!r}")
    return text in (True, "True")


def _angles_echo(doc_angles: dict, names, angles) -> None:
    """Echoed angles are congruent to the requested ones modulo pi."""
    for name, expected in zip(names, angles):
        delta = (float(doc_angles[name]) - expected) / math.pi
        _expect(abs(delta - round(delta)) <= 1e-12, f"angle {name} echoed as {doc_angles[name]!r}")


# ---------------------------------------------------------------------------
# Per-subcommand checks
# ---------------------------------------------------------------------------


def _check_measure(params: dict, out: bytes) -> None:
    cells = joint_cells(params["angles"], params["settings"])
    fmt = params["format"]
    if fmt == "json":
        doc = _json(out)
        _expect(len(doc["cells"]) == 16, "measure JSON needs 16 cells")
        for c, cell in enumerate(doc["cells"]):
            (i, j), (x, y) = COLUMNS[c // 4], ROWS[c % 4]
            _expect((cell["x"], cell["y"], cell["i"], cell["j"]) == (x, y, i, j),
                    f"cell {c} is {cell}, expected x={x} y={y} i={i} j={j}")
            _close(cell["p"], cells[c], f"p({x},{y},{i},{j})")
        _expect(tuple(doc["settings"].values()) == tuple(params["settings"]), "settings echo")
        _angles_echo(doc["angles"], ("a0", "a1", "b0", "b1"), params["angles"])
        return
    lines = _text(out).splitlines()
    if fmt == "csv":
        _expect(lines[0] == "x,y," + ",".join(_COLUMN_LABELS), f"CSV header {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
    else:
        _expect(lines[0].startswith("angles:") and lines[1].startswith("settings:"), "table preamble")
        _expect(lines[2].split() == ["x", "y", *_COLUMN_LABELS], f"table header {lines[2]!r}")
        rows = [line.split() for line in lines[3:]]
    _expect(len(rows) == 4 and all(len(r) == 6 for r in rows), "measure needs 4 rows of 6 fields")
    for row, fields in enumerate(rows):
        _expect((int(fields[0]), int(fields[1])) == ROWS[row], f"row {row} labels {fields[:2]}")
        for col in range(4):
            _close(float(fields[2 + col]), cells[col * 4 + row], f"row {row} column {col}")


def _chsh_terms(params: dict) -> list[float]:
    a, b = params["angles"][:2], params["angles"][2:]
    terms = []
    for (i, j) in COLUMNS:
        e = correlation(a[i], b[j])
        terms.append(e if params["mode"] == "conditional" else setting_prob(params["settings"], i, j) * e)
    return terms


def _check_verdict(satisfied, value: float, bound: float) -> None:
    # a value within 1e-9 of its bound may round either way
    if abs(value - bound) > 1e-9:
        _expect(_bool(satisfied) == (value <= bound), f"satisfied={satisfied} for {value} vs {bound}")


def _check_chsh(params: dict, out: bytes) -> None:
    terms = _chsh_terms(params)
    combined = abs(terms[0] + terms[1] + terms[2] - terms[3])
    if params["format"] == "json":
        doc = _json(out)
        _expect(doc["mode"] == params["mode"], "mode echo")
        reported, value, bound, satisfied = (
            doc["term_values"], doc["combined_value"], doc["bound"], doc["satisfied"])
        _angles_echo(doc["angles"], ("a0", "a1", "b0", "b1"), params["angles"])
    else:
        kv = _key_values(out)
        _expect(kv["mode"] == params["mode"], "mode echo")
        reported = [float(kv[f"term {label}"]) for label in _COLUMN_LABELS]
        value, bound, satisfied = float(kv["combined"]), float(kv["bound"]), kv["satisfied"]
    _expect(len(reported) == 4, "CHSH needs 4 terms")
    for label, got, expected in zip(_COLUMN_LABELS, reported, terms):
        _close(got, expected, f"term {label}")
    _close(value, combined, "combined value")
    _expect(float(bound) == 2.0, f"CHSH bound {bound!r}")
    _check_verdict(satisfied, combined, 2.0)


def _check_bell(params: dict, out: bytes) -> None:
    a0, shared, b1 = params["angles"]
    s = params["settings"]
    t00 = -setting_prob(s, 0, 0) * correlation(a0, shared)
    t01 = -setting_prob(s, 0, 1) * correlation(a0, b1)
    t11 = -setting_prob(s, 1, 1) * correlation(shared, b1)
    lhs, rhs = abs(t00 - t01), 1.0 + t11
    doc = _json(out) if params["format"] == "json" else _key_values(out)
    _close(float(doc["lhs"]), lhs, "lhs")
    _close(float(doc["rhs"]), rhs, "rhs")
    _check_verdict(doc["satisfied"], lhs, rhs)


def _check_nosignal(params: dict, out: bytes) -> None:
    s = params["settings"]
    skipped = [(i, j) for (i, j) in sorted(COLUMNS) if setting_prob(s, i, j) == 0.0]
    usable = len(COLUMNS) - len(skipped)
    if params["format"] == "json":
        doc = _json(out)
        _expect([tuple(p) for p in doc["skipped"]] == skipped, f"skipped {doc['skipped']}")
        _expect(len(doc["marginals"]) == 4 * usable, "one marginal per party, outcome and usable pair")
        for m in doc["marginals"]:
            own, other = m["own_setting"], m["other_setting"]
            i, j = (own, other) if m["party"] == "A" else (other, own)
            # each detector alone sees +1 and -1 with probability 1/2
            _close(m["conditional"], 0.5, f"conditional marginal {m}")
            _close(m["joint"], 0.5 * setting_prob(s, i, j), f"joint marginal {m}")
        _expect(all(d["deviation"] <= _ABS for d in doc["deviations"]), "nonzero signaling deviation")
        max_dev = doc["max_deviation"]
    else:
        lines = _text(out).splitlines()
        marginals = [line for line in lines if line.startswith("P[")]
        _expect(len(marginals) == 4 * usable, "one marginal per party, outcome and usable pair")
        for line in marginals:
            _close(float(line.rsplit("= ", 1)[1]), 0.5, line)
        labels = ", ".join(f"a{i}b{j}" for i, j in skipped)
        _expect(("skipped pairs: " + labels in lines) == bool(skipped), "skipped pairs line")
        _expect(lines[-1].startswith("max deviation: "), "max deviation line")
        max_dev = float(lines[-1].split(": ")[1])
    _expect(0.0 <= max_dev <= _ABS, f"max deviation {max_dev!r}")


def product_residual(params, target) -> float:
    """Summed squared error of the Bernoulli-product table (uniform settings)."""
    u, v = params[:2], params[2:]
    total = 0.0
    for c, ((i, j), (x, y)) in enumerate((col, row) for col in COLUMNS for row in ROWS):
        px = u[i] if x == 1 else 1.0 - u[i]
        py = v[j] if y == 1 else 1.0 - v[j]
        total += (0.25 * px * py - target[c]) ** 2
    return total


def _check_factorize(params: dict, out: bytes) -> None:
    target = joint_cells(params["angles"], (0.25,) * 4)
    doc = _json(out) if params["format"] == "json" else _key_values(out)
    fit = [float(doc[f"p_plus_{name}"]) for name in ("a0", "a1", "b0", "b1")]
    _expect(all(0.0 <= p <= 1.0 for p in fit), f"fit parameters {fit} outside [0, 1]")
    residual = float(doc["residual"])
    recomputed = product_residual(fit, target)
    _close(residual, recomputed, "residual recomputed from the reported parameters",
           tol=_ABS + 1e-9 * recomputed)
    # the coarse grid holds the centre point, so the fit can only do better
    _expect(residual <= product_residual([0.5] * 4, target) + _ABS, "fit worse than the centre")


def _check_witness(params: dict, out: bytes) -> None:
    if params["format"] == "json":
        doc = _json(out)
        first, second, power = doc["first_moment_abs"], doc["second_moment_abs"], doc["power"]
        amplitude, grid, contradiction = (
            doc["response_amplitude_max"], doc["grid_size"], doc["contradiction"])
    else:
        kv = _key_values(out)
        first, second, power = kv["first moment |.|"], kv["second moment |.|"], kv["power"]
        amplitude, grid, contradiction = (
            kv["response amplitude max"], kv["grid size"], kv["contradiction"])
    # midpoint quadrature of c = sqrt(pi/2) exp(2 pi i l): moments 0, power pi/2, swing sqrt 2
    _close(float(first), 0.0, "first moment", tol=1e-8)
    _close(float(second), 0.0, "second moment", tol=1e-8)
    _close(float(power), math.pi / 2, "power", tol=1e-8)
    _close(float(amplitude), math.sqrt(2.0), "response amplitude", tol=1e-9)
    _expect(int(grid) == params["grid"], f"grid size {grid!r}")
    _expect(_bool(contradiction), "no contradiction reported")


def _check_counts(counts: np.ndarray, n: int, probs: list[float]) -> float:
    """Zero-probability cells are empty and a loose chi-square holds; returns chi-square."""
    _expect(int(counts.sum()) == n, f"counts sum to {int(counts.sum())}, not {n}")
    chi2, df = 0.0, -1
    for c, p in enumerate(probs):
        observed, expected = int(counts[c]), n * p
        if p == 0.0:
            _expect(observed == 0, f"{observed} trials in zero-probability cell {c}")
        elif expected < 5.0:
            _expect(observed <= expected + 10.0 * math.sqrt(expected) + 10.0,
                    f"{observed} trials in cell {c}, expected {expected:.3g}")
        else:
            chi2 += (observed - expected) ** 2 / expected
            df += 1
    if df > 0:
        limit = df + 10.0 * math.sqrt(2.0 * df) + 20.0
        _expect(chi2 <= limit, f"chi-square {chi2:.1f} exceeds {limit:.1f} (df {df})")
    return chi2


_CELL_OF_IJ = np.array([0, 3, 1, 2])  # column of setting pair (i, j), indexed by 2 * i + j


def _check_sample(params: dict, out: bytes) -> Verdict:
    n = params["n"]
    probs = joint_cells(params["angles"], params["settings"])
    if params["format"] == "csv":
        _expect(out.startswith(b"n,x,y,i,j\n"), "CSV header is not n,x,y,i,j")
        _expect(out.endswith(b"\n") and out.count(b"\n") == n + 1, "CSV needs n + 1 lines")
        body = out[len(b"n,x,y,i,j\n"):].replace(b"\n", b",").decode("ascii")
        table = np.fromstring(body, dtype=np.int64, sep=",")
        _expect(table.size == 5 * n, "CSV rows do not hold 5 integers each")
        table = table.reshape(n, 5)
        _expect(np.array_equal(table[:, 0], np.arange(n)), "trial index column is not 0..n-1")
        x, y, i, j = table[:, 1], table[:, 2], table[:, 3], table[:, 4]
        _expect(bool(np.all(np.abs(x) == 1) and np.all(np.abs(y) == 1)), "outcomes are not +-1")
        _expect(bool(np.all((i == 0) | (i == 1)) and np.all((j == 0) | (j == 1))), "settings not 0/1")
        cells = _CELL_OF_IJ[2 * i + j] * 4 + (x < 0) + 2 * (y < 0)
        counts = np.bincount(cells, minlength=16)
        chi2 = _check_counts(counts, n, probs)
        return Verdict(True, info={"chi2": chi2})
    doc = _json(out)
    _expect(doc["n"] == n and doc["seed"] == params["seed"], "n or seed echo")
    counts = np.array(doc["counts"], dtype=np.int64)
    _expect(counts.shape == (16,), "summary needs 16 counts")
    chi2 = _check_counts(counts, n, probs)
    _expect([float(f) for f in doc["frequencies"]] == [int(c) / n for c in counts],
            "frequencies are not counts / n")
    for col, (i, j) in enumerate(COLUMNS):
        total = sum(x * y * int(counts[col * 4 + row]) for row, (x, y) in enumerate(ROWS))
        _expect(doc["partial_expectations"][f"a{i}b{j}"] == total / n, f"partial expectation a{i}b{j}")
    _expect(isinstance(doc["generator"], str) and len(doc["measure_digest"]) == 64, "provenance")
    return Verdict(True, info={"chi2": chi2})


def _check_lhv_fit(params: dict, out: bytes) -> Verdict:
    doc = _json(out)
    grid = params["grid"]
    _expect((doc["grid_size"], doc["restarts"], doc["seed"]) ==
            (grid, params["restarts"], params["seed"]), "grid, restarts or seed echo")
    model = doc["model"]
    rho = np.array(model["rho"], dtype=float)
    p = np.array(model["p_response"], dtype=float)  # P[X = +1 | a_i, lambda]
    q = np.array(model["q_response"], dtype=float)  # P[Y = -1 | b_j, lambda]
    _expect(rho.shape == (grid,) and p.shape == (2, grid) and q.shape == (2, grid), "model shapes")
    _expect(bool(np.all(rho >= 0.0)) and abs(rho.sum() - 1.0) <= 1e-9, "rho is not a distribution")
    _expect(bool(np.all((p >= 0) & (p <= 1) & (q >= 0) & (q <= 1))), "responses outside [0, 1]")
    a, b = params["angles"][:2], params["angles"][2:]
    recomputed = {}
    for (x, y) in ROWS:
        for i in (0, 1):
            for j in (0, 1):
                px = p[i] if x == 1 else 1.0 - p[i]
                py = 1.0 - q[j] if y == 1 else q[j]
                predicted = float(np.sum(rho * px * py))
                recomputed[(x, y, i, j)] = abs(predicted - conditional_prob(x, y, a[i], b[j]))
    reported = {(d["x"], d["y"], d["i"], d["j"]): d["deviation"] for d in doc["per_setting_deviations"]}
    _expect(set(reported) == set(recomputed), "deviations must cover all 16 cells")
    for cell, dev in reported.items():
        _close(dev, recomputed[cell], f"deviation of cell {cell} recomputed from the model", _LP_TOL)
    m_hat = float(doc["m_hat"])
    _close(m_hat, max(reported.values()), "m_hat vs largest reported deviation")
    _close(m_hat, max(recomputed.values()), "m_hat vs model", _LP_TOL)
    optimum, support = lp_optimum(params["angles"])
    _expect(m_hat >= optimum - _LP_TOL, f"m_hat {m_hat!r} below the LP optimum {optimum!r}")
    if grid >= support:
        _close(m_hat, optimum, f"m_hat at grid {grid} >= LP support {support}", _LP_TOL)
    return Verdict(True, info={"m_hat": m_hat, "lp_optimum": optimum, "support": support,
                               "at_optimum": abs(m_hat - optimum) <= _LP_TOL})


def _check_malformed(rc: int, out: bytes, err: bytes) -> None:
    _expect(rc == 2, f"exit code {rc}, expected 2")
    _expect(out == b"", "malformed request wrote to stdout")
    lines = [line for line in err.decode("utf-8", "replace").splitlines() if line.strip()]
    _expect(len(lines) == 1 and lines[0].startswith("error:"), f"stderr is {lines!r}")
    _expect(b"Traceback" not in err, "traceback on stderr")


_CHECKS = {
    "measure": _check_measure,
    "chsh": _check_chsh,
    "bell": _check_bell,
    "nosignal": _check_nosignal,
    "factorize": _check_factorize,
    "witness": _check_witness,
    "sample": _check_sample,
    "lhv-fit": _check_lhv_fit,
}


def check(request, rc: int, out: bytes, err: bytes, digests: dict[str, str]) -> Verdict:
    """Check one response.  ``digests`` maps sample requests to the SHA-256
    of their stdout; a repeated request must reproduce the same bytes."""
    try:
        if request.kind == "malformed":
            _check_malformed(rc, out, err)
            return Verdict(True)
        _expect(rc == 0, f"exit code {rc}: {err.decode('utf-8', 'replace').strip()[-300:]}")
        verdict = _CHECKS[request.kind](request.params, out) or Verdict(True)
        if request.kind == "sample":
            sha = hashlib.sha256(out).hexdigest()
            known = digests.setdefault(request.key, sha)
            _expect(known == sha, "stdout bytes differ from an earlier identical request")
        return verdict
    except _Mismatch as exc:
        return Verdict(False, str(exc))
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return Verdict(False, f"unparsable output: {type(exc).__name__}: {exc}")
