"""Acceptance gate: one test per shipped criterion.

Each test asserts the pinned values and budgets for one criterion and then
prints a single ``criterion N: PASS`` line (visible with ``pytest -s``); a
failing criterion shows up as the test's FAILED line instead.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from bellmodel.inequalities import (
    BELL_TEST_ANGLES,
    BELL_TEST_SETTINGS,
    bell_original,
    chsh_conditional,
    chsh_partial,
    realism_table_check,
)
from bellmodel.lhv import (
    factorizability_fit,
    fourier_witness_check,
    m_separability_search,
    no_signaling_report,
)
from bellmodel.montecarlo import empirical_measure, empirical_partial_expectation, sample
from bellmodel.probspace import (
    COLUMN_ORDER,
    ROW_ORDER,
    Event,
    JointMeasure,
    RandomVariable,
    SettingsDistribution,
    chsh_measure,
    conditional_expectation,
    dice_space,
    expectation,
    partial_expectation,
    verify_expectation_relation,
)
from bellmodel.singlet import TSIRELSON_ANGLES, DetectorAngle

SQRT2 = math.sqrt(2.0)
BETA_SQ = (2.0 - SQRT2) / 4.0
GAMMA_SQ = (2.0 + SQRT2) / 4.0
M_LOWER_BOUND = (2.0 * SQRT2 - 2.0) / 16.0

#: angles whose conditional table is flat, hence exactly separable
FLAT_ANGLES = (
    DetectorAngle(0.0),
    DetectorAngle(math.pi / 2),
    DetectorAngle(math.pi / 4),
    DetectorAngle(3 * math.pi / 4),
)


def test_criterion_01_conditional_combination_attains_quantum_maximum():
    report = chsh_conditional(chsh_measure(TSIRELSON_ANGLES))
    assert report.combined_value == pytest.approx(2.0 * SQRT2, abs=1e-12)
    assert not report.satisfied
    print(f"criterion 1: PASS - conditional combination {report.combined_value!r} "
          f"matches 2*sqrt(2) within 1e-12")


def test_criterion_02_partial_combination_stays_within_bound():
    report = chsh_partial(chsh_measure(TSIRELSON_ANGLES))
    assert report.combined_value == pytest.approx(SQRT2 / 2.0, abs=1e-12)
    assert report.bound == 2.0
    assert report.satisfied
    print(f"criterion 2: PASS - partial combination {report.combined_value!r} "
          f"matches sqrt(2)/2 within 1e-12 and satisfies the bound 2")


def test_criterion_03_reference_joint_table_cells():
    measure = chsh_measure(TSIRELSON_ANGLES)
    worst = 0.0
    for (i, j) in COLUMN_ORDER:
        for (x, y) in ROW_ORDER:
            if (i, j) == (0, 1):
                expected = BETA_SQ / 8.0 if x == y else GAMMA_SQ / 8.0
            else:
                expected = GAMMA_SQ / 8.0 if x == y else BETA_SQ / 8.0
            worst = max(worst, abs(measure.probability(x, y, i, j) - expected))
    assert worst <= 1e-12
    print(f"criterion 3: PASS - all 16 cells match the two-constant placement, "
          f"worst deviation {worst:.3e}")


def test_criterion_04_single_sided_inequality_reference_configuration():
    report = bell_original(*BELL_TEST_ANGLES, BELL_TEST_SETTINGS)
    assert report.lhs == pytest.approx(SQRT2 / 6.0, abs=1e-12)
    assert report.rhs == pytest.approx(1.0 - SQRT2 / 6.0, abs=1e-12)
    assert report.satisfied
    print(f"criterion 4: PASS - lhs {report.lhs!r} = sqrt(2)/6 and "
          f"rhs {report.rhs!r} = 1 - sqrt(2)/6 within 1e-12, satisfied")


def test_criterion_05_dice_regression_all_flavors():
    space = dice_space()
    first = RandomVariable(lambda o: o[0])
    total = RandomVariable(lambda o: o[0] + o[1])
    doubles = Event(lambda o: o[0] == o[1])

    assert expectation(space, first) == pytest.approx(3.5, abs=1e-12)
    assert expectation(space, total) == pytest.approx(7.0, abs=1e-12)
    assert conditional_expectation(space, total, doubles) == pytest.approx(7.0, abs=1e-12)
    assert partial_expectation(space, total, doubles) == pytest.approx(42.0 / 36.0, abs=1e-12)
    assert partial_expectation(space, total, ~doubles) == pytest.approx(
        5.0 * 42.0 / 36.0, abs=1e-12
    )
    assert verify_expectation_relation(space, total, doubles)
    assert verify_expectation_relation(space, total, ~doubles)

    # same quantities in exact rational arithmetic
    weights = {o: Fraction(1, 36) for o in space.outcomes}
    exact_partial = sum((o[0] + o[1]) * weights[o] for o in space.outcomes if o[0] == o[1])
    exact_rest = sum((o[0] + o[1]) * weights[o] for o in space.outcomes if o[0] != o[1])
    assert exact_partial == Fraction(42, 36)
    assert exact_rest == 5 * Fraction(42, 36)
    assert exact_partial / Fraction(6, 36) == 7
    assert exact_partial + exact_rest == 7
    print("criterion 5: PASS - plain 3.5 and 7, conditional 7, partials 42/36 and "
          "210/36, and partial = conditional * probability, exact in rationals")


def test_criterion_06_fixed_answer_tables_stay_classical():
    values = realism_table_check()
    assert len(values) == 16
    assert all(v in (-2, 2) for v in values)
    assert max(values) == 2
    print("criterion 6: PASS - all 16 fixed-answer rows evaluate to -2 or +2")


def test_criterion_07_marginals_ignore_the_other_detector():
    rng = np.random.default_rng(20260819)
    configs = []
    for _ in range(1000):
        angles = tuple(DetectorAngle(a) for a in rng.uniform(0, math.pi, size=4))
        raw = rng.uniform(0.05, 1.0, size=4)
        raw /= raw.sum()
        raw[3] = 1.0 - float(raw[:3].sum())
        configs.append((angles, SettingsDistribution(*raw)))
    start = time.perf_counter()
    worst = 0.0
    for angles, settings in configs:
        report = no_signaling_report(chsh_measure(angles, settings))
        worst = max(worst, report.max_deviation)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(f"criterion 7: PASS - worst marginal deviation {worst:.3e} over 1000 "
          f"randomized configurations in {elapsed:.3f} s")


def _exhaustive_product_residual(measure: JointMeasure, steps: int = 1001) -> float:
    """Exact minimum of the product-fit residual over the full parameter grid.

    The residual splits into four pair terms, one per setting-pair column,
    each depending on one detector-A and one detector-B parameter; tabulating
    the pairs and folding the two B-parameters out with running minima scans
    the complete steps**4 grid without materializing it.
    """
    g = np.linspace(0.0, 1.0, steps)

    def pair_table(i: int, j: int) -> np.ndarray:
        cells = [4.0 * measure.probability(x, y, i, j) for (x, y) in ROW_ORDER]
        u = g[:, None]
        v = g[None, :]
        total = np.zeros((steps, steps))
        for (x, y), c in zip(ROW_ORDER, cells):
            bu = u if x == 1 else 1.0 - u
            bv = v if y == 1 else 1.0 - v
            total += (bu * bv - c) ** 2
        return total / 16.0

    tables = {pair: pair_table(*pair) for pair in COLUMN_ORDER}

    def fold(A: np.ndarray, B: np.ndarray, chunk: int = 1) -> np.ndarray:
        out = np.empty((steps, steps))
        tmp = np.empty((chunk, steps, steps))
        for lo in range(0, steps, chunk):
            hi = min(lo + chunk, steps)
            t = tmp[: hi - lo]
            np.add(A[lo:hi, None, :], B[None, :, :], out=t)
            t.min(axis=2, out=out[lo:hi])
        return out

    best_b0 = fold(tables[(0, 0)], tables[(1, 0)])
    best_b1 = fold(tables[(0, 1)], tables[(1, 1)])
    return float((best_b0 + best_b1).min())


def _product_measure(u: tuple, v: tuple) -> JointMeasure:
    cells = {}
    for (i, j) in COLUMN_ORDER:
        for (x, y) in ROW_ORDER:
            px = u[i] if x == 1 else 1.0 - u[i]
            py = v[j] if y == 1 else 1.0 - v[j]
            cells[(x, y, i, j)] = 0.25 * px * py
    return JointMeasure.from_probabilities(
        TSIRELSON_ANGLES, SettingsDistribution.uniform(), cells
    )


def test_criterion_08_product_fit_residuals_with_exhaustive_oracle():
    target = chsh_measure(TSIRELSON_ANGLES)
    start = time.perf_counter()
    fit = factorizability_fit(target)
    fit_elapsed = time.perf_counter() - start
    assert fit.residual > 0.01
    assert fit_elapsed < 1.0

    product_fit = factorizability_fit(_product_measure((0.3, 0.6), (0.2, 0.9)))
    assert product_fit.residual <= 1e-10

    start = time.perf_counter()
    oracle = _exhaustive_product_residual(target)
    oracle_elapsed = time.perf_counter() - start
    assert oracle_elapsed < 10.0
    assert oracle > 0.01
    # the fit refines off-grid, so it may only improve on the grid optimum
    assert fit.residual <= oracle + 1e-12
    assert abs(fit.residual - oracle) <= 1e-6
    print(f"criterion 8: PASS - fit residual {fit.residual!r} vs exhaustive "
          f"0.001-step oracle {oracle!r} ({oracle_elapsed:.1f} s), product-table "
          f"residual {product_fit.residual:.3e}")


def test_criterion_09_quadrature_witness_values():
    start = time.perf_counter()
    report = fourier_witness_check(grid_size=10_000)
    elapsed = time.perf_counter() - start
    assert report.first_moment_abs <= 1e-8
    assert report.second_moment_abs <= 1e-8
    assert report.power == pytest.approx(math.pi / 2.0, abs=1e-8)
    assert report.response_amplitude_max == pytest.approx(SQRT2, abs=1e-8)
    assert report.contradiction
    assert elapsed < 1.0
    print(f"criterion 9: PASS - moments ({report.first_moment_abs:.2e}, "
          f"{report.second_moment_abs:.2e}), power {report.power!r} = pi/2, "
          f"amplitude max {report.response_amplitude_max!r} = sqrt(2), "
          f"contradiction flagged")


def test_criterion_10_separability_margin_bounds():
    start = time.perf_counter()
    quantum = m_separability_search(TSIRELSON_ANGLES, grid_size=16, restarts=8, seed=7)
    assert quantum.m_hat >= M_LOWER_BOUND - 1e-9

    flat = m_separability_search(FLAT_ANGLES, grid_size=4, restarts=2, seed=7)
    assert flat.m_hat <= 1e-6

    ladder = [
        m_separability_search(TSIRELSON_ANGLES, grid_size=gs, restarts=2, seed=3).m_hat
        for gs in (2, 4, 8)
    ]
    assert ladder[1] <= ladder[0] + 1e-15
    assert ladder[2] <= ladder[1] + 1e-15
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 10: PASS - m_hat {quantum.m_hat!r} >= {M_LOWER_BOUND!r} - 1e-9, "
          f"separable target {flat.m_hat:.2e}, grid ladder {ladder} monotone, "
          f"{elapsed:.1f} s")


def test_criterion_11_million_trial_estimates():
    measure = chsh_measure(TSIRELSON_ANGLES)
    start = time.perf_counter()
    series = sample(measure, 1_000_000, seed=20260819)
    empirical = empirical_measure(series)
    cell_dev = float(np.abs(empirical.frequencies - measure.probs).max())
    exact_terms = chsh_partial(measure).term_values
    partial_dev = 0.0
    for (i, j), term in zip(COLUMN_ORDER, exact_terms):
        assert abs(term) == pytest.approx(SQRT2 / 8.0, abs=1e-12)
        partial_dev = max(
            partial_dev, abs(empirical_partial_expectation(empirical, i, j) - term)
        )
    elapsed = time.perf_counter() - start
    assert cell_dev < 0.003
    assert partial_dev < 0.005
    assert elapsed < 5.0
    print(f"criterion 11: PASS - worst cell deviation {cell_dev:.5f} < 0.003, "
          f"worst partial deviation {partial_dev:.5f} < 0.005 at n=10^6 "
          f"in {elapsed:.2f} s")


def test_criterion_12_sampling_cli_is_byte_deterministic():
    cmd = [sys.executable, "-m", "bellmodel", "sample", "--n", "100000", "--seed", "42"]
    runs = []
    for _ in range(2):
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, check=True)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    assert runs[0].startswith(b"n,x,y,i,j\n")
    assert runs[0].count(b"\n") == 100_001
    print(f"criterion 12: PASS - two runs produced byte-identical CSV "
          f"({len(runs[0])} bytes)")
