"""Sampling determinism, serialization layouts, and empirical estimates."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellmodel.inequalities import chsh_partial
from bellmodel.montecarlo import (
    CHUNK,
    GENERATOR_ID,
    EmpiricalMeasure,
    ExperimentRecord,
    TrialSeries,
    chi_square_statistic,
    decode_binary,
    empirical_measure,
    empirical_partial_expectation,
    sample,
)
from bellmodel.probspace import (
    COLUMN_ORDER,
    OUTCOME_ORDER,
    ChshOutcome,
    JointMeasure,
    SettingsDistribution,
    chsh_measure,
)
from bellmodel.singlet import TSIRELSON_ANGLES, DetectorAngle

SQRT2 = math.sqrt(2.0)

PINNED_SEED = 20260819


#: Largest double below 1: the largest uniform the generator can return.
U_MAX = np.nextafter(1.0, 0.0)


def edge_uniforms(monkeypatch, values):
    """Make every Philox chunk in `sample` return ``values`` (cycled) as its uniforms."""

    class EdgeGenerator:
        def __init__(self, _bit_generator):
            pass

        def random(self, count):
            return np.resize(np.asarray(values, dtype=float), count)

    monkeypatch.setattr(np.random, "Generator", EdgeGenerator)


def reference_csv(series):
    """The trial CSV written row by row from the four columns."""
    lines = ["n,x,y,i,j"]
    lines.extend(
        f"{n},{int(series.x[n])},{int(series.y[n])},{int(series.i[n])},{int(series.j[n])}"
        for n in range(len(series))
    )
    return "\n".join(lines) + "\n"


def degenerate_measure():
    """All mass on the cell (x=1, y=1, i=0, j=0)."""
    cells = {outcome: 0.0 for outcome in [(o.x, o.y, o.i, o.j) for o in OUTCOME_ORDER]}
    cells[(1, 1, 0, 0)] = 1.0
    return JointMeasure.from_probabilities(
        TSIRELSON_ANGLES, SettingsDistribution(1.0, 0.0, 0.0, 0.0), cells
    )


class TestSampling:
    def test_degenerate_measure_is_constant(self):
        series = sample(degenerate_measure(), 500, seed=1)
        assert np.all(series.x == 1)
        assert np.all(series.y == 1)
        assert np.all(series.i == 0)
        assert np.all(series.j == 0)

    def test_same_seed_same_series(self):
        m = chsh_measure(TSIRELSON_ANGLES)
        a = sample(m, 2000, seed=5)
        b = sample(m, 2000, seed=5)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.i, b.i)
        np.testing.assert_array_equal(a.j, b.j)
        assert a.to_csv() == b.to_csv()

    def test_different_seeds_differ(self):
        m = chsh_measure(TSIRELSON_ANGLES)
        a = sample(m, 2000, seed=5)
        b = sample(m, 2000, seed=6)
        assert not np.array_equal(a.x, b.x)

    def test_prefix_stability_across_chunk_boundary(self):
        m = chsh_measure(TSIRELSON_ANGLES)
        long = sample(m, CHUNK + 4464, seed=11)
        for shorter_n in (1000, CHUNK, CHUNK + 1):
            short = sample(m, shorter_n, seed=11)
            np.testing.assert_array_equal(short.x, long.x[:shorter_n])
            np.testing.assert_array_equal(short.y, long.y[:shorter_n])
            np.testing.assert_array_equal(short.i, long.i[:shorter_n])
            np.testing.assert_array_equal(short.j, long.j[:shorter_n])

    def test_zero_cells_never_drawn(self):
        m = chsh_measure(TSIRELSON_ANGLES, SettingsDistribution(0.5, 0.5, 0.0, 0.0))
        series = sample(m, 50000, seed=3)
        assert np.all(series.i == 0)

    def test_overflow_uniform_skips_zero_last_cell(self, monkeypatch):
        """Regression: cumulative sums ending below 1 sent u >= cdf[-1] to
        cell 15 even when that cell has probability 0."""
        cells = [0.0625] * 12 + [0.00625, 0.121875, 0.121875, 0.0]
        m = JointMeasure.from_probabilities(TSIRELSON_ANGLES, SettingsDistribution.uniform(), cells)
        assert np.cumsum(m.probs)[-1] < 1.0
        edge_uniforms(monkeypatch, [U_MAX])
        counts = empirical_measure(sample(m, 100, seed=0)).counts
        assert counts[15] == 0
        assert counts[14] == 100

    @settings(max_examples=40, deadline=None)
    @given(
        angles=st.lists(st.floats(0.0, math.pi), min_size=4, max_size=4),
        weights=st.lists(st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]), min_size=4, max_size=4)
        .filter(lambda w: 0 < w.count(0.0) < 4),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_zero_cells_never_drawn_property(self, angles, weights, seed):
        total = sum(weights)
        m = chsh_measure(
            [DetectorAngle(a) for a in angles],
            SettingsDistribution(*(w / total for w in weights)),
        )
        zero = m.probs == 0.0
        counts = empirical_measure(sample(m, 2000, seed=seed)).counts
        assert not np.any(counts[zero])
        # the extreme uniforms, including any at or above a cdf that ends below 1
        with pytest.MonkeyPatch.context() as patch:
            edge_uniforms(patch, [0.0, U_MAX, *np.cumsum(m.probs)[np.cumsum(m.probs) < 1.0]])
            counts = empirical_measure(sample(m, 64, seed=seed)).counts
        assert not np.any(counts[zero])

    def test_provenance_recorded(self):
        m = chsh_measure(TSIRELSON_ANGLES)
        series = sample(m, 10, seed=9)
        assert series.generator == GENERATOR_ID
        assert series.measure_digest == m.digest()
        assert series.seed == 9

    def test_record_access(self):
        series = sample(degenerate_measure(), 10, seed=0)
        rec = series[3]
        assert (rec.n, rec.x, rec.y, rec.i, rec.j) == (3, 1, 1, 0, 0)
        assert series[-1].n == 9
        assert len(list(iter(series))) == 10

    @pytest.mark.parametrize(
        "column, bad",
        [
            ("x", np.array([1, 0], dtype=np.int8)),
            ("x", np.array([1, 2], dtype=np.int8)),
            ("x", np.array([1, 127], dtype=np.int8)),  # 127 * 127 wraps to 1 in int8
            ("x", np.array([1, -(2**63)], dtype=np.int64)),
            ("y", np.array([-1, 0], dtype=np.int8)),
            ("y", np.array([1, -3], dtype=np.int16)),
            ("y", np.array([1, 2**64 - 1], dtype=np.uint64)),
            ("i", np.array([0, 2], dtype=np.int8)),
            ("i", np.array([1, -1], dtype=np.int8)),
            ("i", np.array([0, 2**32], dtype=np.int64)),
            ("j", np.array([0, 2], dtype=np.int8)),
            ("j", np.array([1, -128], dtype=np.int8)),
            ("j", np.array([0, 256], dtype=np.uint16)),
        ],
    )
    def test_rejects_out_of_range_values(self, column, bad):
        columns = {
            "x": np.array([1, -1], dtype=np.int8),
            "y": np.array([1, -1], dtype=np.int8),
            "i": np.array([0, 1], dtype=np.int8),
            "j": np.array([0, 1], dtype=np.int8),
        }
        columns[column] = bad
        with pytest.raises(ValueError, match=f"^{column} must hold only"):
            TrialSeries(**columns, seed=0, measure_digest="")

    @pytest.mark.parametrize("column", ["x", "y", "i", "j"])
    @pytest.mark.parametrize("dtype", [np.float64, np.bool_])
    def test_rejects_non_integer_columns(self, column, dtype):
        columns = {
            "x": np.ones(2, dtype=np.int8),
            "y": np.ones(2, dtype=np.int8),
            "i": np.ones(2, dtype=np.int8),
            "j": np.ones(2, dtype=np.int8),
        }
        columns[column] = columns[column].astype(dtype)
        with pytest.raises(ValueError, match=f"^{column} must be an integer array"):
            TrialSeries(**columns, seed=0, measure_digest="")

    def test_accepts_wide_integer_columns(self):
        series = TrialSeries(
            x=np.array([1, -1], dtype=np.int64),
            y=np.array([-1, 1], dtype=np.int32),
            i=np.array([0, 1], dtype=np.uint64),
            j=np.array([1, 0], dtype=np.uint8),
            seed=0,
            measure_digest="",
        )
        assert series.to_csv() == "n,x,y,i,j\n0,1,-1,0,1\n1,-1,1,1,0\n"

    def test_validation(self):
        m = chsh_measure(TSIRELSON_ANGLES)
        with pytest.raises(ValueError):
            sample(m, 0, seed=1)
        with pytest.raises(ValueError):
            sample(m, 10, seed=-1)
        with pytest.raises(ValueError):
            sample(m, 10, seed=2**64)


class TestSerialization:
    def test_csv_layout(self):
        series = sample(degenerate_measure(), 3, seed=0)
        assert series.to_csv() == "n,x,y,i,j\n0,1,1,0,0\n1,1,1,0,0\n2,1,1,0,0\n"

    @settings(max_examples=100, deadline=None)
    @given(
        trials=st.lists(
            st.tuples(
                st.sampled_from([-1, 1]),
                st.sampled_from([-1, 1]),
                st.sampled_from([0, 1]),
                st.sampled_from([0, 1]),
            ),
            min_size=1,
            max_size=300,
        )
    )
    def test_csv_matches_row_formatter(self, trials):
        x, y, i, j = (np.array(col, dtype=np.int8) for col in zip(*trials))
        series = TrialSeries(x=x, y=y, i=i, j=j, seed=0, measure_digest="")
        assert series.to_csv() == reference_csv(series)

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    def test_csv_matches_row_formatter_at_chunk_edges(self, n):
        series = sample(chsh_measure(TSIRELSON_ANGLES), n, seed=n)
        assert series.to_csv() == reference_csv(series)

    def test_csv_peak_memory_bounded(self):
        series = sample(chsh_measure(TSIRELSON_ANGLES), 4 * CHUNK, seed=3)
        tracemalloc.start()
        try:
            text = series.to_csv()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(text)

    def test_binary_layout(self):
        series = TrialSeries(
            x=np.array([1, -1, 1, -1], dtype=np.int8),
            y=np.array([-1, -1, 1, 1], dtype=np.int8),
            i=np.array([0, 1, 1, 0], dtype=np.int8),
            j=np.array([1, 0, 1, 0], dtype=np.int8),
            seed=0,
            measure_digest="",
        )
        # bit 0: x > 0, bit 1: y > 0, bit 2: i, bit 3: j
        assert series.to_binary() == bytes([0b1001, 0b0100, 0b1111, 0b0010])

    def test_binary_round_trip(self):
        series = sample(chsh_measure(TSIRELSON_ANGLES), 4096, seed=8)
        x, y, i, j = decode_binary(series.to_binary())
        np.testing.assert_array_equal(x, series.x)
        np.testing.assert_array_equal(y, series.y)
        np.testing.assert_array_equal(i, series.i)
        np.testing.assert_array_equal(j, series.j)

    def test_binary_rejects_high_bits(self):
        with pytest.raises(ValueError, match="bits 4-7"):
            decode_binary(bytes([0b0001, 0b10000]))

    def test_decode_empty(self):
        x, y, i, j = decode_binary(b"")
        assert x.size == y.size == i.size == j.size == 0


class TestEmpiricalMeasure:
    def test_counts_match_bincount(self):
        series = sample(chsh_measure(TSIRELSON_ANGLES), 10000, seed=2)
        emp = empirical_measure(series)
        assert emp.n == 10000
        assert int(emp.counts.sum()) == 10000
        for c, outcome in enumerate(OUTCOME_ORDER):
            expected = int(np.sum(series.cell_indices() == c))
            assert emp.count(outcome.x, outcome.y, outcome.i, outcome.j) == expected

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(counts=np.zeros(15, dtype=np.int64), n=0)
        with pytest.raises(ValueError):
            EmpiricalMeasure(counts=np.ones(16, dtype=np.int64), n=10)

    def test_negative_count_rejected(self):
        counts = np.zeros(16, dtype=np.int64)
        counts[:2] = [-1, 2]  # sums to n = 1
        with pytest.raises(ValueError, match="nonnegative"):
            EmpiricalMeasure(counts=counts, n=1)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="at least one trial"):
            EmpiricalMeasure(counts=np.zeros(16, dtype=np.int64), n=0)

    def test_chi_square_infinite_on_impossible_cell(self):
        m = chsh_measure(TSIRELSON_ANGLES, SettingsDistribution(0.5, 0.5, 0.0, 0.0))
        counts = np.zeros(16, dtype=np.int64)
        counts[8] = 5  # a cell in the (i=1, j=1) column, which has probability 0
        assert chi_square_statistic(EmpiricalMeasure(counts=counts, n=5), m) == math.inf

    def test_chi_square_ignores_unobserved_impossible_cells(self):
        m = chsh_measure(TSIRELSON_ANGLES, SettingsDistribution(0.5, 0.5, 0.0, 0.0))
        series = sample(m, 20000, seed=4)
        stat = chi_square_statistic(empirical_measure(series), m)
        assert math.isfinite(stat)
        assert stat >= 0.0

    def test_chi_square_zero_on_exact_match(self):
        m = chsh_measure(TSIRELSON_ANGLES)
        counts = (m.probs * 160000).round().astype(np.int64)
        emp = EmpiricalMeasure(counts=counts, n=int(counts.sum()))
        # counts land within one trial of expectation, so the statistic is tiny
        assert chi_square_statistic(emp, m) < 1e-4


class TestEstimates:
    def test_million_trial_accuracy(self):
        m = chsh_measure(TSIRELSON_ANGLES)
        series = sample(m, 1_000_000, seed=PINNED_SEED)
        emp = empirical_measure(series)
        assert np.abs(emp.frequencies - m.probs).max() < 0.003
        exact = chsh_partial(m).term_values
        for (i, j), term in zip(COLUMN_ORDER, exact):
            assert abs(term) == pytest.approx(SQRT2 / 8, abs=1e-12)
            assert empirical_partial_expectation(series, i, j) == pytest.approx(
                term, abs=0.005
            )
        assert chi_square_statistic(emp, m) < 60.0

    def test_partial_estimates_partition_total(self):
        """The four setting-pair estimates sum exactly to the overall mean of x*y."""
        series = sample(chsh_measure(TSIRELSON_ANGLES), 30000, seed=13)
        parts = [
            Fraction(
                int(
                    np.sum(
                        series.x[(series.i == i) & (series.j == j)].astype(np.int64)
                        * series.y[(series.i == i) & (series.j == j)].astype(np.int64)
                    )
                ),
                len(series),
            )
            for (i, j) in COLUMN_ORDER
        ]
        total = Fraction(
            int(np.sum(series.x.astype(np.int64) * series.y.astype(np.int64))),
            len(series),
        )
        assert sum(parts) == total
        for (i, j), part in zip(COLUMN_ORDER, parts):
            assert empirical_partial_expectation(series, i, j) == pytest.approx(
                float(part), abs=1e-15
            )

    def test_partial_equals_conditional_times_rate(self):
        """Empirical identity: partial mean = conditional mean * setting frequency,
        checked in exact arithmetic on the observed counts."""
        series = sample(chsh_measure(TSIRELSON_ANGLES), 30000, seed=17)
        n = len(series)
        for (i, j) in COLUMN_ORDER:
            hit = (series.i == i) & (series.j == j)
            n_ij = int(hit.sum())
            if n_ij == 0:
                continue
            s = int(np.sum(series.x[hit].astype(np.int64) * series.y[hit].astype(np.int64)))
            assert Fraction(s, n) == Fraction(s, n_ij) * Fraction(n_ij, n)

    def test_partial_expectation_validates_settings(self):
        series = sample(chsh_measure(TSIRELSON_ANGLES), 10, seed=0)
        with pytest.raises(ValueError):
            empirical_partial_expectation(series, 2, 0)


class TestCellLayout:
    @settings(max_examples=50, deadline=None)
    @given(
        trials=st.lists(
            st.tuples(
                st.sampled_from([-1, 1]),
                st.sampled_from([-1, 1]),
                st.sampled_from([0, 1]),
                st.sampled_from([0, 1]),
            ),
            min_size=1,
            max_size=64,
        )
    )
    def test_cell_indices_follow_outcome_order(self, trials):
        x, y, i, j = (np.array(col, dtype=np.int8) for col in zip(*trials))
        series = TrialSeries(x=x, y=y, i=i, j=j, seed=0, measure_digest="")
        expected = [OUTCOME_ORDER.index(ChshOutcome(*t)) for t in trials]
        assert series.cell_indices().tolist() == expected

    def test_count_rejects_invalid_cell(self):
        emp = empirical_measure(sample(chsh_measure(TSIRELSON_ANGLES), 100, seed=0))
        with pytest.raises(ValueError):
            emp.count(0, 1, 0, 0)
        with pytest.raises(ValueError):
            emp.count(1, 1, 2, 0)

    def test_record_is_an_outcome(self):
        rec = sample(degenerate_measure(), 5, seed=0)[4]
        assert isinstance(rec, ExperimentRecord) and isinstance(rec, ChshOutcome)
        assert rec.n == 4
