"""Sampling determinism, serialization layouts, and empirical estimates."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellmodel import montecarlo
from bellmodel.inequalities import chsh_partial
from bellmodel.montecarlo import (
    CHUNK,
    GENERATOR_ID,
    EmpiricalMeasure,
    TrialSeries,
    chi_square_statistic,
    decode_binary,
    empirical_measure,
    empirical_partial_expectation,
    sample,
    sample_chunks,
    trial_csv,
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

#: Trials the sampler draws, counts and formats at a time.
BLOCK = montecarlo._BLOCK

PINNED_SEED = 20260819


#: Largest double below 1: the largest uniform the generator can return.
U_MAX = np.nextafter(1.0, 0.0)


def edge_uniforms(monkeypatch, values):
    """Make every Philox chunk of a draw return ``values`` (cycled) as its
    uniforms, whether the draw asks for a new array or fills ``out``."""

    class EdgeGenerator:
        def __init__(self, _bit_generator):
            pass

        def random(self, size=None, out=None):
            u = np.resize(np.asarray(values, dtype=float), size if out is None else out.size)
            if out is None:
                return u
            out[...] = u
            return out

    monkeypatch.setattr(np.random, "Generator", EdgeGenerator)


def assert_same_text(actual, expected):
    """``actual == expected``, reported on a mismatch by the first differing
    line: pytest's own diff of two megabyte strings runs for minutes."""
    if actual != expected:
        a, e = actual.splitlines(keepends=True), expected.splitlines(keepends=True)
        k = next((k for k, (x, y) in enumerate(zip(a, e)) if x != y), min(len(a), len(e)))
        pytest.fail(
            f"texts differ first at line {k + 1} ({len(a)} vs {len(e)} lines): "
            f"{a[k : k + 1]!r} != {e[k : k + 1]!r}",
            pytrace=False,
        )


def reference_csv(series):
    """The trial CSV written row by row from the four columns."""
    x, y, i, j = series.x, series.y, series.i, series.j  # each derived once, not per row
    lines = ["n,x,y,i,j"]
    lines.extend(
        f"{n},{int(x[n])},{int(y[n])},{int(i[n])},{int(j[n])}"
        for n in range(len(series))
    )
    return "\n".join(lines) + "\n"


#: ``",x,y,i,j\n"`` per canonical cell, as the row-by-row writer formats it.
ROW_SUFFIX = [f",{o.x},{o.y},{o.i},{o.j}\n" for o in OUTCOME_ORDER]


def f_string_rows(start, cells):
    """Trial-CSV rows written one f-string per trial: the reference for the
    table-lookup writer."""
    return "".join([f"{k}{ROW_SUFFIX[c]}" for k, c in enumerate(cells, start)])


def searchsorted_cells(probs, u):
    """The binary-search lookup the sampler's threshold count must reproduce:
    searchsorted over the cumulative table, capped at the last possible cell."""
    last = int(np.flatnonzero(probs)[-1])
    return np.minimum(np.searchsorted(np.cumsum(probs), u, side="right"), last)


def measure_from_weights(weights):
    """A measure with the given 16 cell weights (normalized), whose settings
    are its column masses."""
    probs = np.asarray(weights, dtype=float) / math.fsum(weights)
    masses = {ij: math.fsum(probs[4 * c : 4 * c + 4]) for c, ij in enumerate(COLUMN_ORDER)}
    return JointMeasure.from_probabilities(
        TSIRELSON_ANGLES, SettingsDistribution.from_mapping(masses), probs
    )


#: Cell weights whose cumulative sum ends below 1 and whose last cell is 0.
SHORT_CDF_CELLS = [0.0625] * 12 + [0.00625, 0.121875, 0.121875, 0.0]


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
        m = JointMeasure.from_probabilities(
            TSIRELSON_ANGLES, SettingsDistribution.uniform(), SHORT_CDF_CELLS
        )
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

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=16, max_size=16
        ).filter(any)
    )
    @example(weights=SHORT_CDF_CELLS)
    def test_threshold_count_matches_searchsorted(self, weights):
        """At every cumulative threshold and its float neighbours, the sampler
        picks the cell the capped binary search over the cumulative table
        picks, and a draw's counts taken from those uniforms count those cells."""
        m = measure_from_weights(weights)
        cdf = np.cumsum(m.probs)
        u = np.concatenate(
            [[0.0, U_MAX], cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0)]
        )
        with pytest.MonkeyPatch.context() as patch:
            edge_uniforms(patch, u)
            series = sample(m, u.size, seed=0)
            counts = empirical_measure(sample_chunks(m, u.size, seed=0)).counts
        expected = searchsorted_cells(m.probs, u)
        np.testing.assert_array_equal(series.cells, expected)
        np.testing.assert_array_equal(counts, np.bincount(expected, minlength=16))

    @pytest.mark.parametrize(
        "m",
        [
            chsh_measure(TSIRELSON_ANGLES),
            measure_from_weights(SHORT_CDF_CELLS),
        ],
        ids=["tsirelson", "short-cdf"],
    )
    def test_threshold_count_matches_searchsorted_on_philox_stream(self, m):
        n, seed = 2 * CHUNK + 3, 2**64 - 1
        u = np.concatenate([
            np.random.Generator(
                np.random.Philox(key=np.array([seed, c], dtype=np.uint64))
            ).random(min(CHUNK, n - c * CHUNK))
            for c in range(3)
        ])
        np.testing.assert_array_equal(
            sample(m, n, seed=seed).cells, searchsorted_cells(m.probs, u)
        )

    def test_provenance_recorded(self):
        m = chsh_measure(TSIRELSON_ANGLES)
        series = sample(m, 10, seed=9)
        assert series.generator == GENERATOR_ID
        assert series.measure_digest == m.digest()
        assert series.seed == 9
        # the generator id is the algorithm's, not a constructor argument
        with pytest.raises(TypeError):
            TrialSeries(np.array([1, 2]), 0, "", "not-a-generator")

    @pytest.mark.parametrize("seed", [-1, 2**64, True, 1.5])
    def test_rejects_a_seed_sample_would_reject(self, seed):
        """A stored series must be re-derivable: its seed is one `sample` takes."""
        with pytest.raises(ValueError, match="^seed must"):
            TrialSeries(np.array([1, 2]), seed, "")
        with pytest.raises(ValueError, match="^seed must"):
            sample(chsh_measure(TSIRELSON_ANGLES), 2, seed=seed)

    @pytest.mark.parametrize("digest", [123, None, b"abc"])
    def test_rejects_a_digest_that_is_not_a_str(self, digest):
        with pytest.raises(ValueError, match="^measure_digest must be a str"):
            TrialSeries(np.array([1, 2]), 0, digest)
        with pytest.raises(ValueError, match="^measure_digest must be a str"):
            TrialSeries.from_columns([1], [1], [0], [0], seed=0, measure_digest=digest)

    def test_integral_seed_stored_as_int(self):
        series = TrialSeries(np.array([1, 2]), np.uint64(2**64 - 1), "")
        assert type(series.seed) is int and series.seed == 2**64 - 1

    def test_record_access(self):
        """Trial k is the canonical outcome of its cell, at any integer index;
        iteration stops at the end of the series."""
        series = sample(chsh_measure(TSIRELSON_ANGLES), 10, seed=0)
        for k in (3, -1, -10, np.int64(2), np.uint8(9)):
            assert series[k] is OUTCOME_ORDER[series.cells[k]]
        assert list(series) == [OUTCOME_ORDER[c] for c in series.cells]
        assert (series[3].x, series[3].y, series[3].i, series[3].j) == (
            series.x[3], series.y[3], series.i[3], series.j[3]
        )
        for bad in (10, -11, np.int64(10)):
            with pytest.raises(IndexError):
                series[bad]

    @pytest.mark.parametrize("bad", [True, np.bool_(False), slice(1, 3), 1.0, "1"])
    def test_record_index_must_be_an_integer(self, bad):
        """range() would read True as trial 1, and a slice would fail inside numpy."""
        series = sample(degenerate_measure(), 10, seed=0)
        message = f"^trial index must be an integer, got {type(bad).__name__}$"
        with pytest.raises(TypeError, match=message):
            series[bad]

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
            TrialSeries.from_columns(**columns, seed=0, measure_digest="")

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
            TrialSeries.from_columns(**columns, seed=0, measure_digest="")

    def test_rejects_empty_columns(self):
        empty = np.array([], dtype=np.int8)
        with pytest.raises(ValueError, match="at least one trial"):
            TrialSeries.from_columns(empty, empty, empty, empty, seed=0, measure_digest="")

    def test_accepts_list_columns(self):
        """Columns are array-likes, as the cells of `TrialSeries` are."""
        columns = ([1, -1, -1], [-1, 1, -1], [0, 1, 1], [1, 0, 1])
        arrays = [np.array(c, dtype=np.int8) for c in columns]
        listed = TrialSeries.from_columns(*columns, seed=0, measure_digest="")
        np.testing.assert_array_equal(
            listed.cells, TrialSeries.from_columns(*arrays, seed=0, measure_digest="").cells
        )

    @pytest.mark.parametrize("column", ["x", "y", "i", "j"])
    @pytest.mark.parametrize(
        "bad", [np.int8(1), np.ones((2, 2), dtype=np.int8)], ids=["0-d", "2-d"]
    )
    def test_rejects_columns_not_1d(self, column, bad):
        columns = {name: np.ones(2, dtype=np.int8) for name in ("x", "y", "i", "j")}
        columns[column] = bad
        with pytest.raises(ValueError, match="must be 1-d arrays of equal length"):
            TrialSeries.from_columns(**columns, seed=0, measure_digest="")

    def test_accepts_wide_integer_columns(self):
        series = TrialSeries.from_columns(
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

    # A float or bool seed used to run as the truncated integer while the
    # series recorded the value given; a float or bool n failed in numpy.
    @pytest.mark.parametrize(
        "bad",
        [
            {"n": True},
            {"n": 2.0},
            {"n": np.float64(3.0)},
            {"n": np.True_},
            {"seed": 1.5},
            {"seed": 1.0},
            {"seed": True},
            {"seed": np.True_},
            {"seed": np.float64(2.0)},
        ],
        ids=lambda bad: "{}={!r}".format(*next(iter(bad.items()))),
    )
    @pytest.mark.parametrize("draw", [sample, sample_chunks])
    def test_non_integer_n_or_seed_rejected(self, draw, bad):
        args = {"n": 10, "seed": 1, **bad}
        name = next(iter(bad))
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            draw(chsh_measure(TSIRELSON_ANGLES), **args)

    def test_numpy_integers_accepted(self):
        m = chsh_measure(TSIRELSON_ANGLES)
        series = sample(m, np.int64(100), seed=np.uint64(2**64 - 1))
        np.testing.assert_array_equal(series.cells, sample(m, 100, seed=2**64 - 1).cells)

    def test_bad_seed_rejected_before_allocation(self):
        m = chsh_measure(TSIRELSON_ANGLES)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^seed must be an integer"):
                sample(m, 32 * CHUNK, seed=1.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < CHUNK

    @pytest.mark.parametrize("bad", [{"n": 0}, {"seed": -1}, {"seed": 2**64}])
    def test_chunks_checked_on_the_call(self, bad):
        """A bad value raises before the first chunk is asked for, so a
        stream never starts."""
        with pytest.raises(ValueError):
            sample_chunks(chsh_measure(TSIRELSON_ANGLES), **{"n": 10, "seed": 1, **bad})

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([0, 16], dtype=np.uint8),
            np.array([0, 255], dtype=np.uint8),
            np.array([15, -1], dtype=np.int8),
            np.array([0, 2**32], dtype=np.int64),
            np.array([0, -(2**63)], dtype=np.int64),
            np.array([0, 2**64 - 1], dtype=np.uint64),
        ],
    )
    def test_rejects_out_of_range_cells(self, bad):
        with pytest.raises(ValueError, match="^cells must hold only"):
            TrialSeries(cells=bad, seed=0, measure_digest="")

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([0.0, 1.0]),
            np.array([True, False]),
            np.zeros((2, 2), dtype=np.uint8),
            np.array([], dtype=np.uint8),
        ],
        ids=["float", "bool", "2-d", "empty"],
    )
    def test_rejects_malformed_cells(self, bad):
        with pytest.raises(ValueError, match="^cells must be a non-empty 1-d integer array"):
            TrialSeries(cells=bad, seed=0, measure_digest="")

    @pytest.mark.parametrize("dtype", [np.int16, np.int64, np.uint64])
    def test_accepts_wide_integer_cells(self, dtype):
        narrow = sample(chsh_measure(TSIRELSON_ANGLES), 300, seed=1)
        wide = TrialSeries(cells=narrow.cells.astype(dtype), seed=1, measure_digest="")
        assert wide.cells.dtype == np.uint8
        np.testing.assert_array_equal(wide.cells, narrow.cells)
        assert wide.to_csv() == narrow.to_csv()

    @pytest.mark.parametrize("source", ["sample", "uint8", "from_columns"])
    def test_cells_read_only(self, source):
        """A write could put an index outside 0-15 past the validation."""
        if source == "sample":
            series = sample(chsh_measure(TSIRELSON_ANGLES), 100, seed=1)
        elif source == "uint8":
            series = TrialSeries(cells=np.array([3, 4], dtype=np.uint8), seed=0, measure_digest="")
        else:
            one = np.ones(2, dtype=np.int8)
            series = TrialSeries.from_columns(one, one, one - 1, one - 1, seed=0, measure_digest="")
        with pytest.raises(ValueError, match="read-only"):
            series.cells[0] = 200
        assert series.cells.max() <= 15

    def test_callers_cells_stay_writable(self):
        cells = np.array([3, 4], dtype=np.uint8)
        series = TrialSeries(cells=cells, seed=0, measure_digest="")
        assert np.shares_memory(series.cells, cells)  # a view, not a copy
        cells[0] = 5  # raises if the caller's array was made read-only

    def test_accepts_a_list_of_cells(self):
        series = TrialSeries(cells=[3, 4], seed=0, measure_digest="")
        assert series.cells.dtype == np.uint8
        assert series.to_csv() == "n,x,y,i,j\n0,-1,-1,0,0\n1,1,1,1,0\n"
        with pytest.raises(ValueError, match="^cells must be a non-empty 1-d integer array"):
            TrialSeries(cells=[0.5], seed=0, measure_digest="")

    def test_sample_peak_memory_bounded(self):
        """One byte per trial plus one block of uniforms, cells and
        comparison temporaries, at any n."""
        m = chsh_measure(TSIRELSON_ANGLES)
        n = 32 * CHUNK
        tracemalloc.start()
        try:
            series = sample(m, n, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(series) == n
        assert peak < n + 2 * 9 * BLOCK


#: Measures for the streaming checks: the default table, one with whole
#: zero columns in the middle, one whose last cells have probability 0, and
#: one whose cumulative sum also ends below 1.
STREAM_MEASURES = {
    "tsirelson": chsh_measure(TSIRELSON_ANGLES),
    "zero-middle": chsh_measure(TSIRELSON_ANGLES, SettingsDistribution(0.5, 0.5, 0.0, 0.0)),
    "zero-last": chsh_measure(TSIRELSON_ANGLES, SettingsDistribution(0.5, 0.0, 0.5, 0.0)),
    "short-cdf": measure_from_weights(SHORT_CDF_CELLS),
}


def check_stream(m, n, seed):
    """The block stream, the CSV written from it and the counts taken from
    it all agree with the series `sample` returns; the draw yields one array
    per `BLOCK` trials, and the CSV comes as the header, then one piece per
    block, each starting at its first trial's index."""
    series = sample(m, n, seed=seed)
    blocks = list(sample_chunks(m, n, seed))
    layout = [(start, min(BLOCK, n - start)) for start in range(0, n, BLOCK)]
    assert [len(b) for b in blocks] == [size for _, size in layout]
    assert all(b.dtype == np.uint8 for b in blocks)
    np.testing.assert_array_equal(np.concatenate(blocks), series.cells)
    pieces = list(trial_csv(sample_chunks(m, n, seed)))
    assert pieces[0] == "n,x,y,i,j\n"
    assert [(int(p[: p.index(",")]), p.count("\n")) for p in pieces[1:]] == layout
    assert_same_text("".join(pieces), series.to_csv())
    np.testing.assert_array_equal(
        empirical_measure(sample_chunks(m, n, seed)).counts, empirical_measure(series).counts
    )
    assert empirical_measure(sample_chunks(m, n, seed)).n == n


class TestStreaming:
    @pytest.mark.parametrize("name", STREAM_MEASURES)
    @pytest.mark.parametrize(
        "n",
        [1, BLOCK - 1, BLOCK, BLOCK + 1, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + BLOCK + 1, 2 * CHUNK + 3],
    )
    def test_stream_matches_series(self, n, name):
        check_stream(STREAM_MEASURES[name], n, seed=n)

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(sorted(STREAM_MEASURES)),
        n=st.integers(1, 3 * CHUNK),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_stream_matches_series_property(self, name, n, seed):
        check_stream(STREAM_MEASURES[name], n, seed)

    def test_draw_iterates_again(self):
        """A draw is re-iterable: each pass yields the same fresh blocks."""
        draw = sample_chunks(chsh_measure(TSIRELSON_ANGLES), 2 * CHUNK + 3, seed=8)
        first, second = list(draw), list(draw)
        assert len(first) == len(second) == 2 * CHUNK // BLOCK + 1
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
            assert not np.shares_memory(a, b)
        np.testing.assert_array_equal(next(iter(draw)), first[0])
        np.testing.assert_array_equal(empirical_measure(draw).counts, empirical_measure(draw).counts)

    @settings(max_examples=30, deadline=None)
    @given(
        weights=st.one_of(
            st.just(SHORT_CDF_CELLS),
            st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=16, max_size=16)
            .filter(any),
        ),
        n=st.one_of(
            st.integers(1, 3 * CHUNK),
            st.sampled_from(
                [BLOCK - 1, BLOCK, BLOCK + 1, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + BLOCK + 1]
            ),
        ),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_draw_counts_match_bincount_of_cells(self, weights, n, seed):
        """Counting a draw from its uniforms gives the bincount of the cells
        its iteration yields, zero-probability cells included."""
        draw = sample_chunks(measure_from_weights(weights), n, seed)
        cells = np.concatenate(list(draw))
        expected = np.bincount(cells, minlength=16)
        np.testing.assert_array_equal(empirical_measure(draw).counts, expected)

    def test_chunks_are_fresh_arrays(self):
        chunks = list(sample_chunks(chsh_measure(TSIRELSON_ANGLES), 3 * CHUNK, seed=4))
        assert all(c.flags.writeable and c.base is None for c in chunks)
        assert not np.shares_memory(chunks[0], chunks[1])

    @pytest.mark.parametrize(
        "bad", [np.array([3, -1], dtype=np.int8), np.array([16]), np.array([0, 2**63 - 1])]
    )
    def test_csv_rejects_non_cells(self, bad):
        pieces = trial_csv([np.array([0, 1], dtype=np.uint8), bad])
        assert next(pieces) == "n,x,y,i,j\n" and next(pieces) == "0,1,1,0,0\n1,-1,1,0,0\n"
        with pytest.raises(ValueError, match="^cells must hold only"):
            next(pieces)

    def test_counts_any_chunks(self):
        emp = empirical_measure([np.array([0, 15, 15], dtype=np.uint8), np.array([3])])
        assert emp.n == 4
        assert emp.counts.tolist() == [1, 0, 0, 1] + [0] * 11 + [2]
        with pytest.raises(ValueError, match="at least one trial"):
            empirical_measure(iter([]))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.array([0.0, 1.0]), "^cells must be a non-empty 1-d integer array"),
            (np.array([True, False]), "^cells must be a non-empty 1-d integer array"),
            (np.zeros((2, 2), dtype=np.uint8), "^cells must be a non-empty 1-d integer array"),
            (np.array([]), "^cells must be a non-empty 1-d integer array"),
            (np.array([0, 16], dtype=np.uint8), "^cells must hold only"),
        ],
        ids=["float", "bool", "2-d", "empty-float", "cell-16"],
    )
    @pytest.mark.parametrize("consumer", [trial_csv, empirical_measure])
    def test_chunk_checked_as_series_cells(self, consumer, bad, message):
        """A malformed chunk raises the ValueError `TrialSeries` raises for it."""
        with pytest.raises(ValueError, match=message):
            TrialSeries(cells=bad, seed=0, measure_digest="")
        with pytest.raises(ValueError, match=message):
            list(consumer([np.array([0, 1], dtype=np.uint8), bad]))

    def test_csv_splits_callers_chunks_into_blocks(self):
        """A caller's chunk longer than a block is written one piece per
        `BLOCK` rows, each starting at its first trial's index."""
        series = sample(chsh_measure(TSIRELSON_ANGLES), 3 * BLOCK + 5, seed=12)
        sizes = [BLOCK + 1, 0, 2 * BLOCK + 3, 1]
        starts = np.cumsum([0] + sizes)
        pieces = list(trial_csv([series.cells[a:b] for a, b in zip(starts, starts[1:])]))
        layout = [
            (start + offset, min(BLOCK, size - offset))
            for start, size in zip(starts.tolist(), sizes)
            for offset in range(0, size, BLOCK)
        ]
        assert [(int(p[: p.index(",")]), p.count("\n")) for p in pieces[1:]] == layout
        assert_same_text("".join(pieces), series.to_csv())

    def test_empty_and_wide_chunks(self):
        """An empty chunk adds no rows and no counts; any integer width is read as cells."""
        chunks = [np.array([0, 1], dtype=np.uint64), np.array([], dtype=np.uint8), np.array([3])]
        assert "".join(trial_csv(chunks)) == "n,x,y,i,j\n0,1,1,0,0\n1,-1,1,0,0\n2,-1,-1,0,0\n"
        assert empirical_measure(chunks).counts.tolist() == [1, 1, 0, 1] + [0] * 12

    def test_stream_peak_memory_bounded(self):
        """Counting a long draw holds one block's uniforms (8 bytes per
        trial) and one comparison mask (1 byte per trial), allocated once
        and refilled for every block: no cell array, no wider copy of one,
        and nothing per trial of the chunk or the run."""
        m = chsh_measure(TSIRELSON_ANGLES)
        tracemalloc.start()
        try:
            emp = empirical_measure(sample_chunks(m, 64 * CHUNK, seed=6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert emp.n == 64 * CHUNK
        assert peak < 2 * 9 * BLOCK

    def test_long_chunk_counted_one_block_at_a_time(self):
        """A caller's chunk of any length is counted in `BLOCK` pieces: the
        count's index copy is one block's, not one of the whole chunk, so
        the peak stays within the bound of counting a draw."""
        draw = sample_chunks(chsh_measure(TSIRELSON_ANGLES), 64 * CHUNK, seed=6)
        cells = np.concatenate(list(draw))
        tracemalloc.start()
        try:
            emp = empirical_measure([cells])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(emp.counts, empirical_measure(draw).counts)
        assert peak < 2 * 9 * BLOCK


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
        series = TrialSeries.from_columns(x=x, y=y, i=i, j=j, seed=0, measure_digest="")
        assert series.to_csv() == reference_csv(series)

    @pytest.mark.parametrize(
        "n", [BLOCK - 1, BLOCK, BLOCK + 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]
    )
    def test_csv_matches_row_formatter_at_chunk_edges(self, n):
        series = sample(chsh_measure(TSIRELSON_ANGLES), n, seed=n)
        assert_same_text(series.to_csv(), reference_csv(series))

    # Each n ends just below, at or just past a power of ten, where the last
    # index gains a digit; from 10**4 on, the last four digits follow a lead.
    @pytest.mark.parametrize(
        "n", [9, 10, 11, 99, 100, 101, 9999, 10000, 10001, 99999, 100000, 100001]
    )
    def test_csv_matches_row_formatter_at_width_edges(self, n):
        series = sample(chsh_measure(TSIRELSON_ANGLES), n, seed=n)
        assert_same_text(series.to_csv(), reference_csv(series))

    @pytest.mark.parametrize("n", [999999, 1000000, 1000001])
    def test_csv_matches_f_string_writer_at_a_million(self, n):
        series = sample(chsh_measure(TSIRELSON_ANGLES), n, seed=n)
        assert_same_text(series.to_csv(), "n,x,y,i,j\n" + f_string_rows(0, series.cells.tolist()))

    @settings(max_examples=200, deadline=None)
    @given(
        start=st.integers(0, 10**15),
        cells=st.lists(st.integers(0, 15), min_size=1, max_size=200),
    )
    @example(start=0, cells=[0, 15])
    @example(start=10**4 - 1, cells=[3, 4])
    @example(start=10**4, cells=[5])
    @example(start=10**8 - 1, cells=[15, 0])
    @example(start=10**8, cells=[7])
    @example(start=10**12 - 1, cells=[9, 10])
    @example(start=10**12, cells=[11])
    def test_chunk_rows_match_f_string_writer(self, start, cells):
        """The per-chunk writer at any trial offset, also across a multiple
        of 10**4, where the lead digits change."""
        rows = montecarlo._csv_rows(start, np.array(cells, dtype=np.uint8))
        assert rows == f_string_rows(start, cells)

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
        series = TrialSeries.from_columns(
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

    def test_binary_rejects_every_high_byte(self):
        for byte in range(16, 256):
            with pytest.raises(ValueError, match="bits 4-7"):
                decode_binary(bytes([0b0101, byte]))

    def test_binary_decodes_every_low_byte(self):
        x, y, i, j = decode_binary(bytes(range(16)))
        bits = np.arange(16)
        np.testing.assert_array_equal(x, np.where(bits & 1, 1, -1))
        np.testing.assert_array_equal(y, np.where(bits & 2, 1, -1))
        np.testing.assert_array_equal(i, (bits >> 2) & 1)
        np.testing.assert_array_equal(j, (bits >> 3) & 1)
        assert x.dtype == y.dtype == i.dtype == j.dtype == np.int8
        series = TrialSeries.from_columns(x, y, i, j, seed=0, measure_digest="")
        assert series.to_binary() == bytes(range(16))

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
            expected = int(np.sum(series.cells == c))
            assert emp.count(outcome.x, outcome.y, outcome.i, outcome.j) == expected

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(counts=np.zeros(15, dtype=np.int64))

    def test_negative_count_rejected(self):
        counts = np.zeros(16, dtype=np.int64)
        counts[:2] = [-1, 2]  # sums to n = 1
        with pytest.raises(ValueError, match="nonnegative"):
            EmpiricalMeasure(counts=counts)

    @pytest.mark.parametrize("count", [2**63, 2**64 - 1])
    def test_count_past_int64_rejected(self, count):
        """Cast to int64, such a uint64 count would wrap negative."""
        counts = np.array([count] + [0] * 15, dtype=np.uint64)
        with pytest.raises(ValueError, match=r"at most 2\*\*63 - 1, the int64 limit"):
            EmpiricalMeasure(counts=counts)

    def test_largest_int64_count_accepted(self):
        counts = np.array([2**63 - 1] + [0] * 15, dtype=np.uint64)
        assert EmpiricalMeasure(counts=counts).n == 2**63 - 1

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="at least one trial"):
            EmpiricalMeasure(counts=np.zeros(16, dtype=np.int64))

    @pytest.mark.parametrize(
        "counts",
        [[1.9, 0.1] + [0.0] * 14, np.array([True] + [False] * 15)],
        ids=["float", "bool"],
    )
    def test_non_integer_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="counts must be 16 integers"):
            EmpiricalMeasure(counts=counts)

    def test_trial_total_is_exact(self):
        """An int64 sum of these counts wraps to 0."""
        emp = EmpiricalMeasure(counts=[2**62] * 4 + [0] * 12)
        assert emp.n == 2**64
        assert emp.frequencies.tolist() == [0.25] * 4 + [0.0] * 12

    def test_counts_read_only(self):
        """A write would bypass the checks: a count could turn negative."""
        counts = np.zeros(16, dtype=np.int64)
        counts[0] = 1000
        built = EmpiricalMeasure(counts=counts)
        emp = empirical_measure(sample(chsh_measure(TSIRELSON_ANGLES), 1000, seed=1))
        for e in (built, emp):
            with pytest.raises(ValueError, match="read-only"):
                e.counts[0] = -500
            assert int(e.counts.sum()) == e.n == 1000
        counts[0] = 7  # the caller's array is copied, so it stays writable
        assert built.counts[0] == 1000

    def test_counting_peak_memory_bounded(self):
        """Counting works one BLOCK at a time: no copy of the whole series."""
        series = sample(chsh_measure(TSIRELSON_ANGLES), 32 * CHUNK, seed=5)
        tracemalloc.start()
        try:
            emp = empirical_measure(series)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert emp.n == 32 * CHUNK
        assert peak < 2 * 8 * BLOCK

    def test_chi_square_infinite_on_impossible_cell(self):
        m = chsh_measure(TSIRELSON_ANGLES, SettingsDistribution(0.5, 0.5, 0.0, 0.0))
        counts = np.zeros(16, dtype=np.int64)
        counts[8] = 5  # a cell in the (i=1, j=1) column, which has probability 0
        assert chi_square_statistic(EmpiricalMeasure(counts=counts), m) == math.inf

    def test_chi_square_ignores_unobserved_impossible_cells(self):
        m = chsh_measure(TSIRELSON_ANGLES, SettingsDistribution(0.5, 0.5, 0.0, 0.0))
        series = sample(m, 20000, seed=4)
        stat = chi_square_statistic(empirical_measure(series), m)
        assert math.isfinite(stat)
        assert stat >= 0.0

    def test_chi_square_zero_on_exact_match(self):
        m = chsh_measure(TSIRELSON_ANGLES)
        counts = (m.probs * 160000).round().astype(np.int64)
        emp = EmpiricalMeasure(counts=counts)
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
            assert empirical_partial_expectation(emp, i, j) == pytest.approx(
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
        empirical = empirical_measure(series)
        for (i, j), part in zip(COLUMN_ORDER, parts):
            assert empirical_partial_expectation(empirical, i, j) == float(part)

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
        empirical = empirical_measure(sample(chsh_measure(TSIRELSON_ANGLES), 10, seed=0))
        with pytest.raises(ValueError):
            empirical_partial_expectation(empirical, 2, 0)

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
    def test_partial_from_counts_equals_masked_column_sum(self, trials):
        x, y, i, j = (np.array(col, dtype=np.int8) for col in zip(*trials))
        series = TrialSeries.from_columns(x=x, y=y, i=i, j=j, seed=0, measure_digest="")
        empirical = empirical_measure(series)
        for (a, b) in COLUMN_ORDER:
            hit = (i == a) & (j == b)
            masked = int(np.sum(x[hit].astype(np.int64) * y[hit].astype(np.int64)))
            assert empirical_partial_expectation(empirical, a, b) == masked / len(trials)


class TestCellLayout:
    def test_lookup_tables_read_only(self):
        """A write to a shared table would change every later lookup."""
        names = ("_COLUMNS", "_BYTE_OF_CELL", "_CELL_OF_BYTE", "_CSV_SUFFIX")
        tables = [getattr(montecarlo, name) for name in names] + [montecarlo._digit_words()]
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = table[-1]

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
        series = TrialSeries.from_columns(x=x, y=y, i=i, j=j, seed=0, measure_digest="")
        expected = [OUTCOME_ORDER.index(ChshOutcome(*t)) for t in trials]
        assert series.cells.tolist() == expected

    def test_count_rejects_invalid_cell(self):
        emp = empirical_measure(sample(chsh_measure(TSIRELSON_ANGLES), 100, seed=0))
        with pytest.raises(ValueError):
            emp.count(0, 1, 0, 0)
        with pytest.raises(ValueError):
            emp.count(1, 1, 2, 0)

    def test_record_is_an_outcome(self):
        rec = sample(degenerate_measure(), 5, seed=0)[4]
        assert type(rec) is ChshOutcome
        assert rec == ChshOutcome(x=1, y=1, i=0, j=0)
