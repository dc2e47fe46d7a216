"""Monte Carlo simulation of the four-setting experiment.

Trials are drawn by inverse-CDF lookup over the 16-cell joint table using
the counter-based Philox generator, keyed by (seed, chunk index) for each
`CHUNK` of trials.  The stream for a given (measure, seed, n) is therefore
reproducible across runs and platforms, and extending a series keeps its
prefix: trial k never depends on how many trials follow it.  Every pass
works one `_BLOCK` of trials at a time: consecutive fills consume a chunk's
stream as one fill of the whole chunk would, so `GENERATOR_ID` names the
chunk keys alone.

A `TrialSeries` stores each trial only as its ``uint8`` cell index (position
in `OUTCOME_ORDER`); its columns, counts and both layouts are lookups on it,
and ``series[k]`` is trial k's `ChshOutcome`.  `sample_chunks` returns the
same trials as a re-iterable draw: iterating it yields the cells one block at
a time, from which the trial CSV is written, and `empirical_measure` counts
it from each block's uniforms without forming cells.  Either way a run of
any length needs memory for one block of uniforms, cells and text only.

Serialized layouts (both byte-exact):

* CSV: header ``n,x,y,i,j`` then one line per trial with the 0-based trial
  index and the four small integers; lines end with a single ``\\n``.
* Binary: one byte per trial, index implicit.  Bit 0 is x (+1 -> 1,
  -1 -> 0), bit 1 is y likewise, bit 2 is i, bit 3 is j; bits 4-7 are 0.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import Iterable, Iterator

import numpy as np

from .probspace import (
    CELL_INDEX, OUTCOME_ORDER, ROW_ORDER, ChshOutcome, JointMeasure, _cell, _integer, _seed,
    _setting_pair,
)
from .singlet import _Record

__all__ = [
    "CHUNK",
    "EmpiricalMeasure",
    "GENERATOR_ID",
    "TrialSeries",
    "chi_square_statistic",
    "decode_binary",
    "empirical_measure",
    "empirical_partial_expectation",
    "sample",
    "sample_chunks",
    "trial_csv",
]

#: Trials per Philox chunk; chunk c of a run uses key (seed, c).
CHUNK = 65536

#: Identifies the sampling algorithm a series was drawn with.
GENERATOR_ID = "philox4x64/inverse-cdf/chunk65536/v1"

#: Trials drawn, counted or formatted at a time; it divides `CHUNK`, so
#: each block continues the stream of one chunk.
_BLOCK = 16384

#: Columns x, y (+-1) and i, j (0/1) of every canonical cell, shape (4, 16).
_COLUMNS = np.array([[getattr(o, c) for o in OUTCOME_ORDER] for c in "xyij"], dtype=np.int8)

#: Trial-CSV text after the trial index, per canonical cell: ``",x,y,i,j\n"``
#: as one NUL-padded 12-byte word.
_CSV_SUFFIX = np.array([f",{o.x},{o.y},{o.i},{o.j}\n".encode() for o in OUTCOME_ORDER], dtype="V12")


@functools.cache
def _digit_words() -> np.ndarray:
    """ASCII digits of 0-9999 as 4-byte words, NUL where a digit is absent:
    entries 0-9999 are unpadded, entries 10000-19999 zero-filled to four
    digits.  Built on first use, so that a process that writes no CSV does
    not pay for it."""
    d = np.arange(10000)[:, None]
    digits = (d // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    unpadded = np.where(d >= np.array([1000, 100, 10, 0]), digits, 0)  # units always written
    # A uint32 view keeps the bytes in reading order on any byte order.
    words = np.concatenate([unpadded, digits]).view(np.uint32).ravel()
    words.flags.writeable = False
    return words


#: Binary record byte per canonical cell, and its inverse (16: a high bit is set).
_BYTES = [(o.x > 0) | (o.y > 0) << 1 | o.i << 2 | o.j << 3 for o in OUTCOME_ORDER]
_BYTE_OF_CELL = np.array(_BYTES, dtype=np.uint8)
_CELL_OF_BYTE = np.array([_BYTES.index(b) if b < 16 else 16 for b in range(256)], dtype=np.uint8)

for _table in (_COLUMNS, _CSV_SUFFIX, _BYTE_OF_CELL, _CELL_OF_BYTE):
    _table.flags.writeable = False


def _csv_rows(start: int, cells: np.ndarray) -> str:
    """Trial-CSV rows of trials ``start``, ``start + 1``, ... with ``cells``.

    Each row is one record of NUL-padded fields, written straight into a
    byte buffer: the index's leading digits, its last four digits and the
    cell's suffix.  Dropping the NUL bytes leaves the text, so rows of any
    width share one layout.
    """
    stop = start + len(cells)
    width = len(str((stop - 1) // 10000))
    record = np.dtype([("lead", f"V{width}"), ("last", np.uint32), ("suffix", "V12")])
    raw = bytearray(len(cells) * record.itemsize)
    rows = np.frombuffer(raw, dtype=record)
    words = _digit_words()
    # Indices with the same k // 10000 share every digit but the last four,
    # and those run through a slice of the table: zero-filled after a
    # nonzero lead, unpadded without one.
    for high in range(start // 10000, (stop - 1) // 10000 + 1):
        first, last = max(start, 10000 * high), min(stop, 10000 * high + 10000)
        block = rows[first - start : last - start]
        block["lead"] = (str(high).encode() if high else b"").rjust(width, b"\0")
        offset = first - 10000 * high + (10000 if high else 0)
        block["last"] = words[offset : offset + last - first]
    rows["suffix"] = np.take(_CSV_SUFFIX, cells)  # faster than _CSV_SUFFIX[cells] here
    return raw.translate(None, b"\0").decode("ascii")


def trial_csv(chunks: Iterable[np.ndarray]) -> Iterator[str]:
    """Trial CSV of consecutive chunks of cell indices 0-15 (as a
    `sample_chunks` draw yields them), piece by piece: the header, then the
    rows of each chunk as it arrives, one piece per `_BLOCK` rows."""
    yield "n,x,y,i,j\n"
    start = 0
    for cells in chunks:
        cells = _check_cells(cells)  # the suffix lookup would take -1 as cell 15
        for offset in range(0, len(cells), _BLOCK):
            yield _csv_rows(start + offset, cells[offset : offset + _BLOCK])
        start += len(cells)


def _check_cells(cells: object) -> np.ndarray:
    """``cells`` as a ``uint8`` array, after checking that it is a 1-d
    integer array of canonical cell indices 0-15; it may be empty."""
    cells = np.asarray(cells)
    if cells.ndim != 1 or not np.issubdtype(cells.dtype, np.integer):
        raise ValueError(f"cells must be a non-empty 1-d integer array, got {cells.dtype}")
    # min/max compare without arithmetic, so no integer width can wrap.
    if cells.size and (cells.min() < 0 or cells.max() > 15):
        raise ValueError("cells must hold only canonical cell indices 0-15")
    return cells.astype(np.uint8, copy=False)


class TrialSeries(_Record, eq=False):
    """Ordered outcomes of a simulated experiment plus its provenance.

    ``cells`` holds each trial's position in `OUTCOME_ORDER` as ``uint8``
    (an integer array of any width is accepted; values outside 0-15 raise
    ValueError) and is stored read-only; the int8 columns x, y (+-1) and
    i, j (0/1) derive from it.
    ``measure_digest`` (a str) ties the series to the measure it was drawn
    from, ``seed`` is one `sample` accepts (0 <= seed < 2**64) and
    ``generator`` (the class attribute `GENERATOR_ID`) names the sampling
    algorithm, so a stored series can be re-derived and audited.
    """

    cells: np.ndarray
    seed: int
    measure_digest: str
    generator = GENERATOR_ID

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _seed(self.seed))
        if not isinstance(self.measure_digest, str):
            raise ValueError(f"measure_digest must be a str, got {self.measure_digest!r}")
        cells = _check_cells(self.cells)
        if cells.size == 0:
            raise ValueError("cells must be a non-empty 1-d integer array, got an empty one")
        # A read-only view: a later write could put an index outside 0-15,
        # and a view leaves the caller's own array writable without a copy.
        cells = cells.view()
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    @classmethod
    def from_columns(
        cls, x: np.ndarray, y: np.ndarray, i: np.ndarray, j: np.ndarray,
        seed: int, measure_digest: str,
    ) -> TrialSeries:
        """Series from recorded x, y (+-1) and i, j (0/1) columns: array-likes
        of any integer width; other values raise ValueError."""
        x, y, i, j = (np.asarray(arr) for arr in (x, y, i, j))
        n = x.shape[0] if x.ndim == 1 else -1
        for name, arr in (("x", x), ("y", y), ("i", i), ("j", j)):
            if arr.ndim != 1 or arr.shape[0] != n:
                raise ValueError("x, y, i, j must be 1-d arrays of equal length")
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"{name} must be an integer array, got dtype {arr.dtype}")
        if n == 0:
            raise ValueError("a trial series holds at least one trial")
        # min/max compare without arithmetic, so no integer width can wrap.
        for name, arr in (("x", x), ("y", y)):
            if arr.min() < -1 or arr.max() > 1 or np.count_nonzero(arr) < n:
                raise ValueError(f"{name} must hold only -1 and +1")
        for name, arr in (("i", i), ("j", j)):
            if arr.min() < 0 or arr.max() > 1:
                raise ValueError(f"{name} must hold only 0 and 1")
        row = (x < 0) * 1 + (y < 0) * 2  # position of (x, y) in ROW_ORDER
        return cls(CELL_INDEX[row, i, j], seed, measure_digest)

    x = property(lambda self: _COLUMNS[0][self.cells])
    y = property(lambda self: _COLUMNS[1][self.cells])
    i = property(lambda self: _COLUMNS[2][self.cells])
    j = property(lambda self: _COLUMNS[3][self.cells])

    def __len__(self) -> int:
        return self.cells.shape[0]

    def __getitem__(self, n: int) -> ChshOutcome:
        """Trial n's outcome; iteration runs through it up to the IndexError."""
        # range() reads True as trial 1, and a slice fails inside numpy.
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise TypeError(f"trial index must be an integer, got {type(n).__name__}")
        return OUTCOME_ORDER[self.cells[range(len(self))[n]]]

    def to_csv(self) -> str:
        """Trial CSV, built one `_BLOCK` of trials at a time from table
        lookups: digit words of each index and one of 16 cell suffixes."""
        return "".join(trial_csv([self.cells]))

    def to_binary(self) -> bytes:
        return _BYTE_OF_CELL[self.cells].tobytes()


def decode_binary(blob: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Invert `TrialSeries.to_binary`: returns the (x, y, i, j) arrays."""
    cells = _CELL_OF_BYTE[np.frombuffer(blob, dtype=np.uint8)]
    if cells.size and int(cells.max()) > 15:
        raise ValueError("invalid record byte: bits 4-7 must be 0")
    return tuple(_COLUMNS[:, cells])


class _Draw(_Record, eq=False):
    """``n`` trials of a run keyed by ``seed``, drawn by comparing uniforms
    with the nondecreasing cumulative ``thresholds``: a trial's cell is the
    number of thresholds at or below its uniform."""

    thresholds: np.ndarray
    n: int
    seed: int

    def _uniforms(self) -> Iterator[np.ndarray]:
        """Each block's uniforms, in one buffer refilled for every block;
        chunk c's blocks continue one Philox stream keyed by (seed, c)."""
        u = np.empty(min(_BLOCK, self.n))
        for start in range(0, self.n, _BLOCK):
            if start % CHUNK == 0:
                key = np.array([self.seed, start // CHUNK], dtype=np.uint64)
                gen = np.random.Generator(np.random.Philox(key=key))
            block = u[: self.n - start]
            gen.random(out=block)
            yield block

    def __iter__(self) -> Iterator[np.ndarray]:
        for u in self._uniforms():
            # The thresholds are nondecreasing, so this count equals
            # searchsorted(cdf, u, side="right") capped at the last
            # possible cell, with the same float comparisons.
            cells = np.zeros(u.size, dtype=np.uint8)
            for threshold in self.thresholds:
                cells += u >= threshold
            yield cells

    def counts(self) -> np.ndarray:
        """The 16 cell counts of the cells iteration yields, from the
        uniforms alone: a trial is in cell k or later exactly when its
        uniform is at or above threshold k - 1, so counting those per
        threshold gives every cell's count as a difference."""
        thresholds = self.thresholds.tolist()  # a float is cheaper per call than a numpy scalar
        above = np.empty(min(_BLOCK, self.n), dtype=bool)
        at_least = [self.n] + [0] * 16  # trials in cell k or later
        for u in self._uniforms():
            mask = above[: u.size]
            for k, threshold in enumerate(thresholds, 1):
                np.greater_equal(u, threshold, out=mask)
                at_least[k] += np.count_nonzero(mask)
        return np.subtract(at_least[:-1], at_least[1:])


def sample_chunks(measure: JointMeasure, n: int, seed: int) -> _Draw:
    """Draw ``n`` independent trials from the joint measure.  Returns a
    re-iterable draw: each pass over it yields the same cells, one `_BLOCK`
    of trials at a time as a fresh ``uint8`` array, and `empirical_measure`
    counts it straight from its uniforms, block by block.

    Chunk c uses its own Philox stream keyed by (seed, c).  A uniform u maps
    to the number of cumulative thresholds at or below u among the cells
    before the last possible one, so cells of probability 0 are never
    produced.  ``n`` and ``seed`` are checked on the call, before the first
    block is drawn.
    """
    n, seed = _integer("n", n), _seed(seed)
    if n < 1:
        raise ValueError("n must be at least 1")
    probs = measure.probs
    # Rounding can leave the last cumulative sum below 1; a uniform at or
    # above it goes to the last cell that can occur, not to cell 15 when
    # that cell has probability 0.
    return _Draw(np.cumsum(probs)[: np.flatnonzero(probs)[-1]], n, seed)


def sample(measure: JointMeasure, n: int, seed: int) -> TrialSeries:
    """Draw ``n`` independent trials from the joint measure: the blocks of
    `sample_chunks` in one series."""
    blocks = sample_chunks(measure, n, seed)
    cells = np.empty(n, dtype=np.uint8)
    for start, block in zip(range(0, n, _BLOCK), blocks):
        cells[start : start + _BLOCK] = block
    return TrialSeries(cells=cells, seed=seed, measure_digest=measure.digest())


class EmpiricalMeasure(_Record, eq=False):
    """Cell counts of a trial series in canonical cell order; ``n`` and frequencies derived."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.shape != (16,) or not np.issubdtype(counts.dtype, np.integer):
            raise ValueError("counts must be 16 integers, one per canonical cell")
        # Python ints compare exactly; a uint64 count past int64 would wrap in the cast.
        if int(counts.min()) < 0:
            raise ValueError("counts must be nonnegative")
        if int(counts.max()) > 2**63 - 1:
            raise ValueError("each count must be at most 2**63 - 1, the int64 limit")
        counts = counts.astype(np.int64)
        counts.flags.writeable = False  # a private copy, so no write can make a count negative
        object.__setattr__(self, "counts", counts)
        if self.n < 1:
            raise ValueError("an empirical measure needs at least one trial")

    @property
    def n(self) -> int:
        return sum(self.counts.tolist())  # exact, where an int64 sum can wrap

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / float(self.n)  # a float divisor: n may exceed int64

    def count(self, x: int, y: int, i: int, j: int) -> int:
        return int(self.counts[_cell(x, y, i, j)])


def empirical_measure(trials: TrialSeries | Iterable[np.ndarray]) -> EmpiricalMeasure:
    """Cell counts of a draw `sample_chunks` returns (counted from its
    uniforms, with no cell array), of a series (the one chunk of its cells)
    or of any chunks of cells, each counted one `_BLOCK` at a time."""
    if isinstance(trials, _Draw):
        return EmpiricalMeasure(trials.counts())
    chunks = [trials.cells] if isinstance(trials, TrialSeries) else trials
    counts = np.zeros(16, dtype=np.int64)
    for cells in chunks:
        cells = _check_cells(cells)
        for offset in range(0, len(cells), _BLOCK):
            counts += np.bincount(cells[offset : offset + _BLOCK], minlength=16)
    return EmpiricalMeasure(counts)


def empirical_partial_expectation(empirical: EmpiricalMeasure, i: int, j: int) -> float:
    """Empirical E_{a_i, b_j}[XY]: sum of x*y*count over the four cells of
    column (i, j), over all n.

    The numerator is an exact integer, so summing the four setting pairs
    reproduces the overall empirical mean of x*y exactly.
    """
    _setting_pair(i, j)
    counts = empirical.counts[CELL_INDEX[:, i, j]].tolist()
    return sum(x * y * c for (x, y), c in zip(ROW_ORDER, counts)) / empirical.n


def chi_square_statistic(empirical: EmpiricalMeasure, measure: JointMeasure) -> float:
    """Pearson chi-square of observed counts against the measure's cells.

    Cells with expected count 0 contribute 0 when unobserved and +inf when
    observed: a trial in an impossible cell is not a sampling fluctuation.
    """
    expected = measure.probs * empirical.n
    observed = empirical.counts.astype(float)
    stat = 0.0
    for obs, exp in zip(observed, expected):
        if exp > 0.0:
            stat += (obs - exp) ** 2 / exp
        elif obs > 0.0:
            return math.inf
    return stat
