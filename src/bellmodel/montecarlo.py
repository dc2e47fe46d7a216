"""Monte Carlo simulation of the four-setting experiment.

Trials are drawn by inverse-CDF lookup over the 16-cell joint table using
the counter-based Philox generator, in fixed-size chunks keyed by
(seed, chunk index).  The stream for a given (measure, seed, n) is
therefore reproducible across runs and platforms, and extending a series
keeps its prefix: trial k never depends on how many trials follow it.

A `TrialSeries` stores each trial only as its ``uint8`` cell index (position
in `OUTCOME_ORDER`); its columns, counts and both layouts are lookups on it.
`sample_chunks` yields the same cells one chunk at a time, and counts and
the trial CSV can be taken from those chunks as they are drawn, so a run of
any length needs memory for one chunk only.

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
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .probspace import (
    CELL_INDEX, OUTCOME_ORDER, ROW_ORDER, ChshOutcome, JointMeasure, _integer, _seed, _setting_pair
)

__all__ = [
    "CHUNK",
    "EmpiricalMeasure",
    "ExperimentRecord",
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

_CELL_X = np.array([o.x for o in OUTCOME_ORDER], dtype=np.int8)
_CELL_Y = np.array([o.y for o in OUTCOME_ORDER], dtype=np.int8)
_CELL_I = np.array([o.i for o in OUTCOME_ORDER], dtype=np.int8)
_CELL_J = np.array([o.j for o in OUTCOME_ORDER], dtype=np.int8)

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

for _table in (_CELL_X, _CELL_Y, _CELL_I, _CELL_J, _CSV_SUFFIX, _BYTE_OF_CELL, _CELL_OF_BYTE):
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
    """Trial CSV of consecutive chunks of cell indices 0-15 (as
    `sample_chunks` yields them), piece by piece: the header, then the rows
    of each chunk as it arrives."""
    yield "n,x,y,i,j\n"
    start = 0
    for cells in chunks:
        cells = _check_cells(cells)  # the suffix lookup would take -1 as cell 15
        yield _csv_rows(start, cells)
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


@dataclass(frozen=True)
class ExperimentRecord(ChshOutcome):
    """One simulated run: a `ChshOutcome` plus its trial index n."""

    n: int


@dataclass(frozen=True, eq=False)
class TrialSeries:
    """Ordered outcomes of a simulated experiment plus its provenance.

    ``cells`` holds each trial's position in `OUTCOME_ORDER` as ``uint8``
    (an integer array of any width is accepted; values outside 0-15 raise
    ValueError) and is stored read-only; the int8 columns x, y (+-1) and
    i, j (0/1) derive from it.
    ``measure_digest`` ties the series to the measure it was drawn from and
    ``generator`` (the class attribute `GENERATOR_ID`) names the sampling
    algorithm, so a stored series can be re-derived and audited.
    """

    cells: np.ndarray
    seed: int
    measure_digest: str
    generator = GENERATOR_ID

    def __post_init__(self) -> None:
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

    x = property(lambda self: _CELL_X[self.cells])
    y = property(lambda self: _CELL_Y[self.cells])
    i = property(lambda self: _CELL_I[self.cells])
    j = property(lambda self: _CELL_J[self.cells])

    def __len__(self) -> int:
        return self.cells.shape[0]

    def __getitem__(self, n: int) -> ExperimentRecord:
        # range() reads True as trial 1, and a slice fails inside numpy.
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise TypeError(f"trial index must be an integer, got {type(n).__name__}")
        index = range(len(self))[n]
        return ExperimentRecord(**vars(OUTCOME_ORDER[self.cells[index]]), n=index)

    def __iter__(self) -> Iterator[ExperimentRecord]:
        for n in range(len(self)):
            yield self[n]

    def _chunks(self) -> Iterator[np.ndarray]:
        for start in range(0, len(self), CHUNK):
            yield self.cells[start : start + CHUNK]

    def to_csv(self) -> str:
        """Trial CSV, built one `CHUNK` of trials at a time from table
        lookups: digit words of each index and one of 16 cell suffixes."""
        return "".join(trial_csv(self._chunks()))

    def to_binary(self) -> bytes:
        return _BYTE_OF_CELL[self.cells].tobytes()


def decode_binary(blob: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Invert `TrialSeries.to_binary`: returns the (x, y, i, j) arrays."""
    cells = _CELL_OF_BYTE[np.frombuffer(blob, dtype=np.uint8)]
    if cells.size and int(cells.max()) > 15:
        raise ValueError("invalid record byte: bits 4-7 must be 0")
    return _CELL_X[cells], _CELL_Y[cells], _CELL_I[cells], _CELL_J[cells]


def sample_chunks(measure: JointMeasure, n: int, seed: int) -> Iterator[np.ndarray]:
    """Draw ``n`` independent trials from the joint measure, one `CHUNK` at
    a time: yields each chunk's cells as a fresh ``uint8`` array.

    Chunk c uses its own Philox stream keyed by (seed, c).  A uniform u maps
    to the number of cumulative thresholds at or below u among the cells
    before the last possible one, so cells of probability 0 are never
    produced.  ``n`` and ``seed`` are checked on the call, before the first
    chunk is drawn.
    """
    n, seed = _integer("n", n), _seed(seed)
    if n < 1:
        raise ValueError("n must be at least 1")
    probs = measure.probs
    # Rounding can leave the last cumulative sum below 1; a uniform at or
    # above it goes to the last cell that can occur, not to cell 15 when
    # that cell has probability 0.
    thresholds = np.cumsum(probs)[: np.flatnonzero(probs)[-1]]

    def chunks() -> Iterator[np.ndarray]:
        for start in range(0, n, CHUNK):
            gen = np.random.Generator(
                np.random.Philox(key=np.array([seed, start // CHUNK], dtype=np.uint64))
            )
            u = gen.random(min(CHUNK, n - start))
            # The thresholds are nondecreasing, so this count equals
            # searchsorted(cdf, u, side="right") capped at the last possible
            # cell, with the same float comparisons.
            cells = np.zeros(u.size, dtype=np.uint8)
            for threshold in thresholds:
                cells += u >= threshold
            del u  # not held while the consumer works on the cells
            yield cells

    return chunks()


def sample(measure: JointMeasure, n: int, seed: int) -> TrialSeries:
    """Draw ``n`` independent trials from the joint measure: the chunks of
    `sample_chunks` in one series."""
    chunks = sample_chunks(measure, n, seed)
    cells = np.empty(n, dtype=np.uint8)
    for start, chunk in zip(range(0, n, CHUNK), chunks):
        cells[start : start + CHUNK] = chunk
    return TrialSeries(cells=cells, seed=seed, measure_digest=measure.digest())


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
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
        return int(self.counts[OUTCOME_ORDER.index(ChshOutcome(x=x, y=y, i=i, j=j))])


def empirical_measure(trials: TrialSeries | Iterable[np.ndarray]) -> EmpiricalMeasure:
    """Cell counts of a series, or of chunks of cells such as `sample_chunks`
    yields, added up one chunk at a time."""
    chunks = trials._chunks() if isinstance(trials, TrialSeries) else trials
    counts = np.zeros(16, dtype=np.int64)
    for cells in chunks:
        counts += np.bincount(_check_cells(cells), minlength=16)
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
