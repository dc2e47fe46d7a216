"""Monte Carlo simulation of the four-setting experiment.

Trials are drawn by inverse-CDF lookup over the 16-cell joint table using
the counter-based Philox generator, in fixed-size chunks keyed by
(seed, chunk index).  The stream for a given (measure, seed, n) is
therefore reproducible across runs and platforms, and extending a series
keeps its prefix: trial k never depends on how many trials follow it.

Serialized layouts (both byte-exact):

* CSV: header ``n,x,y,i,j`` then one line per trial with the 0-based trial
  index and the four small integers; lines end with a single ``\\n``.
* Binary: one byte per trial, index implicit.  Bit 0 is x (+1 -> 1,
  -1 -> 0), bit 1 is y likewise, bit 2 is i, bit 3 is j; bits 4-7 are 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .probspace import CELL_INDEX, OUTCOME_ORDER, ChshOutcome, JointMeasure

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
]

#: Trials per Philox chunk; chunk c of a run uses key (seed, c).
CHUNK = 65536

#: Identifies the sampling algorithm a series was drawn with.
GENERATOR_ID = "philox4x64/inverse-cdf/chunk65536/v1"

_CELL_X = np.array([o.x for o in OUTCOME_ORDER], dtype=np.int8)
_CELL_Y = np.array([o.y for o in OUTCOME_ORDER], dtype=np.int8)
_CELL_I = np.array([o.i for o in OUTCOME_ORDER], dtype=np.int8)
_CELL_J = np.array([o.j for o in OUTCOME_ORDER], dtype=np.int8)

#: Trial-CSV text after the trial index, per canonical cell: ``",x,y,i,j\n"``.
_CSV_SUFFIX = tuple(f",{o.x},{o.y},{o.i},{o.j}\n" for o in OUTCOME_ORDER)


@dataclass(frozen=True)
class ExperimentRecord(ChshOutcome):
    """One simulated run: a `ChshOutcome` plus its trial index n."""

    n: int


@dataclass(frozen=True, eq=False)
class TrialSeries:
    """Ordered outcomes of a simulated experiment plus its provenance.

    ``x``/``y`` hold +-1 and ``i``/``j`` hold 0/1, one entry per trial, in
    integer arrays of any width; other values raise ValueError.
    ``measure_digest`` ties the series to the measure it was drawn from and
    ``generator`` names the sampling algorithm, so a stored series can be
    re-derived and audited.
    """

    x: np.ndarray
    y: np.ndarray
    i: np.ndarray
    j: np.ndarray
    seed: int
    measure_digest: str
    generator: str = GENERATOR_ID

    def __post_init__(self) -> None:
        n = self.x.shape[0]
        for name in ("x", "y", "i", "j"):
            arr = getattr(self, name)
            if arr.ndim != 1 or arr.shape[0] != n:
                raise ValueError("x, y, i, j must be 1-d arrays of equal length")
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"{name} must be an integer array, got dtype {arr.dtype}")
        if n == 0:
            raise ValueError("a trial series holds at least one trial")
        # min/max compare without arithmetic, so no integer width can wrap.
        for name in ("x", "y"):
            arr = getattr(self, name)
            if arr.min() < -1 or arr.max() > 1 or np.count_nonzero(arr) < n:
                raise ValueError(f"{name} must hold only -1 and +1")
        for name in ("i", "j"):
            arr = getattr(self, name)
            if arr.min() < 0 or arr.max() > 1:
                raise ValueError(f"{name} must hold only 0 and 1")

    def __len__(self) -> int:
        return self.x.shape[0]

    def __getitem__(self, n: int) -> ExperimentRecord:
        return ExperimentRecord(
            n=int(range(len(self))[n]),
            x=int(self.x[n]),
            y=int(self.y[n]),
            i=int(self.i[n]),
            j=int(self.j[n]),
        )

    def __iter__(self) -> Iterator[ExperimentRecord]:
        for n in range(len(self)):
            yield self[n]

    def cell_indices(self) -> np.ndarray:
        """Canonical 16-cell index of every trial."""
        row = (self.x < 0) * 1 + (self.y < 0) * 2  # position of (x, y) in ROW_ORDER
        return CELL_INDEX[row, self.i, self.j]

    def to_csv(self) -> str:
        """Trial CSV: each row is its index plus one of 16 cell suffixes,
        joined one `CHUNK` of trials at a time."""
        cells = self.cell_indices()
        chunks = ["n,x,y,i,j\n"]
        for start in range(0, len(self), CHUNK):
            chunk = cells[start : start + CHUNK].tolist()
            chunks.append("".join([f"{k}{_CSV_SUFFIX[c]}" for k, c in enumerate(chunk, start)]))
        return "".join(chunks)

    def to_binary(self) -> bytes:
        bits = (
            (self.x > 0).astype(np.uint8)
            | ((self.y > 0).astype(np.uint8) << 1)
            | (self.i.astype(np.uint8) << 2)
            | (self.j.astype(np.uint8) << 3)
        )
        return bits.tobytes()


def decode_binary(blob: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Invert `TrialSeries.to_binary`: returns the (x, y, i, j) arrays."""
    bits = np.frombuffer(blob, dtype=np.uint8)
    if bits.size and int(bits.max()) > 0b1111:
        raise ValueError("invalid record byte: bits 4-7 must be 0")
    x = np.where(bits & 1, 1, -1).astype(np.int8)
    y = np.where(bits & 2, 1, -1).astype(np.int8)
    i = ((bits >> 2) & 1).astype(np.int8)
    j = ((bits >> 3) & 1).astype(np.int8)
    return x, y, i, j


def sample(measure: JointMeasure, n: int, seed: int) -> TrialSeries:
    """Draw ``n`` independent trials from the joint measure.

    Each chunk of `CHUNK` trials uses its own Philox stream keyed by
    (seed, chunk index); uniforms map to cells through the cumulative
    table, so cells of probability 0 are never produced.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    probs = measure.probs
    cdf = np.cumsum(probs)
    # Rounding can leave cdf[-1] < 1; a uniform at or above it goes to the
    # last cell that can occur, not to cell 15 when that cell has probability 0.
    last = int(np.flatnonzero(probs)[-1])
    cells = np.empty(n, dtype=np.int64)
    for chunk in range(0, n, CHUNK):
        count = min(CHUNK, n - chunk)
        gen = np.random.Generator(
            np.random.Philox(key=np.array([seed, chunk // CHUNK], dtype=np.uint64))
        )
        u = gen.random(count)
        cells[chunk : chunk + count] = np.minimum(np.searchsorted(cdf, u, side="right"), last)
    return TrialSeries(
        x=_CELL_X[cells],
        y=_CELL_Y[cells],
        i=_CELL_I[cells],
        j=_CELL_J[cells],
        seed=seed,
        measure_digest=measure.digest(),
    )


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Cell counts of a trial series, aligned with the canonical cell order."""

    counts: np.ndarray
    n: int

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (16,):
            raise ValueError("counts must have one entry per canonical cell")
        if int(counts.sum()) != self.n:
            raise ValueError("counts must sum to the number of trials")
        object.__setattr__(self, "counts", counts)

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.n

    def count(self, x: int, y: int, i: int, j: int) -> int:
        return int(self.counts[OUTCOME_ORDER.index(ChshOutcome(x=x, y=y, i=i, j=j))])


def empirical_measure(series: TrialSeries) -> EmpiricalMeasure:
    counts = np.bincount(series.cell_indices(), minlength=16)
    return EmpiricalMeasure(counts=counts, n=len(series))


def empirical_partial_expectation(series: TrialSeries, i: int, j: int) -> float:
    """Empirical E_{a_i, b_j}[XY]: sum of x*y over matching trials, over all n.

    The numerator is an exact integer, so summing the four setting pairs
    reproduces the overall empirical mean of x*y exactly.
    """
    if i not in (0, 1) or j not in (0, 1):
        raise ValueError(f"setting indices must be 0 or 1, got ({i!r}, {j!r})")
    hit = (series.i == i) & (series.j == j)
    total = int(np.sum(series.x[hit].astype(np.int64) * series.y[hit].astype(np.int64)))
    return total / len(series)


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
