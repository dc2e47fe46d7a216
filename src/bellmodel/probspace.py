"""Finite probability spaces and the three expectation flavors.

For a random variable X on a finite space (Omega, P) and an event A:

    expectation(X)              = sum over all w of X(w) P[{w}]
    conditional_expectation(X|A)= partial_expectation(X, A) / P[A]
    partial_expectation(X, A)   = sum over w in A of X(w) P[{w}]

The partial flavor keeps the absolute weight of A: it is additive over a
partition of Omega, it vanishes on null events instead of being undefined,
and conditional = partial / P[A] whenever P[A] > 0.

The four-setting two-outcome experiment is a `JointMeasure`: a distribution
over the 16 points (x, y, i, j) where (x, y) are the two detector outcomes
and (i, j) pick which of the two orientations each detector used on that
run.  Its `table` lays the 16 weights out as (row, i, j), one column per
setting pair, and every analysis of the experiment reads that table: the
partial expectation E_{a_i, b_j}[XY] is a sum over column (i, j).  The
generic machinery above stays the reference those sums are tested against.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from collections.abc import Callable, Iterable, Mapping
from functools import cached_property
from typing import Any

import numpy as np

from .singlet import _ATOL, DetectorAngle, _Record, conditional_joint_probs

__all__ = [
    "CELL_INDEX",
    "COLUMN_ORDER",
    "ChshOutcome",
    "Event",
    "FiniteProbabilitySpace",
    "JointMeasure",
    "OUTCOME_ORDER",
    "ROW_ORDER",
    "RandomVariable",
    "STRATEGY_ANSWERS",
    "SettingsDistribution",
    "ZeroProbabilityError",
    "chsh_measure",
    "conditional_expectation",
    "dice_space",
    "expectation",
    "outcome_product",
    "partial_expectation",
    "setting_event",
    "sig17",
    "verify_expectation_relation",
]


class ZeroProbabilityError(ValueError):
    """Raised when conditioning on an event of probability zero."""


def _integer(name: str, value: object) -> int:
    # bool is an Integral, but True as a size, count or seed is a mistake.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(name: str, value: object) -> float:
    # float() alone would parse "0.25"; None and complex are named here too.
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _seed(value: object) -> int:
    seed = _integer("seed", value)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return seed


def _integers_in(values: tuple, allowed: tuple[int, int]) -> bool:
    # `in` alone admits True and 1.0; numpy reads an index True as a mask.
    return all(isinstance(k, numbers.Integral) and not isinstance(k, bool) and k in allowed
               for k in values)


def _setting_pair(i: object, j: object) -> None:
    if not _integers_in((i, j), (0, 1)):
        raise ValueError(f"setting indices must be 0 or 1, got ({i!r}, {j!r})")


def _known_keys(table: Mapping, keys: Iterable, what: str) -> None:
    unknown = set(table).difference(keys)
    if unknown:
        names = ", ".join(sorted(map(repr, unknown)))  # mixed key types do not compare
        raise ValueError(f"{what}, got {names}")


def sig17(value: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    return format(float(value), ".17g")


class RandomVariable:
    """Real-valued function of outcomes, closed under +, -, * and scaling."""

    def __init__(self, fn: Callable[[Any], float]):
        self._fn = fn

    def __call__(self, outcome: Any) -> float:
        return self._fn(outcome)

    @staticmethod
    def _lift(other: Any) -> "RandomVariable":
        if isinstance(other, RandomVariable):
            return other
        if isinstance(other, (int, float)):
            return RandomVariable(lambda _w, c=float(other): c)
        raise TypeError(f"cannot combine RandomVariable with {type(other).__name__}")

    def __add__(self, other: Any) -> "RandomVariable":
        rhs = self._lift(other)
        return RandomVariable(lambda w: self(w) + rhs(w))

    __radd__ = __add__

    def __neg__(self) -> "RandomVariable":
        return RandomVariable(lambda w: -self(w))

    def __sub__(self, other: Any) -> "RandomVariable":
        return self + (-self._lift(other))

    def __rsub__(self, other: Any) -> "RandomVariable":
        return self._lift(other) + (-self)

    def __mul__(self, other: Any) -> "RandomVariable":
        rhs = self._lift(other)
        return RandomVariable(lambda w: self(w) * rhs(w))

    __rmul__ = __mul__


class Event:
    """Measurable subset of the outcome set, given by a predicate."""

    def __init__(self, predicate: Callable[[Any], bool]):
        self._predicate = predicate

    def __call__(self, outcome: Any) -> bool:
        return bool(self._predicate(outcome))

    def indicator(self) -> RandomVariable:
        return RandomVariable(lambda w: 1.0 if self(w) else 0.0)

    def __and__(self, other: "Event") -> "Event":
        return Event(lambda w: self(w) and other(w))

    def __invert__(self) -> "Event":
        return Event(lambda w: not self(w))


class FiniteProbabilitySpace(_Record, eq=False):
    """Finitely many distinct outcomes with nonnegative weights summing to 1.

    Weights are taken exactly as given; nothing is silently renormalized.
    """

    outcomes: tuple
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        outcomes = tuple(self.outcomes)
        weights = tuple(_real("a weight", w) for w in self.weights)
        if len(outcomes) == 0:
            raise ValueError("a probability space needs at least one outcome")
        if len(outcomes) != len(weights):
            raise ValueError(f"{len(outcomes)} outcomes but {len(weights)} weights")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("outcomes must be distinct")
        for w in weights:
            if not (w >= 0.0):  # also rejects NaN
                raise ValueError(f"weights must be nonnegative, got {w!r}")
        total = math.fsum(weights)
        if abs(total - 1.0) > _ATOL:
            raise ValueError(f"weights must sum to 1 within {_ATOL}, got {total!r}")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_index", {w: k for k, w in enumerate(outcomes)})

    def weight(self, outcome: Any) -> float:
        """P[{outcome}]; outcomes not in the space have weight 0."""
        k = self._index.get(outcome)
        return 0.0 if k is None else self.weights[k]

    def probability(self, event: Event) -> float:
        return math.fsum(w for o, w in zip(self.outcomes, self.weights) if event(o))


def expectation(space: FiniteProbabilitySpace, rv: RandomVariable) -> float:
    """Plain expectation: weighted sum of X over all outcomes."""
    return math.fsum(rv(o) * w for o, w in zip(space.outcomes, space.weights))


def partial_expectation(space: FiniteProbabilitySpace, rv: RandomVariable, event: Event) -> float:
    """Expectation summed only over the event; 0 on a null event."""
    return math.fsum(rv(o) * w for o, w in zip(space.outcomes, space.weights) if event(o))


def conditional_expectation(space: FiniteProbabilitySpace, rv: RandomVariable, event: Event) -> float:
    """Expectation under the renormalized restriction to the event."""
    p = space.probability(event)
    if p <= 0.0:
        raise ZeroProbabilityError("cannot condition on an event of probability zero")
    return partial_expectation(space, rv, event) / p


def verify_expectation_relation(
    space: FiniteProbabilitySpace,
    rv: RandomVariable,
    event: Event,
) -> bool:
    """Check partial = conditional * P[A] on a positive-probability event."""
    p = space.probability(event)
    if p <= 0.0:
        raise ZeroProbabilityError("relation is only defined when P[A] > 0")
    lhs = partial_expectation(space, rv, event)
    rhs = conditional_expectation(space, rv, event) * p
    return abs(lhs - rhs) <= _ATOL


def dice_space() -> FiniteProbabilitySpace:
    """Two fair dice: outcomes (i, j) with i, j in 1..6, each weight 1/36."""
    outcomes = tuple((i, j) for i in range(1, 7) for j in range(1, 7))
    return FiniteProbabilitySpace(outcomes=outcomes, weights=(1.0 / 36.0,) * 36)


# ---------------------------------------------------------------------------
# The four-setting experiment
# ---------------------------------------------------------------------------


class SettingsDistribution(_Record):
    """Distribution over the four setting pairs; p_ij = P[A uses a_i, B uses b_j].

    Each p_ij is stored as a float, and -0.0 as 0.0: equal settings have one digest.
    """

    p00: float
    p01: float
    p10: float
    p11: float

    def __post_init__(self) -> None:
        for name, p in self.items():
            value = _real(f"setting probability {name}", p) + 0.0  # -0.0 is stored as 0.0
            if not (value >= 0.0):
                raise ValueError(f"setting probability {name} must be nonnegative, got {p!r}")
            object.__setattr__(self, name, value)
        total = math.fsum(p for _name, p in self.items())
        if abs(total - 1.0) > _ATOL:
            raise ValueError(f"setting probabilities must sum to 1, got {total!r}")

    @classmethod
    def uniform(cls) -> "SettingsDistribution":
        return cls(0.25, 0.25, 0.25, 0.25)

    @classmethod
    def from_mapping(cls, table: Mapping[tuple[int, int], float]) -> "SettingsDistribution":
        """Build from (i, j) -> probability; missing pairs are 0, any other key is an error."""
        _known_keys(table, COLUMN_ORDER, "setting keys must be (i, j) of the 4 setting pairs")
        return cls(**{f"p{i}{j}": table.get((i, j), 0.0) for (i, j) in COLUMN_ORDER})

    def probability(self, i: int, j: int) -> float:
        _setting_pair(i, j)
        return getattr(self, f"p{i}{j}")

    def items(self) -> tuple[tuple[str, float], ...]:
        return tuple(zip(self._fields, self._values()))

    def is_uniform(self) -> bool:
        return all(abs(p - 0.25) <= _ATOL for _name, p in self.items())


class ChshOutcome(_Record):
    """One experimental run: outcomes x, y in {-1, +1}, setting indices i, j in {0, 1}."""

    x: int
    y: int
    i: int
    j: int

    def __post_init__(self) -> None:
        if not _integers_in((self.x, self.y), (-1, 1)):
            raise ValueError(f"outcomes must be -1 or +1, got x={self.x!r} y={self.y!r}")
        _setting_pair(self.i, self.j)


#: Setting-pair columns in table layout order.
COLUMN_ORDER: tuple[tuple[int, int], ...] = ((0, 0), (1, 0), (1, 1), (0, 1))

#: Outcome-pair rows in table layout order.
ROW_ORDER: tuple[tuple[int, int], ...] = ((1, 1), (-1, 1), (1, -1), (-1, -1))

#: Answers (x0, x1, y0, y1) of the 16 deterministic strategies, shape (16, 4).
#: Strategy k answers +1 where bit b of k is set (b = 0..3 in that order) and
#: -1 elsewhere.
STRATEGY_ANSWERS: np.ndarray = np.array(
    [[1 if (k >> b) & 1 else -1 for b in range(4)] for k in range(16)], dtype=np.int64
)
STRATEGY_ANSWERS.flags.writeable = False

#: Canonical flat order of all 16 points: column-major over the table layout.
OUTCOME_ORDER: tuple[ChshOutcome, ...] = tuple(
    ChshOutcome(x=x, y=y, i=i, j=j) for (i, j) in COLUMN_ORDER for (x, y) in ROW_ORDER
)

#: Canonical flat index of every point in (row, i, j) layout, shape (4, 2, 2):
#: ``CELL_INDEX[row, i, j]`` is the position in `OUTCOME_ORDER` of outcome
#: pair ``ROW_ORDER[row]`` at setting pair (i, j): 4 points per column, in row order.
CELL_INDEX: np.ndarray = np.array(
    [[[4 * COLUMN_ORDER.index((i, j)) + row for j in (0, 1)] for i in (0, 1)] for row in range(4)],
    dtype=np.intp,
)
CELL_INDEX.flags.writeable = False


def _cell(x: int, y: int, i: int, j: int) -> int:
    """Position of outcome (x, y, i, j) in `OUTCOME_ORDER`; invalid values
    raise ChshOutcome's ValueError."""
    ChshOutcome(x=x, y=y, i=i, j=j)
    return int(CELL_INDEX[ROW_ORDER.index((x, y)), i, j])


#: Names of the four detector orientations, in the order of a measure's angles.
_ANGLE_NAMES = ("a0", "a1", "b0", "b1")

#: Setting-pair labels aligned with `COLUMN_ORDER`.
_COLUMN_LABELS = tuple(f"a{i}b{j}" for (i, j) in COLUMN_ORDER)


def outcome_product() -> RandomVariable:
    """The product X*Y of the two detector outcomes."""
    return RandomVariable(lambda o: float(o.x * o.y))


def setting_event(i: int, j: int) -> Event:
    """The event that detector A used a_i and detector B used b_j."""
    _setting_pair(i, j)
    return Event(lambda o: o.i == i and o.j == j)


def _detector_angles(angles: Iterable[DetectorAngle]) -> tuple[DetectorAngle, ...]:
    angles = tuple(angles)
    if len(angles) != 4 or not all(isinstance(a, DetectorAngle) for a in angles):
        raise ValueError("angles must be 4 DetectorAngle values (a0, a1, b0, b1)")
    return angles


def _settings_distribution(settings: object) -> None:
    if not isinstance(settings, SettingsDistribution):
        raise ValueError(f"settings must be a SettingsDistribution, got {type(settings).__name__}")


class JointMeasure(_Record, eq=False):
    """Distribution over the 16 points (x, y, i, j) of the four-setting experiment.

    ``probs`` holds the 16 weights in `OUTCOME_ORDER`, and the mass of each
    setting-pair column must match the stated settings distribution.
    """

    probs: np.ndarray
    angles: tuple[DetectorAngle, DetectorAngle, DetectorAngle, DetectorAngle]
    settings: SettingsDistribution

    def __post_init__(self) -> None:
        shape = np.shape(self.probs)
        if shape != (16,):
            raise ValueError(f"expected 16 cell weights, got shape {shape}")
        # the weight checks, on the weights as given: numpy would parse "0.0625"
        FiniteProbabilitySpace(OUTCOME_ORDER, tuple(self.probs))
        probs = np.asarray(self.probs, dtype=np.float64) + 0.0  # a copy; -0.0 becomes 0.0
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "angles", _detector_angles(self.angles))
        _settings_distribution(self.settings)
        table = self.table
        for (i, j) in COLUMN_ORDER:
            mass = math.fsum(table[:, i, j])
            stated = self.settings.probability(i, j)
            if abs(mass - stated) > _ATOL:
                raise ValueError(
                    f"column (a{i}, b{j}) has mass {mass!r} but settings say {stated!r}"
                )

    @classmethod
    def from_probabilities(
        cls,
        angles: Iterable[DetectorAngle],
        settings: SettingsDistribution,
        cells: Mapping[tuple[int, int, int, int], float] | Iterable[float],
    ) -> "JointMeasure":
        """Build a measure from explicit cell weights.

        ``cells`` is either a mapping (x, y, i, j) -> probability (missing
        cells are 0; any other key is an error) or a flat sequence of 16
        weights in canonical order.
        """
        if isinstance(cells, Mapping):
            keys = [(o.x, o.y, o.i, o.j) for o in OUTCOME_ORDER]
            _known_keys(cells, keys, "cell keys must be (x, y, i, j) of the 16 cells")
            cells = [cells.get(key, 0.0) for key in keys]
        return cls(list(cells), angles, settings)

    @property
    def space(self) -> FiniteProbabilitySpace:
        """The weights as a generic space over `OUTCOME_ORDER`, built on each access."""
        return FiniteProbabilitySpace(OUTCOME_ORDER, self.probs.tolist())

    @cached_property
    def table(self) -> np.ndarray:
        """The 16 weights laid out as (row, i, j), indexed through `CELL_INDEX`
        (read-only)."""
        table = self.probs[CELL_INDEX]
        table.flags.writeable = False
        return table

    def probability(self, x: int, y: int, i: int, j: int) -> float:
        return float(self.probs[_cell(x, y, i, j)])

    def column(self, i: int, j: int) -> dict[tuple[int, int], float]:
        """Joint weights p(x, y, i, j) of one setting-pair column."""
        _setting_pair(i, j)
        return dict(zip(ROW_ORDER, self.table[:, i, j].tolist()))

    def conditional_column(self, i: int, j: int) -> dict[tuple[int, int], float]:
        """Outcome distribution p(x, y | i, j); errors if the pair has probability 0."""
        p = self.settings.probability(i, j)
        if p <= 0.0:
            raise ZeroProbabilityError(f"setting pair (a{i}, b{j}) has probability zero")
        return {xy: w / p for xy, w in self.column(i, j).items()}

    def as_dict(self) -> dict:
        return {
            "angles": {name: a.radians for name, a in zip(_ANGLE_NAMES, self.angles)},
            "settings": dict(self.settings.items()),
            "cells": [
                {"x": o.x, "y": o.y, "i": o.i, "j": o.j, "p": w}
                for o, w in zip(OUTCOME_ORDER, self.probs.tolist())
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict())

    def to_csv(self) -> str:
        """Table layout: one row per outcome pair, one column per setting pair.

        Cells carry 17 significant digits so parsing the CSV reproduces the
        weights bit-for-bit.
        """
        lines = ["x,y," + ",".join(_COLUMN_LABELS)]
        table = self.table
        for row, (x, y) in enumerate(ROW_ORDER):
            cells = [sig17(table[row, i, j]) for (i, j) in COLUMN_ORDER]
            lines.append(f"{x},{y}," + ",".join(cells))
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        """SHA-256 over a canonical text rendering; identifies the measure."""
        parts = [sig17(a.radians) for a in self.angles]
        parts += [sig17(p) for _name, p in self.settings.items()]
        parts += [sig17(w) for w in self.probs.tolist()]
        return hashlib.sha256(";".join(parts).encode("ascii")).hexdigest()


def chsh_measure(
    angles: Iterable[DetectorAngle],
    settings: SettingsDistribution | None = None,
) -> JointMeasure:
    """Joint measure of the singlet experiment: p(x, y, i, j) = p_ij * p(x, y | a_i, b_j).

    ``angles`` are (a0, a1, b0, b1); ``settings`` defaults to uniform.
    """
    angles = _detector_angles(angles)
    if settings is None:
        settings = SettingsDistribution.uniform()
    _settings_distribution(settings)
    a = angles[:2]
    b = angles[2:]
    weights = []
    for (i, j) in COLUMN_ORDER:
        p_ij = settings.probability(i, j)
        cond = conditional_joint_probs(a[i], b[j])
        weights.extend(p_ij * cond[xy] for xy in ROW_ORDER)
    return JointMeasure(weights, angles, settings)
