"""CHSH and original-Bell inequality evaluation on a joint measure.

The CHSH combination over the four setting-pair columns is

    S = |t00 + t10 + t11 - t01|

where t_ij is either the conditional expectation E[XY | a_i, b_j]
(classical bound 2, quantum maximum 2 sqrt 2) or the partial expectation
E_{a_i, b_j}[XY] (bound 2 for every probability distribution over the 16
points, no quantum violation).

The original single-sided inequality uses partial expectations of -XY at
three setting pairs sharing an orientation (a1 = b0 = the shared angle):

    |T00 - T01| <= 1 + T11,   T_ij = E_{a_i, b_j}[-XY].

Its derivation needs the perfect anti-correlation at equal orientations,
so the identically-oriented pair (a1, b0) must have setting probability 0.

Every term is read from the measure's (row, i, j) table: a partial term sums
x * y * p over column (i, j), a conditional term divides that by the column's mass.
"""

from __future__ import annotations

import math

from .probspace import (
    COLUMN_ORDER,
    ROW_ORDER,
    STRATEGY_ANSWERS,
    JointMeasure,
    SettingsDistribution,
    ZeroProbabilityError,
    chsh_measure,
)
from .singlet import _ATOL, DetectorAngle, _Record

__all__ = [
    "BELL_TEST_ANGLES",
    "BELL_TEST_SETTINGS",
    "BellReport",
    "CHSH_BOUND",
    "ChshReport",
    "TSIRELSON_BOUND",
    "bell_original",
    "chsh_combination",
    "chsh_conditional",
    "chsh_partial",
    "realism_table_check",
]

#: Classical bound on the CHSH combination.
CHSH_BOUND = 2.0

#: Quantum maximum of the conditional CHSH combination.
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

#: Orientations (a0, shared, b1) of the worked original-Bell example.
BELL_TEST_ANGLES: tuple[DetectorAngle, DetectorAngle, DetectorAngle] = (
    DetectorAngle(0.0),
    DetectorAngle(math.pi / 4),
    DetectorAngle(7 * math.pi / 8),
)

#: Settings of the worked original-Bell example: (a1, b0) never occurs.
BELL_TEST_SETTINGS = SettingsDistribution(p00=1.0 / 3.0, p01=1.0 / 3.0, p10=0.0, p11=1.0 / 3.0)


def chsh_combination(terms: tuple[float, float, float, float]) -> float:
    """|t00 + t10 + t11 - t01| for terms ordered like `COLUMN_ORDER`."""
    t00, t10, t11, t01 = terms
    return abs(t00 + t10 + t11 - t01)


class ChshReport(_Record):
    """CHSH evaluation: one term per setting-pair column; combination and verdict derived."""

    term_values: tuple[float, float, float, float]
    bound = CHSH_BOUND
    _derived = ("combined_value", "bound", "satisfied")

    def __post_init__(self) -> None:
        object.__setattr__(self, "term_values", tuple(float(t) for t in self.term_values))
        if len(self.term_values) != 4:
            raise ValueError("need one term per setting-pair column")

    @property
    def combined_value(self) -> float:
        return chsh_combination(self.term_values)

    @property
    def satisfied(self) -> bool:
        return self.combined_value <= self.bound + _ATOL


def _partial_term(measure: JointMeasure, i: int, j: int) -> float:
    """E_{a_i, b_j}[XY]: x * y * p summed over column (i, j) of the measure's table."""
    return math.fsum(x * y * p for (x, y), p in zip(ROW_ORDER, measure.table[:, i, j].tolist()))


def chsh_conditional(measure: JointMeasure) -> ChshReport:
    """CHSH with conditional expectations E[XY | a_i, b_j].

    Every setting pair must have positive probability; conditioning on a
    never-used pair is undefined.
    """
    terms = []
    for (i, j) in COLUMN_ORDER:
        mass = math.fsum(measure.table[:, i, j].tolist())
        if measure.settings.probability(i, j) <= 0.0 or mass <= 0.0:
            raise ZeroProbabilityError(
                f"setting pair (a{i}, b{j}) has probability zero; its conditional term is undefined"
            )
        terms.append(_partial_term(measure, i, j) / mass)
    return ChshReport(terms)


def chsh_partial(measure: JointMeasure) -> ChshReport:
    """CHSH with partial expectations E_{a_i, b_j}[XY].

    Defined for every measure; each term is the conditional term scaled by
    its setting probability, so the combination never exceeds 2.
    """
    return ChshReport([_partial_term(measure, i, j) for (i, j) in COLUMN_ORDER])


def realism_table_check() -> list[int]:
    """CHSH combination over all 16 joint assignments of (x0, x1, y0, y1).

    Assignment k takes x0, x1, y0, y1 from row k of `STRATEGY_ANSWERS` and
    evaluates x0*y0 + x1*y0 + x1*y1 - x0*y1.  Every value is -2 or +2:
    fixing all four answers in advance can never exceed the classical bound.
    """
    return [x0 * y0 + x1 * y0 + x1 * y1 - x0 * y1 for x0, x1, y0, y1 in STRATEGY_ANSWERS.tolist()]


class BellReport(_Record):
    """Original-Bell sides ``lhs`` = |T00 - T01| and ``rhs`` = 1 + T11 on partial
    expectations of -XY; the verdict ``satisfied`` (lhs <= rhs) is derived."""

    lhs: float
    rhs: float
    _derived = ("satisfied",)

    @property
    def satisfied(self) -> bool:
        return self.lhs <= self.rhs + _ATOL


def bell_original(
    angle_a0: DetectorAngle,
    shared: DetectorAngle,
    angle_b1: DetectorAngle,
    settings: SettingsDistribution,
) -> BellReport:
    """Evaluate the original single-sided inequality at orientations (a0, shared, b1).

    Detector A's second orientation and detector B's first are both
    ``shared``.  The pair (a1, b0) must have setting probability exactly 0:
    runs at identical orientations always anti-correlate, and the inequality
    is derived for the experiment that never spends runs on them.
    """
    if settings.p10 != 0.0:
        raise ValueError(
            "p10 must be exactly 0: the (a1, b0) pair uses one orientation twice, "
            "its runs would always anti-correlate"
        )
    measure = chsh_measure((angle_a0, shared, shared, angle_b1), settings)
    t00, t01, t11 = (-_partial_term(measure, i, j) for (i, j) in ((0, 0), (0, 1), (1, 1)))
    return BellReport(lhs=abs(t00 - t01), rhs=1.0 + t11)
