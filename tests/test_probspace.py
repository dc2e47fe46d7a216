"""Probability spaces, the three expectation flavors, and the joint measure."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellmodel.probspace import (
    CELL_INDEX,
    COLUMN_ORDER,
    OUTCOME_ORDER,
    ROW_ORDER,
    ChshOutcome,
    Event,
    FiniteProbabilitySpace,
    JointMeasure,
    RandomVariable,
    SettingsDistribution,
    ZeroProbabilityError,
    chsh_measure,
    conditional_expectation,
    dice_space,
    expectation,
    outcome_product,
    partial_expectation,
    setting_event,
    sig17,
    verify_expectation_relation,
)
from bellmodel.lhv import LHVModel, lhv_correlation, lhv_predicted_probs
from bellmodel.montecarlo import EmpiricalMeasure, empirical_partial_expectation
from bellmodel.singlet import TSIRELSON_ANGLES, DetectorAngle, conditional_joint_probs

SQRT2 = math.sqrt(2.0)
BETA_SQ = (2.0 - SQRT2) / 4.0
GAMMA_SQ = (2.0 + SQRT2) / 4.0

X = RandomVariable(lambda o: float(o[0]))
Y = RandomVariable(lambda o: float(o[1]))
DOUBLES = Event(lambda o: o[0] == o[1])


class TestSpaceValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            FiniteProbabilitySpace(outcomes=("a", "b"), weights=(0.6, 0.5))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            FiniteProbabilitySpace(outcomes=("a", "b"), weights=(1.5, -0.5))

    def test_rejects_nan_weight(self):
        with pytest.raises(ValueError):
            FiniteProbabilitySpace(outcomes=("a", "b"), weights=(math.nan, 1.0))

    def test_rejects_duplicate_outcomes(self):
        with pytest.raises(ValueError):
            FiniteProbabilitySpace(outcomes=("a", "a"), weights=(0.5, 0.5))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            FiniteProbabilitySpace(outcomes=("a", "b", "c"), weights=(0.5, 0.5))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FiniteProbabilitySpace(outcomes=(), weights=())

    def test_no_silent_renormalization(self):
        # a sum off by more than the tolerance is an error, not a rescale
        with pytest.raises(ValueError):
            FiniteProbabilitySpace(outcomes=("a",), weights=(1.0 + 1e-9,))

    @pytest.mark.parametrize("value", ["0.5", None, complex(0.5, 0.0)], ids=["str", "None", "complex"])
    def test_rejects_non_real(self, value):
        with pytest.raises(ValueError, match=r"^a weight must be a real number, got "):
            FiniteProbabilitySpace(outcomes=("a", "b"), weights=(0.5, value))

    def test_numpy_weights_are_real(self):
        space = FiniteProbabilitySpace(outcomes=("a", "b"), weights=(np.float32(0.5), np.float64(0.5)))
        assert space.weights == (0.5, 0.5)
        assert all(type(w) is float for w in space.weights)

    def test_weight_of_unknown_outcome_is_zero(self):
        space = FiniteProbabilitySpace(outcomes=("a",), weights=(1.0,))
        assert space.weight("zzz") == 0.0


class TestDiceRegression:
    """Two fair dice; every number here is checkable by hand."""

    def setup_method(self):
        self.space = dice_space()

    def test_single_outcome_weight(self):
        assert self.space.weight((4, 2)) == pytest.approx(1 / 36, abs=1e-15)

    def test_plain_expectations(self):
        assert expectation(self.space, X) == pytest.approx(3.5, abs=1e-12)
        assert expectation(self.space, Y) == pytest.approx(3.5, abs=1e-12)
        assert expectation(self.space, X + Y) == pytest.approx(7.0, abs=1e-12)

    def test_conditional_on_doubles(self):
        assert conditional_expectation(self.space, X + Y, DOUBLES) == pytest.approx(7.0, abs=1e-12)

    def test_conditional_on_non_doubles(self):
        assert conditional_expectation(self.space, X + Y, ~DOUBLES) == pytest.approx(
            7.0, abs=1e-12
        )

    def test_partial_on_doubles(self):
        # sum over the 6 diagonal outcomes of (i + i)/36 = 42/36
        assert partial_expectation(self.space, X + Y, DOUBLES) == pytest.approx(
            42 / 36, abs=1e-12
        )

    def test_partial_on_non_doubles(self):
        assert partial_expectation(self.space, X + Y, ~DOUBLES) == pytest.approx(
            5 * 42 / 36, abs=1e-12
        )

    def test_partials_partition_the_expectation(self):
        total = partial_expectation(self.space, X + Y, DOUBLES) + partial_expectation(
            self.space, X + Y, ~DOUBLES
        )
        assert total == pytest.approx(7.0, abs=1e-12)

    def test_conditionals_do_not_partition(self):
        # both conditionals are 7; adding them gives 14, not E[X+Y] = 7
        total = conditional_expectation(self.space, X + Y, DOUBLES) + conditional_expectation(
            self.space, X + Y, ~DOUBLES
        )
        assert total == pytest.approx(14.0, abs=1e-12)
        assert total != pytest.approx(expectation(self.space, X + Y), abs=1e-6)

    def test_partial_equals_conditional_times_probability(self):
        p = self.space.probability(DOUBLES)
        assert p == pytest.approx(1 / 6, abs=1e-15)
        lhs = partial_expectation(self.space, X + Y, DOUBLES)
        rhs = conditional_expectation(self.space, X + Y, DOUBLES) * p
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_exact_in_rational_arithmetic(self):
        weights = {o: Fraction(1, 36) for o in self.space.outcomes}
        doubles = [o for o in self.space.outcomes if o[0] == o[1]]
        partial = sum((o[0] + o[1]) * weights[o] for o in doubles)
        assert partial == Fraction(42, 36)
        conditional = partial / sum(weights[o] for o in doubles)
        assert conditional == 7


class TestExpectationFlavors:
    def test_conditional_on_null_event_raises(self):
        space = dice_space()
        never = Event(lambda o: False)
        with pytest.raises(ZeroProbabilityError):
            conditional_expectation(space, X, never)

    def test_relation_on_null_event_raises(self):
        never = Event(lambda o: False)
        with pytest.raises(ZeroProbabilityError, match="only defined when P\\[A\\] > 0"):
            verify_expectation_relation(dice_space(), X, never)

    def test_partial_on_null_event_is_zero(self):
        space = dice_space()
        never = Event(lambda o: False)
        assert partial_expectation(space, X, never) == 0.0

    def test_conditioning_on_everything_is_plain(self):
        space = dice_space()
        always = Event(lambda o: True)
        assert conditional_expectation(space, X, always) == pytest.approx(
            expectation(space, X), abs=1e-12
        )

    def test_variable_algebra(self):
        space = dice_space()
        assert expectation(space, 2 * X - 3) == pytest.approx(4.0, abs=1e-12)
        assert expectation(space, -X) == pytest.approx(-3.5, abs=1e-12)
        assert expectation(space, 10 - X) == pytest.approx(6.5, abs=1e-12)
        assert expectation(space, X * Y) == pytest.approx(3.5 * 3.5, abs=1e-12)

    def test_indicator_expectation_is_probability(self):
        space = dice_space()
        assert expectation(space, DOUBLES.indicator()) == pytest.approx(
            space.probability(DOUBLES), abs=1e-12
        )

    def test_event_operators(self):
        space = dice_space()
        small = Event(lambda o: o[0] <= 3)
        both = DOUBLES & small
        assert space.probability(both) == pytest.approx(3 / 36, abs=1e-12)
        assert space.probability(~DOUBLES) == pytest.approx(30 / 36, abs=1e-12)

    def test_lift_rejects_strings(self):
        with pytest.raises(TypeError):
            X + "nope"


@st.composite
def small_spaces(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    ticks = draw(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=n, max_size=n).filter(
            lambda t: sum(t) > 0
        )
    )
    total = sum(ticks)
    weights = tuple(t / total for t in ticks)
    return FiniteProbabilitySpace(outcomes=tuple(range(n)), weights=weights)


@st.composite
def random_measures(draw):
    """A joint measure with random cell weights (some may be 0) and angles."""
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16).filter(lambda w: sum(w) > 0))
    total = math.fsum(raw)
    weights = [w / total for w in raw]
    settings = SettingsDistribution.from_mapping(
        {
            (i, j): math.fsum(w for o, w in zip(OUTCOME_ORDER, weights) if (o.i, o.j) == (i, j))
            for (i, j) in COLUMN_ORDER
        }
    )
    radians = draw(st.lists(st.floats(-4.0, 4.0), min_size=4, max_size=4))
    return JointMeasure.from_probabilities(map(DetectorAngle, radians), settings, weights)


class TestLinearityProperties:
    @given(
        small_spaces(),
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=-10, max_value=10),
    )
    def test_expectation_linear(self, space, a, b):
        u = RandomVariable(lambda o: float(o))
        v = RandomVariable(lambda o: float(o * o - 2))
        lhs = expectation(space, a * u + b * v)
        rhs = a * expectation(space, u) + b * expectation(space, v)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @given(small_spaces(), st.integers(min_value=0, max_value=7))
    def test_partial_additive_over_partition(self, space, pivot):
        u = RandomVariable(lambda o: float(2 * o + 1))
        low = Event(lambda o: o <= pivot)
        total = partial_expectation(space, u, low) + partial_expectation(space, u, ~low)
        assert total == pytest.approx(expectation(space, u), abs=1e-12)

    @given(small_spaces())
    def test_conditional_matches_partial_ratio(self, space):
        u = RandomVariable(lambda o: float(o))
        even = Event(lambda o: o % 2 == 0)
        p = space.probability(even)
        if p <= 0.0:
            with pytest.raises(ZeroProbabilityError):
                conditional_expectation(space, u, even)
        else:
            assert conditional_expectation(space, u, even) * p == pytest.approx(
                partial_expectation(space, u, even), abs=1e-12
            )


class TestSettingsDistribution:
    def test_uniform(self):
        s = SettingsDistribution.uniform()
        assert s.is_uniform()
        assert s.probability(1, 0) == 0.25

    def test_from_mapping_fills_zero(self):
        s = SettingsDistribution.from_mapping({(0, 0): 0.5, (1, 1): 0.5})
        assert s.p01 == 0.0
        assert s.p10 == 0.0

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            SettingsDistribution(0.3, 0.3, 0.3, 0.3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SettingsDistribution(1.2, -0.2, 0.0, 0.0)

    def test_fields_stored_as_float(self):
        """A bool or an integer setting probability is kept as a float, so the
        JSON agrees with the digest."""
        s = SettingsDistribution(True, False, 0, 0)
        assert s.items() == (("p00", 1.0), ("p01", 0.0), ("p10", 0.0), ("p11", 0.0))
        assert all(type(p) is float for _name, p in s.items())
        text = chsh_measure(TSIRELSON_ANGLES, s).to_json()
        assert '"settings": {"p00": 1.0, "p01": 0.0, "p10": 0.0, "p11": 0.0}' in text

    def test_negative_zero_stored_as_zero(self):
        s = SettingsDistribution(-0.0, 0.5, 0.25, 0.25)
        assert math.copysign(1.0, s.p00) == 1.0
        zero = chsh_measure(TSIRELSON_ANGLES, SettingsDistribution(0.0, 0.5, 0.25, 0.25))
        assert chsh_measure(TSIRELSON_ANGLES, s).digest() == zero.digest()

    @pytest.mark.parametrize("value", ["0.25", None, complex(0.25, 0.0)])
    def test_rejects_non_real(self, value):
        with pytest.raises(ValueError, match=r"^setting probability p01 must be a real number"):
            SettingsDistribution(0.25, value, 0.25, 0.25)

    @pytest.mark.parametrize(
        "extra, named",
        [({(0, 2): 0.3}, "(0, 2)"), ({"p01": 0.0}, "'p01'")],
        ids=["tuple-key", "str-key"],
    )
    def test_from_mapping_rejects_unknown_keys(self, extra, named):
        """A key outside the four setting pairs is named, not dropped (with its weight)."""
        table = {(0, 0): 0.5, (1, 1): 0.5, **extra}
        with pytest.raises(
            ValueError, match=r"^setting keys must be .* got " + re.escape(named) + "$"
        ):
            SettingsDistribution.from_mapping(table)

    def test_probability_validates_indices(self):
        with pytest.raises(ValueError):
            SettingsDistribution.uniform().probability(2, 0)

    def test_setting_pairs_match_fields(self):
        table = {(0, 0): 0.1, (0, 1): 0.2, (1, 0): 0.3, (1, 1): 0.4}
        s = SettingsDistribution(0.1, 0.2, 0.3, 0.4)
        assert s.items() == (("p00", 0.1), ("p01", 0.2), ("p10", 0.3), ("p11", 0.4))
        assert {pair: s.probability(*pair) for pair in table} == table
        assert SettingsDistribution.from_mapping(table) == s


class TestChshOutcome:
    def test_valid(self):
        o = ChshOutcome(x=1, y=-1, i=0, j=1)
        assert (o.x, o.y, o.i, o.j) == (1, -1, 0, 1)

    def test_rejects_bad_outcome(self):
        with pytest.raises(ValueError):
            ChshOutcome(x=0, y=1, i=0, j=0)

    def test_rejects_bad_setting(self):
        with pytest.raises(ValueError):
            ChshOutcome(x=1, y=1, i=2, j=0)

    @pytest.mark.parametrize("x, y", [(True, 1), (1, 1.0), (-1.0, 1), (1, False)])
    @pytest.mark.parametrize(
        "call",
        [
            ChshOutcome,
            chsh_measure(TSIRELSON_ANGLES).probability,
            EmpiricalMeasure(counts=np.ones(16, dtype=np.int64)).count,
        ],
        ids=["ChshOutcome", "probability", "count"],
    )
    def test_rejects_bool_and_float_outcomes(self, call, x, y):
        """Outcomes follow the setting indices' rule: non-bool integers only."""
        with pytest.raises(ValueError, match="^outcomes must be -1 or \\+1"):
            call(x, y, 0, 0)

    def test_numpy_integer_outcomes(self):
        o = ChshOutcome(x=np.int8(1), y=np.int64(-1), i=np.int32(0), j=np.uint8(1))
        assert o == ChshOutcome(1, -1, 0, 1)

    def test_canonical_order_is_column_major(self):
        assert len(OUTCOME_ORDER) == 16
        assert OUTCOME_ORDER[0] == ChshOutcome(1, 1, 0, 0)
        assert OUTCOME_ORDER[4] == ChshOutcome(1, 1, 1, 0)
        assert OUTCOME_ORDER[15] == ChshOutcome(-1, -1, 0, 1)


_ONE_POINT_MODEL = LHVModel(
    lambda_grid=[0.5], rho=[1.0], p_response=[[1.0], [0.0]], q_response=[[0.0], [1.0]]
)
_EMPIRICAL = EmpiricalMeasure(counts=np.ones(16, dtype=np.int64))


@pytest.mark.parametrize("i, j", [(-1, 0), (2, 0), (0, -1), (0, 2), (True, 0), (0, 1.0)])
@pytest.mark.parametrize(
    "call",
    [
        setting_event,
        chsh_measure(TSIRELSON_ANGLES).column,
        SettingsDistribution.uniform().probability,
        lambda i, j: ChshOutcome(x=1, y=1, i=i, j=j),
        lambda i, j: lhv_predicted_probs(_ONE_POINT_MODEL, i, j),
        lambda i, j: lhv_correlation(_ONE_POINT_MODEL, i, j),
        lambda i, j: empirical_partial_expectation(_EMPIRICAL, i, j),
    ],
    ids=[
        "setting_event", "column", "probability", "ChshOutcome",
        "lhv_predicted_probs", "lhv_correlation", "empirical_partial_expectation",
    ],
)
def test_setting_indices_checked(call, i, j):
    """Every function taking a setting pair rejects an index other than the
    integers 0 and 1 with the same message, rather than wrapping a negative
    index, reading True as a mask or raising numpy's IndexError."""
    with pytest.raises(ValueError, match=rf"^setting indices must be 0 or 1, got \({i}, {j}\)$"):
        call(i, j)


class TestChshMeasure:
    def setup_method(self):
        self.measure = chsh_measure(TSIRELSON_ANGLES)

    def test_table_cell_placements(self):
        """Columns a0b0, a1b0, a1b1 put the like-outcome weight at gamma^2/8;
        column a0b1 swaps the roles."""
        m = self.measure
        for (i, j) in ((0, 0), (1, 0), (1, 1)):
            assert m.probability(1, 1, i, j) == pytest.approx(GAMMA_SQ / 8, abs=1e-12)
            assert m.probability(-1, -1, i, j) == pytest.approx(GAMMA_SQ / 8, abs=1e-12)
            assert m.probability(-1, 1, i, j) == pytest.approx(BETA_SQ / 8, abs=1e-12)
            assert m.probability(1, -1, i, j) == pytest.approx(BETA_SQ / 8, abs=1e-12)
        assert m.probability(1, 1, 0, 1) == pytest.approx(BETA_SQ / 8, abs=1e-12)
        assert m.probability(-1, 1, 0, 1) == pytest.approx(GAMMA_SQ / 8, abs=1e-12)

    def test_total_mass(self):
        assert math.fsum(self.measure.space.weights) == pytest.approx(1.0, abs=1e-12)

    def test_column_mass_matches_settings(self):
        for (i, j) in COLUMN_ORDER:
            mass = sum(self.measure.column(i, j).values())
            assert mass == pytest.approx(0.25, abs=1e-12)

    def test_requires_four_angles(self):
        with pytest.raises(ValueError):
            chsh_measure(TSIRELSON_ANGLES[:3])

    @pytest.mark.parametrize("angles", [(0.0, 0.5, 1.0, 1.5), TSIRELSON_ANGLES[:3] + (0.3,)])
    def test_rejects_plain_float_angles(self, angles):
        with pytest.raises(ValueError, match=r"^angles must be 4 DetectorAngle values \(a0, a1"):
            chsh_measure(angles)

    def test_conditional_column_recovers_born_probs(self):
        a0, a1, b0, b1 = TSIRELSON_ANGLES
        cond = self.measure.conditional_column(0, 1)
        born = conditional_joint_probs(a0, b1)
        for xy, p in born.items():
            assert cond[xy] == pytest.approx(p, abs=1e-12)

    def test_conditional_column_invariant_under_settings(self):
        skewed = chsh_measure(TSIRELSON_ANGLES, SettingsDistribution(0.7, 0.1, 0.1, 0.1))
        for (i, j) in COLUMN_ORDER:
            uniform_cond = self.measure.conditional_column(i, j)
            skewed_cond = skewed.conditional_column(i, j)
            for xy in uniform_cond:
                assert skewed_cond[xy] == pytest.approx(uniform_cond[xy], abs=1e-12)

    def test_conditional_column_zero_pair_raises(self):
        m = chsh_measure(TSIRELSON_ANGLES, SettingsDistribution(0.5, 0.5, 0.0, 0.0))
        with pytest.raises(ZeroProbabilityError):
            m.conditional_column(1, 0)

    def test_outcome_product_expectation(self):
        # sum of the four partial terms: (1/4)(3 - (-1)) * sqrt(2)/2 / ... = sqrt(2)/4
        value = expectation(self.measure.space, outcome_product())
        assert value == pytest.approx(SQRT2 / 4, abs=1e-12)

    def test_conditional_and_partial_at_a0b1(self):
        xy = outcome_product()
        ev = setting_event(0, 1)
        cond = conditional_expectation(self.measure.space, xy, ev)
        part = partial_expectation(self.measure.space, xy, ev)
        assert cond == pytest.approx(-SQRT2 / 2, abs=1e-12)
        assert part == pytest.approx(-SQRT2 / 8, abs=1e-12)
        assert part == pytest.approx(cond * 0.25, abs=1e-12)

    def test_concentrated_settings(self):
        m = chsh_measure(TSIRELSON_ANGLES, SettingsDistribution(1.0, 0.0, 0.0, 0.0))
        assert sum(m.column(0, 0).values()) == pytest.approx(1.0, abs=1e-12)
        assert sum(m.column(1, 1).values()) == 0.0


class TestBellConfigurationMeasure:
    """Three orientations, shared middle angle, no (a1, b0) runs."""

    def setup_method(self):
        shared = DetectorAngle(math.pi / 4)
        self.measure = chsh_measure(
            (DetectorAngle(0.0), shared, shared, DetectorAngle(7 * math.pi / 8)),
            SettingsDistribution(p00=1 / 3, p01=1 / 3, p10=0.0, p11=1 / 3),
        )

    def test_first_column_is_flat(self):
        # gap pi/4: every outcome pair weighs (1/3) * (1/4) = 1/12
        for weight in self.measure.column(0, 0).values():
            assert weight == pytest.approx(1 / 12, abs=1e-12)

    def test_skipped_column_is_empty(self):
        assert sum(self.measure.column(1, 0).values()) == 0.0

    def test_remaining_columns(self):
        col11 = self.measure.column(1, 1)  # gap -5*pi/8
        assert col11[(1, 1)] == pytest.approx(GAMMA_SQ / 6, abs=1e-12)
        assert col11[(-1, 1)] == pytest.approx(BETA_SQ / 6, abs=1e-12)
        col01 = self.measure.column(0, 1)  # gap -7*pi/8
        assert col01[(1, 1)] == pytest.approx(BETA_SQ / 6, abs=1e-12)
        assert col01[(-1, 1)] == pytest.approx(GAMMA_SQ / 6, abs=1e-12)

    def test_first_column_partial_product_vanishes(self):
        value = partial_expectation(self.measure.space, -outcome_product(), setting_event(0, 0))
        assert value == pytest.approx(0.0, abs=1e-12)


class TestMeasureConstruction:
    def test_negative_zero_weight_stored_as_zero(self):
        settings = SettingsDistribution(1.0, 0.0, 0.0, 0.0)
        m = JointMeasure.from_probabilities(TSIRELSON_ANGLES, settings, [0.5, 0.5] + [-0.0] * 14)
        assert [math.copysign(1.0, w) for w in m.probs.tolist()] == [1.0] * 16

    def test_from_probabilities_mapping(self):
        cells = {(1, 1, 0, 0): 0.5, (-1, -1, 1, 1): 0.5}
        m = JointMeasure.from_probabilities(
            TSIRELSON_ANGLES, SettingsDistribution(0.5, 0.0, 0.0, 0.5), cells
        )
        assert m.probability(1, 1, 0, 0) == 0.5
        assert m.probability(-1, 1, 0, 0) == 0.0

    @pytest.mark.parametrize(
        "extra, named",
        [
            ({(1, 1, 0, 2): 0.0}, "(1, 1, 0, 2)"),
            ({(1, 1, 0, 5): 0.5, "p": 0.0}, "'p', (1, 1, 0, 5)"),  # str and tuple keys
            ({ChshOutcome(1, 1, 0, 0): 0.0}, "ChshOutcome(x=1, y=1, i=0, j=0)"),
        ],
        ids=["zero-weight", "mixed-types", "outcome-object"],
    )
    def test_from_probabilities_rejects_unknown_keys(self, extra, named):
        """A key outside the 16 cells is named, not dropped (with its weight)."""
        cells = {(1, 1, 0, 0): 0.5, (-1, -1, 1, 1): 0.5, **extra}
        with pytest.raises(ValueError, match=r"^cell keys must be .* got " + re.escape(named) + "$"):
            JointMeasure.from_probabilities(
                TSIRELSON_ANGLES, SettingsDistribution(0.5, 0.0, 0.0, 0.5), cells
            )

    def test_from_probabilities_sequence(self):
        weights = chsh_measure(TSIRELSON_ANGLES).space.weights
        m = JointMeasure.from_probabilities(
            TSIRELSON_ANGLES, SettingsDistribution.uniform(), weights
        )
        assert m.space.weights == weights

    def test_from_probabilities_wrong_length(self):
        with pytest.raises(ValueError):
            JointMeasure.from_probabilities(
                TSIRELSON_ANGLES, SettingsDistribution.uniform(), [1.0] * 15
            )

    @pytest.mark.parametrize(
        "probs, message",
        [
            (np.full(15, 1 / 15), r"^expected 16 cell weights, got shape \(15,\)$"),
            (np.full((4, 4), 0.0625), r"^expected 16 cell weights, got shape \(4, 4\)$"),
            ([math.nan] + [1 / 15] * 15, r"^weights must be nonnegative, got nan$"),
            ([-0.0625, 0.125] + [0.0625] * 14, r"^weights must be nonnegative, got -0.0625$"),
            ([0.1] * 16, r"^weights must sum to 1 within "),
        ],
        ids=["shape-15", "shape-4x4", "nan", "negative", "bad-sum"],
    )
    def test_constructor_checks_probs(self, probs, message):
        """The shape is checked by the measure; the weights by the one
        `FiniteProbabilitySpace` check, with its messages."""
        with pytest.raises(ValueError, match=message):
            JointMeasure(probs, TSIRELSON_ANGLES, SettingsDistribution.uniform())

    @pytest.mark.parametrize(
        "value, named",
        [("0.0625", "'0.0625'"), (None, "None"), (complex(0.0625, 0.0), r"\(0.0625\+0j\)")],
        ids=["str", "None", "complex"],
    )
    @pytest.mark.parametrize("count", [1, 16], ids=["one", "all"])
    def test_rejects_non_real(self, value, named, count):
        """numpy would parse a str weight and read None as NaN; neither is a weight."""
        cells = [0.0625] * (16 - count) + [value] * count
        with pytest.raises(ValueError, match=r"^a weight must be a real number, got " + named + "$"):
            JointMeasure.from_probabilities(TSIRELSON_ANGLES, SettingsDistribution.uniform(), cells)

    def test_rejects_complex_array(self):
        with pytest.raises(ValueError, match=r"^a weight must be a real number, got "):
            JointMeasure(np.full(16, 0.0625, dtype=complex), TSIRELSON_ANGLES,
                         SettingsDistribution.uniform())

    def test_numpy_weights_are_real(self):
        m = chsh_measure(TSIRELSON_ANGLES)
        for probs in (list(m.probs), m.probs.astype(object), m.probs.astype(np.longdouble)):
            assert JointMeasure(probs, m.angles, m.settings).digest() == m.digest()

    def test_probs_copied_from_caller(self):
        weights = chsh_measure(TSIRELSON_ANGLES).probs.copy()
        m = JointMeasure(weights, TSIRELSON_ANGLES, SettingsDistribution.uniform())
        digest = m.digest()
        weights[:] = 0.0625
        assert m.probs.tolist() != weights.tolist()
        assert m.digest() == digest
        assert m.table[0, 0, 0] == m.probs[0] != 0.0625

    def test_settings_consistency_enforced(self):
        cells = {(1, 1, 0, 0): 1.0}
        with pytest.raises(ValueError):
            JointMeasure.from_probabilities(TSIRELSON_ANGLES, SettingsDistribution.uniform(), cells)

    @pytest.mark.parametrize(
        "build",
        [
            lambda s: chsh_measure(TSIRELSON_ANGLES, s),
            lambda s: JointMeasure.from_probabilities(TSIRELSON_ANGLES, s, [0.0625] * 16),
        ],
        ids=["chsh_measure", "from_probabilities"],
    )
    def test_settings_must_be_a_settings_distribution(self, build):
        with pytest.raises(ValueError, match="^settings must be a SettingsDistribution, got tuple"):
            build((0.25,) * 4)


class TestSerialization:
    def setup_method(self):
        self.measure = chsh_measure(TSIRELSON_ANGLES)

    def test_csv_header_and_shape(self):
        lines = self.measure.to_csv().splitlines()
        assert lines[0] == "x,y,a0b0,a1b0,a1b1,a0b1"
        assert len(lines) == 5

    def test_csv_round_trips_weights(self):
        lines = self.measure.to_csv().splitlines()[1:]
        for row, line in enumerate(lines):
            parts = line.split(",")
            assert (int(parts[0]), int(parts[1])) == ROW_ORDER[row]
            for col, cell in enumerate(parts[2:]):
                assert float(cell) == self.measure.space.weights[col * 4 + row]

    def test_csv_tsirelson_headline_cell(self):
        first_row = self.measure.to_csv().splitlines()[1]
        assert first_row.split(",")[2] == sig17((2 + SQRT2) / 32)

    def test_json_round_trip(self):
        doc = json.loads(self.measure.to_json())
        assert doc["angles"]["b0"] == TSIRELSON_ANGLES[2].radians
        assert doc["settings"]["p11"] == 0.25
        for cell, outcome, weight in zip(doc["cells"], OUTCOME_ORDER, self.measure.space.weights):
            assert (cell["x"], cell["y"], cell["i"], cell["j"]) == (
                outcome.x,
                outcome.y,
                outcome.i,
                outcome.j,
            )
            assert cell["p"] == weight

    def test_digest_stable_and_distinguishing(self):
        same = chsh_measure(TSIRELSON_ANGLES)
        other = chsh_measure(
            (DetectorAngle(0.1),) + TSIRELSON_ANGLES[1:]
        )
        assert self.measure.digest() == same.digest()
        assert self.measure.digest() != other.digest()

    def test_sig17_round_trip(self):
        for value in (0.1, 1 / 3, SQRT2 / 2, GAMMA_SQ / 8):
            assert float(sig17(value)) == value


class TestCellIndex:
    def test_is_a_read_only_permutation(self):
        assert CELL_INDEX.shape == (4, 2, 2)
        assert sorted(CELL_INDEX.ravel().tolist()) == list(range(16))
        with pytest.raises(ValueError):
            CELL_INDEX[0, 0, 0] = 1

    def test_column_rejects_bad_setting(self):
        with pytest.raises(ValueError):
            chsh_measure(TSIRELSON_ANGLES).column(-1, 0)

    def test_probs_and_table_built_once_and_read_only(self):
        m = chsh_measure(TSIRELSON_ANGLES)
        assert m.probs is m.probs
        assert m.table is m.table
        with pytest.raises(ValueError, match="read-only"):
            m.probs[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            m.table[0, 0, 0] = 1.0
        assert m.probs.tolist() == list(m.space.weights)

    @given(random_measures())
    def test_probs_is_the_stored_weights(self, m):
        """`space` is built from `probs`, and `probs` rebuilds the same measure."""
        assert m.space.weights == tuple(m.probs.tolist())
        assert JointMeasure(m.probs, m.angles, m.settings).digest() == m.digest()

    @given(random_measures())
    def test_table_matches_probability(self, m):
        table = m.table
        for row, (x, y) in enumerate(ROW_ORDER):
            for (i, j) in COLUMN_ORDER:
                assert table[row, i, j] == m.probability(x, y, i, j)
