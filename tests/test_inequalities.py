"""CHSH evaluators, the all-assignments enumeration, and the original inequality."""

import math

import numpy as np
import pytest

from bellmodel.inequalities import (
    BELL_TEST_ANGLES,
    BELL_TEST_SETTINGS,
    CHSH_BOUND,
    TSIRELSON_BOUND,
    BellReport,
    ChshReport,
    bell_original,
    chsh_combination,
    chsh_conditional,
    chsh_partial,
    realism_table_check,
)
from bellmodel.probspace import SettingsDistribution, ZeroProbabilityError, chsh_measure
from bellmodel.singlet import TSIRELSON_ANGLES, DetectorAngle

SQRT2 = math.sqrt(2.0)


class TestChshConditional:
    def test_tsirelson_configuration(self):
        report = chsh_conditional(chsh_measure(TSIRELSON_ANGLES))
        assert report.combined_value == pytest.approx(2 * SQRT2, abs=1e-12)
        assert report.bound == 2.0
        assert not report.satisfied
        half = SQRT2 / 2
        assert report.term_values[0] == pytest.approx(half, abs=1e-12)
        assert report.term_values[1] == pytest.approx(half, abs=1e-12)
        assert report.term_values[2] == pytest.approx(half, abs=1e-12)
        assert report.term_values[3] == pytest.approx(-half, abs=1e-12)

    def test_alternative_maximal_geometry(self):
        # same violation from a different angle set
        angles = (
            DetectorAngle(0.0),
            DetectorAngle(math.pi / 4),
            DetectorAngle(math.pi / 8),
            DetectorAngle(3 * math.pi / 8),
        )
        report = chsh_conditional(chsh_measure(angles))
        assert report.combined_value == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_equal_angles_saturate_classical_bound(self):
        angles = (DetectorAngle(0.2),) * 4
        report = chsh_conditional(chsh_measure(angles))
        assert report.term_values == pytest.approx((-1.0,) * 4, abs=1e-12)
        assert report.combined_value == pytest.approx(2.0, abs=1e-12)
        assert report.satisfied  # the bound is inclusive

    def test_invariant_under_settings(self):
        skew = SettingsDistribution(0.4, 0.3, 0.2, 0.1)
        uniform = chsh_conditional(chsh_measure(TSIRELSON_ANGLES))
        skewed = chsh_conditional(chsh_measure(TSIRELSON_ANGLES, skew))
        assert skewed.combined_value == pytest.approx(uniform.combined_value, abs=1e-12)

    def test_zero_probability_pair_raises(self):
        m = chsh_measure(TSIRELSON_ANGLES, SettingsDistribution(0.5, 0.5, 0.0, 0.0))
        with pytest.raises(ZeroProbabilityError):
            chsh_conditional(m)


class TestChshPartial:
    def test_tsirelson_configuration(self):
        report = chsh_partial(chsh_measure(TSIRELSON_ANGLES))
        assert report.combined_value == pytest.approx(SQRT2 / 2, abs=1e-12)
        assert report.satisfied

    def test_terms_scale_with_setting_probability(self):
        skew = SettingsDistribution(0.4, 0.3, 0.2, 0.1)
        m = chsh_measure(TSIRELSON_ANGLES, skew)
        partial = chsh_partial(m)
        conditional = chsh_conditional(m)
        # column order of terms: (0,0), (1,0), (1,1), (0,1)
        probs = (0.4, 0.2, 0.1, 0.3)
        for t_part, t_cond, p in zip(partial.term_values, conditional.term_values, probs):
            assert t_part == pytest.approx(t_cond * p, abs=1e-12)

    def test_defined_on_zero_probability_pairs(self):
        m = chsh_measure(TSIRELSON_ANGLES, SettingsDistribution(0.5, 0.5, 0.0, 0.0))
        report = chsh_partial(m)
        assert report.term_values[1] == 0.0
        assert report.term_values[2] == 0.0
        assert report.satisfied

    def test_equal_angles(self):
        report = chsh_partial(chsh_measure((DetectorAngle(1.0),) * 4))
        assert report.combined_value == pytest.approx(0.5, abs=1e-12)

    def test_randomized_never_violates(self):
        # partial terms are bounded by their setting probabilities
        rng = np.random.default_rng(20260819)
        for _ in range(2000):
            angles = tuple(DetectorAngle(a) for a in rng.uniform(0, math.pi, size=4))
            raw = rng.uniform(0, 1, size=4)
            raw /= raw.sum()
            raw[3] = 1.0 - raw[:3].sum()
            settings = SettingsDistribution(*raw)
            report = chsh_partial(chsh_measure(angles, settings))
            assert report.combined_value <= CHSH_BOUND + 1e-12
            assert report.satisfied


class TestChshReport:
    def test_combined_must_match_terms(self):
        with pytest.raises(ValueError):
            ChshReport(term_values=(1, 1, 1, -1), combined_value=2.0, bound=2.0, satisfied=True)

    def test_satisfied_must_match_bound(self):
        with pytest.raises(ValueError):
            ChshReport(term_values=(1, 1, 1, 1), combined_value=2.0, bound=2.0, satisfied=False)

    def test_combination_helper(self):
        assert chsh_combination((0.5, 0.5, 0.5, -0.5)) == 2.0
        assert chsh_combination((1.0, 1.0, 1.0, 1.0)) == 2.0

    def test_as_dict_fields(self):
        report = chsh_partial(chsh_measure(TSIRELSON_ANGLES))
        doc = report.as_dict()
        assert set(doc) == {"term_values", "combined_value", "bound", "satisfied"}
        assert len(doc["term_values"]) == 4


class TestRealismTable:
    def test_sixteen_assignments(self):
        values = realism_table_check()
        assert len(values) == 16
        assert all(v in (-2, 2) for v in values)

    def test_all_minus_assignment(self):
        # assignment 0: every answer -1; combination +1+1+1-1 = 2
        assert realism_table_check()[0] == 2

    def test_third_assignment(self):
        # assignment 2 flips only x1: (x0,x1,y0,y1) = (-1,+1,-1,-1) gives -2
        assert realism_table_check()[2] == -2

    def test_never_reaches_quantum_value(self):
        assert max(abs(v) for v in realism_table_check()) == 2
        assert 2 < TSIRELSON_BOUND

    def test_matches_bit_decoding_reference(self):
        reference = []
        for k in range(16):
            x0, x1, y0, y1 = ((1 if (k >> bit) & 1 else -1) for bit in range(4))
            reference.append(x0 * y0 + x1 * y0 + x1 * y1 - x0 * y1)
        values = realism_table_check()
        assert values == reference
        assert all(type(v) is int for v in values)


class TestBellOriginal:
    def test_reference_configuration(self):
        report = bell_original(*BELL_TEST_ANGLES, BELL_TEST_SETTINGS)
        assert report.lhs == pytest.approx(SQRT2 / 6, abs=1e-12)
        assert report.rhs == pytest.approx(1 - SQRT2 / 6, abs=1e-12)
        assert report.satisfied

    def test_all_shared_orientation(self):
        shared = DetectorAngle(0.9)
        report = bell_original(shared, shared, shared, BELL_TEST_SETTINGS)
        assert report.lhs == pytest.approx(0.0, abs=1e-12)
        assert report.rhs == pytest.approx(1 + 1 / 3, abs=1e-12)
        assert report.satisfied

    def test_saturation(self):
        # a0 = shared, b1 perpendicular: lhs = rhs = 2/3
        report = bell_original(
            DetectorAngle(0.0), DetectorAngle(0.0), DetectorAngle(math.pi / 2), BELL_TEST_SETTINGS
        )
        assert report.lhs == pytest.approx(2 / 3, abs=1e-12)
        assert report.rhs == pytest.approx(2 / 3, abs=1e-12)
        assert report.satisfied

    def test_rejects_nonzero_shared_pair_probability(self):
        with pytest.raises(ValueError, match="anti-correlate"):
            bell_original(*BELL_TEST_ANGLES, SettingsDistribution.uniform())

    def test_report_consistency_enforced(self):
        with pytest.raises(ValueError):
            BellReport(lhs=1.0, rhs=0.5, satisfied=True)

    def test_as_dict_fields(self):
        doc = bell_original(*BELL_TEST_ANGLES, BELL_TEST_SETTINGS).as_dict()
        assert set(doc) == {"lhs", "rhs", "satisfied"}
