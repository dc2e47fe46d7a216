"""Detector operators, spectral expansion, and the closed-form outcome probabilities.

The closed forms and the explicit eigenbasis expansion are independent code
paths; several tests here cross-check one against the other.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bellmodel.singlet import (
    TSIRELSON_ANGLES,
    DetectorAngle,
    SingletState,
    SpectralCoefficients,
    conditional_joint_probs,
    correlation,
    detector_operator,
    singlet_state,
    spectral_coefficients,
)

SQRT2 = math.sqrt(2.0)
BETA_SQ = (2.0 - SQRT2) / 4.0  # sin^2(pi/8)
GAMMA_SQ = (2.0 + SQRT2) / 4.0  # cos^2(pi/8)

finite_angles = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


class TestDetectorAngle:
    @given(finite_angles)
    @example(-1e-17)  # pi plus this remainder rounds to pi, which wraps to 0
    def test_canonical_range(self, a):
        assert 0.0 <= DetectorAngle(a).radians < math.pi

    @given(finite_angles)
    def test_period_pi(self, a):
        base = DetectorAngle(a)
        shifted = DetectorAngle(a + math.pi)
        # same physical detector: identical operator matrices
        np.testing.assert_allclose(
            detector_operator(base).matrix, detector_operator(shifted).matrix, atol=1e-12
        )

    def test_already_canonical_is_unchanged(self):
        assert DetectorAngle(0.0).radians == 0.0
        assert DetectorAngle(1.0).radians == 1.0

    @pytest.mark.parametrize("a", [-0.0, -math.pi, -2 * math.pi, math.pi])
    def test_zero_is_stored_positive(self, a):
        """One detector has one spelling: -0 and -k*pi give the bytes of 0."""
        assert math.copysign(1.0, DetectorAngle(a).radians) == 1.0

    def test_negative_wraps(self):
        assert DetectorAngle(-math.pi / 4).radians == pytest.approx(3 * math.pi / 4, abs=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DetectorAngle(math.inf)
        with pytest.raises(ValueError):
            DetectorAngle(math.nan)

    def test_float_conversion(self):
        assert float(DetectorAngle(0.5)) == 0.5


class TestDetectorOperator:
    def test_matrix_at_zero(self):
        op = detector_operator(DetectorAngle(0.0))
        np.testing.assert_allclose(op.matrix, [[1.0, 0.0], [0.0, -1.0]], atol=1e-15)

    def test_matrix_at_quarter_pi(self):
        op = detector_operator(DetectorAngle(math.pi / 4))
        np.testing.assert_allclose(op.matrix, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_matrix_at_eighth_pi(self):
        op = detector_operator(DetectorAngle(math.pi / 8))
        h = SQRT2 / 2.0
        np.testing.assert_allclose(op.matrix, [[h, h], [h, -h]], atol=1e-15)

    @given(finite_angles)
    def test_eigen_relations(self, a):
        op = detector_operator(DetectorAngle(a))
        np.testing.assert_allclose(op.matrix @ op.plus_eigenvector, op.plus_eigenvector, atol=1e-12)
        np.testing.assert_allclose(
            op.matrix @ op.minus_eigenvector, -op.minus_eigenvector, atol=1e-12
        )

    @given(finite_angles)
    def test_eigenvectors_orthonormal(self, a):
        op = detector_operator(DetectorAngle(a))
        assert op.plus_eigenvector @ op.plus_eigenvector == pytest.approx(1.0, abs=1e-12)
        assert op.minus_eigenvector @ op.minus_eigenvector == pytest.approx(1.0, abs=1e-12)
        assert op.plus_eigenvector @ op.minus_eigenvector == pytest.approx(0.0, abs=1e-12)

    @given(finite_angles)
    def test_projector_difference(self, a):
        # F = P(+1) - P(-1) with P the rank-one eigenprojections
        op = detector_operator(DetectorAngle(a))
        plus = np.outer(op.plus_eigenvector, op.plus_eigenvector)
        minus = np.outer(op.minus_eigenvector, op.minus_eigenvector)
        np.testing.assert_allclose(op.matrix, plus - minus, atol=1e-12)

    @given(finite_angles)
    def test_involution_trace_det(self, a):
        m = detector_operator(DetectorAngle(a)).matrix
        np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-12)
        assert np.trace(m) == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.det(m) == pytest.approx(-1.0, abs=1e-12)

    @given(finite_angles)
    def test_minus_vector_is_perpendicular_plus(self, a):
        # the -1 eigenvector is the +1 eigenvector of the perpendicular detector
        op = detector_operator(DetectorAngle(a))
        perp = detector_operator(DetectorAngle(a + math.pi / 2))
        overlap = abs(op.minus_eigenvector @ perp.plus_eigenvector)
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_eigenvector_lookup_validates(self):
        op = detector_operator(DetectorAngle(0.3))
        with pytest.raises(ValueError):
            op.eigenvector(0)


class TestSingletState:
    def test_amplitudes(self):
        amp = singlet_state().amplitudes
        np.testing.assert_allclose(amp, [0.0, 1 / SQRT2, -1 / SQRT2, 0.0], atol=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            SingletState(amplitudes=np.array([0.0, 1.0, -1.0, 0.0]))

    def test_rejects_symmetric(self):
        with pytest.raises(ValueError):
            SingletState(amplitudes=np.array([0.0, 1 / SQRT2, 1 / SQRT2, 0.0]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            SingletState(amplitudes=np.zeros(3))


class TestSpectralCoefficients:
    def test_equal_angles(self):
        sc = spectral_coefficients(DetectorAngle(0.0), DetectorAngle(0.0))
        assert sc.psi[(1, 1)] == pytest.approx(0.0, abs=1e-15)
        assert sc.psi[(-1, -1)] == pytest.approx(0.0, abs=1e-15)
        assert sc.probability(-1, 1) == pytest.approx(0.5, abs=1e-15)
        assert sc.probability(1, -1) == pytest.approx(0.5, abs=1e-15)

    def test_tsirelson_pair_value(self):
        # a = 0 against b = 5*pi/8: the unlike-outcome weight is (cos^2 of the gap)/2
        sc = spectral_coefficients(DetectorAngle(0.0), DetectorAngle(5 * math.pi / 8))
        assert sc.probability(-1, 1) == pytest.approx(BETA_SQ / 2.0, abs=1e-12)
        assert sc.probability(1, 1) == pytest.approx(GAMMA_SQ / 2.0, abs=1e-12)

    @given(finite_angles, finite_angles)
    def test_sign_structure(self, a, b):
        aa, bb = DetectorAngle(a), DetectorAngle(b)
        delta = aa.radians - bb.radians
        sc = spectral_coefficients(aa, bb)
        assert sc.psi[(1, 1)] == pytest.approx(-math.sin(delta) / SQRT2, abs=1e-12)
        assert sc.psi[(-1, 1)] == pytest.approx(-math.cos(delta) / SQRT2, abs=1e-12)
        assert sc.psi[(1, -1)] == pytest.approx(math.cos(delta) / SQRT2, abs=1e-12)
        assert sc.psi[(-1, -1)] == pytest.approx(-math.sin(delta) / SQRT2, abs=1e-12)

    @given(finite_angles, finite_angles)
    def test_normalized(self, a, b):
        sc = spectral_coefficients(DetectorAngle(a), DetectorAngle(b))
        assert sum(c * c for c in sc.psi.values()) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_wrong_outcome_pairs(self):
        psi = {(1, 1): 0.5, (-1, 1): 0.5, (1, -1): 0.5, (0, 0): 0.5}
        with pytest.raises(ValueError, match="unexpected outcome pairs"):
            SpectralCoefficients(DetectorAngle(0.0), DetectorAngle(0.0), psi)

    def test_rejects_unnormalized(self):
        psi = {(1, 1): 0.5, (-1, 1): 0.5, (1, -1): 0.5, (-1, -1): 0.6}
        with pytest.raises(ValueError, match="squared coefficients must sum to 1"):
            SpectralCoefficients(DetectorAngle(0.0), DetectorAngle(0.0), psi)


class TestConditionalJointProbs:
    @given(finite_angles, finite_angles)
    def test_distribution(self, a, b):
        probs = conditional_joint_probs(DetectorAngle(a), DetectorAngle(b))
        assert all(p >= 0.0 for p in probs.values())
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)

    @given(finite_angles, finite_angles)
    def test_outcome_symmetry(self, a, b):
        probs = conditional_joint_probs(DetectorAngle(a), DetectorAngle(b))
        assert probs[(1, 1)] == probs[(-1, -1)]
        assert probs[(-1, 1)] == probs[(1, -1)]

    @given(finite_angles, finite_angles)
    def test_single_detector_marginals_are_half(self, a, b):
        probs = conditional_joint_probs(DetectorAngle(a), DetectorAngle(b))
        assert probs[(1, 1)] + probs[(1, -1)] == pytest.approx(0.5, abs=1e-12)
        assert probs[(1, 1)] + probs[(-1, 1)] == pytest.approx(0.5, abs=1e-12)

    @given(finite_angles, finite_angles, finite_angles)
    def test_rotation_invariance(self, a, b, shift):
        # only the angle difference matters
        base = conditional_joint_probs(DetectorAngle(a), DetectorAngle(b))
        moved = conditional_joint_probs(DetectorAngle(a + shift), DetectorAngle(b + shift))
        for xy in base:
            assert moved[xy] == pytest.approx(base[xy], abs=1e-12)

    @given(finite_angles, finite_angles)
    def test_matches_spectral_path(self, a, b):
        aa, bb = DetectorAngle(a), DetectorAngle(b)
        closed = conditional_joint_probs(aa, bb)
        spectral = spectral_coefficients(aa, bb)
        for xy, p in closed.items():
            assert spectral.probability(*xy) == pytest.approx(p, abs=1e-12)

    def test_equal_angles_anticorrelate(self):
        probs = conditional_joint_probs(DetectorAngle(1.1), DetectorAngle(1.1))
        assert probs[(1, 1)] == 0.0
        assert probs[(-1, 1)] == pytest.approx(0.5, abs=1e-15)

    def test_tsirelson_gap(self):
        probs = conditional_joint_probs(DetectorAngle(0.0), DetectorAngle(5 * math.pi / 8))
        assert probs[(1, 1)] == pytest.approx(GAMMA_SQ / 2.0, abs=1e-12)
        assert probs[(-1, 1)] == pytest.approx(BETA_SQ / 2.0, abs=1e-12)


class TestCorrelation:
    def test_equal_angles(self):
        assert correlation(DetectorAngle(0.7), DetectorAngle(0.7)) == pytest.approx(-1.0, abs=1e-12)

    def test_perpendicular(self):
        assert correlation(DetectorAngle(0.0), DetectorAngle(math.pi / 2)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_tsirelson_pairs(self):
        a0, a1, b0, b1 = TSIRELSON_ANGLES
        half = SQRT2 / 2.0
        assert correlation(a0, b0) == pytest.approx(half, abs=1e-12)
        assert correlation(a1, b0) == pytest.approx(half, abs=1e-12)
        assert correlation(a1, b1) == pytest.approx(half, abs=1e-12)
        assert correlation(a0, b1) == pytest.approx(-half, abs=1e-12)

    @given(finite_angles, finite_angles)
    def test_closed_form(self, a, b):
        aa, bb = DetectorAngle(a), DetectorAngle(b)
        assert correlation(aa, bb) == pytest.approx(
            -math.cos(2 * (aa.radians - bb.radians)), abs=1e-12
        )

    @given(finite_angles, finite_angles)
    def test_matches_spectral_path(self, a, b):
        aa, bb = DetectorAngle(a), DetectorAngle(b)
        sc = spectral_coefficients(aa, bb)
        direct = sum(x * y * sc.probability(x, y) for (x, y) in sc.psi)
        assert correlation(aa, bb) == pytest.approx(direct, abs=1e-12)
