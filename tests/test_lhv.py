"""No-signaling, product fits, the Fourier witness, and the separability search."""

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bellmodel import lhv
from bellmodel.lhv import (
    FourierWitnessReport,
    LHVModel,
    ProductFit,
    SeparabilityResult,
    factorizability_fit,
    fourier_witness_check,
    lhv_correlation,
    lhv_predicted_probs,
    m_separability_search,
    no_signaling_report,
)
from bellmodel.probspace import (
    COLUMN_ORDER,
    ROW_ORDER,
    JointMeasure,
    SettingsDistribution,
    chsh_measure,
)
from bellmodel.singlet import TSIRELSON_ANGLES, DetectorAngle, conditional_joint_probs
from test_acceptance import _exhaustive_product_residual

SQRT2 = math.sqrt(2.0)
M_LOWER_BOUND = (2 * SQRT2 - 2) / 16

#: angles whose conditional table is flat (every cell 1/4), hence factorizable
FLAT_ANGLES = (
    DetectorAngle(0.0),
    DetectorAngle(math.pi / 2),
    DetectorAngle(math.pi / 4),
    DetectorAngle(3 * math.pi / 4),
)


def scan_min(params, k, target):
    """Lowest product residual over 101 evenly spaced values of parameter k."""
    trial = np.tile(params, (101, 1))
    trial[:, k] = np.linspace(0.0, 1.0, 101)
    return lhv._product_residual(trial, target).min()


def correlators(table):
    """E_ij = sum over the cells of xy p(x, y, i, j), times 4, from a (row, i, j) table."""
    return 4.0 * (table[0] - table[1] - table[2] + table[3])


def correlator_measure(e):
    """Uniform-settings measure without bias: cells (1 + xy E_ij) / 16, E = (E00, E01, E10, E11)."""
    cells = {
        (x, y, i, j): (1.0 + x * y * e[2 * i + j]) / 16.0
        for (i, j) in COLUMN_ORDER
        for (x, y) in ROW_ORDER
    }
    return JointMeasure.from_probabilities(
        TSIRELSON_ANGLES, SettingsDistribution.uniform(), cells
    )


def product_measure(u, v):
    """Uniform-settings measure whose columns are Bern(u_i) x Bern(v_j) products."""
    cells = {}
    for (i, j) in COLUMN_ORDER:
        for (x, y) in ROW_ORDER:
            px = u[i] if x == 1 else 1.0 - u[i]
            py = v[j] if y == 1 else 1.0 - v[j]
            cells[(x, y, i, j)] = 0.25 * px * py
    return JointMeasure.from_probabilities(
        TSIRELSON_ANGLES, SettingsDistribution.uniform(), cells
    )


class TestNoSignaling:
    def test_quantum_measure_never_signals(self):
        report = no_signaling_report(chsh_measure(TSIRELSON_ANGLES))
        assert report.max_deviation <= 1e-12
        assert report.skipped == ()
        # uniform settings: joint marginals are 1/8, conditional marginals 1/2
        assert report.joint_marginals[("A", 1, 0, 0)] == pytest.approx(0.125, abs=1e-12)
        assert report.conditional_marginals[("A", 1, 0, 0)] == pytest.approx(0.5, abs=1e-12)
        assert report.conditional_marginals[("B", -1, 1, 0)] == pytest.approx(0.5, abs=1e-12)

    def test_randomized_configurations(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            angles = tuple(DetectorAngle(a) for a in rng.uniform(0, math.pi, size=4))
            raw = rng.uniform(0.05, 1.0, size=4)
            raw /= raw.sum()
            raw[3] = 1.0 - float(raw[:3].sum())
            report = no_signaling_report(chsh_measure(angles, SettingsDistribution(*raw)))
            assert report.max_deviation <= 1e-12

    def test_signaling_perturbation_is_flagged(self):
        # shift weight between outcomes inside one column: column mass is kept,
        # but detector A's marginal at i=0 now depends on detector B's setting
        eps = 0.01
        weights = list(chsh_measure(TSIRELSON_ANGLES).space.weights)
        weights[0] += eps  # cell (+1, +1, a0, b0)
        weights[1] -= eps  # cell (-1, +1, a0, b0)
        perturbed = JointMeasure.from_probabilities(
            TSIRELSON_ANGLES, SettingsDistribution.uniform(), weights
        )
        report = no_signaling_report(perturbed)
        assert report.max_deviation == pytest.approx(4 * eps, abs=1e-12)
        assert report.deviations[("A", 1, 0)] == pytest.approx(4 * eps, abs=1e-12)

    def test_zero_probability_pairs_skipped(self):
        m = chsh_measure(TSIRELSON_ANGLES, SettingsDistribution(0.5, 0.5, 0.0, 0.0))
        report = no_signaling_report(m)
        assert report.skipped == ((1, 0), (1, 1))
        # A can still be compared at own setting 0; B has no comparable pair
        assert ("A", 1, 0) in report.deviations
        assert ("A", 1, 1) not in report.deviations
        assert ("B", 1, 0) not in report.deviations
        assert report.max_deviation <= 1e-12

    def test_as_dict_is_json_ready(self):
        doc = no_signaling_report(chsh_measure(TSIRELSON_ANGLES)).as_dict()
        parsed = json.loads(json.dumps(doc))
        assert parsed["max_deviation"] == 0.0
        assert len(parsed["marginals"]) == 16


class TestFactorizabilityFit:
    def test_product_round_trip(self):
        fit = factorizability_fit(product_measure((0.3, 0.6), (0.2, 0.9)))
        assert fit.residual <= 1e-10
        assert fit.p_plus_a0 == pytest.approx(0.3, abs=1e-4)
        assert fit.p_plus_a1 == pytest.approx(0.6, abs=1e-4)
        assert fit.p_plus_b0 == pytest.approx(0.2, abs=1e-4)
        assert fit.p_plus_b1 == pytest.approx(0.9, abs=1e-4)

    def test_extreme_product_round_trip(self):
        fit = factorizability_fit(product_measure((0.0, 1.0), (1.0, 0.0)))
        assert fit.residual <= 1e-10

    def test_tsirelson_is_far_from_product(self):
        fit = factorizability_fit(chsh_measure(TSIRELSON_ANGLES))
        assert fit.residual > 0.01
        # best product table for the maximally violating angles is the flat one
        assert fit.residual == pytest.approx(1 / 32, abs=1e-9)
        for p in fit.params():
            assert p == pytest.approx(0.5, abs=1e-6)

    def test_flat_angles_factorize(self):
        fit = factorizability_fit(chsh_measure(FLAT_ANGLES))
        assert fit.residual <= 1e-10

    def test_requires_uniform_settings(self):
        m = chsh_measure(TSIRELSON_ANGLES, SettingsDistribution(0.4, 0.2, 0.2, 0.2))
        with pytest.raises(ValueError, match="uniform"):
            factorizability_fit(m)

    def test_as_dict_fields(self):
        doc = factorizability_fit(chsh_measure(FLAT_ANGLES)).as_dict()
        assert set(doc) == {"p_plus_a0", "p_plus_a1", "p_plus_b0", "p_plus_b1", "residual"}

    @pytest.mark.parametrize("seed", range(12))
    def test_no_worse_than_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        measure = chsh_measure(tuple(DetectorAngle(a) for a in rng.uniform(0.0, math.pi, 4)))
        oracle = _exhaustive_product_residual(measure, steps=201)
        assert factorizability_fit(measure).residual <= oracle + 1e-12

    def test_peak_memory_is_small(self):
        """The scan covers 21^2 values of B's parameters only, not all four parameters."""
        measure = product_measure((0.3, 0.6), (0.2, 0.9))
        tracemalloc.start()
        try:
            factorizability_fit(measure)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @settings(max_examples=60, deadline=None)
    @given(
        angles=st.lists(st.floats(0.0, math.pi), min_size=4, max_size=4),
        product=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        use_product=st.booleans(),
        other=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
    )
    def test_best_response_is_exact(self, angles, product, use_product, other):
        """Each reply is no worse than any of 101 values of each of its parameters."""
        if use_product:
            measure = product_measure(product[:2], product[2:])
        else:
            measure = chsh_measure(tuple(DetectorAngle(a) for a in angles))
        target = measure.table
        mirrored = target[[0, 2, 1, 3]].transpose(0, 2, 1)
        # A's reply to v = other, then B's reply to u = other through the mirrored table
        a_reply = np.concatenate((lhv._best_response(target, np.array(other)), other))
        b_reply = np.concatenate((other, lhv._best_response(mirrored, np.array(other))))
        for params, own in ((a_reply, (0, 1)), (b_reply, (2, 3))):
            best = lhv._product_residual(params, target)
            for k in own:
                assert best <= scan_min(params, k, target) + 1e-15

    @settings(max_examples=20, deadline=None)
    @given(angles=st.lists(st.floats(0.0, math.pi), min_size=4, max_size=4))
    def test_singlet_fit_is_the_flat_table(self, angles):
        """For a singlet table under uniform settings the residual is
        sum_ij [a_i^2 + b_j^2 + (a_i b_j - E_ij)^2] / 64 with a = 2u - 1 and
        b = 2v - 1, least at u = v = 1/2, where it is sum E_ij^2 / 64."""
        fit = factorizability_fit(chsh_measure(tuple(DetectorAngle(a) for a in angles)))
        e = [-math.cos(2.0 * (angles[i] - angles[2 + j])) for i in (0, 1) for j in (0, 1)]
        assert abs(fit.residual - sum(x * x for x in e) / 64.0) <= 1e-15
        assert fit.params() == (0.5, 0.5, 0.5, 0.5)

    @settings(max_examples=100, deadline=None)
    @given(
        measure=st.one_of(
            st.builds(
                correlator_measure,
                st.lists(st.floats(-0.99, 0.99), min_size=4, max_size=4),
            ),
            st.builds(
                lambda angles: chsh_measure(tuple(DetectorAngle(a) for a in angles)),
                st.lists(st.floats(0.0, math.pi), min_size=4, max_size=4),
            ).filter(lambda m: np.abs(correlators(m.table)).max() <= 0.99),
        )
    )
    def test_reply_search_never_beats_the_closed_form(self, measure):
        """On tables without bias the alternating replies, run past the
        closed form, find no residual lower than the flat table's."""
        fit = factorizability_fit(measure)
        assert fit.params() == (0.5, 0.5, 0.5, 0.5)
        searched = lhv._reply_search(measure.table)
        assert searched.residual >= fit.residual - 1e-15

    @pytest.mark.parametrize("b0", [0.0, math.pi / 2])
    def test_unit_correlators_take_the_closed_form(self, monkeypatch, b0):
        """Every |E_ij| = 1: the alternating replies would take seconds, so
        the fit must not call them."""

        def no_replies(*_args, **_kwargs):
            raise AssertionError("the fit ran the reply search on a table without bias")

        monkeypatch.setattr(lhv, "_best_response", no_replies)
        fit = factorizability_fit(chsh_measure(tuple(map(DetectorAngle, (0.0, 0.0, b0, 0.0)))))
        assert fit.params() == (0.5, 0.5, 0.5, 0.5)
        assert fit.residual == 0.0625

    @pytest.mark.parametrize("seed", range(8))
    def test_fit_is_a_best_reply_for_both_detectors(self, seed):
        """On tables far from any product, no parameter alone can lower the residual."""
        rng = np.random.default_rng(seed)
        cells = {
            (x, y, i, j): 0.25 * float(w)
            for (i, j) in COLUMN_ORDER
            for (x, y), w in zip(ROW_ORDER, rng.dirichlet(np.full(4, 0.5)))
        }
        measure = JointMeasure.from_probabilities(
            TSIRELSON_ANGLES, SettingsDistribution.uniform(), cells
        )
        fit = factorizability_fit(measure)
        for k in range(4):
            assert fit.residual <= scan_min(np.array(fit.params()), k, measure.table) + 1e-15


def full_array_witness(grid_size):
    """The witness over all grid nodes at once: the reference the
    block-by-block version must match bit for bit.  With c = re + i im, every
    integral is the exact sum (`math.fsum`) of `np.sum`s over consecutive
    `_WITNESS_BLOCK` slices of one real array of the grid's length."""
    grid_size = lhv._integer("grid_size", grid_size)
    if grid_size < 100:
        raise ValueError("grid_size must be at least 100")
    lam = (np.arange(grid_size, dtype=float) + 0.5) / grid_size
    c = np.exp(1j * (2.0 * math.pi * lam))
    re = c.real * math.sqrt(math.pi / 2.0)
    im = c.imag * math.sqrt(math.pi / 2.0)
    w = 1.0 / grid_size

    def total(values):
        return math.fsum(np.sum(values[k:k + lhv._WITNESS_BLOCK])
                         for k in range(0, grid_size, lhv._WITNESS_BLOCK))

    first = abs(complex(total(re) * w, total(im) * w))
    second = abs(complex(total(re * re - im * im) * w, 2.0 * total(re * im) * w))
    power = total(re * re + im * im) * w
    # Square roots, doubling and dividing by a positive number round
    # monotonically, so they can follow the maximum.
    amplitude = 2.0 * math.sqrt(np.max(re * re + im * im)) / math.sqrt(math.pi)
    return FourierWitnessReport(
        first_moment_abs=first,
        second_moment_abs=second,
        power=power,
        response_amplitude_max=amplitude,
        grid_size=grid_size,
    )


def witness_fields(report):
    return (report.first_moment_abs, report.second_moment_abs, report.power,
            report.response_amplitude_max)


class TestFourierWitness:
    def test_reference_grid(self):
        report = fourier_witness_check(grid_size=10000)
        assert report.first_moment_abs <= 1e-8
        assert report.second_moment_abs <= 1e-8
        assert report.power == pytest.approx(math.pi / 2, abs=1e-8)
        assert report.response_amplitude_max == pytest.approx(SQRT2, abs=1e-8)
        assert report.response_amplitude_max > 1.0 + 1e-6
        assert report.contradiction

    def test_other_grids_agree(self):
        for grid in (100, 1037, 50000):
            report = fourier_witness_check(grid_size=grid)
            assert report.contradiction
            assert report.power == pytest.approx(math.pi / 2, abs=1e-8)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            fourier_witness_check(grid_size=99)

    def test_peak_memory_bounded(self):
        """One block of nodes at a time, 24 bytes per node, plus 40 bytes of
        block sums per block: the full-array version held 24 bytes per grid
        node."""
        for grid in (50000, 1000000):
            tracemalloc.start()
            try:
                fourier_witness_check(grid_size=grid)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 * 24 * lhv._WITNESS_BLOCK, grid

    @pytest.mark.parametrize("grid", [100, 101, 1037, 2047, 2048, 2049, 4095, 4096, 4097,
                                      8193, 10**4, 16385, 5 * 10**4, 3 * 10**5, 10**6])
    def test_accuracy(self, grid):
        """The moments integrate to exactly 0 and the power to pi/2: the
        rounding of the sums stays within a few units in the last place of
        pi/2."""
        report = fourier_witness_check(grid)
        assert abs(report.power - math.pi / 2) <= 2e-15
        assert report.first_moment_abs <= 1e-15
        assert report.second_moment_abs <= 1e-15

    @pytest.mark.parametrize("grid", [
        *(k * lhv._WITNESS_BLOCK + d for k in (1, 2) for d in (-1, 0, 1)),
        4 * lhv._WITNESS_BLOCK + 1, 50000, 1000000])
    def test_same_bits_as_full_array(self, grid):
        assert witness_fields(fourier_witness_check(grid)) == witness_fields(
            full_array_witness(grid))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(100, 300000))
    def test_same_bits_as_full_array_property(self, grid):
        assert witness_fields(fourier_witness_check(grid)) == witness_fields(
            full_array_witness(grid))

    def test_contradiction_requires_all_conditions(self):
        report = FourierWitnessReport(
            first_moment_abs=0.0,
            second_moment_abs=0.0,
            power=math.pi / 2,
            response_amplitude_max=0.99,
            grid_size=100,
        )
        assert not report.contradiction

    def test_as_dict_round_trips(self):
        doc = fourier_witness_check(grid_size=200).as_dict()
        assert json.loads(json.dumps(doc))["grid_size"] == 200


class TestLHVModel:
    def fair_coins(self, size=2):
        return LHVModel(
            lambda_grid=np.linspace(0, 1, size),
            rho=np.full(size, 1.0 / size),
            p_response=np.full((2, size), 0.5),
            q_response=np.full((2, size), 0.5),
        )

    def test_fair_coins_predict_flat_table(self):
        model = self.fair_coins()
        for (i, j) in COLUMN_ORDER:
            probs = lhv_predicted_probs(model, i, j)
            for p in probs.values():
                assert p == pytest.approx(0.25, abs=1e-15)
            assert lhv_correlation(model, i, j) == pytest.approx(0.0, abs=1e-15)

    def test_deterministic_strategies_bound_chsh(self):
        """Oracle: every one-point deterministic model keeps |S| <= 2, with 2 attained."""
        best = 0.0
        for k in range(16):
            px = [float((k >> b) & 1) for b in (0, 1)]  # P[X=+1 | a_i]
            qy = [float((k >> b) & 1) for b in (2, 3)]  # P[Y=-1 | b_j]
            model = LHVModel(
                lambda_grid=np.array([0.5]),
                rho=np.array([1.0]),
                p_response=np.array([[px[0]], [px[1]]]),
                q_response=np.array([[qy[0]], [qy[1]]]),
            )
            terms = [lhv_correlation(model, i, j) for (i, j) in COLUMN_ORDER]
            combined = abs(terms[0] + terms[1] + terms[2] - terms[3])
            assert combined <= 2.0 + 1e-12
            best = max(best, combined)
        assert best == pytest.approx(2.0, abs=1e-12)

    def test_predictions_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            size = int(rng.integers(1, 9))
            raw = rng.uniform(0, 1, size=size) + 1e-9
            model = LHVModel(
                lambda_grid=np.arange(size, dtype=float),
                rho=raw / raw.sum(),
                p_response=rng.uniform(0, 1, size=(2, size)),
                q_response=rng.uniform(0, 1, size=(2, size)),
            )
            for (i, j) in COLUMN_ORDER:
                assert sum(lhv_predicted_probs(model, i, j).values()) == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_two_point_model_matches_one_column_pair(self):
        """Oracle for the restricted search: an explicit two-point model
        reproduces both columns sharing detector A's orientation exactly."""
        angles = TSIRELSON_ANGLES
        i = 0
        c = [2.0 * conditional_joint_probs(angles[i], angles[2 + j])[(1, -1)] for j in (0, 1)]
        model = LHVModel(
            lambda_grid=np.array([0.25, 0.75]),
            rho=np.array([0.5, 0.5]),
            p_response=np.array([[1.0, 0.0], [1.0, 0.0]]),
            q_response=np.array([[c[0], 1.0 - c[0]], [c[1], 1.0 - c[1]]]),
        )
        for j in (0, 1):
            predicted = lhv_predicted_probs(model, i, j)
            born = conditional_joint_probs(angles[i], angles[2 + j])
            for xy, p in born.items():
                assert predicted[xy] == pytest.approx(p, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            LHVModel(
                lambda_grid=np.array([0.5]),
                rho=np.array([0.5]),  # does not sum to 1
                p_response=np.array([[0.5], [0.5]]),
                q_response=np.array([[0.5], [0.5]]),
            )
        with pytest.raises(ValueError):
            LHVModel(
                lambda_grid=np.array([0.5]),
                rho=np.array([1.0]),
                p_response=np.array([[1.5], [0.5]]),  # out of [0, 1]
                q_response=np.array([[0.5], [0.5]]),
            )
        with pytest.raises(ValueError):
            LHVModel(
                lambda_grid=np.array([0.5, 0.6]),
                rho=np.array([1.0]),  # shape mismatch
                p_response=np.array([[0.5], [0.5]]),
                q_response=np.array([[0.5], [0.5]]),
            )

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="lambda_grid must be a nonempty 1-d array"):
            LHVModel(lambda_grid=np.array([]), rho=np.array([]),
                     p_response=np.zeros((2, 0)), q_response=np.zeros((2, 0)))

    @pytest.mark.parametrize("field", ["p_response", "q_response"])
    def test_response_shape_rejected(self, field):
        doc = {"lambda_grid": np.array([0.5]), "rho": np.array([1.0]),
               "p_response": np.full((2, 1), 0.5), "q_response": np.full((2, 1), 0.5)}
        doc[field] = np.full((1, 2), 0.5)
        with pytest.raises(ValueError, match=r"responses must have shape \(2, 1\)"):
            LHVModel(**doc)

    @staticmethod
    def one_point_doc(field, bad):
        """A valid one-point model's fields, with the first entry of ``field`` set to ``bad``."""
        doc = {"lambda_grid": [0.5], "rho": [1.0], "p_response": [[0.5], [0.5]],
               "q_response": [[0.5], [0.5]]}
        arr = np.array(doc[field], dtype=float)
        arr.flat[0] = bad
        doc[field] = arr.tolist()
        return doc

    @pytest.mark.parametrize("field", ["lambda_grid", "rho", "p_response", "q_response"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, field, bad):
        doc = {k: np.array(v) for k, v in self.one_point_doc(field, bad).items()}
        with pytest.raises(ValueError, match="finite"):
            LHVModel(**doc)

    @pytest.mark.parametrize("field", ["lambda_grid", "rho", "p_response", "q_response"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_json_rejected(self, field, bad):
        text = json.dumps(self.one_point_doc(field, bad))  # NaN / Infinity / -Infinity tokens
        with pytest.raises(ValueError, match="finite"):
            LHVModel.from_json(text)

    @pytest.mark.parametrize(
        "drop, message",
        [
            (("rho",), "model document is missing rho"),
            (("lambda_grid", "q_response"), "model document is missing lambda_grid, q_response"),
        ],
    )
    def test_missing_keys_rejected(self, drop, message):
        doc = {k: v for k, v in self.one_point_doc("rho", 1.0).items() if k not in drop}
        with pytest.raises(ValueError, match=f"^{message}$"):
            LHVModel.from_dict(doc)
        with pytest.raises(ValueError, match=f"^{message}$"):
            LHVModel.from_json(json.dumps(doc))

    def test_unknown_keys_rejected(self):
        doc = {**self.one_point_doc("rho", 1.0), "p_respons": [[0.5], [0.5]], "seed": 1}
        message = ("model document keys must be lambda_grid, rho, p_response, q_response, "
                   "got 'p_respons', 'seed'")
        with pytest.raises(ValueError, match=f"^{message}$"):
            LHVModel.from_dict(doc)
        with pytest.raises(ValueError, match=f"^{message}$"):
            LHVModel.from_json(json.dumps(doc))

    @pytest.mark.parametrize("value", [{"p": 1.0}, [{"p": 1.0}], ["1.0"]])
    def test_non_numeric_field_rejected(self, value):
        doc = {**self.one_point_doc("rho", 1.0), "rho": value}
        with pytest.raises(ValueError, match="^model document fields must hold numbers: "):
            LHVModel.from_dict(doc)

    @pytest.mark.parametrize("text", ["[0.5, 1.0]", "null", "3"])
    def test_non_mapping_document_rejected(self, text):
        with pytest.raises(ValueError, match="^a model document must be a mapping, got "):
            LHVModel.from_json(text)

    def test_json_round_trip(self):
        model = self.fair_coins(size=3)
        clone = LHVModel.from_json(model.to_json())
        np.testing.assert_array_equal(clone.rho, model.rho)
        np.testing.assert_array_equal(clone.p_response, model.p_response)
        np.testing.assert_array_equal(clone.q_response, model.q_response)
        np.testing.assert_array_equal(clone.lambda_grid, model.lambda_grid)

    def test_predicted_probs_validates_indices(self):
        with pytest.raises(ValueError):
            lhv_predicted_probs(self.fair_coins(), 2, 0)


class TestSeparabilitySearch:
    def test_lower_bound_respected_on_quantum_target(self):
        result = m_separability_search(TSIRELSON_ANGLES, grid_size=8, restarts=2, seed=0)
        assert result.m_hat >= M_LOWER_BOUND - 1e-9
        # the optimal mixture of deterministic strategies attains the bound
        assert result.m_hat == pytest.approx(M_LOWER_BOUND, abs=1e-6)

    def test_factorizable_target_is_reached(self):
        result = m_separability_search(FLAT_ANGLES, grid_size=4, restarts=2, seed=0)
        assert result.m_hat <= 1e-6

    def test_grid_monotonicity(self):
        values = [
            m_separability_search(TSIRELSON_ANGLES, grid_size=g, restarts=2, seed=3).m_hat
            for g in (2, 4, 8)
        ]
        assert values[1] <= values[0] + 1e-15
        assert values[2] <= values[1] + 1e-15

    def test_deterministic(self):
        a = m_separability_search(TSIRELSON_ANGLES, grid_size=4, restarts=3, seed=9)
        b = m_separability_search(TSIRELSON_ANGLES, grid_size=4, restarts=3, seed=9)
        assert a.m_hat == b.m_hat
        np.testing.assert_array_equal(a.model.rho, b.model.rho)
        np.testing.assert_array_equal(a.model.p_response, b.model.p_response)
        np.testing.assert_array_equal(a.model.q_response, b.model.q_response)

    def test_m_hat_matches_reported_deviations(self):
        result = m_separability_search(TSIRELSON_ANGLES, grid_size=4, restarts=1, seed=0)
        assert result.m_hat == max(result.per_setting_deviations.values())
        assert len(result.per_setting_deviations) == 16

    def test_deviations_recomputable_from_model(self):
        result = m_separability_search(TSIRELSON_ANGLES, grid_size=4, restarts=1, seed=1)
        a = TSIRELSON_ANGLES
        for (x, y, i, j), dev in result.per_setting_deviations.items():
            predicted = lhv_predicted_probs(result.model, i, j)[(x, y)]
            born = conditional_joint_probs(a[i], a[2 + j])[(x, y)]
            assert abs(predicted - born) == pytest.approx(dev, abs=1e-12)

    def test_restriction_validation(self):
        with pytest.raises(ValueError):
            m_separability_search(TSIRELSON_ANGLES, grid_size=0)
        with pytest.raises(ValueError):
            m_separability_search(TSIRELSON_ANGLES, restarts=-1)
        with pytest.raises(ValueError):
            m_separability_search(TSIRELSON_ANGLES[:2])

    def test_rejects_plain_float_angles(self):
        with pytest.raises(ValueError, match=r"^angles must be 4 DetectorAngle values \(a0, a1"):
            m_separability_search((0.0, 0.5, 1.0, 1.5), grid_size=2, restarts=0)

    def test_m_hat_follows_deviations(self):
        good = m_separability_search(TSIRELSON_ANGLES, grid_size=2, restarts=0, seed=0)
        worse = dict(good.per_setting_deviations)
        worse[(1, 1, 0, 0)] = good.m_hat + 0.5
        result = SeparabilityResult(good.model, worse, good.lower_bound)
        assert result.m_hat == good.m_hat + 0.5
        assert result.gap == result.m_hat - good.lower_bound

    def test_as_dict_is_json_ready(self):
        result = m_separability_search(TSIRELSON_ANGLES, grid_size=2, restarts=0, seed=0)
        doc = json.loads(json.dumps(result.as_dict()))
        assert doc["m_hat"] == result.m_hat
        assert len(doc["per_setting_deviations"]) == 16
        assert len(doc["model"]["rho"]) == 2


def lp_optimum(target):
    """The test's oracle: HiGHS's optimum of the 17-variable mixture LP.

    Minimizes m over weights w on the 16 deterministic strategies, with
    |sum_k w_k T_k - target| <= m on every cell; T_k is strategy k's table.
    HiGHS's tolerances are absolute, 1e-7 by default and 1e-10 at least: at
    1e-7 it reports m = 0 for angles (0, 1e-9, 0, 1), whose CHSH violation
    of 1.8e-9 gives m = 1.1e-10.  So it solves at 1e-10 for the weights and
    m scaled by 1e4, which leaves a violation of 1e-14 in the cells.
    """
    from scipy.optimize import linprog

    scale = 1e4
    tables = np.zeros((16, 4, 2, 2))
    for k in range(16):
        x = tuple(1 if (k >> b) & 1 else -1 for b in (0, 1))
        y = tuple(1 if (k >> b) & 1 else -1 for b in (2, 3))
        for row, (xo, yo) in enumerate(ROW_ORDER):
            for i in (0, 1):
                for j in (0, 1):
                    tables[k, row, i, j] = float(x[i] == xo and y[j] == yo)
    columns = tables.reshape(16, 16).T
    ones = np.ones((16, 1))
    a_ub = np.vstack((np.hstack((columns, -ones)), np.hstack((-columns, -ones))))
    b_ub = scale * np.concatenate((target.ravel(), -target.ravel()))
    out = linprog(np.eye(17)[16], A_ub=a_ub, b_ub=b_ub, A_eq=[[1.0] * 16 + [0.0]], b_eq=[scale],
                  bounds=[(0.0, scale)] * 16 + [(0.0, None)], method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert out.success, out.message
    return float(out.fun) / scale


def forbid_search(monkeypatch):
    def no_search(*_args, **_kwargs):
        raise AssertionError("compass search ran at a grid covering the model")

    monkeypatch.setattr(lhv, "_pattern_search", no_search)


def target_of(angles):
    return chsh_measure(angles).table * 4.0


class TestStrategyTables:
    def test_deterministic_tables_match_bit_decoding_reference(self):
        reference = np.zeros((16, 4, 2, 2))
        for k in range(16):
            x = tuple(1 if (k >> b) & 1 else -1 for b in (0, 1))
            y = tuple(1 if (k >> b) & 1 else -1 for b in (2, 3))
            for row, (xo, yo) in enumerate(ROW_ORDER):
                for i in (0, 1):
                    for j in (0, 1):
                        if x[i] == xo and y[j] == yo:
                            reference[k, row, i, j] = 1.0
        strategies = lhv._STRATEGIES
        tables = lhv._predicted_table(np.eye(16)[:, None, :], strategies[:2], strategies[2:])
        np.testing.assert_array_equal(tables, reference)

    def test_mixture_start_packs_strategies(self):
        weights = np.zeros(16)
        weights[[5, 10, 3]] = [0.5, 0.3, 0.2]
        size = 4
        start = lhv._heaviest(size, np.vstack((lhv._STRATEGIES, weights)))
        assert start.shape == (5, size)
        p, q, rho = start[:2], start[2:4], start[4]
        np.testing.assert_array_equal(rho, [0.5, 0.3, 0.2, 0.0])
        for slot, k in enumerate((5, 10, 3)):
            for b in (0, 1):
                assert p[b, slot] == float((k >> b) & 1)  # X answers +1
                assert q[b, slot] == 1.0 - float((k >> (2 + b)) & 1)  # Y answers -1


SKEWED_ANGLES = tuple(DetectorAngle(a) for a in (0.03, 0.80, 1.93, 2.71))
SKEWED3_ANGLES = tuple(DetectorAngle(a) for a in (0.4, 2.9, 1.1, 0.25))
#: a local target (largest CHSH value 1.929; A's two orientations 1e-6 apart), 5-point model
DEGENERATE_ANGLES = tuple(DetectorAngle(a) for a in (1e-6, 0.0, 1.4375, 0.21875))
#: a local target (largest CHSH value below 2), 5-point model
LOCAL_ANGLES = tuple(DetectorAngle(a) for a in (2.2, 0.4, 1.7, 2.9))


#: The results `test_search_path_output_pinned` and `test_grid4_output_pinned`
#: cover and the witness at grids 10**4, 16385 and 10**6, under one SHA-256,
#: which the script prints.  It runs the same in this process and in a child process.
KERNEL_BATTERY = f"""
import hashlib, json
from bellmodel.lhv import fourier_witness_check, m_separability_search
from bellmodel.singlet import DetectorAngle

digest = hashlib.sha256()
for radians in {[[a.radians for a in angles] for angles in (
        TSIRELSON_ANGLES, SKEWED3_ANGLES, DEGENERATE_ANGLES, LOCAL_ANGLES)]!r}:
    for grid in (2, 3, 4):
        for restarts, seed in ((0, 0), (2, 3)):
            result = m_separability_search(tuple(map(DetectorAngle, radians)), grid, restarts, seed)
            digest.update(json.dumps(result.as_dict()).encode())
for grid in (10**4, 16385, 10**6):
    digest.update(json.dumps(fourier_witness_check(grid).as_dict()).encode())
print(digest.hexdigest())
"""


@pytest.fixture(scope="module")
def battery_in_process():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(KERNEL_BATTERY, {})
    return out.getvalue()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the settings name x86-64 kernels")
@pytest.mark.parametrize("kernels", [
    {"NPY_DISABLE_CPU_FEATURES": "X86_V3,X86_V4,AVX512_ICL,AVX512_SPR"},
    {"OPENBLAS_CORETYPE": "Prescott"},
], ids=["numpy-x86-64-v2", "openblas-prescott"])
def test_results_do_not_depend_on_cpu_kernels(battery_in_process, kernels):
    """numpy and OpenBLAS pick their SIMD kernels when they load.  A child
    process held to numpy's x86-64-v2 kernels, or to OpenBLAS's kernels for
    a CPU without AVX, prints the digest this process does."""
    child = subprocess.run([sys.executable, "-c", KERNEL_BATTERY], env={**os.environ, **kernels},
                           capture_output=True, text=True, check=True)
    assert child.stdout == battery_in_process


class TestExactPath:
    @pytest.mark.parametrize("grid", [4, 8, 16, 64])
    def test_returns_lp_optimum_without_search(self, monkeypatch, grid):
        forbid_search(monkeypatch)
        result = m_separability_search(TSIRELSON_ANGLES, grid_size=grid, restarts=8, seed=7)
        assert result.gap <= 1e-15
        assert abs(result.lower_bound - lp_optimum(target_of(TSIRELSON_ANGLES))) <= 1e-12
        assert result.model.size == grid

    def test_certificate_in_json(self):
        result = m_separability_search(TSIRELSON_ANGLES, grid_size=2, restarts=0, seed=0)
        doc = json.loads(json.dumps(result.as_dict()))
        assert doc["lower_bound"] == result.lower_bound == pytest.approx(M_LOWER_BOUND, abs=1e-12)
        assert doc["gap"] == result.gap == result.m_hat - result.lower_bound

    @pytest.mark.parametrize(
        "angles, kwargs, m_hat",
        [
            pytest.param(TSIRELSON_ANGLES, dict(grid_size=2, restarts=2, seed=3),
                         0.1767766952966369, id="tsirelson-grid2"),
            # levels 1, 3: the ladder halves with floor division
            pytest.param(TSIRELSON_ANGLES, dict(grid_size=3, restarts=1, seed=5),
                         0.1657121093636581, id="grid3"),
            # three seeded random starts run; the best reaches 0.17585, and the
            # heaviest strategies' start still wins the grid-3 level
            pytest.param(TSIRELSON_ANGLES, dict(grid_size=3, restarts=3, seed=11),
                         0.1657121093636581, id="grid3-restarts3"),
            pytest.param(SKEWED3_ANGLES, dict(grid_size=3, restarts=1, seed=5),
                         0.08613717276875632, id="skewed-grid3"),
        ],
    )
    def test_below_support_values_pinned(self, monkeypatch, angles, kwargs, m_hat):
        """Wherever the compass search runs, its results stay bit for bit."""
        searches = []
        search = lhv._pattern_search

        def counting(*args, **kw):
            searches.append(None)
            return search(*args, **kw)

        monkeypatch.setattr(lhv, "_pattern_search", counting)
        assert m_separability_search(angles, **kwargs).m_hat == m_hat
        assert searches

    def test_random_start_win_pinned(self, monkeypatch):
        """A seeded random start wins a search level.  Grid 2 is one level of
        5 structured starts and ``restarts`` random ones; at seed 2 the second
        random start, start 6, reaches the lowest value."""
        values = []
        search = lhv._pattern_search

        def recording(*args, **kw):
            theta, value = search(*args, **kw)
            values.append(value)
            return theta, value

        monkeypatch.setattr(lhv, "_pattern_search", recording)
        result = m_separability_search(SKEWED3_ANGLES, grid_size=2, restarts=2, seed=2)
        assert result.m_hat == 0.13531695007834538
        assert len(values) == 7 and values.index(min(values)) == 6

    @staticmethod
    def output_digest(grids):
        """One SHA-256 over each result's JSON on the pinned angle sets at ``grids``."""
        digest = hashlib.sha256()
        for angles in (TSIRELSON_ANGLES, SKEWED3_ANGLES, DEGENERATE_ANGLES, LOCAL_ANGLES):
            for grid in grids:
                for restarts, seed in ((0, 0), (2, 3)):
                    result = m_separability_search(angles, grid, restarts, seed)
                    digest.update(json.dumps(result.as_dict()).encode())
        return digest.hexdigest()

    def test_search_path_output_pinned(self):
        """Every field of a searched result (model, deviations and bound) stays
        bit for bit at grids 2 and 3, the only ones below the folded model's size."""
        assert self.output_digest((2, 3)) == (
            "9bc91c59b054f836546515a102e2faaa994cf5abf0bd45705d72b4c949893fce")

    def test_grid4_output_pinned(self):
        """Grid 4 holds every model once its fair coin is folded in: every field
        of those exact results stays bit for bit."""
        assert self.output_digest((4,)) == (
            "9fafe473ef4c19fb6b9a2a92c6946f49be3f4147f0d53dadc2a1f89f937fbe74")

    @pytest.mark.parametrize(
        "angles, kwargs, m_hat",
        [
            pytest.param(TSIRELSON_ANGLES, dict(grid_size=4, restarts=2, seed=3),
                         0.05177669529663689, id="tsirelson-grid4"),
            # one latent point: the fair coin, in closed form
            pytest.param(TSIRELSON_ANGLES, dict(grid_size=1, restarts=0, seed=0),
                         0.1767766952966369, id="grid1"),
            pytest.param(SKEWED_ANGLES, dict(grid_size=4, restarts=0, seed=0),
                         0.0505466601329535, id="skewed-grid4"),
            pytest.param(DEGENERATE_ANGLES, dict(grid_size=8, restarts=0, seed=0),
                         5.551115123125783e-17, id="degenerate-grid8"),
            # local targets: 5-point models, placed on 4 points with the fair coin folded in
            pytest.param(LOCAL_ANGLES, dict(grid_size=4, restarts=2, seed=3),
                         1.1102230246251565e-16, id="local-grid4"),
            pytest.param(DEGENERATE_ANGLES, dict(grid_size=4, restarts=0, seed=0),
                         5.551115123125783e-17, id="degenerate-grid4"),
        ],
    )
    def test_exact_path_values_pinned(self, monkeypatch, angles, kwargs, m_hat):
        """At or above the model's size the closed-form model is returned as is,
        one short of it the folded model, and on one latent point the fair coin."""
        forbid_search(monkeypatch)
        result = m_separability_search(angles, **kwargs)
        assert result.m_hat == m_hat
        if kwargs["grid_size"] > 1:  # the fair coin is optimal on one point, not on every grid
            assert abs(result.gap) <= 1e-15

    @pytest.mark.parametrize("grid", [1, 2, 3, 4, 8, 16, 64])
    @pytest.mark.parametrize(
        "angles", [TSIRELSON_ANGLES, SKEWED_ANGLES, SKEWED3_ANGLES, DEGENERATE_ANGLES],
        ids=["tsirelson", "skewed", "skewed3", "degenerate"],
    )
    def test_no_solver_runs(self, angles, grid):
        """No function defined under scipy's package directory runs during the
        search: a profile hook on this thread records every call that starts there."""
        scipy_dir = os.path.dirname(importlib.util.find_spec("scipy").origin) + os.sep
        ran = []

        def hook(frame, event, _arg):
            if event == "call" and frame.f_code.co_filename.startswith(scipy_dir):
                ran.append(f"{frame.f_code.co_filename}:{frame.f_code.co_name}")

        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            result = m_separability_search(angles, grid_size=grid, restarts=0, seed=0)
        finally:
            sys.setprofile(previous)
        assert not ran, f"scipy ran: {ran[:3]}"
        assert result.lower_bound <= result.m_hat + 1e-15

    @settings(max_examples=6, deadline=None)
    @given(angles=st.lists(st.floats(0.0, math.pi), min_size=4, max_size=4))
    # the local DEGENERATE_ANGLES target, whose model has 5 points
    @example(angles=[1e-06, 0.0, 1.4375, 0.21875])
    def test_certificate_and_ladder_property(self, angles):
        """The bound never exceeds m_hat and the grid ladder never rises.

        The bound and the exact path's model are closed forms, so the 1e-12
        tolerance here covers only rounding in the 16 cell deviations.
        """
        angles = tuple(DetectorAngle(a) for a in angles)
        results = [
            m_separability_search(angles, grid_size=g, restarts=0, seed=0) for g in (1, 2, 4, 8, 16)
        ]
        for r in results:
            assert isinstance(r.lower_bound, float) and math.isfinite(r.gap)
            assert r.lower_bound <= r.m_hat + 1e-12
        for coarse, fine in zip(results, results[1:]):
            assert fine.m_hat <= coarse.m_hat + 1e-12


class TestLocalOptimum:
    @settings(max_examples=60, deadline=None)
    @given(angles=st.lists(st.floats(0.0, math.pi), min_size=4, max_size=4))
    @example(angles=[0.0, 0.0, 0.0, 0.0])
    @example(angles=[0.0, 1e-09, 0.0, 1.0])
    @example(angles=[0.0, 3.125, 1e-09, 0.0])
    @example(angles=[1e-06, 0.0, 1.4375, 0.21875])
    def test_closed_form_is_the_lp_optimum(self, angles):
        """A valid model on at most 5 points (4 when a CHSH value exceeds 2),
        whose worst deviation is m, and m is the LP's optimum."""
        target = target_of(tuple(DetectorAngle(a) for a in angles))
        optimum, m = lhv._local_optimum(target)
        p, q, rho = optimum[:2], optimum[2:4], optimum[4]
        model = LHVModel(lambda_grid=np.arange(rho.size, dtype=float), rho=rho,
                         p_response=p, q_response=q)
        assert model.size <= (4 if m > 0.0 else 5)
        worst = float(np.max(np.abs(lhv._predicted_table(rho, p, q) - target)))
        assert worst <= m + 1e-15
        assert abs(m - lp_optimum(target)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(angles=st.lists(st.floats(0.0, math.pi), min_size=4, max_size=4))
    @example(angles=[1e-06, 0.0, 1.4375, 0.21875])
    def test_fifth_point_folds(self, angles):
        """A 5-point model (a local target's, its last point the fair coin)
        folds to a valid 4-point model that is still m from the target."""
        target = target_of(tuple(DetectorAngle(a) for a in angles))
        optimum, m = lhv._local_optimum(target)
        assume(optimum.shape[1] == 5)
        folded = lhv._fold(optimum)
        assert folded.shape == (5, 4)
        p, q, rho = folded[:2], folded[2:4], folded[4]
        assert abs(float(rho.sum()) - 1.0) <= 1e-15
        assert np.all((folded[:4] >= 0.0) & (folded[:4] <= 1.0)) and np.all(rho >= 0.0)
        worst = float(np.max(np.abs(lhv._predicted_table(rho, p, q) - target)))
        assert worst <= m + 1e-15


FAIR_COIN = np.full((2, 1), 0.5)


class TestOnePoint:
    @settings(max_examples=200, deadline=None)
    @given(
        angles=st.lists(st.floats(0.0, math.pi), min_size=4, max_size=4),
        responses=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    )
    def test_no_point_beats_the_fair_coin(self, angles, responses):
        """One latent point answering (p, q) deviates at least as far as the fair coin."""
        target = target_of(tuple(DetectorAngle(a) for a in angles))
        p = np.array(responses[:2])[:, None]
        q = np.array(responses[2:])[:, None]
        worst = np.max(np.abs(lhv._predicted_table(np.ones(1), p, q) - target))
        coin = np.max(np.abs(lhv._predicted_table(np.ones(1), FAIR_COIN, FAIR_COIN) - target))
        assert worst >= coin - 1e-15

    @settings(max_examples=30, deadline=None)
    @given(
        angles=st.lists(st.floats(0.0, math.pi), min_size=4, max_size=4),
        restarts=st.integers(0, 8),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_grid1_is_the_fair_coin_without_search(self, angles, restarts, seed):
        searches = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lhv, "_pattern_search", lambda *args: searches.append(args))
            angles = tuple(DetectorAngle(a) for a in angles)
            result = m_separability_search(angles, grid_size=1, restarts=restarts, seed=seed)
        assert searches == []
        assert result.model.rho.tolist() == [1.0]
        np.testing.assert_array_equal(result.model.p_response, FAIR_COIN)
        np.testing.assert_array_equal(result.model.q_response, FAIR_COIN)
        assert result.m_hat == float(np.max(np.abs(target_of(angles) - 0.25)))


class TestSearchVector:
    @given(raw=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_weights_are_normalized(self, raw):
        raw = np.array(raw)
        rho = lhv._weights(raw)
        assert rho.shape == raw.shape
        if raw.sum() > 0.0:
            np.testing.assert_array_equal(rho, raw / raw.sum())
        else:
            np.testing.assert_array_equal(rho, np.full(raw.size, 1.0 / raw.size))


@pytest.mark.parametrize(
    "function, argument, value",
    [
        (fourier_witness_check, "grid_size", 100.5),
        (fourier_witness_check, "grid_size", 1e4),
        (fourier_witness_check, "grid_size", True),
        (m_separability_search, "grid_size", 2.5),
        (m_separability_search, "restarts", 2.5),
        (m_separability_search, "restarts", True),
        (m_separability_search, "seed", 1.5),
        (m_separability_search, "seed", True),
    ],
)
def test_sizes_and_seeds_must_be_integers(monkeypatch, function, argument, value):
    def no_optimum(*_args, **_kwargs):
        raise AssertionError("the local optimum was computed before the argument was checked")

    monkeypatch.setattr(lhv, "_local_optimum", no_optimum)
    positional = {
        fourier_witness_check: (),
        m_separability_search: (TSIRELSON_ANGLES,),
    }[function]
    with pytest.raises(ValueError, match=f"^{argument} must be an integer, got {value!r}$"):
        function(*positional, **{argument: value})


def test_numpy_integer_sizes_become_int():
    report = fourier_witness_check(grid_size=np.int64(100))
    assert type(report.grid_size) is int and report.grid_size == 100
    assert json.loads(json.dumps(report.as_dict()))["grid_size"] == 100


class TestSeedValidation:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("grid, restarts", [(16, 8), (4, 0), (4, 1)])
    def test_out_of_range_seed_rejected_before_lp(self, monkeypatch, seed, grid, restarts):
        def no_optimum(*_args, **_kwargs):
            raise AssertionError("the local optimum was computed before the seed was checked")

        monkeypatch.setattr(lhv, "_local_optimum", no_optimum)
        with pytest.raises(ValueError, match="seed must fit in an unsigned 64-bit integer"):
            m_separability_search(TSIRELSON_ANGLES, grid_size=grid, restarts=restarts, seed=seed)

    def test_extreme_seeds_accepted(self):
        for seed in (0, 2**64 - 1):
            result = m_separability_search(TSIRELSON_ANGLES, grid_size=2, restarts=1, seed=seed)
            assert result.m_hat >= M_LOWER_BOUND - 1e-9
