"""Hidden-variable analysis of the four-setting experiment.

Four related questions about the measured probability table:

* `no_signaling_report`: does either detector's outcome distribution depend
  on the *other* detector's setting?  (For the quantum table it never does.)
* `factorizability_fit`: how close is the table to a product of independent
  per-detector Bernoulli outcomes, one parameter per orientation?  In closed
  form when no outcome is biased, by alternating exact replies otherwise.
* `fourier_witness_check`: a quadrature demonstration that no response
  function bounded in [0, 1] can reproduce the singlet correlation exactly;
  the required first-harmonic amplitude works out to sqrt 2 > 1.
* `m_separability_search`: the finite hidden-variable model whose
  predictions stay within m of the table, minimizing m: in closed form on
  any grid that holds its latent points (at most 4, so on every grid of 4
  or more) and on one point (the fair coin), by compass search in between.

The hidden-variable models here (`LHVModel`) are local: a latent value
lambda is drawn from a finite distribution, then each detector answers
independently given lambda and its own setting.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Callable, Mapping

import numpy as np
# `linprog` is not called here: the local optimum has a closed form.  It stays
# importable as bellmodel.lhv.linprog, a name only bench/layers.py looks up.
from scipy.optimize import linprog  # noqa: F401

from .probspace import (
    COLUMN_ORDER, ROW_ORDER, STRATEGY_ANSWERS, JointMeasure, _integer, _known_keys, _seed,
    _setting_pair, chsh_measure,
)
# `conditional_joint_probs` is not called here, `chsh_measure` is.  It stays
# importable as bellmodel.lhv.conditional_joint_probs, a name only bench/layers.py looks up.
from .singlet import _ATOL, DetectorAngle, _Record, conditional_joint_probs  # noqa: F401

__all__ = [
    "FourierWitnessReport",
    "LHVModel",
    "NoSignalingReport",
    "ProductFit",
    "SeparabilityResult",
    "factorizability_fit",
    "fourier_witness_check",
    "lhv_correlation",
    "lhv_predicted_probs",
    "m_separability_search",
    "no_signaling_report",
]


# ---------------------------------------------------------------------------
# No-signaling
# ---------------------------------------------------------------------------


class NoSignalingReport(_Record, eq=False):
    """Single-detector marginals and their spread across the other detector's setting.

    Keys of ``joint_marginals`` and ``conditional_marginals`` are
    (party, outcome, own_setting, other_setting); keys of ``deviations``
    are (party, outcome, own_setting).  Setting pairs with probability 0
    have no conditional marginal and are listed in ``skipped``.
    ``max_deviation`` is derived: the largest deviation, 0 when there is none.
    """

    joint_marginals: dict[tuple[str, int, int, int], float]
    conditional_marginals: dict[tuple[str, int, int, int], float]
    deviations: dict[tuple[str, int, int], float]
    skipped: tuple[tuple[int, int], ...]

    @property
    def max_deviation(self) -> float:
        return max(self.deviations.values(), default=0.0)

    def as_dict(self) -> dict:
        return {
            "marginals": [
                {
                    "party": party,
                    "outcome": outcome,
                    "own_setting": own,
                    "other_setting": other,
                    "joint": self.joint_marginals[(party, outcome, own, other)],
                    "conditional": cond,
                }
                for (party, outcome, own, other), cond in self.conditional_marginals.items()
            ],
            "deviations": [
                {"party": party, "outcome": outcome, "own_setting": own, "deviation": d}
                for (party, outcome, own), d in self.deviations.items()
            ],
            "skipped": [list(pair) for pair in self.skipped],
            "max_deviation": self.max_deviation,
        }


def no_signaling_report(measure: JointMeasure) -> NoSignalingReport:
    """Compare each detector's outcome distribution across the other's settings.

    For party A, outcome x and own setting i, the conditional marginal
    P[X = x | a_i, b_j] is computed for each j with positive setting
    probability; the deviation is the absolute difference across j (and
    symmetrically for party B).  The joint marginals (not divided by the
    setting probability) are reported alongside.
    """
    joint: dict[tuple[str, int, int, int], float] = {}
    cond: dict[tuple[str, int, int, int], float] = {}
    skipped = tuple(
        (i, j) for (i, j) in sorted(COLUMN_ORDER) if measure.settings.probability(i, j) <= 0.0
    )
    table = measure.table
    # [outcome +1 / -1][i][j]: rows (x, +1) + (x, -1) for A, (+1, y) + (-1, y) for B
    a_marginals = (table[[0, 1]] + table[[2, 3]]).tolist()
    b_marginals = (table[[0, 2]] + table[[1, 3]]).tolist()

    for (i, j) in sorted(COLUMN_ORDER):
        for party, marginals, own, other in (("A", a_marginals, i, j), ("B", b_marginals, j, i)):
            for k, outcome in enumerate((1, -1)):
                key = (party, outcome, own, other)
                joint[key] = marginals[k][i][j]
                if (i, j) not in skipped:
                    cond[key] = joint[key] / measure.settings.probability(i, j)

    deviations: dict[tuple[str, int, int], float] = {}
    for party in ("A", "B"):
        for outcome in (1, -1):
            for own in (0, 1):
                k0 = (party, outcome, own, 0)
                k1 = (party, outcome, own, 1)
                if k0 in cond and k1 in cond:
                    deviations[(party, outcome, own)] = abs(cond[k0] - cond[k1])

    return NoSignalingReport(
        joint_marginals=joint,
        conditional_marginals=cond,
        deviations=deviations,
        skipped=skipped,
    )


# ---------------------------------------------------------------------------
# Factorizability (Bernoulli product fit)
# ---------------------------------------------------------------------------


class ProductFit(_Record):
    """Best product-form table: independent +1-probabilities per orientation.

    The fitted table has cells p(x, y, i, j) = (1/4) * Bern(x; u_i) *
    Bern(y; v_j) where u_i = p_plus_a{i} and v_j = p_plus_b{j}; ``residual``
    is the summed squared difference from the target over all 16 cells.
    """

    p_plus_a0: float
    p_plus_a1: float
    p_plus_b0: float
    p_plus_b1: float
    residual: float

    def params(self) -> tuple[float, float, float, float]:
        return (self.p_plus_a0, self.p_plus_a1, self.p_plus_b0, self.p_plus_b1)

    def as_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))


def _product_residual(params: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Summed squared error of the product table; broadcasts over leading axes.

    ``params`` has shape (..., 4) = (u0, u1, v0, v1); ``target`` is the
    16-cell table in (row, i, j) layout, as `JointMeasure.table`.  The product
    table is the prediction of one latent point answering X = +1 with
    probability u_i and Y = -1 with probability 1 - v_j, at weight 1/4 per
    setting pair.
    """
    u = params[..., 0:2, None]
    v = params[..., 2:4, None]
    pred = 0.25 * _predicted_table(np.ones(1), u, 1.0 - v)
    return ((pred - target) ** 2).sum(axis=(-3, -2, -1))


def _best_response(target: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Detector A's exact least-squares (u0, u1) for B's fixed v, shape (..., 2).

    With v fixed the residual is a separate convex quadratic in each u_i.  With
    c = P[Y = y | v_j] / 4 and t+, t- the target cells of (x, y) = (+1, y) and
    (-1, y), its minimizer is sum c * (t+ - t- + c) / (2 * sum c^2) over j and
    y, clipped to [0, 1].  The denominator is at least 1/8.  B's reply is the
    same function of the mirrored table ``target[[0, 2, 1, 3]].transpose(0, 2, 1)``.
    """
    c = 0.25 * np.stack((v, 1.0 - v), axis=-2)[..., :, None, :]  # (..., y, 1, j)
    diff = target[[0, 2]] - target[[1, 3]]  # (y, i, j): t+ - t-
    square = (c * c).sum(axis=(-3, -1))
    return np.clip((c * (diff + c)).sum(axis=(-3, -1)) / (2.0 * square), 0.0, 1.0)


def factorizability_fit(measure: JointMeasure) -> ProductFit:
    """Least-squares fit of a Bernoulli-product table to the measure.

    Requires uniform settings: the product form fixes every setting-pair
    probability at 1/4.  When no detector's outcome is biased at any setting
    pair (within `_ATOL`, as on every singlet table), each cell is
    (1 + xy E_ij) / 16 and the fit is closed form: every parameter 1/2,
    residual sum E_ij^2 / 64.  With a = 2u - 1 and b = 2v - 1 the residual
    exceeds that by sum_ij [a_i^2 + b_j^2 - 2 a_i b_j E_ij + a_i^2 b_j^2] / 64,
    at least sum_ij [(|a_i| - |b_j|)^2 + a_i^2 b_j^2] / 64 >= 0 as |E_ij| <= 1.
    Any other table goes to `_reply_search`.
    """
    if not measure.settings.is_uniform():
        raise ValueError("factorizability fit requires uniform settings (each pair 1/4)")
    target = measure.table
    a_bias = target[0] + target[2] - target[1] - target[3]
    b_bias = target[0] + target[1] - target[2] - target[3]
    if max(np.abs(a_bias).max(), np.abs(b_bias).max()) <= _ATOL:
        flat = np.full(4, 0.5)
        return ProductFit(*flat.tolist(), residual=float(_product_residual(flat, target)))
    return _reply_search(target)


def _reply_search(target: np.ndarray) -> ProductFit:
    """Product fit of the (row, i, j) table ``target`` by alternating exact replies.

    With one detector's parameters fixed, the other's best reply is exact
    (`_best_response`).  A coarse scan pairs each of 21^2 values of B's
    (v0, v1), 0 to 1 in steps of 0.05, with A's exact reply; the 5 best of
    these then alternate both detectors' exact replies while the residual
    strictly falls, and the lowest wins.  Each reply minimizes its block
    exactly, so no start ends worse than it began.
    """
    mirrored = target[[0, 2, 1, 3]].transpose(0, 2, 1)

    axis = np.linspace(0.0, 1.0, 21)
    v = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    grid = np.concatenate((_best_response(target, v), v), axis=-1)
    coarse = _product_residual(grid, target)
    starts = np.argsort(coarse, kind="stable")[:5]
    params, values = grid[starts], coarse[starts]

    while True:
        v = _best_response(mirrored, params[:, :2])
        step = np.concatenate((_best_response(target, v), v), axis=-1)
        step_values = _product_residual(step, target)
        falls = step_values < values
        if not falls.any():
            break
        params[falls] = step[falls]
        values[falls] = step_values[falls]

    best = int(np.argmin(values))
    return ProductFit(*params[best].tolist(), residual=float(values[best]))


# ---------------------------------------------------------------------------
# Fourier witness
# ---------------------------------------------------------------------------


class FourierWitnessReport(_Record):
    """Quadrature check that an exact hidden-variable response cannot exist.

    A response probability reproducing the singlet statistics exactly would
    need, for almost every latent value, a first harmonic (in twice the
    detector angle) whose coefficient c(lambda) satisfies

        integral c = 0,  integral c^2 = 0,  integral |c|^2 = pi/2,

    forcing |c| = sqrt(pi/2) almost everywhere.  The response then swings
    with amplitude 2|c|/sqrt(pi) = sqrt 2 around its mean, and since twice
    the angle sweeps a full period the swing is attained: the "probability"
    would leave [0, 1].  The four numbers and ``grid_size`` are measured;
    ``contradiction`` is derived: all four hit those targets.
    """

    first_moment_abs: float
    second_moment_abs: float
    power: float
    response_amplitude_max: float
    grid_size: int

    @property
    def contradiction(self) -> bool:
        return (
            self.first_moment_abs <= 1e-8
            and self.second_moment_abs <= 1e-8
            and abs(self.power - math.pi / 2.0) <= 1e-8
            and self.response_amplitude_max > 1.0 + 1e-6
        )

    def as_dict(self) -> dict:
        return dict(zip(self._fields, self._values()), contradiction=self.contradiction)


#: Most quadrature nodes `fourier_witness_check` builds at once.
_WITNESS_BLOCK = 2048


def _pairwise_tree(leaf: Callable[[int, int], np.ndarray], start: int, stop: int) -> np.ndarray:
    """``leaf(s, e)`` summed over [start, stop), split as numpy's pairwise sum
    splits n = ``stop - start`` real scalars: at n // 2 less its remainder
    mod 8, until a range fits in one `_WITNESS_BLOCK`."""
    if stop - start <= _WITNESS_BLOCK:
        return leaf(start, stop)
    half = (stop - start) // 2
    mid = start + half - half % 8
    return _pairwise_tree(leaf, start, mid) + _pairwise_tree(leaf, mid, stop)


def fourier_witness_check(grid_size: int = 10000) -> FourierWitnessReport:
    """Evaluate the witness integrals by midpoint quadrature on [0, 1].

    ``grid_size`` is the number of midpoint nodes (at least 100).  The
    coefficient function is c(lambda) = sqrt(pi/2) * exp(2*pi*i*lambda).
    With c = re + i im, the integrals are `np.sum`s of the real arrays re, im,
    re im, re^2 - im^2 and re^2 + im^2, built from one complex `np.exp` per
    node by elementwise ops: every kernel numpy picks gives them the same bits.
    """
    grid_size = _integer("grid_size", grid_size)
    if grid_size < 100:
        raise ValueError("grid_size must be at least 100")

    peak = 0.0

    def sums(start: int, stop: int) -> np.ndarray:
        nonlocal peak
        scratch = np.arange(start, stop, dtype=float)
        scratch += 0.5
        scratch /= grid_size
        c = np.zeros(stop - start, dtype=complex)
        parts, re, im = c.view(float), c.real, c.imag  # views of c
        np.multiply(scratch, 2.0 * math.pi, out=im)
        np.exp(c, out=c)
        parts *= math.sqrt(math.pi / 2.0)
        out = np.empty(5)  # re, im, re im, re^2 - im^2, re^2 + im^2, each summed
        out[0], out[1] = np.sum(re), np.sum(im)
        out[2] = np.sum(np.multiply(re, im, out=scratch))
        parts *= parts  # re and im now hold re^2 and im^2
        out[3] = np.sum(np.subtract(re, im, out=scratch))
        out[4] = np.sum(np.add(re, im, out=scratch))
        peak = max(peak, np.max(scratch))
        return out

    # Each leaf is a range that `np.sum` over all grid nodes at once would
    # also sum on its own, so the block sums keep that sum's bits.
    w = 1.0 / grid_size
    total_re, total_im, total_re_im, total_diff, total_power = _pairwise_tree(
        sums, 0, grid_size).tolist()
    first = abs(complex(total_re * w, total_im * w))
    second = abs(complex(total_diff * w, 2.0 * total_re_im * w))
    power = total_power * w
    # Square roots, doubling and dividing by a positive number round
    # monotonically, so they can follow the maximum.
    amplitude = 2.0 * math.sqrt(peak) / math.sqrt(math.pi)
    return FourierWitnessReport(
        first_moment_abs=first,
        second_moment_abs=second,
        power=power,
        response_amplitude_max=amplitude,
        grid_size=grid_size,
    )


# ---------------------------------------------------------------------------
# Finite hidden-variable models and the m-separability search
# ---------------------------------------------------------------------------


class LHVModel(_Record, eq=False):
    """Local hidden-variable model on a finite latent grid.

    ``rho`` is the distribution over latent values; ``p_response[i, k]`` is
    P[X = +1 | a_i, lambda_k] and ``q_response[j, k]`` is
    P[Y = -1 | b_j, lambda_k].  Given lambda the two answers are independent.
    """

    lambda_grid: np.ndarray
    rho: np.ndarray
    p_response: np.ndarray
    q_response: np.ndarray

    def __post_init__(self) -> None:
        # real numbers and booleans only, checked first: numpy alone parses "0.5" as 0.5
        for name in self._fields:
            arr = np.asarray(getattr(self, name))
            if arr.dtype.kind not in "biuf":
                for v in arr.flat:
                    if not isinstance(v, numbers.Real):
                        raise ValueError(
                            f"model document fields must hold numbers: {name} holds {v!r}")
            object.__setattr__(self, name, np.asarray(arr, dtype=float))
        grid, rho, p, q = self.lambda_grid, self.rho, self.p_response, self.q_response
        n = grid.shape[0] if grid.ndim == 1 else -1
        if grid.ndim != 1 or n < 1:
            raise ValueError("lambda_grid must be a nonempty 1-d array")
        if rho.shape != (n,):
            raise ValueError(f"rho must have shape ({n},), got {rho.shape}")
        if p.shape != (2, n) or q.shape != (2, n):
            raise ValueError(f"responses must have shape (2, {n})")
        if not all(np.isfinite(arr).all() for arr in (grid, rho, p, q)):
            raise ValueError("model entries must be finite")
        if np.any(rho < 0.0) or abs(float(rho.sum()) - 1.0) > 1e-9:
            raise ValueError("rho must be a probability distribution")
        for name, arr in (("p_response", p), ("q_response", q)):
            if np.any(arr < 0.0) or np.any(arr > 1.0):
                raise ValueError(f"{name} entries must lie in [0, 1]")

    @property
    def size(self) -> int:
        return self.lambda_grid.shape[0]

    def as_dict(self) -> dict:
        return {
            "lambda_grid": self.lambda_grid.tolist(),
            "rho": self.rho.tolist(),
            "p_response": self.p_response.tolist(),
            "q_response": self.q_response.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict())

    @classmethod
    def from_dict(cls, doc: Mapping) -> "LHVModel":
        if not isinstance(doc, Mapping):
            raise ValueError(f"a model document must be a mapping, got {type(doc).__name__}")
        names = cls._fields
        _known_keys(doc, names, f"model document keys must be {', '.join(names)}")
        missing = [name for name in names if name not in doc]
        if missing:
            raise ValueError(f"model document is missing {', '.join(missing)}")
        return cls(**{name: doc[name] for name in names})

    @classmethod
    def from_json(cls, text: str) -> "LHVModel":
        return cls.from_dict(json.loads(text))


def _predicted_table(rho: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Predicted conditional probabilities, shape (..., 4 rows, 2, 2) = (..., row, i, j).

    A ``rho`` of shape (..., 1, size), or ``p`` and ``q`` of shape
    (..., 2, size), gives one table per leading index.  Each cell sums
    elementwise products over the points: no matmul, so no BLAS kernel sets its bits.
    """
    x = np.concatenate((p * rho, (1.0 - p) * rho), axis=-2)  # (..., x i, size)
    y = np.concatenate((1.0 - q, q), axis=-2)  # (..., y j, size): Y answers +1, -1
    size = x.shape[-1]
    cells = (x.reshape(x.shape[:-2] + (1, 2, 2, 1, size))
             * y.reshape(y.shape[:-2] + (2, 1, 1, 2, size))).sum(axis=-1)  # (..., y, x, i, j)
    return cells.reshape(cells.shape[:-4] + (4, 2, 2))


def lhv_predicted_probs(model: LHVModel, i: int, j: int) -> dict[tuple[int, int], float]:
    """Model prediction for p(x, y | a_i, b_j)."""
    _setting_pair(i, j)
    pred = _predicted_table(model.rho, model.p_response, model.q_response)
    return {xy: float(pred[row, i, j]) for row, xy in enumerate(ROW_ORDER)}


def lhv_correlation(model: LHVModel, i: int, j: int) -> float:
    """E[XY | a_i, b_j] under the model: sum over lambda of rho*(2p-1)*(1-2q)."""
    _setting_pair(i, j)
    p = model.p_response[i]
    q = model.q_response[j]
    return float(np.sum(model.rho * (2.0 * p - 1.0) * (1.0 - 2.0 * q)))


class SeparabilityResult(_Record, eq=False):
    """Outcome of the m-separability search.

    ``m_hat`` (derived) is the largest absolute deviation between the model's
    predictions and the target over the 16 cells, i.e. the max of
    ``per_setting_deviations``.  ``lower_bound`` is the closed-form optimum
    m = max(0, (S - 2) / 16) of `_local_optimum`, S the largest CHSH value:
    no local model, on any latent grid, has a worst deviation below it.
    ``gap`` (derived) is ``m_hat - lower_bound``.
    """

    model: LHVModel
    per_setting_deviations: dict[tuple[int, int, int, int], float]
    lower_bound: float

    @property
    def m_hat(self) -> float:
        return max(self.per_setting_deviations.values(), default=0.0)

    @property
    def gap(self) -> float:
        return self.m_hat - self.lower_bound

    def as_dict(self) -> dict:
        return {
            "m_hat": self.m_hat,
            "lower_bound": self.lower_bound,
            "gap": self.gap,
            "per_setting_deviations": [
                {"x": x, "y": y, "i": i, "j": j, "deviation": d}
                for (x, y, i, j), d in self.per_setting_deviations.items()
            ],
            "model": self.model.as_dict(),
        }


def _weights(raw: np.ndarray) -> np.ndarray:
    """The latent weights ``raw`` normalized, uniform if they sum to 0."""
    total = float(raw.sum())
    return raw / total if total > 0.0 else np.full(raw.size, 1.0 / raw.size)


def _objective(theta: np.ndarray, target: np.ndarray) -> float:
    pred = _predicted_table(_weights(theta[4]), theta[:2], theta[2:4])
    return float(np.max(np.abs(pred - target)))


def _pattern_search(theta: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    """Compass search of `_objective` with coordinate moves clamped to [0, 1].

    A sweep tries +-step on every entry of ``theta`` in C order, keeping
    strict improvements; the step starts at 0.1 and halves after a sweep
    with no improvement, until it drops below 1e-6 or 2000 sweeps have run.
    The objective never increases, so a start that is already optimal is
    returned unchanged.
    """
    theta = theta.copy()
    flat = theta.reshape(-1)  # a view: moving an entry moves theta
    value = _objective(theta, target)
    step = 0.1
    sweeps = 0
    while step >= 1e-6 and sweeps < 2000:
        sweeps += 1
        improved = False
        for k in range(flat.size):
            old = flat[k]
            for delta in (step, -step):
                cand = min(1.0, max(0.0, old + delta))
                if cand == old:
                    continue
                flat[k] = cand
                candidate_value = _objective(theta, target)
                if candidate_value < value:
                    value = candidate_value
                    improved = True
                    break
                flat[k] = old
        if not improved:
            step *= 0.5
    return theta, value


#: Responses of the 16 deterministic strategies, shape (4, 16): column k
#: holds strategy k's P[X = +1 | a_i] and P[Y = -1 | b_j], each 0 or 1.
# Built in Python: a numpy integer cast here adds ~0.25 MB RSS to every command.
_STRATEGIES = np.array([[float(a == answer) for a in row] for row, answer
                        in zip(STRATEGY_ANSWERS.T.tolist(), (1, 1, -1, -1))])
_STRATEGIES.flags.writeable = False


def _place(size: int, model: np.ndarray) -> np.ndarray:
    """Search array of shape (5, ``size``): the points of ``model`` first, then padding.

    A latent model is a (5, k) array whose rows are p0, p1 (P[X = +1 | a_i]),
    q0, q1 (P[Y = -1 | b_j]) and the weights, one column per point.  The
    padding points answer 0.5 and carry weight 0, so the padded model
    predicts exactly the same table.
    """
    placed = np.pad(model, ((0, 0), (0, size - model.shape[1])), constant_values=0.5)
    placed[4, model.shape[1]:] = 0.0
    return placed


def _two_point_start(size: int, target: np.ndarray, i: int) -> np.ndarray:
    """Two latent points that reproduce both columns with A-setting i exactly.

    Point 1: X always +1 and Y answers -1 with probability c_j; point 2 is
    the mirror image.  Choosing c_j = P[x=+1, y=-1 | a_i, b_j] * 2 matches
    every cell of columns (i, 0) and (i, 1).
    """
    c0, c1 = (min(1.0, max(0.0, 2.0 * target[2, i, j])) for j in (0, 1))
    return _place(size, np.array([[1.0, 0.0], [1.0, 0.0], [c0, 1.0 - c0], [c1, 1.0 - c1],
                                  [0.5, 0.5]]))


#: The 8 CHSH sign patterns over E[i, j]: an odd number of -1.
_CHSH_SIGNS = np.concatenate((1.0 - 2.0 * np.eye(4), 2.0 * np.eye(4) - 1.0)).reshape(8, 2, 2)
#: Row a is the answer pattern (+1, (-1)^a) over two settings.
_H2 = np.array([[1.0, 1.0], [1.0, -1.0]])
_CHSH_SIGNS.flags.writeable = _H2.flags.writeable = False


def _local_optimum(target: np.ndarray) -> tuple[np.ndarray, float]:
    """Best local model of a singlet table in closed form: (model, m).

    Every marginal of the target is 1/2, so each cell is (1 + xy E_ij) / 4.
    By Fine's theorem the local correlators are the convex hull of the
    deterministic ones +-h_ab, h_ab[i, j] = H2[a, i] H2[b, j], whose facets
    are the 8 CHSH inequalities.  The CHSH sum of the cells moves by at most
    16 m, so with S the largest CHSH value no local model beats
    m = max(0, (S - 2) / 16), and E' = E - 4 m s (s that pattern) is local:
    E' = sum c_ab h_ab with c = H2 E' H2 / 4 and sum |c| <= 1.  For each b
    one latent point, with B answering (+1, (-1)^b) and A's mean answer
    sum_a c_ab H2[a] / w_b, realizes weight w_b = sum_a |c_ab|; it and its
    mirror image (every answer flipped) carry w_b / 2 each, so every
    marginal stays 1/2.  A point answering 1/2 everywhere, the fair coin, takes
    the weight left over: at most 5 points (4 when S > 2 or after `_fold`), m from the target.
    The model is a (5, k) array of rows p0, p1, q0, q1 and weights, as in `_place`.
    """
    e = target[0] - target[1] - target[2] + target[3]
    chsh = (_CHSH_SIGNS * e).sum(axis=(1, 2))
    best = int(np.argmax(chsh))
    m = max(0.0, (float(chsh[best]) - 2.0) / 16.0)
    c = _H2 @ (e - 4.0 * m * _CHSH_SIGNS[best]) @ _H2 / 4.0
    weight = np.abs(c).sum(axis=0)
    pairs = np.flatnonzero(weight > 0.0)
    mean = (_H2 @ c)[:, pairs] / weight[pairs]
    q = (1.0 - _H2[:, pairs]) / 2.0
    model = np.concatenate((np.concatenate((1.0 + mean, 1.0 - mean), axis=1) / 2.0,
                            np.concatenate((q, 1.0 - q), axis=1),
                            np.tile(weight[pairs] / 2.0, 2)[None]))
    rest = 1.0 - float(weight.sum())
    if rest > 1e-15:
        model = np.pad(model, ((0, 0), (0, 1)), constant_values=0.5)
        model[4, -1] = rest
    return model, m


def _fold(model: np.ndarray) -> np.ndarray:
    """`_local_optimum`'s ``model`` less its last point, the fair coin: with W the other
    points' weight, B answers (1 -+ W H2[b]) / 2 and each point carries w_b / (2W)."""
    pairs = model[:, :-1]
    total = float(pairs[4].sum())
    return np.vstack((pairs[:2], 0.5 + (pairs[2:4] - 0.5) * total, pairs[4:] / total))


def _strategy_weights(model: np.ndarray) -> np.ndarray:
    """Weight sum over lambda of rho * P(answers of strategy k | lambda), shape (16,)."""
    answers = np.where(_STRATEGIES[:, :, None] == 1.0, model[:4, None], 1.0 - model[:4, None])
    return (answers[:2].prod(axis=0) * answers[2:].prod(axis=0) * model[4]).sum(axis=-1)


def _heaviest(size: int, model: np.ndarray) -> np.ndarray:
    """Search start from the ``size`` heaviest points of ``model``, renormalized.
    Of equal weights the later column comes first; a stable sort keeps that on any CPU."""
    kept = model[:, np.argsort(model[4], kind="stable")[::-1][:size]]
    kept[4] /= float(kept[4].sum())
    return _place(size, kept)


def m_separability_search(
    angles: tuple[DetectorAngle, DetectorAngle, DetectorAngle, DetectorAngle],
    grid_size: int = 16,
    restarts: int = 8,
    seed: int = 0,
) -> SeparabilityResult:
    """Search for a hidden-variable model minimizing the worst cell deviation.

    The target is the conditional table p(x, y | a_i, b_j) at the given
    orientations (a0, a1, b0, b1): the `chsh_measure` table under uniform
    settings, times 4, and all 16 of its cells are compared.  Scaling by 1/4
    and back is exact unless a cell is subnormal.  `_local_optimum` gives
    the best local model in closed form, on at most 5 latent points (4 when
    the table violates a CHSH inequality), and its worst deviation m.

    * Exact path: when ``grid_size`` is at least the model's size, or one short
      and the fair coin is folded in (`_fold`; so on every grid >= 4), that model is
      returned, padded with points of weight 0.  ``restarts`` and ``seed`` are ignored.
    * One latent point: the fair coin (every response 1/2); no search runs
      and ``restarts`` and ``seed`` are ignored.  With a, b the point's mean
      answers (a_i = 2p_i - 1, b_j = 1 - 2q_j), a cell's deviation is
      |x a_i + y b_j + xy (a_i b_j - E_ij)| / 4.  Its larger value over
      (x, y) and (-x, -y) is at least (|a_i| + |b_j| + |a_i b_j - E_ij|) / 4
      >= |E_ij| / 4, because |a| + |b| - |a||b| >= 0; the fair coin reaches
      |E_ij| / 4 in every cell.
    * Search path: on 2 or 3 points, below the folded model's size, the
      problem is non-convex.  Compass search runs from the fair coin, the
      unfolded model's heaviest points, its heaviest deterministic strategies,
      two structured two-point starts and ``restarts`` seeded random starts.

    The result's ``lower_bound`` is m, a certificate that no local model on
    any grid does better; ``gap`` is how far ``m_hat`` sits above it (within
    rounding of 0 on the exact path).
    """
    grid_size, restarts = _integer("grid_size", grid_size), _integer("restarts", restarts)
    seed = _seed(seed)
    if grid_size < 1:
        raise ValueError("grid_size must be at least 1")
    if restarts < 0:
        raise ValueError("restarts must be nonnegative")
    target = chsh_measure(angles).table * 4.0
    optimum, lower_bound = _local_optimum(target)
    best = np.array([[0.5]] * 4 + [[1.0]])  # the fair coin: the best one-point model
    if grid_size >= optimum.shape[1]:
        best = _place(grid_size, optimum)
    elif grid_size == optimum.shape[1] - 1 and grid_size % 2 == 0:  # an odd size has the coin
        best = _place(grid_size, _fold(optimum))
    elif grid_size > 1:
        strategies = np.vstack((_STRATEGIES, _strategy_weights(optimum)))
        starts = [
            _place(grid_size, best),
            _heaviest(grid_size, optimum),
            _heaviest(grid_size, strategies),
            *(_two_point_start(grid_size, target, i) for i in (0, 1)),
            *(np.random.default_rng(np.random.SeedSequence((seed, grid_size, k))).random(
                (5, grid_size)) for k in range(restarts)),
        ]
        # the first start reaching the lowest value wins
        best, _ = min((_pattern_search(t, target) for t in starts), key=lambda r: r[1])

    p, q, rho = best[:2], best[2:4], _weights(best[4])
    model = LHVModel(lambda_grid=(np.arange(grid_size) + 0.5) / grid_size, rho=rho,
                     p_response=p, q_response=q)
    pred = _predicted_table(rho, p, q)
    deviations = {
        (x, y, i, j): float(abs(pred[row, i, j] - target[row, i, j]))
        for row, (x, y) in enumerate(ROW_ORDER)
        for (i, j) in COLUMN_ORDER
    }
    return SeparabilityResult(
        model=model, per_setting_deviations=deviations, lower_bound=lower_bound
    )
