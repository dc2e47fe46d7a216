"""Hidden-variable analysis of the four-setting experiment.

Four related questions about the measured probability table:

* `no_signaling_report`: does either detector's outcome distribution depend
  on the *other* detector's setting?  (For the quantum table it never does.)
* `factorizability_fit`: how close is the table to a product of independent
  per-detector Bernoulli outcomes, one parameter per orientation?
* `fourier_witness_check`: a quadrature demonstration that no response
  function bounded in [0, 1] can reproduce the singlet correlation exactly;
  the required first-harmonic amplitude works out to sqrt 2 > 1.
* `m_separability_search`: numerical search for a finite hidden-variable
  model whose predictions stay within m of the table, minimizing m.

The hidden-variable models here (`LHVModel`) are local: a latent value
lambda is drawn from a finite distribution, then each detector answers
independently given lambda and its own setting.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy.optimize import linprog

from .probspace import (
    COLUMN_ORDER, ROW_ORDER, STRATEGY_ANSWERS, JointMeasure, _integer, _seed, _setting_pair,
    chsh_measure,
)
# `conditional_joint_probs` is not called here, `chsh_measure` is.  It stays
# importable as bellmodel.lhv.conditional_joint_probs, a name only bench/layers.py looks up.
from .singlet import _ATOL, DetectorAngle, conditional_joint_probs  # noqa: F401

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


@dataclass(frozen=True, eq=False)
class NoSignalingReport:
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


@dataclass(frozen=True)
class ProductFit:
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
        return asdict(self)


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


def factorizability_fit(
    measure: JointMeasure, grid_points: int = 21, restarts: int = 5
) -> ProductFit:
    """Least-squares fit of a Bernoulli-product table to the measure.

    With one detector's parameters fixed, the other's best reply is exact
    (`_best_response`).  A coarse scan pairs each of ``grid_points``^2 values
    of B's (v0, v1) with A's exact reply; the ``restarts`` best of these then
    alternate both detectors' exact replies while the residual strictly
    falls, and the lowest wins.  Each reply minimizes its block exactly, so
    no start ends worse than it began.  Requires uniform settings: the
    product form fixes every setting-pair probability at 1/4.
    """
    grid_points, restarts = _integer("grid_points", grid_points), _integer("restarts", restarts)
    if not measure.settings.is_uniform():
        raise ValueError("factorizability fit requires uniform settings (each pair 1/4)")
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    target = measure.table
    mirrored = target[[0, 2, 1, 3]].transpose(0, 2, 1)

    axis = np.linspace(0.0, 1.0, grid_points)
    v = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    grid = np.concatenate((_best_response(target, v), v), axis=-1)
    coarse = _product_residual(grid, target)
    k = min(restarts, len(coarse))
    starts = np.argpartition(coarse, k - 1)[:k]
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


@dataclass(frozen=True)
class FourierWitnessReport:
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
        return {**asdict(self), "contradiction": self.contradiction}


def fourier_witness_check(grid_size: int = 10000) -> FourierWitnessReport:
    """Evaluate the witness integrals by midpoint quadrature on [0, 1].

    ``grid_size`` is the number of midpoint nodes (at least 100).  The
    coefficient function is c(lambda) = sqrt(pi/2) * exp(2*pi*i*lambda).
    """
    grid_size = _integer("grid_size", grid_size)
    if grid_size < 100:
        raise ValueError("grid_size must be at least 100")
    lam = (np.arange(grid_size) + 0.5) / grid_size
    c = math.sqrt(math.pi / 2.0) * np.exp(2j * math.pi * lam)
    w = 1.0 / grid_size

    first = abs(complex(np.sum(c) * w))
    second = abs(complex(np.sum(c * c) * w))
    power = float(np.sum(np.abs(c) ** 2) * w)
    amplitude = float(np.max(2.0 * np.abs(c) / math.sqrt(math.pi)))
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


@dataclass(frozen=True, eq=False)
class LHVModel:
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
        grid = np.asarray(self.lambda_grid, dtype=float)
        rho = np.asarray(self.rho, dtype=float)
        p = np.asarray(self.p_response, dtype=float)
        q = np.asarray(self.q_response, dtype=float)
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
        object.__setattr__(self, "lambda_grid", grid)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "p_response", p)
        object.__setattr__(self, "q_response", q)

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
        names = [field.name for field in fields(cls)]
        missing = [name for name in names if name not in doc]
        if missing:
            raise ValueError(f"model document is missing {', '.join(missing)}")
        try:
            arrays = {name: np.array(doc[name], dtype=float) for name in names}
        except TypeError as exc:  # a mapping or another object where numbers belong
            raise ValueError(f"model document fields must hold numbers: {exc}") from None
        return cls(**arrays)

    @classmethod
    def from_json(cls, text: str) -> "LHVModel":
        return cls.from_dict(json.loads(text))


def _predicted_table(rho: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Predicted conditional probabilities, shape (..., 4 rows, 2, 2) = (..., row, i, j).

    A ``rho`` of shape (..., 1, size), or ``p`` and ``q`` of shape
    (..., 2, size), gives one table per leading index.
    """
    pr = p * rho
    mr = (1.0 - p) * rho
    qt = np.swapaxes(q, -1, -2)
    nt = 1.0 - qt
    pred = np.empty(pr.shape[:-2] + (4, 2, 2))
    pred[..., 0, :, :] = pr @ nt  # (+1, +1): X answers +1, Y does not answer -1
    pred[..., 1, :, :] = mr @ nt  # (-1, +1)
    pred[..., 2, :, :] = pr @ qt  # (+1, -1)
    pred[..., 3, :, :] = mr @ qt  # (-1, -1)
    return pred


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


@dataclass(frozen=True, eq=False)
class SeparabilityResult:
    """Outcome of the m-separability search.

    ``m_hat`` (derived) is the largest absolute deviation between the model's
    predictions and the target over the 16 cells, i.e. the max of
    ``per_setting_deviations``.  ``lower_bound`` is the mixture LP's dual
    objective: no local model, on any latent grid, has a worst deviation
    below it.  ``gap`` (derived) is ``m_hat - lower_bound``.  Both are None
    when the LP solver failed.
    """

    model: LHVModel
    per_setting_deviations: dict[tuple[int, int, int, int], float]
    lower_bound: float | None = None

    @property
    def m_hat(self) -> float:
        return max(self.per_setting_deviations.values(), default=0.0)

    @property
    def gap(self) -> float | None:
        return None if self.lower_bound is None else self.m_hat - self.lower_bound

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


def _pack(p: np.ndarray, q: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Search vector theta = (p, q, raw weights) on ``raw.size`` latent points."""
    return np.concatenate((p.ravel(), q.ravel(), raw))


def _unpack(theta: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of `_pack`, with the weights normalized (uniform if they sum to 0)."""
    p = theta[0 : 2 * size].reshape(2, size)
    q = theta[2 * size : 4 * size].reshape(2, size)
    raw = theta[4 * size :]
    total = float(raw.sum())
    rho = raw / total if total > 0.0 else np.full(size, 1.0 / size)
    return p, q, rho


def _objective(theta: np.ndarray, size: int, target: np.ndarray) -> float:
    p, q, rho = _unpack(theta, size)
    return float(np.max(np.abs(_predicted_table(rho, p, q) - target)))


def _pattern_search(theta: np.ndarray, fn) -> tuple[np.ndarray, float]:
    """Compass search with coordinate moves clamped to [0, 1].

    A sweep tries +-step on every coordinate, keeping strict improvements;
    the step starts at 0.1 and halves after a sweep with no improvement,
    until it drops below 1e-6 or 2000 sweeps have run.  The objective never
    increases, so a start that is already optimal is returned unchanged.
    """
    theta = theta.copy()
    value = fn(theta)
    step = 0.1
    sweeps = 0
    while step >= 1e-6 and sweeps < 2000:
        sweeps += 1
        improved = False
        for k in range(len(theta)):
            old = theta[k]
            for delta in (step, -step):
                cand = min(1.0, max(0.0, old + delta))
                if cand == old:
                    continue
                theta[k] = cand
                candidate_value = fn(theta)
                if candidate_value < value:
                    value = candidate_value
                    improved = True
                    break
                theta[k] = old
        if not improved:
            step *= 0.5
    return theta, value


#: Responses of the 16 deterministic strategies, shape (2, 16): column k
#: holds strategy k's P[X = +1 | a_i] and P[Y = -1 | b_j], each 0 or 1.
# Built in Python: a numpy integer cast here adds ~0.25 MB RSS to every command.
_STRATEGY_P = np.array([[float(a == 1) for a in x] for x in STRATEGY_ANSWERS.T[:2].tolist()])
_STRATEGY_Q = np.array([[float(a == -1) for a in y] for y in STRATEGY_ANSWERS.T[2:].tolist()])
_STRATEGY_P.flags.writeable = False
_STRATEGY_Q.flags.writeable = False


def _place(size: int, p: np.ndarray, q: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Search vector with ``weights.size`` latent points first, padded to ``size``.

    ``p`` and ``q`` hold the responses of those points, shape (2, k).  The
    padding points answer 0.5 and carry weight 0, so the padded model
    predicts exactly the same table.
    """
    extra = size - weights.size
    return _pack(
        np.pad(p, ((0, 0), (0, extra)), constant_values=0.5),
        np.pad(q, ((0, 0), (0, extra)), constant_values=0.5),
        np.pad(weights, (0, extra)),
    )


def _product_start(size: int, target: np.ndarray) -> np.ndarray:
    """Single latent point carrying the target's per-detector marginals.

    Exact whenever the target itself factorizes into independent
    per-orientation Bernoulli outcomes.
    """
    p = target[0, :, 0] + target[2, :, 0]  # P[X=+1 | a_i, b_0]
    q = target[2, 0, :] + target[3, 0, :]  # P[Y=-1 | a_0, b_j]
    return _place(size, p[:, None], q[:, None], np.ones(1))


def _two_point_start(size: int, target: np.ndarray, i: int) -> np.ndarray:
    """Two latent points that reproduce both columns with A-setting i exactly.

    Point 1: X always +1 and Y answers -1 with probability c_j; point 2 is
    the mirror image.  Choosing c_j = P[x=+1, y=-1 | a_i, b_j] * 2 matches
    every cell of columns (i, 0) and (i, 1).
    """
    c = np.array([min(1.0, max(0.0, 2.0 * target[2, i, j])) for j in (0, 1)])
    p = np.array([[1.0, 0.0], [1.0, 0.0]])
    return _place(size, p, np.stack((c, 1.0 - c), axis=1), np.full(2, 0.5))


def _deterministic_tables() -> np.ndarray:
    """Predicted tables of all 16 deterministic strategies, shape (16, 4, 2, 2).

    Strategy k gives the answers (x0, x1, y0, y1) of row k of
    `STRATEGY_ANSWERS`.  Every local model's prediction is a convex mixture
    of these tables.
    """
    return _predicted_table(np.eye(16)[:, None, :], _STRATEGY_P, _STRATEGY_Q)


def _solve_mixture_lp(target: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Mixture weights over the 16 deterministic strategies minimizing the worst deviation.

    Minimizing the largest cell deviation over such mixtures is a
    linear program, and its optimum is the true minimum over *all* local
    models: every local model predicts a convex mixture of the
    deterministic tables.  Returns the weights and the dual objective, a
    lower bound on that minimum, or None if the solver fails.
    """
    columns = _deterministic_tables().reshape(16, 16).T  # one row per cell
    values = target.ravel()
    cost = np.zeros(17)
    cost[16] = 1.0
    # interleaved pairs: table - m <= target and -table - m <= -target
    a_ub = np.full((2 * len(values), 17), -1.0)
    a_ub[:, :16] = np.stack((columns, -columns), axis=1).reshape(-1, 16)
    b_ub = np.stack((values, -values), axis=1).ravel()
    a_eq = np.zeros((1, 17))
    a_eq[0, :16] = 1.0
    out = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0.0, 1.0)] * 16 + [(0.0, None)],
        method="highs",
    )
    if not out.success:
        return None
    # Dual objective from the marginals (sensitivities to each right-hand side
    # and bound); by weak duality no mixture does better.  Lower bounds are 0
    # and the deviation has no upper bound, so only the weights' bounds of 1 count.
    lower_bound = float(
        b_ub @ out.ineqlin.marginals + out.eqlin.marginals[0] + out.upper.marginals[:16].sum()
    )
    return np.clip(out.x[:16], 0.0, 1.0), lower_bound


def _mixture_start(size: int, weights: np.ndarray) -> np.ndarray:
    """Pack LP mixture weights as a search start on ``size`` latent points.

    With at least as many latent points as the support of the mixture the
    start already achieves the LP optimum; smaller grids keep the heaviest
    strategies, renormalized.
    """
    keep = np.argsort(weights)[::-1][:size]
    kept = weights[keep]
    return _place(size, _STRATEGY_P[:, keep], _STRATEGY_Q[:, keep], kept / float(kept.sum()))


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
    and back is exact unless a cell is subnormal.  Every local model predicts
    a convex mixture of the 16 deterministic strategies (Fine's theorem), so a
    linear program over the mixture weights gives the exact optimum over all
    local models.  Call the number of strategies with nonzero weight in its
    solution the *support*.

    * Exact path: when ``grid_size`` is at least the support, the LP mixture
      placed on ``grid_size`` latent points (unused points carry weight 0)
      is returned as is, provided its worst deviation is within 1e-12 of
      the certificate below.  ``restarts`` and ``seed`` are then ignored.
    * Search path: below the support the problem is non-convex.  This path
      also runs if the LP solver fails, or if its vertex misses the
      certificate by more than 1e-12 (HiGHS's feasibility tolerance is 1e-7,
      which can matter on nearly degenerate tables).  A coarse-to-fine
      cascade over latent grid sizes (``grid_size`` halved with floor
      division down to 1, searched from 1 up: 12 gives 1, 3, 6, 12) runs
      compass search at each level from structured starts, ``restarts``
      seeded random starts, and the previous level's best embedded with
      zero-weight padding, so no level gives a worse ``m_hat`` than the
      level below it.

    The result's ``lower_bound`` is the LP's dual objective, a certificate
    that no local model on any grid does better; ``gap`` is how far
    ``m_hat`` sits above it (at most 1e-12 on the exact path).
    """
    grid_size, restarts = _integer("grid_size", grid_size), _integer("restarts", restarts)
    seed = _seed(seed)
    if grid_size < 1:
        raise ValueError("grid_size must be at least 1")
    if restarts < 0:
        raise ValueError("restarts must be nonnegative")
    target = chsh_measure(angles).table * 4.0
    lp = _solve_mixture_lp(target)
    mixture_weights, lower_bound = lp if lp is not None else (None, None)
    # At or above the support the packed mixture is the optimum up to the
    # solver's tolerance.  It is returned without search when its worst
    # deviation meets the dual bound; otherwise the search polishes it.
    best_theta: np.ndarray | None = None
    if mixture_weights is not None and grid_size >= np.count_nonzero(mixture_weights):
        packed = _mixture_start(grid_size, mixture_weights)
        if _objective(packed, grid_size, target) <= lower_bound + _ATOL:
            best_theta = packed
    if best_theta is None:
        for size in [grid_size >> k for k in range(int(grid_size).bit_length())][::-1]:
            fn = lambda t: _objective(t, size, target)  # noqa: E731
            starts: list[np.ndarray] = []
            if best_theta is not None:
                starts.append(_place(size, *_unpack(best_theta, best_theta.shape[0] // 5)))
            if mixture_weights is not None:
                starts.append(_mixture_start(size, mixture_weights))
            starts.append(_product_start(size, target))
            starts.append(np.full(5 * size, 0.5))
            if size >= 2:
                starts.extend(_two_point_start(size, target, i) for i in (0, 1))
            for k in range(restarts):
                rng = np.random.default_rng(np.random.SeedSequence((seed, size, k)))
                starts.append(rng.random(5 * size))

            # the first start reaching the lowest value wins
            level_theta, _ = min((_pattern_search(t, fn) for t in starts), key=lambda r: r[1])
            # normalize the weight block so zero-padding at the next level is exact
            best_theta = _pack(*_unpack(level_theta, size))

    p, q, rho = _unpack(best_theta, grid_size)
    model = LHVModel(
        lambda_grid=(np.arange(grid_size) + 0.5) / grid_size,
        rho=rho,
        p_response=p,
        q_response=q,
    )
    pred = _predicted_table(rho, p, q)
    deviations = {
        (x, y, i, j): float(abs(pred[row, i, j] - target[row, i, j]))
        for row, (x, y) in enumerate(ROW_ORDER)
        for (i, j) in COLUMN_ORDER
    }
    return SeparabilityResult(
        model=model, per_setting_deviations=deviations, lower_bound=lower_bound
    )
