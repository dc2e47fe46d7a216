"""Quantum model of paired spin measurements on the two-particle singlet state.

A detector oriented at angle ``a`` is represented by the symmetric 2x2
operator

    F(a) = [[cos 2a, sin 2a],
            [sin 2a, -cos 2a]]

whose +1 eigenvector is f(a) = (cos a, sin a) and whose -1 eigenvector is
the perpendicular f(a + pi/2) = (-sin a, cos a).  Orientations that differ
by pi give the same operator, so angles live on [0, pi).

Measuring both halves of the singlet state (e01 - e10)/sqrt(2) with
detectors F(a) and F(b) produces outcome pairs (x, y) in {-1, +1}^2 with
probabilities

    p(+1, +1 | a, b) = p(-1, -1 | a, b) = sin^2(a - b) / 2,
    p(-1, +1 | a, b) = p(+1, -1 | a, b) = cos^2(a - b) / 2,

hence the correlation E[XY | a, b] = -cos(2(a - b)).

Two independent code paths produce these numbers: the closed forms above
(`conditional_joint_probs`, `correlation`) and an explicit expansion of the
state in the product eigenbasis of the two detector operators
(`spectral_coefficients`).  The test suite cross-checks them.
"""

from __future__ import annotations

import math
from operator import attrgetter

import numpy as np

__all__ = [
    "DetectorAngle",
    "DetectorOperator",
    "SingletState",
    "SpectralCoefficients",
    "TSIRELSON_ANGLES",
    "conditional_joint_probs",
    "correlation",
    "detector_operator",
    "singlet_state",
    "spectral_coefficients",
]

_ATOL = 1e-12


class _Record:
    """Base of the package's immutable records, built without compiling code.

    A subclass's fields are its own annotated names, in order (``_fields``;
    ``_values()`` gives their values); unannotated class attributes are not
    fields.  The constructor takes every field,
    by position or keyword, then calls ``__post_init__``, which may replace
    a value with ``object.__setattr__``.  Setting or deleting an attribute
    afterwards raises ``dataclasses.FrozenInstanceError``.  The repr is
    ``Name(field=value!r, ...)``, and records compare and hash by their
    field tuples, as frozen dataclasses do; a ``class X(_Record, eq=False)``
    compares and hashes by identity instead.
    """

    def __init_subclass__(cls, eq: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = cls._fields = cls.__match_args__ = tuple(cls.__annotations__)
        get = attrgetter(*names)  # one field's value, or a tuple of two or more
        cls._values = (lambda self: (get(self),)) if len(names) == 1 else (lambda self: get(self))
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        try:  # the fields after the positional arguments, by name
            args += tuple(map(kwargs.pop, names[len(args):])) if kwargs else ()
        except KeyError:
            args = ()
        if kwargs or len(args) != len(names):  # missing, repeated, unknown or too many
            raise TypeError(f"{type(self).__name__}() takes each of {', '.join(names)} once, "
                            "by position or keyword")
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: object = None) -> None:
        from dataclasses import FrozenInstanceError  # on use: numpy alone does not load it

        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


def _canonical_radians(value: float) -> float:
    """Reduce an orientation to [0, pi); a and a + k*pi are the same detector."""
    v = math.fmod(float(value), math.pi) + 0.0  # + 0.0: -0.0 is stored as 0.0
    if v < 0.0:
        v += math.pi
    if v >= math.pi:  # fmod is exact, but pi plus a tiny negative remainder rounds to pi
        v -= math.pi
    return v


class DetectorAngle(_Record):
    """Detector orientation in radians, canonicalized to [0, pi); -0 and -k*pi become +0."""

    radians: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.radians):
            raise ValueError(f"detector angle must be finite, got {self.radians!r}")
        object.__setattr__(self, "radians", _canonical_radians(self.radians))

    def __float__(self) -> float:
        return self.radians


#: Detector orientations (a0, a1, b0, b1) that maximize the CHSH combination.
TSIRELSON_ANGLES: tuple[DetectorAngle, DetectorAngle, DetectorAngle, DetectorAngle] = (
    DetectorAngle(0.0),
    DetectorAngle(math.pi / 4),
    DetectorAngle(5 * math.pi / 8),
    DetectorAngle(7 * math.pi / 8),
)


class DetectorOperator(_Record, eq=False):
    """Spin observable for one detector: eigenvalues +1 and -1."""

    angle: DetectorAngle
    matrix: np.ndarray
    plus_eigenvector: np.ndarray
    minus_eigenvector: np.ndarray

    def eigenvector(self, outcome: int) -> np.ndarray:
        if outcome == 1:
            return self.plus_eigenvector
        if outcome == -1:
            return self.minus_eigenvector
        raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")


def detector_operator(angle: DetectorAngle) -> DetectorOperator:
    """Build F(a) together with its orthonormal +1/-1 eigenvectors."""
    a = angle.radians
    matrix = np.array(
        [
            [math.cos(2 * a), math.sin(2 * a)],
            [math.sin(2 * a), -math.cos(2 * a)],
        ]
    )
    plus = np.array([math.cos(a), math.sin(a)])
    minus = np.array([-math.sin(a), math.cos(a)])
    return DetectorOperator(angle=angle, matrix=matrix, plus_eigenvector=plus, minus_eigenvector=minus)


class SingletState(_Record, eq=False):
    """Unit vector in C^2 (x) C^2, antisymmetric under swapping the factors.

    ``amplitudes`` is indexed by the product basis (e00, e01, e10, e11).
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=float)
        if amp.shape != (4,):
            raise ValueError(f"expected 4 amplitudes, got shape {amp.shape}")
        if abs(float(amp @ amp) - 1.0) > _ATOL:
            raise ValueError("state vector must have unit norm")
        # swap of the tensor factors maps (a00, a01, a10, a11) to (a00, a10, a01, a11)
        swapped = amp[[0, 2, 1, 3]]
        if np.max(np.abs(swapped + amp)) > _ATOL:
            raise ValueError("state vector must be antisymmetric under factor swap")
        object.__setattr__(self, "amplitudes", amp)


def singlet_state() -> SingletState:
    """The spin singlet (e01 - e10)/sqrt(2)."""
    s = 1.0 / math.sqrt(2.0)
    return SingletState(amplitudes=np.array([0.0, s, -s, 0.0]))


class SpectralCoefficients(_Record):
    """Expansion of the singlet in the product eigenbasis of F(a) (x) F(b).

    ``psi[(x, y)]`` is the coefficient on the eigenvector with joint outcome
    (x, y); its square is the Born probability of that outcome pair.
    """

    angle_a: DetectorAngle
    angle_b: DetectorAngle
    psi: dict[tuple[int, int], float]

    def __post_init__(self) -> None:
        keys = set(self.psi)
        if keys != {(1, 1), (-1, 1), (1, -1), (-1, -1)}:
            raise ValueError(f"unexpected outcome pairs {sorted(keys)}")
        total = math.fsum(c * c for c in self.psi.values())
        if abs(total - 1.0) > _ATOL:
            raise ValueError(f"squared coefficients must sum to 1, got {total!r}")

    def probability(self, x: int, y: int) -> float:
        return self.psi[(x, y)] ** 2


def spectral_coefficients(angle_a: DetectorAngle, angle_b: DetectorAngle) -> SpectralCoefficients:
    """Expand the singlet over the joint eigenvectors f_x(a) (x) f_y(b).

    Independent of the closed forms in `conditional_joint_probs`: the
    coefficients come from explicit inner products in the product basis.
    """
    state = singlet_state().amplitudes
    op_a = detector_operator(angle_a)
    op_b = detector_operator(angle_b)
    psi = {
        (x, y): float(np.kron(op_a.eigenvector(x), op_b.eigenvector(y)) @ state)
        for x in (1, -1)
        for y in (1, -1)
    }
    return SpectralCoefficients(angle_a=angle_a, angle_b=angle_b, psi=psi)


def conditional_joint_probs(
    angle_a: DetectorAngle, angle_b: DetectorAngle
) -> dict[tuple[int, int], float]:
    """Born probabilities p(x, y | a, b) for one run at settings (a, b)."""
    delta = angle_a.radians - angle_b.radians
    same = 0.5 * math.sin(delta) ** 2
    opposite = 0.5 * math.cos(delta) ** 2
    return {(1, 1): same, (-1, 1): opposite, (1, -1): opposite, (-1, -1): same}


def correlation(angle_a: DetectorAngle, angle_b: DetectorAngle) -> float:
    """E[XY | a, b]: the expected outcome product at fixed settings.

    Equals sin^2(a-b) - cos^2(a-b) = -cos(2(a-b)).
    """
    probs = conditional_joint_probs(angle_a, angle_b)
    return math.fsum(x * y * p for (x, y), p in probs.items())
