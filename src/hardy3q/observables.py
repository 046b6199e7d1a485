"""Dichotomic qubit observables and per-qubit measurement settings.

A dichotomic observable is a two-outcome (+1/-1) qubit measurement, fully
specified by its +1 eigenstate.  A measurement settings object holds one
non-commuting pair (U, D) of such observables per qubit; the pair is valid
when the overlap |<U+|D+>| lies strictly inside (0, 1), i.e. the two
observables neither commute nor coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError, WindowViolationError

#: tolerance for the open non-commutation window on |<U+|D+>|
WINDOW_TOL = 1e-9


@dataclass(frozen=True)
class DichotomicObservable:
    """A +1/-1 valued qubit observable given by its eigenstates."""

    plus_ket: np.ndarray
    minus_ket: np.ndarray

    def __post_init__(self):
        self.plus_ket.setflags(write=False)
        self.minus_ket.setflags(write=False)

    @classmethod
    def from_plus_ket(cls, plus) -> "DichotomicObservable":
        p = linalg.fix_global_phase(linalg.normalize(np.asarray(plus, dtype=complex)))
        if p.shape != (2,):
            raise DimensionError("observable eigenstates must be single-qubit kets")
        return cls(plus_ket=p, minus_ket=linalg.fix_global_phase(linalg.perp_qubit(p)))

    def eigenket(self, sign: int) -> np.ndarray:
        if sign not in (+1, -1):
            raise ValueError(f"outcome sign must be +1 or -1, got {sign!r}")
        return self.plus_ket if sign == +1 else self.minus_ket


@dataclass(frozen=True)
class ObservablePair:
    """The (U, D) observable pair measured on one qubit."""

    u: DichotomicObservable
    d: DichotomicObservable

    @property
    def overlap(self) -> float:
        return float(abs(np.vdot(self.u.plus_ket, self.d.plus_ket)))

    def window_ok(self) -> bool:
        return WINDOW_TOL < self.overlap < 1.0 - WINDOW_TOL


@dataclass(frozen=True)
class MeasurementSettings:
    """Three observable pairs, one per qubit, all inside the window."""

    pairs: tuple[ObservablePair, ObservablePair, ObservablePair]

    def __post_init__(self):
        if len(self.pairs) != 3:
            raise ValueError("exactly three observable pairs are required")
        for j, pair in enumerate(self.pairs):
            if not pair.window_ok():
                raise WindowViolationError(j, pair.overlap)


def observable_pair(alpha, beta, gamma, delta) -> ObservablePair:
    """Build and validate one (U, D) pair from unnormalized coefficients.

    U+ is proportional to alpha|0> + beta|1> and D+ to gamma|0> + delta|1>;
    normalization constants are absorbed.  Raises if either vector vanishes
    or the pair falls outside the open non-commutation window.
    """
    pair = ObservablePair(
        u=DichotomicObservable.from_plus_ket((alpha, beta)),
        d=DichotomicObservable.from_plus_ket((gamma, delta)),
    )
    if not pair.window_ok():
        raise WindowViolationError(0, pair.overlap)
    return pair


def settings_from_plus_kets(kets) -> MeasurementSettings:
    """Settings from three (u_plus, d_plus) ket pairs in qubit order."""
    if len(kets) != 3:
        raise ValueError("expected three (u_plus, d_plus) pairs")
    return MeasurementSettings(
        pairs=tuple(
            ObservablePair(
                u=DichotomicObservable.from_plus_ket(u),
                d=DichotomicObservable.from_plus_ket(d),
            )
            for u, d in kets
        )
    )


def settings_from_coefficient_rows(rows) -> MeasurementSettings:
    """Settings from three (alpha, beta, gamma, delta) coefficient rows."""
    return settings_from_plus_kets([((a, b), (g, d)) for a, b, g, d in rows])


# ---------------------------------------------------------------------------
# Bloch-angle parameterization
# ---------------------------------------------------------------------------
# Angle layout for a settings vector: (theta, phi) per ket in the order
# U1, D1, U2, D2, U3, D3, i.e. twelve reals total, with
# |k> = cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.

N_SETTINGS_ANGLES = 12


def bloch_from_ket(k) -> tuple[float, float]:
    """Angles of a normalized qubit ket, global phase removed."""
    arr = linalg.normalize(np.asarray(k, dtype=complex))
    if abs(arr[0]) > 1e-14:
        arr = arr * np.conj(arr[0] / abs(arr[0]))
    theta = 2.0 * np.arccos(np.clip(arr[0].real, -1.0, 1.0))
    phi = float(np.angle(arr[1])) % (2.0 * np.pi) if abs(arr[1]) > 1e-14 else 0.0
    return float(theta), phi


def kets_from_angles(x: np.ndarray) -> np.ndarray:
    """Fast path: (12,) angles -> (6, 2) plus-kets, order U1 D1 U2 D2 U3 D3."""
    theta = x[0::2]
    phi = x[1::2]
    kets = np.empty((6, 2), dtype=complex)
    kets[:, 0] = np.cos(theta / 2.0)
    kets[:, 1] = np.exp(1j * phi) * np.sin(theta / 2.0)
    return kets


def settings_from_angles(x) -> MeasurementSettings:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (N_SETTINGS_ANGLES,):
        raise ValueError(f"expected {N_SETTINGS_ANGLES} angles, got shape {arr.shape}")
    kets = kets_from_angles(arr)
    return settings_from_plus_kets(
        [(kets[0], kets[1]), (kets[2], kets[3]), (kets[4], kets[5])]
    )


def angles_from_settings(settings: MeasurementSettings) -> np.ndarray:
    out = np.empty(N_SETTINGS_ANGLES, dtype=float)
    for j, pair in enumerate(settings.pairs):
        out[4 * j : 4 * j + 2] = bloch_from_ket(pair.u.plus_ket)
        out[4 * j + 2 : 4 * j + 4] = bloch_from_ket(pair.d.plus_ket)
    return out


def random_angles(rng: np.random.Generator) -> np.ndarray:
    """Twelve angles drawn uniformly over the Bloch sphere per ket."""
    x = np.empty(N_SETTINGS_ANGLES, dtype=float)
    x[0::2] = np.arccos(rng.uniform(-1.0, 1.0, 6))
    x[1::2] = rng.uniform(0.0, 2.0 * np.pi, 6)
    return x
