"""Per-qubit measurement settings and their Bloch-angle parameterization.

A dichotomic observable is a two-outcome (+1/-1) qubit measurement, fully
specified by its +1 eigenstate.  Measurement settings are one non-commuting
pair (U, D) of such observables per qubit, held as one (3, 2, 2) array of
plus-kets: qubit, U/D, component.  A pair is valid when the overlap
|<U+|D+>| lies strictly inside (0, 1), i.e. the two observables neither
commute nor coincide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import DimensionError, NormalizationError, WindowViolationError

#: tolerance for the open non-commutation window on |<U+|D+>|
WINDOW_TOL = 1e-9


class _Observable(NamedTuple):
    plus_ket: np.ndarray


class _Pair(NamedTuple):
    u: _Observable
    d: _Observable


@dataclass(frozen=True, eq=False)
class MeasurementSettings:
    """Three (U, D) plus-ket pairs, one per qubit, all inside the window.

    ``plus_kets`` (3, 2, 2) is stored normalized and phase-fixed (first
    non-negligible amplitude real >= 0); ``eigenkets`` (3, 2, 2, 2) adds the
    +/- axis, the minus-kets being the phase-fixed perpendiculars of the
    plus-kets.  Both arrays are read-only.  Raises ``NormalizationError``
    for a (near-)zero ket and ``WindowViolationError`` for the first qubit
    whose pair leaves the window.
    """

    plus_kets: np.ndarray
    eigenkets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        kets = np.array(self.plus_kets, dtype=complex)
        if kets.shape != (3, 2, 2):
            raise DimensionError(
                f"settings need three (U+, D+) single-qubit ket pairs, got shape {kets.shape}"
            )
        # the rounding of np.linalg.norm on one ket
        norms = np.sqrt(np.vecdot(kets.real, kets.real) + np.vecdot(kets.imag, kets.imag))
        if (norms < linalg.ZERO_NORM).any():
            raise NormalizationError("cannot normalize a zero vector")
        plus = linalg.fix_global_phase(kets / norms[..., None])
        overlaps = np.abs(np.vecdot(plus[:, 0], plus[:, 1]))
        outside = ~((overlaps > WINDOW_TOL) & (overlaps < 1.0 - WINDOW_TOL))
        if outside.any():
            j = int(outside.argmax())
            raise WindowViolationError(j, overlaps[j])
        eigenkets = np.empty((3, 2, 2, 2), dtype=complex)
        eigenkets[:, :, 0] = plus
        eigenkets[:, :, 1] = linalg.fix_global_phase(linalg.perp_qubit(plus))
        plus.setflags(write=False)
        eigenkets.setflags(write=False)
        object.__setattr__(self, "plus_kets", plus)
        object.__setattr__(self, "eigenkets", eigenkets)

    @property
    def pairs(self) -> tuple[_Pair, _Pair, _Pair]:
        """Read-only view ``pairs[j].u.plus_ket`` / ``pairs[j].d.plus_ket``.

        Only perfbench/run.py and perfbench/test_checks.py read settings this
        way; the view goes with the next change to the benchmark's kind,
        together with ``classify``'s ``audit`` keyword.
        """
        return tuple(_Pair(_Observable(u), _Observable(d)) for u, d in self.plus_kets)


def settings_from_plus_kets(kets) -> MeasurementSettings:
    """Settings from (3, 2, 2) unnormalized plus-kets: qubit, U/D, component."""
    return MeasurementSettings(kets)


# ---------------------------------------------------------------------------
# Bloch-angle parameterization
# ---------------------------------------------------------------------------
# A ket's angles are (theta, phi) on the last axis, with
# |k> = cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.


def kets_from_angles(x: np.ndarray) -> np.ndarray:
    """Kets (..., n, 2) of Bloch angles (..., n, 2)."""
    theta = x[..., 0]
    phi = x[..., 1]
    kets = np.empty(x.shape, dtype=complex)
    kets[..., 0] = np.cos(theta / 2.0)
    kets[..., 1] = np.exp(1j * phi) * np.sin(theta / 2.0)
    return kets


def random_angles(rng: np.random.Generator, kets: int) -> np.ndarray:
    """Angles (kets, 2) drawn uniformly over the Bloch sphere per ket.

    All thetas arccos(uniform(-1, 1)) are drawn first, then all phis
    uniform(0, 2 pi); the doubles are those of ``rng.uniform`` called that
    way, computed from one ``rng.random`` call.
    """
    x = rng.random((2, kets))
    x[0] = np.arccos(-1.0 + 2.0 * x[0])
    x[1] *= 2.0 * np.pi
    return x.T
