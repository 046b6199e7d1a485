"""Per-qubit measurement settings and their Bloch-angle parameterization.

A dichotomic observable is a two-outcome (+1/-1) qubit measurement, fully
specified by its +1 eigenstate.  Measurement settings are one non-commuting
pair (U, D) of such observables per qubit, held as one (3, 2, 2) array of
plus-kets: qubit, U/D, component.  A pair is valid when the overlap
|<U+|D+>| lies strictly inside (0, 1), i.e. the two observables neither
commute nor coincide.

The five terms of the Bell expression (``BELL_TERMS``) are measured in
five contexts, one observable kind per qubit each.  Settings store, once,
the conjugated product vectors of every outcome of every context; the
joint probabilities in ``bell`` are read from that table.

The kets are built one complex number at a time in Python arithmetic,
which on a dozen numbers costs less than numpy's per-call overhead.  The
same formulas on numpy arrays give the same kets only to rounding:
numpy's vectorized complex loops (AVX-512 on x86) round some products
differently from scalar arithmetic.  The tests keep the numpy construction
as their oracle; over the benchmark's witness decks the kets differ from it
by at most 7e-16, and no window, phase or witness decision differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import DimensionError, NormalizationError, WindowViolationError

#: tolerance for the open non-commutation window on |<U+|D+>|
WINDOW_TOL = 1e-9
#: the first amplitude above this sets a ket's global phase
PHASE_TINY = 1e-12

#: the five joint-probability terms, as ((kind, sign), ...) per qubit; each
#: term's kinds are its measurement context
BELL_TERMS: tuple[tuple[tuple[str, int], ...], ...] = (
    (("D", -1), ("D", -1), ("D", -1)),
    (("D", +1), ("U", +1), ("U", +1)),
    (("U", +1), ("D", +1), ("U", +1)),
    (("U", +1), ("U", +1), ("D", +1)),
    (("U", +1), ("U", +1), ("U", +1)),
)

#: each term's observable kinds (U 0, D 1), which make its context
_TERM_KINDS = np.array([[{"U": 0, "D": 1}[k] for k, _ in term] for term in BELL_TERMS])
#: each term's outcome index within its context (bit b=0 -> +1, b=1 -> -1
#: in qubit order)
TERM_OUTCOMES = np.array([[(1 - s) // 2 for _, s in term] for term in BELL_TERMS]) @ (4, 2, 1)
#: the three bits, in qubit order, of the eight outcomes or basis states
_BITS = np.array(list(product((0, 1), repeat=3)))
#: the flat eigenket-stack index (qubit, U/D, +/-, component) of each factor
#: of the product vectors: qubit, context, outcome, basis state
_FACTORS = np.ascontiguousarray(np.moveaxis(
    8 * np.arange(3) + 4 * _TERM_KINDS[:, None, None] + 2 * _BITS[:, None] + _BITS, -1, 0
))
#: each term's own row in the (40, 8) view of the product-vector table
_HARDY_ROWS = 8 * np.arange(len(BELL_TERMS)) + TERM_OUTCOMES


class _Observable(NamedTuple):
    plus_ket: np.ndarray


class _Pair(NamedTuple):
    u: _Observable
    d: _Observable


def _phase_fixed(a: complex, b: complex) -> tuple[complex, complex]:
    """The ket (a, b) rotated so its first amplitude above PHASE_TINY is real >= 0.

    A ket with no such amplitude is kept.  The phase is conj(lead) times
    1 / |lead|, the rounding of numpy's complex division by a real.
    """
    lead, size = a, abs(a)
    if not size > PHASE_TINY:
        lead, size = b, abs(b)
        if not size > PHASE_TINY:
            return a, b
    inv = 1.0 / size
    phase = complex(lead.real * inv, -lead.imag * inv)
    return a * phase, b * phase


def _amplitudes(kets) -> list[complex]:
    """The twelve amplitudes of plus-kets, in qubit, U/D, component order.

    The recipes' rows of Python numbers are read as they are, without a
    round trip through numpy.  Raises ``DimensionError`` for any shape but
    (3, 2, 2) or three rows of four.
    """
    if type(kets) in (list, tuple) and len(kets) == 3 and all(
        type(row) is tuple and len(row) == 4 for row in kets
    ):
        try:
            return [complex(z) for row in kets for z in row]
        except TypeError:
            pass  # rows of sequences, not numbers: rejected by their shape below
    arr = np.asarray(kets, dtype=complex)
    if arr.shape != (3, 2, 2):
        raise DimensionError(
            f"settings need three (U+, D+) single-qubit ket pairs, got shape {arr.shape}"
        )
    return arr.ravel().tolist()


@dataclass(frozen=True, eq=False)
class MeasurementSettings:
    """Three (U, D) plus-ket pairs, one per qubit, all inside the window.

    ``plus_kets`` is given as a (3, 2, 2) array-like or as three
    (u0, u1, d0, d1) rows of numbers, and stored as a (3, 2, 2) array,
    normalized and phase-fixed (first amplitude above ``PHASE_TINY`` real
    >= 0); ``eigenkets`` (3, 2, 2, 2) adds the +/- axis, the minus-kets
    being the phase-fixed perpendiculars of the plus-kets.  ``bras``
    (5, 8, 8) holds, per BELL_TERMS context and outcome, the conjugated
    product vector of the context's eigenkets, and ``hardy_bras`` (5, 8) the
    row of each term's own outcome.  All four arrays are read-only.  Raises
    ``DimensionError`` for any other shape, ``NormalizationError`` for a
    (near-)zero ket and ``WindowViolationError`` for the first qubit whose
    pair leaves the window.  The kets are built in Python arithmetic (see
    the module docstring for their rounding), the table from them with numpy.
    """

    plus_kets: np.ndarray
    eigenkets: np.ndarray = field(init=False, repr=False)
    bras: np.ndarray = field(init=False, repr=False)
    hardy_bras: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        flat = _amplitudes(self.plus_kets)
        pairs = list(zip(flat[0::2], flat[1::2]))
        norms = [linalg._norm(a, b) for a, b in pairs]
        if any(n < linalg.ZERO_NORM for n in norms):
            raise NormalizationError("cannot normalize a zero vector")
        # the rounding of numpy's complex division by a real: times 1 / n
        plus = [_phase_fixed(a * (1.0 / n), b * (1.0 / n)) for (a, b), n in zip(pairs, norms)]
        for j in range(3):
            (u0, u1), (d0, d1) = plus[2 * j], plus[2 * j + 1]
            overlap = abs(u0.conjugate() * d0 + u1.conjugate() * d1)
            if not WINDOW_TOL < overlap < 1.0 - WINDOW_TOL:
                raise WindowViolationError(j, overlap)
        stack = []  # qubit, U/D, +/-, component
        for p0, p1 in plus:
            stack += (p0, p1, *_phase_fixed(-p1.conjugate(), p0.conjugate()))
        eigenkets = np.array(stack)
        # k1 x k2 x k3 as (k1 * k2) * k3, conjugated
        k1, k2, k3 = eigenkets.take(_FACTORS)
        bras = k1 * k2
        bras *= k3
        np.conj(bras, out=bras)
        hardy_bras = bras.reshape(-1, 8).take(_HARDY_ROWS, axis=0)
        eigenkets = eigenkets.reshape(3, 2, 2, 2)
        for arr in (eigenkets, bras, hardy_bras):
            arr.setflags(write=False)
        object.__setattr__(self, "plus_kets", eigenkets[:, :, 0])
        object.__setattr__(self, "eigenkets", eigenkets)
        object.__setattr__(self, "bras", bras)
        object.__setattr__(self, "hardy_bras", hardy_bras)

    @property
    def pairs(self) -> tuple[_Pair, _Pair, _Pair]:
        """Read-only view ``pairs[j].u.plus_ket`` / ``pairs[j].d.plus_ket``.

        Only perfbench/run.py and perfbench/test_checks.py read settings this
        way; the view goes with the next change to the benchmark's kind,
        together with ``classify``'s ``audit`` keyword.
        """
        return tuple(_Pair(_Observable(u), _Observable(d)) for u, d in self.plus_kets)


def settings_from_plus_kets(kets) -> MeasurementSettings:
    """Settings from unnormalized plus-kets: a (3, 2, 2) array-like (qubit, U/D,
    component) or three (u0, u1, d0, d1) rows of numbers, one per qubit."""
    return MeasurementSettings(kets)


# ---------------------------------------------------------------------------
# Bloch-angle parameterization
# ---------------------------------------------------------------------------
# A ket's angles are (theta, phi) on the last axis, with
# |k> = cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>, and Bloch vector
# (sin theta cos phi, sin theta sin phi, cos theta).


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
