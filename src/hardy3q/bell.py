"""Joint probabilities, the five-term Bell expression, and its LHV bound.

The five joint probabilities are always reported in one canonical order:

    p1 = P(D1=-1, D2=-1, D3=-1)
    p2 = P(D1=+1, U2=+1, U3=+1)
    p3 = P(U1=+1, D2=+1, U3=+1)
    p4 = P(U1=+1, U2=+1, D3=+1)
    p5 = P(U1=+1, U2=+1, U3=+1)

and the Bell expression is B = p1 + p2 + p3 + p4 - p5.  Every local
realistic model obeys B >= 0; this module also contains the exhaustive
64-assignment enumeration that certifies that bound.  The Hardy pattern
(p1 = p2 = p3 = p4 = 0 with p5 > 0) is therefore impossible classically.

Probabilities are read from the table of conjugated product vectors that
``MeasurementSettings`` stores once (every outcome of each term's context
for sampling, each term's own outcome for the five probabilities): one
matmul per call, bit for bit the product-vector formula on the settings'
eigenkets.  Those are built in scalar arithmetic and agree with a numpy
construction only to rounding (see ``observables``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import DimensionError
from .observables import BELL_TERMS, TERM_OUTCOMES, MeasurementSettings

#: Bell value of the maximally mixed state I/8 (four terms of 1/8 minus 1/8)
WHITE_NOISE_BELL_VALUE = 3.0 / 8.0
#: B below this counts as a violation of the local bound B >= 0
VIOLATION_CUTOFF = -1e-12


def _product_probabilities(state, bras: np.ndarray) -> np.ndarray:
    """Outcome probabilities (...) of conjugated product vectors ``bras`` (..., 8).

    |<v|psi>|^2 for a ket psi and Re <v|rho|v> for a density rho, one
    matmul over all of ``bras``.  Unclamped.
    """
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        if arr.shape[0] != 8:
            raise DimensionError("pure state must be an 8-dimensional ket")
        amp = bras @ arr
        return amp.real**2 + amp.imag**2
    if arr.ndim == 2:
        if arr.shape != (8, 8):
            raise DimensionError("density operator must be 8x8")
        return (bras * (np.conj(bras) @ arr.T)).sum(axis=-1).real
    raise DimensionError("state must be a ket or a density operator")


def hardy_probabilities(state, settings: MeasurementSettings) -> np.ndarray:
    """The five canonical-order joint probabilities, unclamped."""
    return _product_probabilities(state, settings.hardy_bras)


def _clamped(probs: list[float]) -> tuple[float, ...]:
    """Probabilities clamped to [0, 1] for reporting."""
    return tuple(min(max(p, 0.0), 1.0) for p in probs)


@dataclass(frozen=True)
class BellReport:
    """Five probabilities (clamped for reporting), B, and the LHV verdict."""

    probabilities: tuple[float, float, float, float, float]
    bell_value: float
    lhv_bound_satisfied: bool


def bell_value(state, settings: MeasurementSettings) -> BellReport:
    """Evaluate B = p1 + p2 + p3 + p4 - p5 for a state and settings.

    Raises ``ValueError`` when a probability is not finite (B is then NaN
    or infinite, which would read as a verdict on the local bound).
    """
    probs = hardy_probabilities(state, settings).tolist()
    value = probs[0] + probs[1] + probs[2] + probs[3] - probs[4]
    if not math.isfinite(value):
        raise ValueError(f"non-finite joint probabilities {probs}")
    return BellReport(
        probabilities=_clamped(probs),
        bell_value=value,
        lhv_bound_satisfied=value >= VIOLATION_CUTOFF,
    )


# ---------------------------------------------------------------------------
# deterministic local-hidden-variable oracle
# ---------------------------------------------------------------------------

class LhvAssignment(NamedTuple):
    """One deterministic +-1 assignment to all six observables."""

    u1: int
    d1: int
    u2: int
    d2: int
    u3: int
    d3: int


def lhv_term_indicators(a: LhvAssignment) -> tuple[int, int, int, int, int]:
    """The five term indicator products (0 or 1 each) under an assignment."""
    values = {"U": (a.u1, a.u2, a.u3), "D": (a.d1, a.d2, a.d3)}
    out = []
    for term in BELL_TERMS:
        ind = 1
        for qubit, (kind, sign) in enumerate(term):
            ind *= 1 if values[kind][qubit] == sign else 0
        out.append(ind)
    return tuple(out)


def lhv_bell_value(a: LhvAssignment) -> int:
    t = lhv_term_indicators(a)
    return t[0] + t[1] + t[2] + t[3] - t[4]


def lhv_assignments() -> tuple[LhvAssignment, ...]:
    return tuple(LhvAssignment(*signs) for signs in product((+1, -1), repeat=6))


def lhv_minimum() -> tuple[int, tuple[LhvAssignment, ...]]:
    """Exhaustive minimum of B over all 64 deterministic assignments.

    This is the brute-force certificate of the local bound B >= 0.
    """
    best = None
    argmins: list[LhvAssignment] = []
    for a in lhv_assignments():
        value = lhv_bell_value(a)
        if best is None or value < best:
            best = value
            argmins = [a]
        elif value == best:
            argmins.append(a)
    return int(best), tuple(argmins)


def lhv_hardy_pattern_assignments() -> tuple[LhvAssignment, ...]:
    """Assignments realizing four zero terms with the fifth positive (none exist)."""
    hits = []
    for a in lhv_assignments():
        t = lhv_term_indicators(a)
        if t[0] == t[1] == t[2] == t[3] == 0 and t[4] == 1:
            hits.append(a)
    return tuple(hits)


# ---------------------------------------------------------------------------
# finite-shot sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleStatistics:
    """Empirical five-term frequencies with binomial standard errors."""

    frequencies: tuple[float, float, float, float, float]
    standard_errors: tuple[float, float, float, float, float]
    shots: int
    seed: int


def sample_statistics(state, settings: MeasurementSettings, shots: int, seed: int) -> SampleStatistics:
    """Simulate ``shots`` runs of each measurement context.

    The five terms have five distinct observable-kind triples (physical
    measurement contexts), so each term is read off one multinomial draw
    over its own context's eight outcomes, drawn in term order.
    Deterministic for a fixed seed.  Raises ``ValueError`` when a context's
    outcome probabilities are not finite or sum to zero.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    rng = np.random.default_rng(seed)
    probs = np.clip(_product_probabilities(state, settings.bras), 0.0, None)
    totals = probs.sum(axis=-1, keepdims=True)
    sums = totals.ravel().tolist()  # five numbers: cheaper checked in Python than in numpy
    if not (math.isfinite(sum(sums)) and min(sums) > 0.0):
        raise ValueError(f"outcome probabilities of the contexts sum to {sums}")
    probs /= totals
    p_hat = [float(rng.multinomial(shots, p)[t] / shots) for p, t in zip(probs, TERM_OUTCOMES)]
    return SampleStatistics(
        frequencies=tuple(p_hat),
        standard_errors=tuple(math.sqrt(p * (1.0 - p) / shots) for p in p_hat),
        shots=int(shots),
        seed=int(seed),
    )
