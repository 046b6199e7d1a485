"""Canonical three-qubit pure states, their classification, and noisy mixtures.

Every three-qubit pure state is represented (up to local unitaries) by five
non-negative amplitudes l0..l4 and one phase phi:

    |psi> = l0|000> + l1 e^{i phi}|100> + l2|101> + l3|110> + l4|111>,

with sum(l_j^2) = 1 and 0 <= phi <= pi.  States split into four major
classes: A (fully product), B (one non-maximally entangled pair times a
product qubit), C (one maximally entangled pair times a product qubit) and
D (genuine tripartite entanglement), refined into 25 sub-classes by the
zero pattern of the amplitudes and a few equality surfaces.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    ClassificationGapError,
    ClassificationOverlapError,
    Hardy3QError,
    NormalizationError,
)

#: default tolerance deciding "zero" and "equal" in classification
CLASS_EPS = 1e-9


class StateClass(enum.Enum):
    """The 25 sub-classes of the canonical-form classification table."""

    A1 = "A.1"
    A2 = "A.2"
    A3 = "A.3"
    B1 = "B.1"
    B2 = "B.2"
    B3 = "B.3"
    B4 = "B.4"
    B5 = "B.5"
    C1 = "C.1"
    C2 = "C.2"
    C3 = "C.3"
    D1 = "D.1"
    D2 = "D.2"
    D3 = "D.3"
    D4 = "D.4"
    D5 = "D.5"
    D6 = "D.6"
    D7 = "D.7"
    D8 = "D.8"
    D9 = "D.9"
    D10 = "D.10"
    D11 = "D.11"
    D12 = "D.12"
    D13 = "D.13"
    D14 = "D.14"

    @property
    def major(self) -> str:
        return self.value[0]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


CLASS_ORDER: tuple[StateClass, ...] = tuple(StateClass)


@dataclass(frozen=True)
class CanonicalState:
    """Canonical-form parameters: five amplitudes and one phase."""

    lams: tuple[float, float, float, float, float]
    phi: float = 0.0

    def __post_init__(self):
        lams = tuple(float(x) for x in self.lams)
        if len(lams) != 5:
            raise ValueError("exactly five amplitudes are required")
        if not all(math.isfinite(x) for x in lams) or not math.isfinite(self.phi):
            raise ValueError("canonical parameters must be finite")
        if any(x < 0.0 for x in lams):
            raise ValueError("canonical amplitudes must be non-negative")
        ssq = sum(x * x for x in lams)
        if abs(ssq - 1.0) > 1e-12:
            raise NormalizationError(
                f"sum of squared amplitudes is {ssq!r}, expected 1 within 1e-12"
            )
        if not 0.0 <= float(self.phi) <= math.pi:
            raise ValueError("phase must lie in [0, pi]")
        object.__setattr__(self, "lams", lams)
        object.__setattr__(self, "phi", float(self.phi))

    def to_ket(self) -> np.ndarray:
        return to_ket(self)


def normalized_canonical(lams, phi: float = 0.0) -> tuple[CanonicalState, float]:
    """Rescale raw amplitudes onto the unit sphere.

    Returns the state and the applied factor (divide raw values by it).
    """
    raw = np.asarray(lams, dtype=float)
    if not np.isfinite(raw).all():
        raise NormalizationError("amplitudes must be finite numbers")
    with np.errstate(over="ignore"):  # an overflowing norm is rejected below
        scale = float(np.linalg.norm(raw))
    if not 0.0 < scale < math.inf:
        raise NormalizationError(f"cannot normalize amplitudes of norm {scale!r}")
    return CanonicalState(tuple(raw / scale), phi), scale


def to_ket(state: CanonicalState) -> np.ndarray:
    """Expand canonical parameters into the 8-amplitude computational ket."""
    l0, l1, l2, l3, l4 = state.lams
    psi = np.zeros(8, dtype=complex)
    psi[0] = l0
    psi[4] = l1 * np.exp(1j * state.phi)
    psi[5] = l2
    psi[6] = l3
    psi[7] = l4
    return psi


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _pair_matrix(l1: float, l2: float, l3: float, l4: float, phi: float) -> np.ndarray:
    """Coefficient matrix of the qubit-2/3 pair when l0 = 0 (without the sqrt(2))."""
    return np.array([[l1 * np.exp(1j * phi), l2], [l3, l4]], dtype=complex)


def _match_rows(lam: np.ndarray, phi, eps: float):
    """Indices into ``CLASS_ORDER`` of canonical parameters, one per row.

    ``lam`` is (n, 5) with ``phi`` (n,), or (5,) of numpy floats with a
    numpy-float ``phi`` (so that ``~`` is a logical not).  ``eps`` defines
    both "zero" (l_j < eps) and "equal" (|x - y| < eps).  All 25 row
    predicates are evaluated; a row with no match (gap) or more than one
    (overlap) raises.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    l0, l1, l2, l3, l4 = lam.T
    # phi multiplies only l1 in the canonical form, so it is unobservable
    # (treated as zero) when l1 vanishes
    phi_eff = np.where(l1 >= eps, phi, 0.0)
    e_phi = np.exp(1j * phi_eff)

    nz0, nz1, nz2, nz3, nz4 = (x >= eps for x in (l0, l1, l2, l3, l4))
    z0, z1, z2, z3, z4 = (~b for b in (nz0, nz1, nz2, nz3, nz4))

    det = np.abs(l1 * l4 * e_phi - l2 * l3)
    singular = det < eps
    # unitarity of sqrt(2) * [[l1 e^{i phi}, l2], [l3, l4]]
    row1 = np.abs(2.0 * (l1 * l1 + l2 * l2) - 1.0)
    row2 = np.abs(2.0 * (l3 * l3 + l4 * l4) - 1.0)
    cross = 2.0 * np.abs(l1 * e_phi * l3 + l2 * l4)
    unitary = (row1 < eps) & (row2 < eps) & (cross < eps)

    eq02 = np.abs(l0 * l2 - 0.5) < eps
    eq03 = np.abs(l0 * l3 - 0.5) < eps
    eq_cross = np.abs(l2 * l3 - l1 * l4) < eps
    eq04 = np.abs(l0 - l4) < eps
    eq24 = np.abs(l2 - l4) < eps
    phi_zero = phi_eff < eps

    preds = (
        nz0 & nz1 & z2 & z3 & z4,  # A.1
        nz0 & z1 & z2 & z3 & z4,  # A.2
        z0 & singular,  # A.3
        nz0 & nz1 & nz2 & z3 & z4,  # B.1
        nz0 & nz1 & z2 & nz3 & z4,  # B.2
        nz0 & z1 & nz2 & z3 & z4 & ~eq02,  # B.3
        nz0 & z1 & z2 & nz3 & z4 & ~eq03,  # B.4
        z0 & ~singular & ~unitary,  # B.5
        nz0 & z1 & nz2 & z3 & z4 & eq02,  # C.1
        nz0 & z1 & z2 & nz3 & z4 & eq03,  # C.2
        z0 & unitary,  # C.3
        nz0 & nz1 & nz2 & nz3 & nz4 & ~phi_zero,  # D.1
        nz0 & nz1 & nz2 & nz3 & nz4 & phi_zero & ~eq_cross,  # D.2
        nz0 & nz1 & nz2 & nz3 & nz4 & phi_zero & eq_cross,  # D.3
        nz0 & nz1 & nz2 & nz3 & z4,  # D.4
        nz0 & nz1 & nz2 & z3 & nz4,  # D.5
        nz0 & nz1 & z2 & nz3 & nz4 & ~eq04,  # D.6
        nz0 & nz1 & z2 & nz3 & nz4 & eq04,  # D.7
        nz0 & nz1 & z2 & z3 & nz4,  # D.8
        nz0 & z1 & z2 & nz3 & nz4,  # D.9
        nz0 & z1 & nz2 & nz3 & nz4 & ~eq24,  # D.10
        nz0 & z1 & nz2 & nz3 & nz4 & eq24,  # D.11
        nz0 & z1 & nz2 & nz3 & z4,  # D.12
        nz0 & z1 & nz2 & z3 & nz4,  # D.13
        nz0 & z1 & z2 & z3 & nz4,  # D.14
    )
    # filled row by row: np.stack takes about 35 us on 25 numpy scalars
    table = np.empty(np.shape(l0) + (len(CLASS_ORDER),), dtype=bool)
    for k, pred in enumerate(preds):
        table[..., k] = pred
    table = table.reshape(-1, len(CLASS_ORDER))
    counts = table.sum(axis=1)
    if (counts != 1).any():
        gap = counts == 0
        i = int(np.argmax(gap if gap.any() else counts > 1))
        row_lam, row_phi = lam.reshape(-1, 5)[i], np.reshape(phi, -1)[i]
        if gap[i]:
            raise ClassificationGapError(row_lam, row_phi)
        labels = [CLASS_ORDER[j].value for j in np.flatnonzero(table[i])]
        raise ClassificationOverlapError(row_lam, row_phi, labels)
    return table.argmax(axis=1)


def classify(state: CanonicalState, eps: float = CLASS_EPS, audit: bool = True) -> StateClass:
    """The one classification-table row matching a canonical state.

    Raises ``ClassificationGapError`` or ``ClassificationOverlapError`` when
    no row or several rows match at this ``eps``.  ``audit`` has no effect:
    every call checks all 25 rows.
    """
    lam = np.array(state.lams, dtype=np.float64)
    return CLASS_ORDER[int(_match_rows(lam, np.float64(state.phi), eps)[0])]


def classify_batch(lams: np.ndarray, phis: np.ndarray, eps: float = CLASS_EPS) -> np.ndarray:
    """Vectorized classification of many parameter rows at once.

    ``lams`` has shape (n, 5), ``phis`` shape (n,).  Returns indices into
    ``CLASS_ORDER``.  Raises on the first row with no match (gap), else on
    the first with more than one match (overlap).
    """
    lam = np.asarray(lams, dtype=float)
    phi = np.asarray(phis, dtype=float)
    if lam.ndim != 2 or lam.shape[1] != 5 or phi.shape != (lam.shape[0],):
        raise ValueError("expected lams of shape (n, 5) and phis of shape (n,)")
    return _match_rows(lam, phi, eps)


# ---------------------------------------------------------------------------
# noisy mixtures
# ---------------------------------------------------------------------------

def mix_with_white_noise(psi, v: float) -> np.ndarray:
    """Density operator v|psi><psi| + (1 - v)/8 * I."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {v!r}")
    if isinstance(psi, CanonicalState):
        vec = psi.to_ket()
    else:
        vec = linalg.ket(psi)
        if vec.shape[0] != 8:
            raise ValueError("white-noise mixing expects a three-qubit state")
        linalg.require_normalized(vec, atol=1e-9)
    return v * np.outer(vec, vec.conj()) + (1.0 - v) / 8.0 * np.eye(8, dtype=complex)


# ---------------------------------------------------------------------------
# random generators (uniform and per-class targeted draws)
# ---------------------------------------------------------------------------

def random_canonical(rng: np.random.Generator) -> CanonicalState:
    """Uniform-on-sphere amplitudes (all non-negative) with a random phase."""
    lams = np.abs(rng.standard_normal(5))
    lams /= np.linalg.norm(lams)
    return CanonicalState(tuple(lams), float(rng.uniform(0.0, math.pi)))


def _uniform_components(rng, n, lo=0.25, hi=1.0):
    return rng.uniform(lo, hi, n)


def _finish(values, phi):
    arr = np.asarray(values, dtype=float)
    arr = arr / np.linalg.norm(arr)
    return CanonicalState(tuple(arr), float(phi))


def _random_phi(rng, lo=0.05):
    return float(rng.uniform(lo, math.pi - lo))


def sample_class(cls: StateClass, rng: np.random.Generator, margin: float = 0.05) -> CanonicalState:
    """Random canonical state lying inside the given class.

    Draws keep a ``margin`` away from neighbouring decision boundaries so
    the class is stable under small perturbations; equality-constrained
    classes (A.3, C.*, D.3, D.7, D.11) are drawn exactly on their surfaces.
    """
    u = _uniform_components
    if cls is StateClass.A1:
        return _finish([*u(rng, 2), 0, 0, 0], _random_phi(rng))
    if cls is StateClass.A2:
        return CanonicalState((1.0, 0.0, 0.0, 0.0, 0.0), 0.0)
    if cls is StateClass.A3:
        mode = int(rng.integers(4))
        if mode == 0:  # l1 l4 = l2 l3 with phi = 0
            l1, l2, l3 = u(rng, 3, 0.35, 1.0)
            return _finish([0.0, l1, l2, l3, l2 * l3 / l1], 0.0)
        if mode == 1:
            return _finish([0.0, *u(rng, 2), 0.0, 0.0], _random_phi(rng))
        if mode == 2:
            return _finish([0.0, u(rng, 1)[0], 0.0, u(rng, 1)[0], 0.0], _random_phi(rng))
        return _finish([0.0, 0.0, 0.0, *u(rng, 2)], 0.0)
    if cls is StateClass.B1:
        return _finish([*u(rng, 3), 0, 0], _random_phi(rng))
    if cls is StateClass.B2:
        lams = u(rng, 3)
        return _finish([lams[0], lams[1], 0, lams[2], 0], _random_phi(rng))
    if cls in (StateClass.B3, StateClass.B4):
        t = rng.uniform(0.15, math.pi / 2 - 0.15)
        while abs(t - math.pi / 4) < margin:
            t = rng.uniform(0.15, math.pi / 2 - 0.15)
        if cls is StateClass.B3:
            return _finish([math.cos(t), 0, math.sin(t), 0, 0], 0.0)
        return _finish([math.cos(t), 0, 0, math.sin(t), 0], 0.0)
    if cls is StateClass.B5:
        while True:
            phi = _random_phi(rng)
            lams = np.array([0.0, *u(rng, 4)])
            lams /= np.linalg.norm(lams)
            m = _pair_matrix(lams[1], lams[2], lams[3], lams[4], phi)
            det = abs(np.linalg.det(m))
            gap = np.max(np.abs(2.0 * (m @ m.conj().T) - np.eye(2)))
            if det > margin / 4 and gap > margin / 4:
                return CanonicalState(tuple(lams), phi)
    if cls is StateClass.C1:
        return CanonicalState((2 ** -0.5, 0.0, 2 ** -0.5, 0.0, 0.0), 0.0)
    if cls is StateClass.C2:
        return CanonicalState((2 ** -0.5, 0.0, 0.0, 2 ** -0.5, 0.0), 0.0)
    if cls is StateClass.C3:
        mode = int(rng.integers(3))
        r = 2 ** -0.5
        if mode == 0:
            return CanonicalState((0.0, r, 0.0, 0.0, r), _random_phi(rng))
        if mode == 1:
            return CanonicalState((0.0, 0.0, r, r, 0.0), 0.0)
        x = rng.uniform(0.15, math.pi / 2 - 0.15)
        lams = np.array([0.0, math.cos(x), math.sin(x), math.sin(x), math.cos(x)]) * r
        return CanonicalState(tuple(lams), math.pi)
    if cls is StateClass.D1:
        return _finish(u(rng, 5), _random_phi(rng, lo=0.1))
    if cls is StateClass.D2:
        while True:
            lams = u(rng, 5)
            if abs(lams[2] * lams[3] - lams[1] * lams[4]) > margin / 4:
                return _finish(lams, 0.0)
    if cls is StateClass.D3:
        l1, l2, l3 = u(rng, 3, 0.35, 1.0)
        return _finish([u(rng, 1)[0], l1, l2, l3, l2 * l3 / l1], 0.0)
    if cls is StateClass.D4:
        return _finish([*u(rng, 4), 0], _random_phi(rng))
    if cls is StateClass.D5:
        lams = u(rng, 4)
        return _finish([lams[0], lams[1], lams[2], 0, lams[3]], _random_phi(rng))
    if cls is StateClass.D6:
        while True:
            l0, l1, l3, l4 = u(rng, 4)
            state = _finish([l0, l1, 0, l3, l4], _random_phi(rng))
            if abs(state.lams[0] - state.lams[4]) > margin / 2:
                return state
    if cls is StateClass.D7:
        x = u(rng, 1)[0]
        l1, l3 = u(rng, 2)
        return _finish([x, l1, 0, l3, x], _random_phi(rng))
    if cls is StateClass.D8:
        lams = u(rng, 3)
        return _finish([lams[0], lams[1], 0, 0, lams[2]], _random_phi(rng))
    if cls is StateClass.D9:
        lams = u(rng, 3)
        return _finish([lams[0], 0, 0, lams[1], lams[2]], 0.0)
    if cls is StateClass.D10:
        while True:
            l0, l2, l3, l4 = u(rng, 4)
            state = _finish([l0, 0, l2, l3, l4], 0.0)
            if abs(state.lams[2] - state.lams[4]) > margin / 2:
                return state
    if cls is StateClass.D11:
        x = u(rng, 1)[0]
        l0, l3 = u(rng, 2)
        return _finish([l0, 0, x, l3, x], 0.0)
    if cls is StateClass.D12:
        lams = u(rng, 3)
        return _finish([lams[0], 0, lams[1], lams[2], 0], 0.0)
    if cls is StateClass.D13:
        lams = u(rng, 3)
        return _finish([lams[0], 0, lams[1], 0, lams[2]], 0.0)
    if cls is StateClass.D14:
        lams = u(rng, 2)
        return _finish([lams[0], 0, 0, 0, lams[1]], 0.0)
    raise Hardy3QError(f"unknown class {cls}")  # pragma: no cover
