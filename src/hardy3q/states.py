"""Canonical three-qubit pure states, their classification, and per-class draws.

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

from .errors import (
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


def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and positive, got {eps!r}")


def _pattern(nz):
    """Zero-pattern code of the flags nz[j] = (l_j >= eps): bit j set when l_j is non-zero."""
    return nz[0] | nz[1] << 1 | nz[2] << 2 | nz[3] << 3 | nz[4] << 4


def _pair_split(l, phi, eps):
    """0 (B.5), 1 (A.3: singular), 2 (C.3: unitary) or 3 (both: an overlap)."""
    # phi multiplies only l1, so it is unobservable (taken as zero) when l1 vanishes
    e_phi = np.exp(1j * (phi * (l[1] >= eps)))
    singular = abs(l[1] * l[4] * e_phi - l[2] * l[3]) < eps
    unitary = (  # of sqrt(2) * [[l1 e^{i phi}, l2], [l3, l4]]
        (abs(2.0 * (l[1] * l[1] + l[2] * l[2]) - 1.0) < eps)
        & (abs(2.0 * (l[3] * l[3] + l[4] * l[4]) - 1.0) < eps)
        & (2.0 * abs(l[1] * e_phi * l[3] + l[2] * l[4]) < eps)
    )
    return singular + 2 * unitary


#: The classification table by which of l0..l4 are non-zero (>= eps).  A pattern
#: with several rows has a split: one expression, alike on numpy columns and on
#: Python floats, giving the index of the matching row.  Every pattern with
#: l0 < eps is the A.3/B.5/C.3 split, whose overlap (singular and unitary) is A.3+C.3.
_ROWS_BY_PATTERN = {
    "10000": "A.2", "11000": "A.1", "10100": "B.3 C.1", "10010": "B.4 C.2",
    "10001": "D.14", "11100": "B.1", "11010": "B.2", "11001": "D.8",
    "10110": "D.12", "10101": "D.13", "10011": "D.9", "11110": "D.4",
    "11101": "D.5", "11011": "D.6 D.7", "10111": "D.10 D.11", "11111": "D.1 D.2 D.3",
}
_L0_ZERO = "B.5 A.3 C.3 A.3+C.3"
_SPLITS = {
    "B.3 C.1": lambda l, phi, eps: abs(l[0] * l[2] - 0.5) < eps,
    "B.4 C.2": lambda l, phi, eps: abs(l[0] * l[3] - 0.5) < eps,
    "D.6 D.7": lambda l, phi, eps: abs(l[0] - l[4]) < eps,
    "D.10 D.11": lambda l, phi, eps: abs(l[2] - l[4]) < eps,
    # l1 >= eps on this pattern, so phi is observable
    "D.1 D.2 D.3": lambda l, phi, eps: (phi < eps) * (1 + (abs(l[2] * l[3] - l[1] * l[4]) < eps)),
    _L0_ZERO: _pair_split,
}
_TESTS = (None, *_SPLITS.values())
_INDEX = {cls.value: i for i, cls in enumerate(CLASS_ORDER)}
_OVERLAP, _OVERLAP_LABELS = -1, ("A.3", "C.3")
#: per pattern code: candidate indices into CLASS_ORDER, and the split's place in _TESTS
_PATTERNS = tuple(
    (tuple(_INDEX.get(s, _OVERLAP) for s in rows.split()), _TESTS.index(_SPLITS.get(rows)))
    for rows in (
        _ROWS_BY_PATTERN[f"{code:05b}"[::-1]] if code & 1 else _L0_ZERO for code in range(32)
    )
)
_FIRST_ROW = np.array([rows[0] for rows, _ in _PATTERNS], dtype=np.intp)
_SPLIT_OF = np.array([k for _, k in _PATTERNS], dtype=np.uint8)
_SPLIT_ROWS = {k: np.array(rows, dtype=np.intp) for rows, k in _PATTERNS}


#: rows per block of ``_match_rows``: a block's flag and code arrays take a few
#: hundred KB, so each pass over a block reads what the previous one left in cache
_BLOCK_ROWS = 1 << 16


def _match_rows(lam: np.ndarray, phi: np.ndarray, eps: float) -> np.ndarray:
    """Indices into ``CLASS_ORDER`` of rows ``lam`` (n, 5), ``phi`` (n,).

    A block is ``_BLOCK_ROWS`` consecutive rows; the blocks run one after
    the other, in input order.  Every predicate is row-local, so they give
    the labels of one pass over all rows, and the overlap raised is the
    first in input order.  Beyond the (n,) output, only one block's
    temporaries are held at a time.
    """
    out = np.empty(len(lam), dtype=np.intp)
    for lo in range(0, len(lam), _BLOCK_ROWS):
        hi = lo + _BLOCK_ROWS
        _match_block(lam[lo:hi], phi[lo:hi], eps, out[lo:hi])
    return out


def _match_block(lam: np.ndarray, phi: np.ndarray, eps: float, out: np.ndarray) -> None:
    """``_match_rows`` on one block, written into ``out``.  A split runs on its patterns'
    rows only; D.1 rows (no zero, phi >= eps) are never gathered.  Every gather and
    scatter is a ``take`` or ``put``, which cost a fraction of fancy indexing here."""
    code = _pattern((lam >= eps).view(np.uint8).T)
    _FIRST_ROW.take(code, out=out, mode="clip")  # code < 32 by construction
    split = _SPLIT_OF.take(code)
    at = np.flatnonzero(split.astype(bool) & ((phi < eps) | (code != 0b11111)))
    # group the rows by split, in input order within a group
    split = split.take(at)
    order = np.argsort(split, kind="stable")
    at, ends = at.take(order), np.searchsorted(split.take(order), np.arange(1, len(_TESTS) + 1))
    for k in range(1, len(_TESTS)):
        rows = at[ends[k - 1]:ends[k]]
        choice = _TESTS[k](lam.take(rows, axis=0).T, phi.take(rows), eps)
        picked = _SPLIT_ROWS[k].take(choice)
        if (picked == _OVERLAP).any():
            i = rows[np.argmax(picked == _OVERLAP)]
            raise ClassificationOverlapError(lam[i], phi[i], _OVERLAP_LABELS)
        out.put(rows, picked)


def classify(state: CanonicalState, eps: float = CLASS_EPS, audit: bool = True) -> StateClass:
    """The one classification-table row matching a canonical state.

    Looks the zero pattern up in the same table as ``classify_batch`` and
    runs the same split expressions, on Python floats.  Raises
    ``ClassificationOverlapError`` when a state with l0 < eps is both
    singular and unitary at this ``eps`` (A.3 and C.3); every state matches
    some row.  ``audit`` has no effect.
    """
    _check_eps(eps)
    rows, k = _PATTERNS[_pattern([x >= eps for x in state.lams])]
    row = rows[int(_TESTS[k](state.lams, state.phi, eps))] if k else rows[0]
    if row == _OVERLAP:
        raise ClassificationOverlapError(state.lams, state.phi, _OVERLAP_LABELS)
    return CLASS_ORDER[row]


def classify_batch(lams: np.ndarray, phis: np.ndarray, eps: float = CLASS_EPS) -> np.ndarray:
    """Vectorized classification of many parameter rows at once.

    ``lams`` has shape (n, 5), ``phis`` shape (n,); every entry must be
    finite, every amplitude non-negative and every phase in [0, pi], as in
    ``CanonicalState``.  Normalization is not checked: the classification's
    equality surfaces are also probed just off the unit sphere (l0 l2 and
    l0 l3 above 1/2, which no unit row reaches), where the batch is compared
    with the test oracles.  Returns indices into ``CLASS_ORDER``, the rows
    ``classify`` gives.  Raises ``ClassificationOverlapError`` on the first
    row that is both A.3 and C.3 at this ``eps``.

    Every row is checked before any is classified, so a bad entry raises
    ``ValueError`` wherever it lies.  The rows are then classified in
    blocks of ``_BLOCK_ROWS`` consecutive rows: beyond its (n,) output, the
    call holds one block's temporaries (at most about 7 MB), whatever n is.
    """
    lam = np.asarray(lams, dtype=float)
    phi = np.asarray(phis, dtype=float)
    if lam.ndim != 2 or lam.shape[1] != 5 or phi.shape != (lam.shape[0],):
        raise ValueError("expected lams of shape (n, 5) and phis of shape (n,)")
    _check_eps(eps)
    if lam.size:
        # min and max propagate NaN and need no (n, 5) temporary
        lo, hi, phi_lo, phi_hi = lam.min(), lam.max(), phi.min(), phi.max()
        if not np.isfinite([lo, hi, phi_lo, phi_hi]).all():
            raise ValueError("lams and phis must be finite")
        if lo < 0.0:
            raise ValueError("canonical amplitudes must be non-negative")
        if not (0.0 <= phi_lo and phi_hi <= math.pi):
            raise ValueError("phase must lie in [0, pi]")
    return _match_rows(lam, phi, eps)


# ---------------------------------------------------------------------------
# per-class random generators
# ---------------------------------------------------------------------------

#: how far ``sample_class`` keeps its draws from neighbouring decision boundaries
SAMPLE_MARGIN = 0.05


def _uniform_components(rng, n, lo=0.25, hi=1.0):
    return rng.uniform(lo, hi, n)


def _finish(values, phi):
    arr = np.asarray(values, dtype=float)
    arr = arr / np.linalg.norm(arr)
    return CanonicalState(tuple(arr), float(phi))


def _random_phi(rng, lo=0.05):
    return float(rng.uniform(lo, math.pi - lo))


def sample_class(cls: StateClass, rng: np.random.Generator) -> CanonicalState:
    """Random canonical state lying inside the given class.

    Draws keep ``SAMPLE_MARGIN`` away from neighbouring decision boundaries so
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
        while abs(t - math.pi / 4) < SAMPLE_MARGIN:
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
            if det > SAMPLE_MARGIN / 4 and gap > SAMPLE_MARGIN / 4:
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
            if abs(lams[2] * lams[3] - lams[1] * lams[4]) > SAMPLE_MARGIN / 4:
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
            if abs(state.lams[0] - state.lams[4]) > SAMPLE_MARGIN / 2:
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
            if abs(state.lams[2] - state.lams[4]) > SAMPLE_MARGIN / 2:
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
