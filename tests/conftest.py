"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest

from hardy3q import linalg, visibility
from hardy3q.bell import bell_value
from hardy3q.observables import (
    WINDOW_TOL,
    MeasurementSettings,
    random_angles,
    settings_from_plus_kets,
)
from hardy3q.errors import (
    ConstructionFailureError,
    DimensionError,
    Hardy3QError,
    NormalizationError,
    VisibilityUndefinedError,
    WindowViolationError,
)
from hardy3q.hardy import (
    CANDIDATE_RTOL,
    VANISHING_NORM,
    ZERO_TOL,
)
from hardy3q.states import CanonicalState, StateClass


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def random_ket(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def basis_ket(dim, index):
    out = np.zeros(dim, dtype=complex)
    out[index] = 1.0
    return out


KET0 = basis_ket(2, 0)
KET1 = basis_ket(2, 1)


def qubit_ket(c0, c1):
    """Normalized single-qubit ket c0|0> + c1|1>."""
    k = np.array([c0, c1], dtype=complex)
    return k / np.linalg.norm(k)


def is_hermitian(m, atol=1e-10):
    m = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(m - m.conj().T)) <= atol)


def is_projector(m, atol=1e-10):
    m = np.asarray(m, dtype=complex)
    return is_hermitian(m, atol) and bool(np.max(np.abs(m @ m - m)) <= atol)


def is_density(m, atol=1e-10):
    m = np.asarray(m, dtype=complex)
    return (
        is_hermitian(m, atol)
        and abs(np.trace(m).real - 1.0) <= atol
        and bool(np.linalg.eigvalsh(m).min() >= -1e-10)
    )


def tensor(*factors):
    """Kronecker product of kets (or of operators), qubit 1 leftmost.

    The result dimension is capped at 8 (8x8 for operators).
    """
    if not factors:
        raise DimensionError("tensor requires at least one factor")
    arrays = [np.asarray(f, dtype=complex) for f in factors]
    ndim = arrays[0].ndim
    if ndim not in (1, 2) or any(a.ndim != ndim for a in arrays):
        raise DimensionError("tensor factors must be all kets or all operators")
    out = arrays[0]
    for a in arrays[1:]:
        out = np.kron(out, a)
        if out.shape[0] > 8:
            raise DimensionError("tensor result exceeds dimension 8")
    return out


def fix_global_phase(k, tiny: float = 1e-12) -> np.ndarray:
    """Rotate each ket's global phase so its first non-negligible amplitude is real >= 0.

    The kets lie along the last axis; a ket with no amplitude above ``tiny``
    is kept.  Magnitudes are taken with ``np.hypot``, which rounds as
    ``abs`` of one complex scalar does.  The array form of the package's
    one phase rule (``observables._phase_fixed``).
    """
    arr = np.asarray(k, dtype=complex)
    size = np.hypot(arr.real, arr.imag)
    lead, lead_size = arr[..., -1:], size[..., -1:]
    for j in range(arr.shape[-1] - 2, -1, -1):  # the first amplitude above tiny wins
        big = size[..., j : j + 1] > tiny
        lead = np.where(big, arr[..., j : j + 1], lead)
        lead_size = np.where(big, size[..., j : j + 1], lead_size)
    found = lead_size > tiny
    return np.where(found, arr * np.conj(lead / np.where(found, lead_size, 1.0)), arr)


def perp_qubit(k) -> np.ndarray:
    """The unique (up to phase) single-qubit ket orthogonal to k, per ket on the last axis."""
    arr = np.asarray(k, dtype=complex)
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise DimensionError("perp_qubit expects single-qubit kets")
    out = np.empty_like(arr)
    out[..., 0] = -np.conj(arr[..., 1])
    out[..., 1] = np.conj(arr[..., 0])
    return out


def projector(k):
    """Rank-one projector |k><k| for a normalized ket."""
    arr = linalg.ket(k)
    linalg.require_normalized(arr)
    return np.outer(arr, arr.conj())


class SpanError(Hardy3QError, ValueError):
    """Orthogonal-complement picking received a degenerate input."""


def orthogonal_complement_pick(zeros, target, atol=1e-10):
    """Normalized ket orthogonal to every member of ``zeros``, overlapping ``target``.

    Deterministic tie-break: project ``target`` onto the orthogonal
    complement of span(zeros) and normalize, then fix the global phase.
    Rank of the zero set is checked through the Gram matrix.
    """
    stack = np.vstack([linalg.ket(z) for z in zeros])
    tgt = linalg.ket(target)
    if stack.shape[1] != tgt.shape[0]:
        raise DimensionError("zeros and target must share a dimension")
    if stack.shape[0] >= tgt.shape[0]:
        raise SpanError("too many zero conditions for the space dimension")

    gram = stack @ stack.conj().T
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] < 1e-10 * max(eigs[-1], 1.0):
        raise SpanError("zero-condition vectors are linearly dependent")

    q, _ = np.linalg.qr(stack.T.copy())  # columns span the zero set
    residual = tgt - q @ (q.conj().T @ tgt)
    res_norm = np.linalg.norm(residual)
    if res_norm < atol:
        raise SpanError("target lies in the span of the zero conditions")
    return fix_global_phase(residual / res_norm)


def state_satisfying_hardy(settings):
    """The forward direction: a state satisfying the conditions for given settings.

    The four zero conditions are orthogonality to the product vectors of
    the first four terms (kron oracle); those vectors are linearly
    independent for windowed settings, so the projection of the fifth
    term's product vector onto their orthogonal complement is such a state.
    """
    (u1, d1), (u2, d2), (u3, d3) = settings.plus_kets
    m1, m2, m3 = (oracle_perp(d) for d in (d1, d2, d3))
    vectors = [
        tensor(*ks)
        for ks in ((m1, m2, m3), (d1, u2, u3), (u1, d2, u3), (u1, u2, d3), (u1, u2, u3))
    ]
    return orthogonal_complement_pick(vectors[:4], vectors[4])


def kets_from_angles(x: np.ndarray) -> np.ndarray:
    """Kets (..., n, 2) of Bloch angles (..., n, 2): cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    theta = x[..., 0]
    phi = x[..., 1]
    kets = np.empty(x.shape, dtype=complex)
    kets[..., 0] = np.cos(theta / 2.0)
    kets[..., 1] = np.exp(1j * phi) * np.sin(theta / 2.0)
    return kets


def bloch_of_kets(kets):
    """Bloch vectors (..., 3) of kets (..., 2): (2 Re, 2 Im) of conj(k0) k1, |k0|^2 - |k1|^2."""
    k0, k1 = kets[..., 0], kets[..., 1]
    cross = np.conj(k0) * k1
    return np.stack([2.0 * cross.real, 2.0 * cross.imag, abs(k0) ** 2 - abs(k1) ** 2], axis=-1)


def kets_of_bloch(vecs):
    """Kets (..., 2) of Bloch vectors (..., 3): the top eigenvector of n.sigma, by eigh."""
    x, y, z = np.moveaxis(np.asarray(vecs, float), -1, 0)
    n_sigma = np.stack([np.stack([z, x - 1j * y], -1), np.stack([x + 1j * y, -z], -1)], -2)
    return np.linalg.eigh(n_sigma)[1][..., :, 1]


def random_settings(rng):
    """Random windowed settings (redraws on window violations)."""
    while True:
        try:
            return settings_from_plus_kets(kets_from_angles(random_angles(rng, 6)).reshape(3, 2, 2))
        except WindowViolationError:
            continue


def mix_with_white_noise(psi, v):
    """Density operator v|psi><psi| + (1 - v)/8 * I."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {v!r}")
    if isinstance(psi, CanonicalState):
        vec = psi.to_ket()
    else:
        vec = linalg.ket(psi)
        if vec.shape[0] != 8:
            raise ValueError("white-noise mixing expects a three-qubit state")
        linalg.require_normalized(vec)
    return v * np.outer(vec, vec.conj()) + (1.0 - v) / 8.0 * np.eye(8, dtype=complex)


def random_canonical(rng):
    """Uniform-on-sphere amplitudes (all non-negative) with a random phase."""
    lams = np.abs(rng.standard_normal(5))
    lams /= np.linalg.norm(lams)
    return CanonicalState(tuple(lams), float(rng.uniform(0.0, math.pi)))


def oracle_classify(lams, phi, eps=1e-9):
    """Independent classifier: the decision tree over the classification table.

    Branches on l0, then on the zero pattern of l1..l4, then on the equality
    surfaces; ``eps`` defines both "zero" (l_j < eps) and "equal"
    (|x - y| < eps).  Every input resolves to one row, so this oracle never
    reports a gap or an overlap.
    """
    l0, l1, l2, l3, l4 = (float(x) for x in lams)
    # phi multiplies only l1 in the canonical form, so it is unobservable
    # (treated as zero) when l1 vanishes
    phi_eff = float(phi) if l1 >= eps else 0.0

    if l0 < eps:
        det = abs(l1 * l4 * np.exp(1j * phi_eff) - l2 * l3)
        if det < eps:
            return StateClass.A3
        m = np.array([[l1 * np.exp(1j * phi_eff), l2], [l3, l4]], dtype=complex)
        gap = np.max(np.abs(2.0 * (m @ m.conj().T) - np.eye(2)))
        return StateClass.C3 if gap < eps else StateClass.B5
    zero = (l1 < eps, l2 < eps, l3 < eps, l4 < eps)
    if zero == (True, True, True, True):
        return StateClass.A2
    if zero == (False, True, True, True):
        return StateClass.A1
    if zero == (True, False, True, True):
        return StateClass.C1 if abs(l0 * l2 - 0.5) < eps else StateClass.B3
    if zero == (True, True, False, True):
        return StateClass.C2 if abs(l0 * l3 - 0.5) < eps else StateClass.B4
    if zero == (True, True, True, False):
        return StateClass.D14
    if zero == (False, False, True, True):
        return StateClass.B1
    if zero == (False, True, False, True):
        return StateClass.B2
    if zero == (False, True, True, False):
        return StateClass.D8
    if zero == (True, False, False, True):
        return StateClass.D12
    if zero == (True, False, True, False):
        return StateClass.D13
    if zero == (True, True, False, False):
        return StateClass.D9
    if zero == (False, False, False, True):
        return StateClass.D4
    if zero == (False, False, True, False):
        return StateClass.D5
    if zero == (False, True, False, False):
        return StateClass.D7 if abs(l0 - l4) < eps else StateClass.D6
    if zero == (True, False, False, False):
        return StateClass.D11 if abs(l2 - l4) < eps else StateClass.D10
    # all four non-zero
    if phi_eff >= eps:
        return StateClass.D1
    if abs(l2 * l3 - l1 * l4) < eps:
        return StateClass.D3
    return StateClass.D2


def reference_sample_b5(rng):
    """``sample_class(StateClass.B5, rng)`` as a rejection loop on the pair matrix.

    A frozen copy of the sampler before it used the classifier's pair test:
    the draw is kept when both |det m| and max |2 m m^dag - 1| exceed
    0.05 / 4, for m = [[l1 e^{i phi}, l2], [l3, l4]] (neither A.3 nor C.3).
    """
    while True:
        phi = float(rng.uniform(0.05, math.pi - 0.05))
        lams = np.array([0.0, *rng.uniform(0.25, 1.0, 4)])
        lams /= np.linalg.norm(lams)
        m = np.array([[lams[1] * np.exp(1j * phi), lams[2]], [lams[3], lams[4]]], dtype=complex)
        det = abs(np.linalg.det(m))
        gap = np.max(np.abs(2.0 * (m @ m.conj().T) - np.eye(2)))
        if det > 0.05 / 4 and gap > 0.05 / 4:
            return CanonicalState(tuple(lams), phi)


def oracle_row_predicates(lam, phi, eps=1e-9):
    """Independent classifier: the 25 row predicates of the table, on columns.

    ``lam`` is (n, 5) and ``phi`` (n,).  Returns the (n, 25) bool table, one
    column per row of ``CLASS_ORDER``; a sound table has exactly one true
    entry per row.  ``eps`` defines both "zero" (l_j < eps) and "equal"
    (|x - y| < eps).
    """
    lam = np.asarray(lam, dtype=float)
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
    return np.stack(preds, axis=-1)


def oracle_joint_probability(state, kets):
    """Independent path: build the full product vector and contract.

    ``kets`` are the three chosen eigenkets.  Works for kets and densities.
    """
    v = np.kron(np.kron(kets[0], kets[1]), kets[2])
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        return float(abs(np.vdot(v, arr)) ** 2)
    return float(np.vdot(v, arr @ v).real)


def oracle_perp(k):
    """The single-qubit ket orthogonal to k."""
    return np.array([-np.conj(k[1]), np.conj(k[0])])


def oracle_eigenket(plus, sign):
    """The +1 or -1 eigenket of the observable with plus-ket ``plus``."""
    plus = plus / np.linalg.norm(plus)
    return plus if sign == +1 else oracle_perp(plus)


def pair_overlaps(settings):
    """|<U+|D+>| per qubit, from the settings' plus-kets."""
    return [abs(np.vdot(u, d)) for u, d in settings.plus_kets]


def oracle_hardy_probabilities(state, settings):
    """The five canonical-order probabilities via the kron oracle.

    The minus-kets are derived here from the plus-kets, not read from the
    program.
    """
    return np.array(oracle_five_probabilities(state, settings.plus_kets))


def oracle_five_probabilities(state, kets):
    """The five canonical-order probabilities for raw plus-kets (3, 2, 2)."""
    kets = [[k / np.linalg.norm(k) for k in pair] for pair in kets]
    (u1, d1), (u2, d2), (u3, d3) = kets
    m1, m2, m3 = (oracle_perp(d) for d in (d1, d2, d3))
    return [
        oracle_joint_probability(state, ks)
        for ks in ((m1, m2, m3), (d1, u2, u3), (u1, d2, u3), (u1, u2, d3), (u1, u2, u3))
    ]


def oracle_bell_of_kets(state, kets):
    """B via the kron oracle for raw plus-kets (3, 2, 2): qubit, U/D, component."""
    p = oracle_five_probabilities(state, kets)
    return p[0] + p[1] + p[2] + p[3] - p[4]


# The settings construction and the probability kernel in numpy array
# arithmetic, as they were before settings were built one complex number at
# a time and probabilities read from the settings' table: the oracles of
# the rounding contract (kets) and of bit-identical probabilities.

#: each BELL_TERMS term's kind (U 0, D 1) and sign (+1 0, -1 1) per qubit
REFERENCE_TERM_KINDS = np.array([[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]])
REFERENCE_TERM_SIGNS = np.array([[1, 1, 1], [0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]])
#: the eight outcome signs of a context, bit b=0 -> +1, b=1 -> -1 in qubit order
REFERENCE_OUTCOME_SIGNS = np.array(list(product((0, 1), repeat=3)))


def reference_settings_eigenkets(plus_kets):
    """The eigenket stack (3, 2, 2, 2) of plus-kets (3, 2, 2), or of three
    (u0, u1, d0, d1) rows, in numpy arithmetic.

    Raises what ``MeasurementSettings`` raises, for the same ket or qubit.
    """
    kets = np.array(plus_kets, dtype=complex)
    if isinstance(plus_kets, (list, tuple)) and kets.shape == (3, 4):
        kets = kets.reshape(3, 2, 2)
    if kets.shape != (3, 2, 2):
        raise DimensionError(f"settings need shape (3, 2, 2), got {kets.shape}")
    norms = np.sqrt(np.vecdot(kets.real, kets.real) + np.vecdot(kets.imag, kets.imag))
    if (norms < linalg.ZERO_NORM).any():
        raise NormalizationError("cannot normalize a zero vector")
    plus = fix_global_phase(kets / norms[..., None])
    overlaps = np.abs(np.vecdot(plus[:, 0], plus[:, 1]))
    outside = ~((overlaps > WINDOW_TOL) & (overlaps < 1.0 - WINDOW_TOL))
    if outside.any():
        j = int(outside.argmax())
        raise WindowViolationError(j, overlaps[j])
    eigenkets = np.empty((3, 2, 2, 2), dtype=complex)
    eigenkets[:, :, 0] = plus
    eigenkets[:, :, 1] = fix_global_phase(perp_qubit(plus))
    return eigenkets


def reference_product_vectors(kets):
    """Product vectors k1 x k2 x k3 (..., 8) of eigenkets (..., 3, 2)."""
    v = kets[..., 0, :, None, None] * kets[..., 1, None, :, None] * kets[..., 2, None, None, :]
    return v.reshape(kets.shape[:-2] + (8,))


def reference_product_probabilities(state, kets):
    """Outcome probabilities (...) of eigenket triples (..., 3, 2), unclamped.

    |<v|psi>|^2 for a ket psi and Re <v|rho|v> for a density rho, where v is
    the product vector of each triple.
    """
    arr = np.asarray(state, dtype=complex)
    v = reference_product_vectors(kets)
    if arr.ndim == 1:
        amp = v.conj() @ arr
        return amp.real**2 + amp.imag**2
    return (v.conj() * (v @ arr.T)).sum(axis=-1).real


def reference_term_kets(settings):
    """Eigenket triples (5, 3, 2) of the five terms, in BELL_TERMS order."""
    return settings.eigenkets[np.arange(3), REFERENCE_TERM_KINDS, REFERENCE_TERM_SIGNS]


def reference_context_kets(settings):
    """Eigenket triples (5, 8, 3, 2) of every outcome of each term's context."""
    return settings.eigenkets[
        np.arange(3), REFERENCE_TERM_KINDS[:, None], REFERENCE_OUTCOME_SIGNS
    ]


def reference_settings(plus_kets):
    """``MeasurementSettings`` whose kets and table the numpy oracle built."""
    settings = object.__new__(MeasurementSettings)
    eigenkets = reference_settings_eigenkets(plus_kets)
    object.__setattr__(settings, "plus_kets", eigenkets[:, :, 0])
    object.__setattr__(settings, "eigenkets", eigenkets)
    for name, kets in (("bras", reference_context_kets), ("hardy_bras", reference_term_kets)):
        object.__setattr__(settings, name, np.conj(reference_product_vectors(kets(settings))))
    return settings


# The B/C recipe's pair extraction, Schmidt decomposition and lift in numpy
# array arithmetic, as they were before the recipe was computed one complex
# number at a time: the oracles of its rounding contract.


def reference_extract_pair_factorization(psi, product_qubit):
    """(chi, eta) of ``hardy.extract_pair_factorization``, via ``tensordot`` and ``eigh``."""
    psi3 = np.asarray(psi, dtype=complex).reshape(2, 2, 2)
    pair_axes = tuple(ax for ax in range(3) if ax != product_qubit)
    rho = np.tensordot(psi3, psi3.conj(), axes=(pair_axes, pair_axes))
    eigvals, eigvecs = np.linalg.eigh(rho)
    purity = float(eigvals[-1])
    if purity < 1.0 - 1e-9:
        raise ConstructionFailureError(
            f"qubit {product_qubit + 1} is not in a product state "
            f"(largest reduced eigenvalue {purity!r})"
        )
    chi = fix_global_phase(eigvecs[:, -1])
    eta = np.tensordot(np.conj(chi), psi3, axes=(0, product_qubit)).reshape(4)
    n = np.linalg.norm(eta)
    if n < linalg.ZERO_NORM:
        raise NormalizationError("cannot normalize a zero vector")
    return chi, eta / n


def reference_schmidt_decompose(state):
    """``linalg.schmidt_decompose`` on numpy 2x2 matrices, raising what it raises."""
    arr = linalg.ket(state)
    if arr.shape[0] != 4:
        raise DimensionError("schmidt_decompose expects a two-qubit ket")
    linalg.require_normalized(arr)

    m = arr.reshape(2, 2)
    h = m.conj().T @ m
    trace = h[0, 0].real + h[1, 1].real
    off = h[0, 1]
    diff = h[0, 0].real - h[1, 1].real
    disc = np.sqrt(max(diff * diff + 4.0 * abs(off) ** 2, 0.0))
    mu0 = 0.5 * (trace + disc)
    s0 = float(np.sqrt(mu0))
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    s1 = float(abs(det) / s0) if s0 > linalg.ZERO_NORM else 0.0

    cand1 = np.array([off, mu0 - h[0, 0].real], dtype=complex)
    cand2 = np.array([mu0 - h[1, 1].real, np.conj(off)], dtype=complex)
    n1, n2 = np.linalg.norm(cand1), np.linalg.norm(cand2)
    if max(n1, n2) < 1e-14 * max(trace, 1.0):
        v0 = np.array([1.0, 0.0], dtype=complex)
    else:
        v0 = cand1 / n1 if n1 >= n2 else cand2 / n2
    lead = 0 if abs(v0[0]) >= abs(v0[1]) else 1
    v0 = v0 * np.conj(v0[lead] / abs(v0[lead]))
    v1 = perp_qubit(v0)

    mv0 = m @ v0
    n0 = np.linalg.norm(mv0)
    u0 = mv0 / n0 if n0 > linalg.ZERO_NORM else np.array([1.0, 0.0], dtype=complex)
    u1 = perp_qubit(u0)
    phase = np.vdot(u1, m @ v1)
    if abs(phase) > linalg.ZERO_NORM:
        u1 = u1 * (phase / abs(phase))
    return linalg.SchmidtDecomposition(
        coefficients=(s0, s1), basis_a=(u0, u1), basis_b=(np.conj(v0), np.conj(v1))
    )


def reconstruct(dec):
    """The two-qubit ket a|u0>|v0> + b|u1>|v1> of a ``linalg.SchmidtDecomposition``."""
    a, b = dec.coefficients
    return a * np.kron(dec.basis_a[0], dec.basis_b[0]) + b * np.kron(
        dec.basis_a[1], dec.basis_b[1]
    )


def pair_hardy_probability(a: float, b: float) -> float:
    """Two-qubit Hardy success probability for Schmidt coefficients a > b.

    Closed form a^2 b^2 (a^2 - b^2)^2 / (a^3 + b^3)^2, re-derived from the
    zero conditions of the two-qubit construction
    (``hardy.two_qubit_hardy_coefficients``).
    """
    return a**2 * b**2 * (a**2 - b**2) ** 2 / (a**3 + b**3) ** 2


def reference_lift_pair_kets(chi, dec, product_qubit, first_coeffs, second_coeffs):
    """The plus-kets (3, 2, 2) of ``hardy._lift_pair_kets``, lifted as arrays."""

    def lift(coeffs, basis):
        c = np.asarray(coeffs)
        return c[:, :1] * basis[0] + c[:, 1:] * basis[1]

    chi = np.asarray(chi, dtype=complex)
    first, second = (ax for ax in range(3) if ax != product_qubit)
    chi_perp = perp_qubit(chi)
    kets = np.empty((3, 2, 2), dtype=complex)
    kets[first] = lift(first_coeffs, dec.basis_a)
    kets[second] = lift(second_coeffs, dec.basis_b)
    kets[product_qubit] = chi + chi_perp, chi_perp
    return kets


def outcome_distribution(state, settings, kinds):
    """All eight outcome probabilities for one measurement context.

    ``kinds`` picks 'U' or 'D' per qubit; entry index encodes the outcome
    signs via bit b=0 -> +1, b=1 -> -1 in qubit order.
    """
    if len(kinds) != 3 or not set(kinds) <= {"U", "D"}:
        raise ValueError(f"kinds must be three of 'U' or 'D', got {kinds!r}")
    kind_index = [{"U": 0, "D": 1}[k] for k in kinds]
    return reference_product_probabilities(
        state, settings.eigenkets[np.arange(3), kind_index, REFERENCE_OUTCOME_SIGNS]
    )


def reference_norm2(z):
    return z.real * z.real + z.imag * z.imag


def reference_min_eigpair(p, r, q, fallback):
    """The 2x2 minimum eigenpair of [[p, q], [conj(q), r]], the eigenvector
    stacked, then normalized by its own summed squared norm; ``fallback`` is
    kept where the matrix is a multiple of the identity."""
    half = 0.5 * (p - r)
    h = np.sqrt(half * half + reference_norm2(q))
    lam = 0.5 * (p + r) - h
    upper = (half >= 0.0)[..., None]
    v = np.where(
        upper,
        np.stack([q, -(half + h) + 0j], axis=-1),
        np.stack([(h - half) + 0j, -np.conj(q)], axis=-1),
    )
    n2 = reference_norm2(v).sum(axis=-1, keepdims=True)
    ok = n2 > 0.0
    return lam, np.where(ok, v / np.sqrt(np.where(ok, n2, 1.0)), fallback)


def reference_sweep(psi3, kets):
    """The see-saw sweep in ket space, as first written: two 2x2 minimum
    eigenpairs per party and freshly stacked kets (S, 3, 2, 2).  An oracle
    independent of the Bloch sweep, which must match it to rounding."""

    def perp(k):
        return np.stack([-np.conj(k[..., 1]), np.conj(k[..., 0])], axis=-1)

    kets = kets.copy()
    for j in range(3):
        o, t = [k for k in range(3) if k != j]
        tensor = np.moveaxis(psi3, j, 0)
        u_o, d_o = kets[:, o, 0], kets[:, o, 1]
        u_t, d_t = kets[:, t, 0], kets[:, t, 1]
        bra_t = np.conj(np.stack([u_t, d_t, perp(d_t)], axis=1))
        part = (tensor[None, None] * bra_t[:, :, None, None, :]).sum(axis=-1)
        bra_o = np.conj(np.stack([perp(d_o), u_o, d_o, u_o], axis=1))
        a, b, c3, c4 = np.moveaxis(
            (part[:, [2, 0, 0, 1]] * bra_o[:, :, None, :]).sum(axis=-1), 1, 0
        )
        na, nb = reference_norm2(a), reference_norm2(b)
        n3, n4 = reference_norm2(c3), reference_norm2(c4)
        lam_d, kets[:, j, 1] = reference_min_eigpair(
            nb[:, 0] - na[:, 0],
            nb[:, 1] - na[:, 1],
            b[:, 0] * np.conj(b[:, 1]) - a[:, 0] * np.conj(a[:, 1]),
            kets[:, j, 1],
        )
        lam_u, kets[:, j, 0] = reference_min_eigpair(
            n3[:, 0] + n4[:, 0] - nb[:, 0],
            n3[:, 1] + n4[:, 1] - nb[:, 1],
            c3[:, 0] * np.conj(c3[:, 1]) + c4[:, 0] * np.conj(c4[:, 1])
            - b[:, 0] * np.conj(b[:, 1]),
            kets[:, j, 0],
        )
    return kets, na.sum(axis=-1) + lam_d + lam_u


def oracle_correlation_tensor(psi):
    """T[mu, nu, lam] = <psi|sigma_mu x sigma_nu x sigma_lam|psi> by kron products."""
    paulis = [np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1])]
    psi = np.asarray(psi, complex)
    return np.array(
        [
            [[np.vdot(psi, tensor(a, b, c) @ psi).real for c in paulis] for b in paulis]
            for a in paulis
        ]
    )


#: (b - c3 - c4, a - b, c3 + c4 + a) from the rows (c3, b, c4, a)
REFERENCE_COMBINE = np.array([[-1.0, 1.0, -1.0, 0.0], [0.0, -1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 1.0]])


def reference_bloch_sweep(tensors, vecs):
    """The Bloch see-saw sweep as first written: freshly stacked frame rows
    (1, u), (1, d), (1, -d) of the other two qubits per party, with
    ``tensors`` from ``visibility._party_tensors``.  ``visibility._sweep``
    must match it bit for bit."""
    vecs = vecs.copy()
    one = np.ones((len(vecs), 1))
    for j in range(3):
        o, t = [k for k in range(3) if k != j]
        frame_o, frame_t = (
            np.stack(
                [
                    np.hstack([one, vecs[:, q, 0]]),
                    np.hstack([one, vecs[:, q, 1]]),
                    np.hstack([one, -vecs[:, q, 1]]),
                ],
                axis=1,
            )
            for q in (o, t)
        )
        pairs = frame_o[:, [1, 0, 0, 2], :, None] * frame_t[:, [0, 0, 1, 2], None, :]
        terms = REFERENCE_COMBINE @ (pairs.reshape(-1, 4, 16) @ tensors[j])
        minus_h = terms[:, :2, 1:]
        size = np.hypot.reduce(minus_h, axis=-1)
        ok = size[..., None] > 0.0
        vecs[:, j] = np.where(ok, minus_h / np.where(ok, size[..., None], 1.0), vecs[:, j])
    return vecs, (terms[:, 2, 0] - size[:, 0] - size[:, 1]) / 8.0


def reference_extrapolate(f_hist, g_hist, depth):
    """The Anderson extrapolation as first written, with separate residual
    and output histories (S, ANDERSON_DEPTH, 18), latest first.
    ``visibility._extrapolate`` must match it bit for bit."""
    lags = np.arange(1, visibility.ANDERSON_DEPTH)
    valid = (lags < depth[:, None])[..., None]
    df = (f_hist[:, :1] - f_hist[:, 1:]) * valid
    dg = (g_hist[:, :1] - g_hist[:, 1:]) * valid
    gram = df @ np.swapaxes(df, 1, 2)
    trace = np.diagonal(gram, axis1=1, axis2=2).sum(axis=-1)
    # a relative ridge, and a unit diagonal on unused differences (gamma_i = 0)
    ridge = (1e-10 * trace + np.finfo(float).tiny)[:, None] + ~valid[..., 0]
    gram = gram + ridge[:, :, None] * np.eye(visibility.ANDERSON_DEPTH - 1)
    gamma = np.linalg.solve(gram, df @ f_hist[:, 0, :, None])
    x = (g_hist[:, 0] - (np.swapaxes(gamma, 1, 2) @ dg)[:, 0]).reshape(-1, 3, 2, 3)
    return x / np.sqrt((x * x).sum(axis=-1, keepdims=True))


def nelder_mead_bell(state, starts, seed):
    """Independent minimizer: seeded multistart Nelder-Mead over 12 Bloch angles."""
    from scipy.optimize import minimize

    def objective(x):
        theta, phi = x[0::2], x[1::2]
        kets = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=-1)
        return oracle_bell_of_kets(state, kets.reshape(3, 2, 2))

    best = np.inf
    for child in np.random.SeedSequence(seed).spawn(starts):
        res = minimize(
            objective,
            random_angles(np.random.default_rng(child), 6).reshape(12),
            method="Nelder-Mead",
            options={"maxiter": 4000, "fatol": 1e-12, "xatol": 1e-9, "adaptive": True},
        )
        best = min(best, float(res.fun))
    return best


def nelder_mead_search(psi, attempts=40, seed=0, zero_tol=ZERO_TOL, maxiter=800):
    """Independent search: seeded scalar Nelder-Mead over the six U Bloch angles.

    Each D+ is taken perpendicular to its contraction vector m_j, and
    Nelder-Mead drives the remaining |<m1_hat m2_hat m3_hat|psi>|^2 to zero.
    Attempts run one at a time in seeded order; the first whose plus-kets
    (3, 2, 2) lie in the window and satisfy the Hardy pattern under the kron
    oracle is returned, else None.
    """
    from scipy.optimize import minimize

    psi = np.asarray(psi, dtype=complex)
    psi3 = psi.reshape(2, 2, 2)

    def directions(x):
        theta, phi = x[0::2], x[1::2]
        u = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=-1)
        bra = u.conj()
        m = [
            np.einsum("abc,b,c->a", psi3, bra[1], bra[2]),
            np.einsum("abc,a,c->b", psi3, bra[0], bra[2]),
            np.einsum("abc,a,b->c", psi3, bra[0], bra[1]),
        ]
        return u, m

    def objective(x):
        _, m = directions(x)
        norms = [np.linalg.norm(v) for v in m]
        if min(norms) < 1e-14:
            return 1.0
        v = np.kron(np.kron(m[0] / norms[0], m[1] / norms[1]), m[2] / norms[2])
        return abs(np.vdot(v, psi)) ** 2

    for child in np.random.SeedSequence(seed).spawn(attempts):
        rng = np.random.default_rng(child)
        x0 = np.empty(6)
        x0[0::2] = np.arccos(rng.uniform(-1.0, 1.0, 3))
        x0[1::2] = rng.uniform(0.0, 2.0 * np.pi, 3)
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"maxiter": maxiter, "fatol": 1e-16, "xatol": 1e-10, "adaptive": True},
        )
        if res.fun > 0.1 * zero_tol:
            continue
        u, m = directions(res.x)
        d = [np.array([-np.conj(v[1]), np.conj(v[0])]) / np.linalg.norm(v) for v in m]
        if not all(1e-9 < abs(np.vdot(u[j], d[j])) < 1 - 1e-9 for j in range(3)):
            continue
        minus = [np.array([-np.conj(k[1]), np.conj(k[0])]) for k in d]
        probs = [
            oracle_joint_probability(psi, kets)
            for kets in (
                minus,
                (d[0], u[1], u[2]),
                (u[0], d[1], u[2]),
                (u[0], u[1], d[2]),
                (u[0], u[1], u[2]),
            )
        ]
        if max(probs[:4]) <= zero_tol and probs[4] > zero_tol:
            return np.stack([np.stack([u[j], d[j]]) for j in range(3)])
    return None


# The closed-form search in numpy arrays, every attempt's candidates in one
# einsum batch: an independent oracle of ``hardy.search_hardy_observables``,
# which computes them one complex number at a time.

#: per qubit j, its other two qubits k < l
ORACLE_OTHERS = ((1, 2), (0, 2), (0, 1))


def einsum_candidates(psi, us):
    """Every candidate of the closed-form search from U+ kets ``us`` (A, 3, 2).

    Qubit j (psi's axes moved to j, k, l) keeps m_j = <u_k u_l|psi>, and
    its D-D-D- amplitude is the quadratic form u_j^T F u_j, F by einsum.
    The roots of c0 x^2 + c1 x y + c2 y^2 (c0 = F00, c1 = F01 + F10, c2 =
    F11) come from the quadratic formula on the larger end coefficient, the
    root farther from zero in its variable first, a double root twice, and
    (1, 0), (0, 1) when c0 = c2 = 0.  Returns P5 = |<u_j|m_j>|^2 (A, 6),
    the candidates' unit U+ kets (A, 6, 3, 2) and contraction vectors m
    (A, 6, 3, 2), qubit j's two roots at 2j and 2j + 1.
    """
    psi3 = np.asarray(psi, dtype=complex).reshape(2, 2, 2)
    kets = np.repeat(np.asarray(us, dtype=complex)[:, None], 6, axis=1)
    ms = np.empty_like(kets)
    p5 = np.empty(kets.shape[:2])
    for j, (k, l) in enumerate(ORACLE_OTHERS):
        t = np.moveaxis(psi3, j, 0)
        mk = np.einsum("xyz,az->axy", t, np.conj(us[:, l]))
        ml = np.einsum("xyz,ay->axz", t, np.conj(us[:, k]))
        mj = np.einsum("axy,ay->ax", mk, np.conj(us[:, k]))
        f = np.einsum("ax,xyz,awy,avz->awv", np.conj(mj), t, np.conj(mk), np.conj(ml))
        c0, c1, c2 = f[:, 0, 0], f[:, 0, 1] + f[:, 1, 0], f[:, 1, 1]
        swap = np.abs(c0) < np.abs(c2)
        a, c = np.where(swap, c2, c0), np.where(swap, c0, c2)
        s = np.sqrt(c1 * c1 - 4.0 * a * c)
        far = np.where(np.abs(c1 + s) >= np.abs(c1 - s), -(c1 + s), s - c1)  # 2 a t
        # homogeneous (t, 1) of the far root t = far / 2a and the near root 2c / far
        roots = np.stack([np.stack([far, 2.0 * a], -1), np.stack([2.0 * c, far], -1)], 1)
        double_zero = (far == 0)[:, None]
        roots[:, 1] = np.where(double_zero, roots[:, 0], roots[:, 1])
        roots = np.where(swap[:, None, None], roots[..., ::-1], roots)
        roots = np.where((a == 0)[:, None, None], np.eye(2), roots)
        roots /= np.linalg.norm(roots, axis=-1, keepdims=True)
        rows = slice(2 * j, 2 * j + 2)
        kets[:, rows, j] = roots
        ms[:, rows, j] = mj[:, None]
        ms[:, rows, k] = np.einsum("arx,axy->ary", np.conj(roots), mk)
        ms[:, rows, l] = np.einsum("arx,axz->arz", np.conj(roots), ml)
        p5[:, rows] = np.abs(np.einsum("arx,ax->ar", np.conj(roots), mj)) ** 2
    return p5, kets, ms


def one_batch_search(psi, attempts=40, seed=0, zero_tol=ZERO_TOL):
    """The closed-form search with every attempt's candidates in one batch.

    Draws all starts up front and takes their candidates from
    ``einsum_candidates``.  Each attempt, in seeded order, verifies its
    candidates with every |m_i| > VANISHING_NORM, largest P5 first (the
    first of those that tie up to CANDIDATE_RTOL first), with the
    numpy settings oracle and the kron probability oracle.  Returns the
    first satisfied candidate's settings (or None) and the failure reasons
    of the attempts before it, named as the search names them.
    """
    vec = linalg.ket(psi)
    angles = [
        random_angles(np.random.default_rng(c), 3)
        for c in np.random.SeedSequence(seed).spawn(attempts)
    ]
    p5, kets, ms = einsum_candidates(vec, kets_from_angles(np.reshape(angles, (-1, 3, 2))))
    reasons = []
    for a in range(attempts):
        reason = "vanishing_contraction"
        left = list(range(6))
        while left:
            # the first of the candidates left whose P5 ties with the largest
            top = p5[a, left].max() * (1.0 - CANDIDATE_RTOL)
            i = next(i for i in left if p5[a, i] >= top)
            left.remove(i)
            if not (np.linalg.norm(ms[a, i], axis=-1) > VANISHING_NORM).all():
                continue
            try:
                settings = reference_settings(np.stack([kets[a, i], perp_qubit(ms[a, i])], axis=1))
            except (WindowViolationError, NormalizationError):
                reason = "outside_window" if reason == "vanishing_contraction" else reason
                continue
            probs = oracle_hardy_probabilities(vec, settings)
            if max(probs[:4]) <= zero_tol < probs[4]:
                return settings, reasons
            reason = "unverified"
        reasons.append(reason)
    return None, reasons


def noisy_bell_value(psi, visibility, settings):
    """B for the white-noise mixture of a pure state at the given visibility."""
    return bell_value(mix_with_white_noise(psi, visibility), settings).bell_value


def threshold_visibility_bisection(psi, settings, tol=1e-12, max_steps=200):
    """Cross-check: bisect the sign change of B(v) at fixed settings."""
    pure = bell_value(np.asarray(psi, dtype=complex), settings).bell_value
    if pure >= 0.0:
        raise VisibilityUndefinedError(
            f"settings do not violate at v = 1 (B = {pure!r})"
        )
    lo, hi = 0.0, 1.0  # B(lo) = 3/8 > 0 > B(hi)
    for _ in range(max_steps):
        mid = 0.5 * (lo + hi)
        if noisy_bell_value(psi, mid, settings) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


def staged_minimize_bell(psi, starts=64, seed=0, tol=1e-10, maxiter=4000):
    """``minimize_bell`` as staged batches: a bit-level oracle of its schedule.

    Every start's first descent, each of its HOPS hops and its polish run as
    six ``staged_descend`` calls over all starts, each until its slowest
    start is done.  Per start this is the same iteration as the package's
    one pipelined loop, so the results must match bit for bit; only
    ``sweeps`` differs.  The correlation tensor and the conversions between
    angles, Bloch vectors and kets are the package's own.
    """
    vec = linalg.ket(psi)
    tensors = visibility._party_tensors(vec.reshape(2, 2, 2))
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(int(starts))]
    angles = np.stack([random_angles(rng, 6) for rng in rngs])
    vecs = visibility._bloch_vectors(angles).reshape(-1, 3, 2, 3)
    vecs, value, _, sweeps = staged_descend(tensors, vecs, visibility.LOOSE_TOL, maxiter)
    for _ in range(visibility.HOPS):
        hopped, hopped_value, _, hop_sweeps = staged_descend(
            tensors, staged_kick(vecs, rngs), visibility.LOOSE_TOL, maxiter
        )
        lower = hopped_value < value
        vecs[lower], value[lower] = hopped[lower], hopped_value[lower]
        sweeps += hop_sweeps
    vecs, value, gain, polish_sweeps = staged_descend(tensors, vecs, tol, maxiter)

    best = int(np.argmin(value))  # the first of equal values, in start order
    settings = settings_from_plus_kets(
        [(u, visibility._inside_window(u, d)) for u, d in visibility._plus_kets(vecs[best])]
    )
    best_value = bell_value(vec, settings).bell_value
    threshold = (
        visibility.threshold_visibility(best_value) if best_value < -1e-12 else None
    )
    return visibility.OptimizationResult(
        best_value=best_value,
        best_settings=settings,
        threshold_visibility=threshold,
        starts=int(starts),
        converged=bool(gain[best] <= tol),
        seed=int(seed),
        start_values=tuple(float(v) for v in value),
        sweeps=sweeps + polish_sweeps,
    )


def staged_descend(tensors, vecs, tol, maxiter):
    """Sweep each start until a plain sweep lowers its B by at most ``tol``.

    The see-saw descent as one staged batch, for ``staged_minimize_bell``,
    on the frozen ``reference_bloch_sweep`` and ``reference_extrapolate``.
    The sweeps are a safeguarded Anderson iteration (Walker & Ni, SIAM J.
    Numer. Anal. 49, 1715, 2011) on the sweep map, which sends a start's
    Bloch vectors, viewed as 18 reals, to the vectors after one sweep.
    Once a plain sweep of a start gains less than ANDERSON_ONSET, its
    inputs are extrapolated from its last ANDERSON_DEPTH iterates.  An
    extrapolated input is kept only if the sweep from it lowers B;
    otherwise the start goes back to its last kept vectors and value,
    forgets its history and sweeps plainly.  A sweep from an extrapolated
    input never stops a start, and one that gains at most ``tol`` is
    followed by a plain sweep, so the returned gain is always a plain
    sweep's.  ``maxiter`` caps the batched sweeps.

    Returns the vectors, the final B and the last plain sweep's improvement
    per start, and the number of batched sweeps run.
    """
    count = len(vecs)
    vecs = vecs.copy()  # last kept sweep output (the start vectors at first)
    inputs = vecs.copy()  # next sweep input of every start
    value = np.full(count, np.inf)
    gain = np.full(count, np.inf)  # last plain sweep's
    onset = np.zeros(count, bool)
    extrapolated = np.zeros(count, bool)
    depth = np.zeros(count, int)
    f_hist = np.zeros((count, visibility.ANDERSON_DEPTH, 18))
    g_hist = np.zeros((count, visibility.ANDERSON_DEPTH, 18))
    active = np.arange(count)
    sweeps = 0
    while active.size and sweeps < maxiter:
        sweeps += 1
        out, new = reference_bloch_sweep(tensors, inputs[active])
        plain = ~extrapolated[active]
        lowered = value[active] - new
        kept = plain | (lowered > 0.0)
        keep = active[kept]
        gain[active[plain]] = lowered[plain]
        onset[active[plain & (lowered < visibility.ANDERSON_ONSET)]] = True
        value[keep], vecs[keep] = new[kept], out[kept]
        g_new = out[kept].reshape(-1, 18)
        f_hist[keep, 1:], g_hist[keep, 1:] = f_hist[keep, :-1], g_hist[keep, :-1]
        f_hist[keep, 0] = g_new - inputs[keep].reshape(-1, 18)
        g_hist[keep, 0] = g_new
        depth[keep] = np.minimum(depth[keep] + 1, visibility.ANDERSON_DEPTH)
        depth[active[~kept]] = 0

        going = ~plain | (lowered > tol)
        active, lowered = active[going], lowered[going]
        inputs[active] = vecs[active]
        extrapolated[:] = False
        # a rejected start has depth 0; one whose sweep gained at most tol sweeps plainly
        fast = active[onset[active] & (depth[active] >= 2) & (lowered > tol)]
        if fast.size:
            inputs[fast] = reference_extrapolate(f_hist[fast], g_hist[fast], depth[fast])
            extrapolated[fast] = True
    return vecs, value, gain, sweeps


def staged_kick(vecs, rngs):
    """Rotate every Bloch vector by KICK_ANGLE about an axis drawn from its
    start's generator, by Rodrigues' rotation matrix written out."""
    axis = np.stack([rng.standard_normal((3, 2, 3)) for rng in rngs])
    n = axis / np.linalg.norm(axis, axis=-1, keepdims=True)
    nx, ny, nz = np.moveaxis(n, -1, 0)
    zero = np.zeros_like(nx)
    cross = np.stack(
        [
            np.stack([zero, -nz, ny], axis=-1),
            np.stack([nz, zero, -nx], axis=-1),
            np.stack([-ny, nx, zero], axis=-1),
        ],
        axis=-2,
    )
    c, s = math.cos(visibility.KICK_ANGLE), math.sin(visibility.KICK_ANGLE)
    rotation = c * np.eye(3) + s * cross + (1.0 - c) * n[..., :, None] * n[..., None, :]
    return (rotation @ vecs[..., None])[..., 0]
