"""Dense complex linear algebra for one, two and three qubits.

Kets are plain 1-d complex numpy arrays of length 2, 4 or 8.  Basis
ordering for multi-qubit kets is |abc> <-> index 4a + 2b + c.  All functions are pure and never
mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NormalizationError

_ALLOWED_DIMS = (2, 4, 8)
#: norms below this count as zero
ZERO_NORM = 1e-150


def ket(values) -> np.ndarray:
    """Coerce to a finite complex ket of dimension 2, 4 or 8."""
    arr = np.array(values, dtype=complex)
    if arr.ndim != 1 or arr.shape[0] not in _ALLOWED_DIMS:
        raise DimensionError(
            f"ket must be 1-d of length 2, 4 or 8, got shape {arr.shape}"
        )
    if not (np.isfinite(arr.real).all() and np.isfinite(arr.imag).all()):
        raise ValueError("ket contains non-finite entries")
    return arr


def normalize(k) -> np.ndarray:
    """Return k / ||k||; rejects (near-)zero vectors."""
    arr = np.asarray(k, dtype=complex)
    n = np.linalg.norm(arr)
    if n < ZERO_NORM:
        raise NormalizationError("cannot normalize a zero vector")
    return arr / n


def require_normalized(k, atol: float = 1e-9) -> np.ndarray:
    arr = np.asarray(k, dtype=complex)
    dev = abs(np.linalg.norm(arr) - 1.0)
    if dev > atol:
        raise NormalizationError(f"ket norm deviates from 1 by {dev:.3e}")
    return arr


def fix_global_phase(k, tiny: float = 1e-12) -> np.ndarray:
    """Rotate each ket's global phase so its first non-negligible amplitude is real >= 0.

    The kets lie along the last axis; a ket with no amplitude above ``tiny``
    is kept.  Magnitudes are taken with ``np.hypot``, which rounds as
    ``abs`` of one complex scalar does.
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


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Biorthogonal form a|u0>|v0> + b|u1>|v1> of a two-qubit pure state.

    ``coefficients`` is (a, b) with a >= b >= 0 and a^2 + b^2 = 1 for a
    normalized input; ``basis_a``/``basis_b`` are orthonormal local bases.
    """

    coefficients: tuple[float, float]
    basis_a: tuple[np.ndarray, np.ndarray]
    basis_b: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        for pair in (self.basis_a, self.basis_b):
            for v in pair:
                v.setflags(write=False)

    def reconstruct(self) -> np.ndarray:
        a, b = self.coefficients
        return a * np.kron(self.basis_a[0], self.basis_b[0]) + b * np.kron(
            self.basis_a[1], self.basis_b[1]
        )


def schmidt_decompose(state) -> SchmidtDecomposition:
    """Schmidt decomposition of a normalized two-qubit ket.

    Uses the closed-form 2x2 singular value decomposition: eigenvectors of
    M^dag M for the coefficient matrix M[a][b] = amplitude of |ab>, with the
    smaller singular value recovered from |det M| to avoid cancellation, and
    left vectors phase-locked to the data so the reconstruction is exact to
    machine precision even for degenerate or product inputs.
    """
    arr = ket(state)
    if arr.shape[0] != 4:
        raise DimensionError("schmidt_decompose expects a two-qubit ket")
    require_normalized(arr, atol=1e-9)

    m = arr.reshape(2, 2)
    h = m.conj().T @ m
    trace = h[0, 0].real + h[1, 1].real
    off = h[0, 1]
    diff = h[0, 0].real - h[1, 1].real
    disc = np.sqrt(max(diff * diff + 4.0 * abs(off) ** 2, 0.0))
    mu0 = 0.5 * (trace + disc)
    s0 = float(np.sqrt(mu0))
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    s1 = float(abs(det) / s0) if s0 > ZERO_NORM else 0.0

    # dominant right singular vector: pick the better-conditioned of the two
    # proportional eigenvector formulas for the 2x2 Hermitian h
    cand1 = np.array([off, mu0 - h[0, 0].real], dtype=complex)
    cand2 = np.array([mu0 - h[1, 1].real, np.conj(off)], dtype=complex)
    n1, n2 = np.linalg.norm(cand1), np.linalg.norm(cand2)
    if max(n1, n2) < 1e-14 * max(trace, 1.0):
        v0 = np.array([1.0, 0.0], dtype=complex)  # h is (close to) a scalar matrix
    else:
        v0 = cand1 / n1 if n1 >= n2 else cand2 / n2
    lead = 0 if abs(v0[0]) >= abs(v0[1]) else 1
    v0 = v0 * np.conj(v0[lead] / abs(v0[lead]))
    v1 = perp_qubit(v0)

    mv0 = m @ v0
    n0 = np.linalg.norm(mv0)
    u0 = mv0 / n0 if n0 > ZERO_NORM else np.array([1.0, 0.0], dtype=complex)
    u1 = perp_qubit(u0)
    phase = np.vdot(u1, m @ v1)  # second left vector's phase, read off the data
    if abs(phase) > ZERO_NORM:
        u1 = u1 * (phase / abs(phase))

    return SchmidtDecomposition(
        coefficients=(s0, s1),
        basis_a=(u0, u1),
        basis_b=(np.conj(v0), np.conj(v1)),
    )
