"""Ket checks and the two-qubit Schmidt decomposition.

Kets are plain 1-d complex numpy arrays of length 2, 4 or 8.  Basis
ordering for multi-qubit kets is |abc> <-> index 4a + 2b + c.  All functions are pure and never
mutate their inputs.

The two-qubit Schmidt decomposition runs in closed form and Python complex
arithmetic, which on four numbers costs less than numpy's per-call
overhead, and returns its bases as tuples of Python complex numbers.
"""

from __future__ import annotations

import cmath
import math
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


def require_normalized(k) -> np.ndarray:
    """The ket as a complex array; its norm must lie within 1e-9 of 1."""
    arr = np.asarray(k, dtype=complex)
    dev = abs(np.linalg.norm(arr) - 1.0)
    if dev > 1e-9:
        raise NormalizationError(f"ket norm deviates from 1 by {dev:.3e}")
    return arr


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Biorthogonal form a|u0>|v0> + b|u1>|v1> of a two-qubit pure state.

    ``coefficients`` is (a, b) with a >= b >= 0 and a^2 + b^2 = 1 for a
    normalized input; ``basis_a``/``basis_b`` are orthonormal local bases,
    each ket a pair of Python complex numbers.
    """

    coefficients: tuple[float, float]
    basis_a: tuple[tuple[complex, complex], tuple[complex, complex]]
    basis_b: tuple[tuple[complex, complex], tuple[complex, complex]]


def _norm(a: complex, b: complex) -> float:
    """Length of the ket (a, b): sqrt of the summed squares, as np.linalg.norm sums them."""
    return math.sqrt(a.real * a.real + b.real * b.real + (a.imag * a.imag + b.imag * b.imag))


def schmidt_decompose(state) -> SchmidtDecomposition:
    """Schmidt decomposition of a normalized two-qubit ket.

    Uses the closed-form 2x2 singular value decomposition: the dominant
    eigenvector of M^dag M for the coefficient matrix M[a][b] = amplitude of
    |ab>, with the smaller singular value recovered from |det M| to avoid
    cancellation, and left vectors phase-locked to the data so the
    reconstruction is exact to machine precision even for degenerate or
    product inputs.  Computed in Python complex arithmetic.
    """
    arr = np.asarray(state, dtype=complex)
    if arr.shape != (4,):
        raise DimensionError(f"schmidt_decompose expects a two-qubit ket, got shape {arr.shape}")
    amps = m00, m01, m10, m11 = arr.tolist()
    if not all(map(cmath.isfinite, amps)):
        raise ValueError("ket contains non-finite entries")
    dev = abs(math.hypot(*map(abs, amps)) - 1.0)
    if dev > 1e-9:
        raise NormalizationError(f"ket norm deviates from 1 by {dev:.3e}")

    # M^dag M = [[p, q], [conj q, r]]; its largest eigenvalue mu0 =
    # (p + r + sqrt((p - r)^2 + 4 |q|^2)) / 2, and (x, y) the longer of the
    # proportional eigenvectors (q, mu0 - p) and (mu0 - r, conj q) times
    # 1 / its norm (numpy's rounding of a division by a real), or (1, 0)
    # when both (nearly) vanish: the matrix is then (nearly) scalar
    p = (m00.conjugate() * m00 + m10.conjugate() * m10).real
    r = (m01.conjugate() * m01 + m11.conjugate() * m11).real
    q = m00.conjugate() * m01 + m10.conjugate() * m11
    diff, size = p - r, abs(q)
    mu0 = 0.5 * ((p + r) + math.sqrt(diff * diff + 4.0 * size * size))
    n1, n2 = _norm(q, mu0 - p), _norm(mu0 - r, q.conjugate())
    if max(n1, n2) < 1e-14 * max(p + r, 1.0):
        x, y = 1.0 + 0j, 0j
    elif n1 >= n2:
        x, y = q * (1.0 / n1), (mu0 - p) * (1.0 / n1)
    else:
        x, y = (mu0 - r) * (1.0 / n2), q.conjugate() * (1.0 / n2)
    s0 = math.sqrt(mu0)
    s1 = abs(m00 * m11 - m01 * m10) / s0 if s0 > ZERO_NORM else 0.0

    # dominant right singular vector v0 = (x, y), its larger component made
    # real >= 0; v1 = perp(v0)
    lead = x if abs(x) >= abs(y) else y
    inv = 1.0 / abs(lead)
    phase = complex(lead.real * inv, -lead.imag * inv)
    x, y = x * phase, y * phase

    xc, yc = x.conjugate(), y.conjugate()
    a, b = m00 * x + m01 * y, m10 * x + m11 * y  # M v0
    n0 = _norm(a, b)
    a, b = (a * (1.0 / n0), b * (1.0 / n0)) if n0 > ZERO_NORM else (1.0 + 0j, 0j)
    # the second left vector is perp(u0) = (c, d), its phase read off the
    # data: that of <perp(u0)|M v1>
    c, d = -b.conjugate(), a.conjugate()
    phase = a * (m11 * xc - m10 * yc) - b * (m01 * xc - m00 * yc)
    size = abs(phase)
    if size > ZERO_NORM:
        inv = 1.0 / size
        phase = complex(phase.real * inv, phase.imag * inv)
        c, d = c * phase, d * phase

    return SchmidtDecomposition(
        coefficients=(s0, s1), basis_a=((a, b), (c, d)), basis_b=((xc, yc), (-y, x))
    )
