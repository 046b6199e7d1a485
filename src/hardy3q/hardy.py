"""Per-class construction of Hardy-type nonlocality witnesses.

The Hardy conditions ask for measurement settings under which four of the
five canonical joint probabilities vanish while the fifth is positive:

    P(D1=+1, U2=+1, U3=+1) = 0
    P(U1=+1, D2=+1, U3=+1) = 0
    P(U1=+1, U2=+1, D3=+1) = 0
    P(D1=-1, D2=-1, D3=-1) = 0
    P(U1=+1, U2=+1, U3=+1) > 0

Genuinely tripartite entangled states (class D) get explicit coefficient
recipes, one per sub-class.  States with one non-maximally entangled pair
(class B) are handled by lifting the two-qubit Hardy construction through
the Schmidt bases of the pair.  Maximally entangled pairs (class C) cannot
satisfy the conditions, but a fixed settings choice still certifies a
negative Bell value.  Fully product states (class A) admit no witness.

The B and C recipes are closed forms in Python complex arithmetic, like the
D rows.  In the canonical form the product qubit is already a basis state,
so the pair state is the half of the ket that basis state selects; the
pair's Schmidt bases come from ``linalg.schmidt_decompose``.  Their kets
agree with the former numpy path (``tensordot``, ``eigh``) to about 1e-15
and no witness decision changes (the tests keep that path as their oracle).

``build_witness`` runs every class through one pipeline: each recipe
candidate is self-validated against the actual joint probabilities, and
when no B or D candidate passes, a seeded numerical search takes over
(and the event is recorded on the result).
"""

from __future__ import annotations

import cmath
import logging
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import linalg
from .bell import _clamped, hardy_probabilities
from .errors import (
    ConstructionFailureError,
    DimensionError,
    NoWitnessError,
    NormalizationError,
    WindowViolationError,
)
from .observables import (
    MeasurementSettings,
    kets_from_angles,
    random_angles,
    settings_from_plus_kets,
)
from .states import CanonicalState, StateClass, classify

logger = logging.getLogger(__name__)
# the fallback warnings reach stderr only where the application configures
# logging (the CLI's stderr carries one JSON error at most)
logger.addHandler(logging.NullHandler())

#: default tolerance below which the four zero-condition probabilities must fall
ZERO_TOL = 1e-8
#: stricter tolerance used when recipes self-validate
CONSTRUCTION_ZERO_TOL = 1e-9
#: a later satisfied candidate replaces the best one only when its success
#: probability is larger by more than this relative margin, so candidates
#: that tie up to rounding (D.8's two roots on most states) keep the first
CANDIDATE_RTOL = 1e-9


@dataclass(frozen=True)
class HardyCertificate:
    """Outcome of checking the five Hardy conditions for given settings."""

    settings: MeasurementSettings
    probabilities: tuple[float, float, float, float, float]
    satisfied: bool
    zero_tolerance: float

    @property
    def success_probability(self) -> float:
        return self.probabilities[4]


def verify_hardy(state, settings: MeasurementSettings, zero_tol: float = ZERO_TOL) -> HardyCertificate:
    """Evaluate the five joint probabilities and check the Hardy pattern."""
    probs = hardy_probabilities(state, settings).tolist()
    return HardyCertificate(
        settings=settings,
        probabilities=_clamped(probs),
        satisfied=bool(max(probs[:4]) <= zero_tol and probs[4] > zero_tol),
        zero_tolerance=float(zero_tol),
    )


@dataclass(frozen=True)
class WitnessConstruction:
    """Settings plus the certificate and provenance of their construction."""

    settings: MeasurementSettings
    certificate: HardyCertificate
    state_class: StateClass
    used_fallback: bool
    note: str | None = None


# ---------------------------------------------------------------------------
# class D: explicit coefficient recipes
# ---------------------------------------------------------------------------

def _quadratic_roots(a: complex, b: complex, c: complex) -> tuple[complex, complex]:
    """Both complex roots of a z^2 + b z + c = 0, +sqrt branch first."""
    disc = cmath.sqrt(b * b - 4.0 * a * c)
    return (-b + disc) / (2.0 * a), (-b - disc) / (2.0 * a)


def genuine_candidates(cls: StateClass, state: CanonicalState) -> list[tuple]:
    """Candidate coefficient rows ((a, b, g, d) per qubit) for a D sub-class.

    A row is the unnormalized plus-kets U+ ~ (a, b) and D+ ~ (g, d).

    Rows whose recipe involves a quadratic parameter yield one candidate
    per root, +sqrt branch first.
    """
    l0, l1, l2, l3, l4 = state.lams
    ep = cmath.exp(1j * state.phi)
    em = cmath.exp(-1j * state.phi)
    if cls in (StateClass.D1, StateClass.D2, StateClass.D4, StateClass.D5):
        return [
            (
                (l1, -l0 * ep, 0.0, 1.0),
                (1.0, 0.0, l2 * l3 * ep - l1 * l4, l1 * l2),
                (l2 * ep, -l1, 1.0, 0.0),
            )
        ]
    if cls is StateClass.D3:
        # Derived here, not tabulated: with phi = 0 and l4 = l2 l3 / l1 the
        # state is l0|000> + |1>(l1|0> + l3|1>)(|0> + (l2/l1)|1>).  D1+ = |1>
        # with U2+ orthogonal to the qubit-2 factor zeroes P(D1+,U2+,U3+);
        # D2+ = |0> leaves (l0 + l1)|0> + l2|1> on qubit 3, which U3+
        # annihilates; D3+ = |1> leaves l2|0> + l4|1> on qubit 2, which U2+
        # annihilates because l2 l3 = l1 l4; D-minus kets pick the empty
        # |010> amplitude.  The success amplitude is l0 l2 l3 unnormalized.
        return [
            (
                (1.0, 1.0, 0.0, 1.0),
                (l3, -l1, 1.0, 0.0),
                (l2, -(l0 + l1), 0.0, 1.0),
            )
        ]
    if cls is StateClass.D6:
        return [
            (
                (0.0, 1.0, l1 * em * (l4**2 - l0**2), -l0 * (1.0 - l0**2)),
                (l3 * (1.0 - l0**2), -l1 * em * (1.0 - l4**2), l3, -l1 * em),
                (1.0, 0.0, l4 * (1.0 - l4**2), l3 * (l4**2 - l0**2)),
            )
        ]
    if cls is StateClass.D7:
        return [
            (
                (l1 * em, -l0, 0.0, 1.0),
                (l3, -l1 * em, 1.0, 0.0),
                (1.0, 0.0, l0, -l3),
            )
        ]
    if cls is StateClass.D8:
        roots = _quadratic_roots(1.0 - l4**2, l4 * (1.0 - l0**2), l4**4)
        return [
            (
                (0.0, 1.0, l1 * em * (eps_ + l4), -l0 * eps_),
                (1.0, 1.0, l4, -eps_),
                (eps_, l1 * em, l4, -l1 * em),
            )
            for eps_ in roots
        ]
    if cls in (StateClass.D9, StateClass.D10):
        return [
            (
                (l2 * (l2**2 + l4**2) + l4 * (1.0 - l0**2), -l0 * l3 * l4, 1.0, 0.0),
                (1.0, 1.0, l4, -l2),
                (0.0, 1.0, l3 * l4, l2**2 + l4**2),
            )
        ]
    if cls is StateClass.D11:
        return [
            (
                (0.0, 1.0, l2**2 * l3, l0 * (l2**2 + l3**2)),
                (l2**2 + l3**2, -(l2**2), 1.0, 0.0),
                (1.0, 0.0, l3, l2),
            )
        ]
    if cls is StateClass.D12:
        roots = _quadratic_roots(l2**4, l2 * l3, l3**4)
        return [
            (
                (0.0, 1.0, delta * l0 * l2 * l3, l2**3 * delta + l3**3),
                (1.0, 1.0, l3, -l2 * delta),
                (1.0, delta, l2, -l3),
            )
            for delta in roots
        ]
    if cls is StateClass.D13:
        roots = _quadratic_roots(
            l0**4, l0 * l2 * (l0**2 + l2**2), l2**2 * (l2**2 + l4**2)
        )
        return [
            (
                (1.0, 1.0, l2, -l0 * eps_),
                (1.0, 0.0, l4, -(l0 * eps_ + l2)),
                (eps_, 1.0, l2, -l0),
            )
            for eps_ in roots
        ]
    if cls is StateClass.D14:
        return [
            (
                (1.0, 1.0, 1j * l0, -l4),
                (1.0, 1.0, 1j * l0, -l4),
                (l4**2, 1j * l0**2, l4, -l0),
            )
        ]
    raise ConstructionFailureError(f"{cls.value} has no genuine-entanglement recipe")


# ---------------------------------------------------------------------------
# classes B and C: pair extraction and Schmidt-basis lifts; the pipeline
# ---------------------------------------------------------------------------

#: which qubit (0-based) is the product factor for each B/C sub-class; in the
#: canonical form it is |1> when it is qubit 0 (B.5 and C.3, where l0 < eps)
#: and |0> otherwise
PRODUCT_QUBIT: dict[StateClass, int] = {
    StateClass.B1: 1,
    StateClass.B2: 2,
    StateClass.B3: 1,
    StateClass.B4: 2,
    StateClass.B5: 0,
    StateClass.C1: 1,
    StateClass.C2: 2,
    StateClass.C3: 0,
}


def extract_pair_factorization(psi, product_qubit: int) -> tuple[tuple, tuple]:
    """Split a canonical B or C ket |psi> = |pair state> (x) |chi>.

    Returns (chi, eta) as tuples of Python complex numbers: the product
    qubit's basis state (see ``PRODUCT_QUBIT``) and the normalized half of
    psi it selects, pair qubits kept in increasing qubit order.  Fails if
    psi is not finite or that half does not carry (nearly) all of its
    weight, i.e. the designated qubit is not in that basis state.
    """
    amps = np.ravel(psi).tolist()
    bit = 4 >> product_qubit  # of the product qubit in the basis index
    kept = bit if product_qubit == 0 else 0
    eta = [z for i, z in enumerate(amps) if i & bit == kept]
    weight = sum(z.real * z.real + z.imag * z.imag for z in eta)
    if not (1.0 - 1e-9 <= weight < math.inf and all(map(cmath.isfinite, amps))):
        raise ConstructionFailureError(
            f"qubit {product_qubit + 1} is not in a product state "
            f"(weight {weight!r} on its canonical basis state)"
        )
    inv = 1.0 / math.sqrt(weight)
    chi = (0j, 1.0 + 0j) if kept else (1.0 + 0j, 0j)
    return chi, tuple(z * inv for z in eta)


def pair_hardy_probability(a: float, b: float) -> float:
    """Two-qubit Hardy success probability for Schmidt coefficients a > b.

    Closed form a^2 b^2 (a^2 - b^2)^2 / (a^3 + b^3)^2, re-derived from the
    zero conditions of the two-qubit construction below.
    """
    return a**2 * b**2 * (a**2 - b**2) ** 2 / (a**3 + b**3) ** 2


def two_qubit_hardy_coefficients(a: float, b: float) -> tuple[tuple, tuple]:
    """Plus-ket coefficients, in the Schmidt local bases, for the pair.

    For eta = a|00> + b|11> (a > b > 0) the choice

        U1+ ~ (b^{3/2}, -a^{3/2})     D1+ ~ (sqrt(a), -sqrt(b))
        U2+ ~ (b^{3/2}, +a^{3/2})     D2+ ~ (sqrt(a), +sqrt(b))

    zeroes P(D1+,U2+), P(U1+,D2+) and P(D1-,D2-) while keeping
    P(U1+,U2+) = pair_hardy_probability(a, b) > 0.
    """
    sa, sb = math.sqrt(a), math.sqrt(b)
    qa, qb = a * sa, b * sb
    return ((qb, -qa), (sa, -sb)), ((qb, qa), (sa, sb))


#: fixed pair-qubit settings certifying violation on a maximally entangled pair
_MAXIMAL_PAIR_COEFFS = (
    ((math.sqrt(0.96), 0.2), (1.0, 0.0)),
    ((0.2, math.sqrt(0.96)), (0.0, 1.0)),
)


def _lift_pair_kets(
    chi: tuple,
    dec: linalg.SchmidtDecomposition,
    product_qubit: int,
    first_coeffs: tuple[tuple, tuple],
    second_coeffs: tuple[tuple, tuple],
) -> list[tuple]:
    """Rotate pair-qubit plus-kets from Schmidt bases to the computational basis.

    ``chi`` is the product qubit's state and ``dec`` the Schmidt
    decomposition of the pair state (see ``extract_pair_factorization``).
    The product qubit gets U+ = (chi + chi_perp)/sqrt(2) and D+ = chi_perp,
    which auto-zeroes the term with D+ on that qubit and leaves the
    two-qubit behaviour intact up to a success factor 1/2.  Returns the
    unnormalized plus-kets as coefficient rows (U+, D+) per qubit, like
    ``genuine_candidates``.
    """

    def lift(coeffs, basis):
        (e0, e1), (f0, f1) = basis
        (a, b), (c, d) = coeffs
        return a * e0 + b * f0, a * e1 + b * f1, c * e0 + d * f0, c * e1 + d * f1

    first, second = (ax for ax in range(3) if ax != product_qubit)
    c0, c1 = chi
    p0, p1 = -c1.conjugate(), c0.conjugate()  # chi_perp
    rows = [None] * 3
    rows[first] = lift(first_coeffs, dec.basis_a)
    rows[second] = lift(second_coeffs, dec.basis_b)
    rows[product_qubit] = (c0 + p0, c1 + p1, p0, p1)
    return rows


def _recipe_kets(cls: StateClass, state: CanonicalState, psi: np.ndarray) -> list:
    """Unnormalized plus-kets of each recipe candidate: three (u0, u1, d0, d1) rows.

    D uses its coefficient rows; B lifts the two-qubit Hardy construction
    through the pair's Schmidt bases, C the fixed maximal-pair settings.
    """
    if cls.major == "D":
        return genuine_candidates(cls, state)
    chi, eta = extract_pair_factorization(psi, PRODUCT_QUBIT[cls])
    dec = linalg.schmidt_decompose(eta)
    if cls.major == "C":
        return [_lift_pair_kets(chi, dec, PRODUCT_QUBIT[cls], *_MAXIMAL_PAIR_COEFFS)]
    a, b = dec.coefficients
    if a - b < 1e-9:
        raise ConstructionFailureError(
            f"Schmidt coefficients of the {cls.value} pair are equal; the pair is "
            "maximally entangled, which contradicts the classification"
        )
    if b < 1e-9:
        raise ConstructionFailureError(
            f"the {cls.value} pair is a product state, which contradicts the classification"
        )
    first, second = two_qubit_hardy_coefficients(a, b)
    return [_lift_pair_kets(chi, dec, PRODUCT_QUBIT[cls], first, second)]


def build_witness(
    state: CanonicalState,
    cls: StateClass | None = None,
    *,
    zero_tol: float = CONSTRUCTION_ZERO_TOL,
    seed: int = 0,
) -> WitnessConstruction:
    """Class-appropriate witness settings for any entangled canonical state.

    Builds and verifies each recipe candidate of the class; with several
    satisfied candidates the one with the largest success probability wins,
    a later one only when it is larger by more than ``CANDIDATE_RTOL``
    (relative), so the first of candidates that tie up to rounding wins.
    A maximally entangled pair (class C) cannot satisfy the Hardy
    conditions, so its certificate must come back unsatisfied; the fixed
    settings still violate the local bound (B = -0.0184 for every such
    state).  When no B or D candidate is satisfied, the seeded numerical
    search takes over (``used_fallback``).
    """
    cls = cls or classify(state)
    if cls.major == "A":
        raise NoWitnessError(
            f"{cls.value} is a fully product state; no settings can violate the bound"
        )
    psi = state.to_ket()
    best = cert = None
    failures: list[str] = []
    for idx, kets in enumerate(_recipe_kets(cls, state, psi)):
        try:
            settings = settings_from_plus_kets(kets)
        except (WindowViolationError, NormalizationError) as exc:
            failures.append(f"candidate {idx}: {exc}")
            continue
        cert = verify_hardy(psi, settings, zero_tol)
        if not cert.satisfied:
            failures.append(f"candidate {idx}: probabilities {cert.probabilities}")
        elif best is None or (
            cert.success_probability - best.success_probability
            > CANDIDATE_RTOL * best.success_probability
        ):
            best = cert
    if cls.major == "C" and cert is not None:
        if cert.satisfied:
            raise ConstructionFailureError(
                "certificate unexpectedly satisfied on a maximally entangled pair; "
                "this indicates a classification or construction bug",
                diagnostics={"class": cls.value, "probabilities": cert.probabilities},
            )
        best = cert
    if best is not None:
        return WitnessConstruction(
            settings=best.settings, certificate=best, state_class=cls, used_fallback=False
        )

    logger.warning(
        "recipe for %s failed validation (%s); falling back to numerical search",
        cls.value,
        "; ".join(failures) or "no viable candidate",
    )
    found = search_hardy_observables(psi, seed=seed, zero_tol=zero_tol)
    if found is None:
        raise ConstructionFailureError(
            f"no valid witness for class {cls.value}",
            diagnostics={"class": cls.value, "failures": failures, "state": state.lams},
        )
    return WitnessConstruction(
        settings=found.settings,
        certificate=found,
        state_class=cls,
        used_fallback=True,
        note="recipe failed validation; settings found by search",
    )


# ---------------------------------------------------------------------------
# numerical search
# ---------------------------------------------------------------------------

#: Armijo constant of the search's backtracking: a step of length t must
#: lower |r|^2 to at most (1 - 2 ARMIJO t) |r|^2
ARMIJO = 1e-4
#: step lengths 1, 1/2, ... tried before an attempt counts as stalled
MAX_HALVINGS = 32
#: step lengths tried in one batched residual evaluation
HALVINGS_AT_ONCE = 4
#: an attempt whose 2x2 Gram matrix J J^T has det <= SINGULAR_TOL * trace^2
#: has a singular Jacobian
SINGULAR_TOL = 1e-24
#: contraction vectors shorter than this fix no D direction
VANISHING_NORM = 1e-14
#: qubit j's contraction vector does not depend on qubit j's own angles;
#: row i is angle i = (theta_j, phi_j) for j = i // 2
_OWN_QUBIT = np.repeat(np.eye(3, dtype=bool), 2, axis=0)
#: per angle i, the rows of ``_u_derivatives`` that make its three bras:
#: qubit i // 2 takes d u / d x_i (row 3 + i), the others their U+ kets
_DERIVATIVE_BRAS = np.where(_OWN_QUBIT, np.arange(3, 9)[:, None], np.arange(3))
#: _derived_d_directions forms 12 terms (h, j, e) = t[e, h], t[h, e], s[h, e]
#: for j = 0, 1, 2, where t[a, b] = sum_k psi[a, b, k] w3[k] and
#: s[b, c] = sum_k psi[k, b, c] w1[k] (w the bras), then
#: m_j[e] = sum_h term(h, j, e) v_j[h] with v = (w2, w1, w2).  Row k: the
#: flat psi index that each term multiplies by bra component k ...
_PSI_TERMS = np.array([
    [np.ravel_multi_index(((e, h, k), (h, e, k), (k, h, e))[j], (2, 2, 2))
     for h in (0, 1) for j in range(3) for e in (0, 1)]
    for k in (0, 1)
])
#: ... and the flat bra index 2 * qubit + k of each factor with component
#: k: the 12 of the terms, then the 6 of the second sum
_BRA_TERMS = np.array([
    [2 * (2, 2, 0)[j] + k for h in (0, 1) for j in range(3) for e in (0, 1)]
    + [2 * (1, 0, 1)[j] + k for j in range(3) for e in (0, 1)]
    for k in (0, 1)
])
#: the step lengths 1, 1/2, ..., one row per batched residual evaluation
_STEPS = 0.5 ** np.arange(MAX_HALVINGS).reshape(-1, HALVINGS_AT_ONCE)
#: the search's state at Bloch angles x, one row per attempt (see _residual)
_Point = namedtuple("_Point", "x us m r f ok n mhc g")


def _u_derivatives(x: np.ndarray, us: np.ndarray) -> np.ndarray:
    """The U+ kets ``us`` (A, 3, 2) of Bloch angles ``x`` (A, 6) and their derivatives, (A, 9, 2).

    Rows 0-2 are ``us``; row 3 + i is d u_j / d x_i for j = i // 2, in the
    angle order of ``x``.
    """
    out = np.zeros((len(x), 9, 2), dtype=complex)
    out[:, :3] = us
    out[:, 3::2, 0] = -0.5 * np.sin(0.5 * x[:, 0::2])
    out[:, 3::2, 1] = 0.5 * np.exp(1j * x[:, 1::2]) * us[..., 0]
    out[:, 4::2, 1] = 1j * us[..., 1]
    return out


def _derived_d_directions(psi3: np.ndarray, bras: np.ndarray) -> np.ndarray:
    """Contraction vectors m (..., 3, 2) of psi with ``bras`` (..., 3, 2), C-contiguous.

    m[..., j, :] contracts psi with the bras of the two other qubits;
    ``bras = conj(u)`` gives m1[a] = sum_{b,c} conj(u2[b] u3[c]) psi[a,b,c]
    and cyclically.  Choosing D_j+ = perp(m_j) zeroes the three mixed
    conditions exactly.  Only elementwise arithmetic is used, so each
    leading index is computed on its own.  The result is C-contiguous: the
    sums over its last axes that follow depend on that layout.
    """
    p = psi3.reshape(8)[_PSI_TERMS]
    # take, unlike indexing after a slice, returns a C-contiguous gather
    b = bras.reshape(*bras.shape[:-2], 6).take(_BRA_TERMS, axis=-1)
    terms = p[0] * b[..., 0, :12] + p[1] * b[..., 1, :12]
    m = terms[..., :6] * b[..., 0, 12:] + terms[..., 6:] * b[..., 1, 12:]
    return m.reshape(bras.shape)


def _residual(psi3: np.ndarray, x: np.ndarray) -> _Point:
    """The value pass: the remaining condition r per attempt at angles ``x`` (A, 6).

    Also returns what the Jacobian pass needs: the U+ kets us, the
    contraction vectors m, their norms n and mhc = conj(m / n).  ``ok`` is
    False where a contraction vector vanishes; r is then meaningless and n
    is set to 1.  g_j contracts psi with mhc of the other two qubits, so
    r = <m1_hat m2_hat m3_hat|psi> = <m_hat_j|g_j> for every j; f = |r|^2.
    """
    us = kets_from_angles(x.reshape(-1, 3, 2))
    m = _derived_d_directions(psi3, np.conj(us))
    n = np.sqrt((m.real**2 + m.imag**2).sum(axis=-1))
    ok = (n > VANISHING_NORM).all(axis=-1)
    n = np.where(ok[:, None], n, 1.0)
    mhc = np.conj(m / n[..., None])
    g = _derived_d_directions(psi3, mhc)
    r = (mhc[:, 0] * g[:, 0]).sum(axis=-1)
    return _Point(x, us, m, r, r.real**2 + r.imag**2, ok, n, mhc, g)


def _jacobian(psi3: np.ndarray, p: _Point) -> np.ndarray:
    """The Jacobian pass: dr/dx (A, 6) at a value-pass point.

    A change dm_j moves r by (<dm_j|g_j> - Re<m_hat_j|dm_j> r) / n_j.
    """
    bras = np.conj(_u_derivatives(p.x, p.us)).take(_DERIVATIVE_BRAS, axis=1)
    dm = np.where(_OWN_QUBIT[..., None], 0.0, _derived_d_directions(psi3, bras))
    moved = (np.conj(dm) * p.g[:, None]).sum(axis=-1)
    along = (p.mhc[:, None] * dm).sum(axis=-1).real
    return ((moved - along * p.r[:, None, None]) / p.n[:, None]).sum(axis=-1)


def _gauss_newton_step(r: np.ndarray, dr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm solution s of J s = (Re r, Im r) per attempt.

    J is the 2x6 real Jacobian (Re dr, Im dr) and -s the Gauss-Newton step.
    Returns (s, regular); where ``regular`` is False, J is singular and s
    meaningless.
    """
    jr, ji = dr.real, dr.imag
    a, b, c = (jr * jr).sum(axis=-1), (jr * ji).sum(axis=-1), (ji * ji).sum(axis=-1)
    det = a * c - b * b
    regular = det > SINGULAR_TOL * (a + c) ** 2
    det = np.where(regular, det, 1.0)
    y0 = (c * r.real - b * r.imag) / det
    y1 = (a * r.imag - b * r.real) / det
    return jr * y0[:, None] + ji * y1[:, None], regular


def _backtrack(psi3, x, f, s):
    """Armijo backtracking from each row of ``x`` along the Gauss-Newton step -``s``.

    Takes the first t of 1, 1/2, ... (MAX_HALVINGS values, HALVINGS_AT_ONCE
    per residual evaluation) with |r(x - t s)|^2 <= (1 - 2 ARMIJO t) f.
    Returns the rows that found such a t, in order (the rest stalled), and
    the value-pass point of their accepted trials, which the search's next
    iteration takes as it is instead of evaluating x again.  When every
    row takes a batch's longest step (t = 1 for most rows), that point is
    a strided view of the batch's trials rather than a copy.
    """
    pending = np.arange(len(x))
    rows, picked = [], []
    for t in _STEPS:
        trials = _residual(psi3, (x[:, None] - t[:, None] * s[:, None]).reshape(-1, 6))
        good = trials.ok.reshape(-1, HALVINGS_AT_ONCE) & (
            trials.f.reshape(-1, HALVINGS_AT_ONCE) <= (1.0 - 2.0 * ARMIJO * t) * f[:, None]
        )
        if good[:, 0].all():
            rows.append(pending)
            picked.append(_Point._make(a[::HALVINGS_AT_ONCE] for a in trials))
            break
        found = good.any(axis=1)
        pick = np.flatnonzero(found) * HALVINGS_AT_ONCE + good[found].argmax(axis=1)
        rows.append(pending[found])
        picked.append(_Point._make(a[pick] for a in trials))
        if found.all():
            break
        pending, x, f, s = (a[~found] for a in (pending, x, f, s))
    if len(rows) == 1:
        return rows[0], picked[0]
    moved = np.concatenate(rows)
    order = np.argsort(moved)
    return moved[order], _Point._make(np.concatenate(a)[order] for a in zip(*picked))


def _accepted_certificate(vec, us, m, zero_tol) -> HardyCertificate | None:
    """Certificate of one converged attempt, if its settings lie in the window and verify."""
    try:
        settings = settings_from_plus_kets(np.stack([us, linalg.perp_qubit(m)], axis=1))
    except (WindowViolationError, NormalizationError):
        return None
    cert = verify_hardy(vec, settings, zero_tol)
    return cert if cert.satisfied else None


def _first_accepted(vec, x, zero_tol, maxiter) -> HardyCertificate | None:
    """Certificate of the first accepted attempt, in row order, among starts ``x`` (A, 6)."""
    psi3 = vec.reshape(2, 2, 2)
    active = np.arange(len(x))  # attempts still iterating, in row order
    limit = len(x)  # attempts from the winner on stop iterating
    winner: HardyCertificate | None = None
    point = _residual(psi3, x)  # of the active attempts; _backtrack gives the later ones
    for iteration in range(maxiter + 1):
        done = point.ok & (point.f <= 0.1 * zero_tol)
        # every active attempt precedes the winner so far, so the first
        # accepted one here becomes the winner
        for k in np.flatnonzero(done):
            cert = _accepted_certificate(vec, point.us[k], point.m[k], zero_tol)
            if cert is not None:
                winner, limit = cert, active[k]
                break
        live = point.ok & ~done & (active < limit)
        if iteration == maxiter or not live.any():
            break
        if not live.all():
            active, point = active[live], _Point._make(a[live] for a in point)
        s, regular = _gauss_newton_step(point.r, _jacobian(psi3, point))
        if not regular.any():
            break
        if not regular.all():
            active, s = active[regular], s[regular]
            point = _Point._make(a[regular] for a in point)
        moved, point = _backtrack(psi3, point.x, point.f, s)
        active = active[moved]
    return winner


def search_hardy_observables(
    psi,
    attempts: int = 40,
    seed: int = 0,
    zero_tol: float = ZERO_TOL,
    maxiter: int = 800,
) -> HardyCertificate | None:
    """Seeded multistart search for settings satisfying the Hardy pattern.

    Only the three U observables are free parameters (six Bloch angles);
    each D observable is derived as the orthogonal complement of the
    corresponding contraction vector, which makes three of the four zero
    conditions exact by construction.  The remaining complex condition r,
    whose zeros form a four-dimensional manifold, is solved by damped
    Gauss-Newton: minimum-norm steps of the 2x6 real Jacobian with Armijo
    backtracking, so |r|^2 never rises, for at most ``maxiter`` iterations
    per attempt.  Each iterate is evaluated once: the residual of the
    accepted backtracking trial carries into the next step, and the
    Jacobian is taken only on attempts still iterating (not converged,
    failed or behind the winner).  An attempt fails when its Jacobian turns
    singular, a contraction vector vanishes or no halved step lowers |r|^2
    enough.  An attempt is accepted when |r|^2 <= zero_tol / 10, its
    settings lie in the window and they pass verify_hardy at ``zero_tol``;
    the first accepted attempt in seeded order wins, so the result is
    deterministic for a fixed seed and the same for any number of attempts
    that includes the winner.  Attempt 0 usually wins, so it runs alone
    first; only if it fails do attempts 1 .. attempts-1 run together as one
    array.  Attempt i starts from child i of ``SeedSequence(seed)`` and
    keeps its own ``maxiter`` budget in either round, so the rounds change
    no result.
    Returns the winner's certificate (its settings and verified
    probabilities), or None when every attempt fails (expected for fully
    product states and for maximally entangled pairs).
    """
    attempts, maxiter = int(attempts), int(maxiter)
    if attempts < 0 or maxiter < 0:
        raise ValueError(f"attempts and maxiter must be >= 0, got {attempts} and {maxiter}")
    vec = linalg.ket(psi)
    if vec.shape[0] != 8:
        raise DimensionError("search expects a three-qubit ket")
    linalg.require_normalized(vec)

    # spawn continues where the previous call stopped, so round 2 gets
    # children 1 .. attempts-1 of the same sequence
    seeds = np.random.SeedSequence(seed)
    for count in (min(attempts, 1), attempts - 1):
        if count <= 0:
            continue
        x = np.array(
            [random_angles(np.random.default_rng(c), 3) for c in seeds.spawn(count)]
        ).reshape(-1, 6)
        found = _first_accepted(vec, x, zero_tol, maxiter)
        if found is not None:
            return found
    return None
