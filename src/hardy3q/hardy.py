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
(and the event is recorded on the result).  Verification alone judges a
candidate: a B pair that contradicts its label (equal Schmidt
coefficients, or a product pair) fails it like any other candidate.

The search runs one attempt at a time in Python complex arithmetic, with
the products of the former numpy search (the tests' oracle) in its order;
numpy fuses complex products, so the two agree to rounding: both certify
the same states, with plus-kets at most 1.1e-14 apart on GHZ and W (seeds
0-19), 9.7e-11 on the tests' 120-state near-boundary deck and 8.9e-9 on
the benchmark near-boundary deck's 463 fallbacks (seed 1, 100 rounds).
Near a product state the steps are huge (1e7 radians on the tests' weak
B.3 pair) and the paths chaotic, so rounding can change which attempt wins.
"""

from __future__ import annotations

import cmath
import logging
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import linalg
from .bell import _clamped, _finite_probabilities
from .errors import (
    ConstructionFailureError,
    DimensionError,
    NoWitnessError,
    NormalizationError,
    WindowViolationError,
)
from .observables import (
    MeasurementSettings,
    random_angles,
    settings_from_plus_kets,
)
from .states import CanonicalState, StateClass, classify

logger = logging.getLogger(__name__)
# the fallback warnings reach stderr only where the application configures
# logging (the CLI's stderr carries one JSON error at most)
logger.addHandler(logging.NullHandler())

#: default tolerance below which the four zero-condition probabilities must fall
ZERO_TOL = 1e-9
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
    """Evaluate the five joint probabilities and check the Hardy pattern.

    Raises ``ValueError`` when a probability is not finite.
    """
    probs = _finite_probabilities(state, settings)
    return HardyCertificate(
        settings=settings,
        probabilities=_clamped(probs),
        satisfied=bool(max(probs[:4]) <= zero_tol and probs[4] > zero_tol),
        zero_tolerance=float(zero_tol),
    )


def _verify_rows(vec, rows, zero_tol: float) -> HardyCertificate | Exception:
    """``verify_hardy``'s certificate of the settings with plus-ket ``rows``.

    Returns instead the window or normalization error of rows that make no
    settings.  Recipe candidates and converged search attempts are both
    judged here.
    """
    try:
        settings = settings_from_plus_kets(rows)
    except (WindowViolationError, NormalizationError) as exc:
        return exc
    return verify_hardy(vec, settings, zero_tol)


@dataclass(frozen=True)
class WitnessConstruction:
    """A witness certificate and the provenance of its settings."""

    certificate: HardyCertificate
    state_class: StateClass
    used_fallback: bool

    @property
    def settings(self) -> MeasurementSettings:
        return self.certificate.settings

    @property
    def note(self) -> str | None:
        return "recipe failed validation; settings found by search" if self.used_fallback else None


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


def two_qubit_hardy_coefficients(a: float, b: float) -> tuple[tuple, tuple]:
    """Plus-ket coefficients, in the Schmidt local bases, for the pair.

    For eta = a|00> + b|11> (a > b > 0) the choice

        U1+ ~ (b^{3/2}, -a^{3/2})     D1+ ~ (sqrt(a), -sqrt(b))
        U2+ ~ (b^{3/2}, +a^{3/2})     D2+ ~ (sqrt(a), +sqrt(b))

    zeroes P(D1+,U2+), P(U1+,D2+) and P(D1-,D2-) while keeping
    P(U1+,U2+) = a^2 b^2 (a^2 - b^2)^2 / (a^3 + b^3)^2 > 0.  At a = b
    (a maximally entangled pair) or b = 0 (a product pair) that value is 0,
    and the candidate fails the window check or ``verify_hardy``.
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
    first, second = two_qubit_hardy_coefficients(*dec.coefficients)
    return [_lift_pair_kets(chi, dec, PRODUCT_QUBIT[cls], first, second)]


def build_witness(
    state: CanonicalState,
    cls: StateClass | None = None,
    *,
    zero_tol: float = ZERO_TOL,
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
    search takes over (``used_fallback``): each attempt runs once, the first
    certificate wins, and when none certifies the error's diagnostics count
    how the attempts ended.
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
        cert = _verify_rows(psi, kets, zero_tol)
        if not isinstance(cert, HardyCertificate):
            failures.append(f"candidate {idx}: {cert}")
        elif not cert.satisfied:
            failures.append(f"candidate {idx}: probabilities {cert.probabilities}")
        elif best is None or (
            cert.success_probability - best.success_probability
            > CANDIDATE_RTOL * best.success_probability
        ):
            best = cert
    if cls.major == "C" and isinstance(cert, HardyCertificate):
        if cert.satisfied:
            raise ConstructionFailureError(
                "certificate unexpectedly satisfied on a maximally entangled pair; "
                "this indicates a classification or construction bug",
                diagnostics={"class": cls.value, "probabilities": cert.probabilities},
            )
        best = cert
    if best is not None:
        return WitnessConstruction(best, cls, used_fallback=False)

    logger.warning(
        "recipe for %s failed validation (%s); falling back to numerical search",
        cls.value,
        "; ".join(failures) or "no viable candidate",
    )
    failed = []
    for outcome in _attempt_outcomes(psi, seed, zero_tol):
        if isinstance(outcome, HardyCertificate):
            return WitnessConstruction(outcome, cls, used_fallback=True)
        failed.append(outcome)
    search = {"attempts": SEARCH_ATTEMPTS, "outcomes": dict(sorted(Counter(failed).items()))}
    raise ConstructionFailureError(
        f"no valid witness for class {cls.value}",
        diagnostics={"class": cls.value, "failures": failures, "state": state.lams, "search": search},
    )


# ---------------------------------------------------------------------------
# numerical search
# ---------------------------------------------------------------------------

#: Armijo constant of the search's backtracking: a step of length t must
#: lower |r|^2 to at most (1 - 2 ARMIJO t) |r|^2
ARMIJO = 1e-4
#: step lengths 1, 1/2, ... tried before an attempt counts as stalled
MAX_HALVINGS = 32
#: an attempt whose 2x2 Gram matrix J J^T has det <= SINGULAR_TOL * trace^2
#: has a singular Jacobian
SINGULAR_TOL = 1e-24
#: contraction vectors shorter than this fix no D direction
VANISHING_NORM = 1e-14
#: the search's number of attempts and iteration budget per attempt
SEARCH_ATTEMPTS = 40
SEARCH_MAXITER = 800


def _qubit(half, phi):
    """(c, s, e, b) = (cos half, sin half, exp(i phi), conj(e s)) of u = (c, e s); (c, b) is its bra."""
    c, s = math.cos(half), math.sin(half)
    e = complex(math.cos(phi), math.sin(phi))
    return c, s, e, (e * s).conjugate()


def _length(a: complex, b: complex) -> float:
    """Length of the vector (a, b), its squares summed per component first."""
    return math.sqrt((a.real * a.real + a.imag * a.imag) + (b.real * b.real + b.imag * b.imag))


def _residual(p, x):
    """The value pass at Bloch angles ``x`` (theta_j, phi_j of each U+ ket u_j).

    ``p`` holds psi's amplitudes, index 4a + 2b + c.  The contraction vector
    m1[a] = sum_{b,c} conj(u2[b] u3[c]) psi[a,b,c] (and cyclically m2, m3)
    has D1+ = perp(m1) zero the mixed conditions exactly.  Returns None
    where some |m_j| <= VANISHING_NORM, else the point
    (x, r, f, qubits, m, norms, mhc, q, o, z, g1): r = <m1_hat m2_hat m3_hat|psi>,
    f = |r|^2, ``_qubit`` per qubit, mhc_j = conj(m_j / |m_j|), and psi
    contracted with the bra of qubit 3 (q[a][b]), of qubit 1 (o[b][c]), with
    mhc_3 (z[a][b]) and with mhc_2 mhc_3 (g1[a]).  The products are those
    of the former numpy search (the tests' oracle), in its order.
    """
    p0, p1, p2, p3, p4, p5, p6, p7 = p
    qubits = (_qubit(0.5 * x[0], x[1]), _qubit(0.5 * x[2], x[3]), _qubit(0.5 * x[4], x[5]))
    (c1, _, _, b1), (c2, _, _, b2), (c3, _, _, b3) = qubits
    q = (p0 * c3 + p1 * b3, p2 * c3 + p3 * b3, p4 * c3 + p5 * b3, p6 * c3 + p7 * b3)
    o = (p0 * c1 + p4 * b1, p1 * c1 + p5 * b1, p2 * c1 + p6 * b1, p3 * c1 + p7 * b1)
    m = m10, m11, m20, m21, m30, m31 = (
        q[0] * c2 + q[1] * b2, q[2] * c2 + q[3] * b2,
        q[0] * c1 + q[2] * b1, q[1] * c1 + q[3] * b1,
        o[0] * c2 + o[2] * b2, o[1] * c2 + o[3] * b2,
    )
    norms = n1, n2, n3 = _length(m10, m11), _length(m20, m21), _length(m30, m31)
    if not min(norms) > VANISHING_NORM:
        return None
    mhc = h10, h11, h20, h21, h30, h31 = (
        (m10 / n1).conjugate(), (m11 / n1).conjugate(), (m20 / n2).conjugate(),
        (m21 / n2).conjugate(), (m30 / n3).conjugate(), (m31 / n3).conjugate(),
    )
    z = (p0 * h30 + p1 * h31, p2 * h30 + p3 * h31, p4 * h30 + p5 * h31, p6 * h30 + p7 * h31)
    g1 = (z[0] * h20 + z[1] * h21, z[2] * h20 + z[3] * h21)
    r = h10 * g1[0] + h11 * g1[1]
    return x, r, r.real * r.real + r.imag * r.imag, qubits, m, norms, mhc, q, o, z, g1


def _jacobian(p, point):
    """The Jacobian pass: dr/dx (six complex numbers) at a value-pass point.

    With g_k psi contracted with mhc of the other two qubits (so r =
    <m_hat_k|g_k>), a change dm_k moves r by (<dm_k|g_k> - Re<m_hat_k|dm_k> r)
    / |m_k|.  An angle of qubit j moves the m_k of the other two qubits:
    dm_k is m_k with the bra of u_j replaced by conj(du_j), where
    du/dtheta = (-s/2, e c/2) and du/dphi = (0, i e s).
    """
    p0, p1, p2, p3, p4, p5, p6, p7 = p
    _, r, _, qubits, _, (n1, n2, n3), (h10, h11, h20, h21, h30, h31), q, o, z, g1 = point
    (c1, s1, e1, b1), (c2, s2, e2, b2), (c3, s3, e3, b3) = qubits
    y = (p0 * h10 + p4 * h11, p1 * h10 + p5 * h11, p2 * h10 + p6 * h11, p3 * h10 + p7 * h11)
    g2 = (z[0] * h10 + z[2] * h11, z[1] * h10 + z[3] * h11)
    g3 = (y[0] * h20 + y[2] * h21, y[1] * h20 + y[3] * h21)

    def moves(dm0, dm1, g, h0, h1, n):
        return ((dm0.conjugate() * g[0] + dm1.conjugate() * g[1]) - (h0 * dm0 + h1 * dm1).real * r) / n

    def derivative_bras(c, s, e):
        return (-0.5 * s, (0.5 * e * c).conjugate()), (0.0, (1j * (e * s)).conjugate())

    dr = []
    # qubit 1 moves m2 through q, and m3 through psi contracted with its bra
    for d0, d1 in derivative_bras(c1, s1, e1):
        t = (p0 * d0 + p4 * d1, p1 * d0 + p5 * d1, p2 * d0 + p6 * d1, p3 * d0 + p7 * d1)
        dr.append(
            moves(q[0] * d0 + q[2] * d1, q[1] * d0 + q[3] * d1, g2, h20, h21, n2)
            + moves(t[0] * c2 + t[2] * b2, t[1] * c2 + t[3] * b2, g3, h30, h31, n3)
        )
    # qubit 2 moves m1 through q and m3 through o
    for d0, d1 in derivative_bras(c2, s2, e2):
        dr.append(
            moves(q[0] * d0 + q[1] * d1, q[2] * d0 + q[3] * d1, g1, h10, h11, n1)
            + moves(o[0] * d0 + o[2] * d1, o[1] * d0 + o[3] * d1, g3, h30, h31, n3)
        )
    # qubit 3 moves m1 and m2 through psi contracted with its bra
    for d0, d1 in derivative_bras(c3, s3, e3):
        t = (p0 * d0 + p1 * d1, p2 * d0 + p3 * d1, p4 * d0 + p5 * d1, p6 * d0 + p7 * d1)
        dr.append(
            moves(t[0] * c2 + t[1] * b2, t[2] * c2 + t[3] * b2, g1, h10, h11, n1)
            + moves(t[0] * c1 + t[2] * b1, t[1] * c1 + t[3] * b1, g2, h20, h21, n2)
        )
    return dr


def _gauss_newton_step(r, dr):
    """Minimum-norm solution s of J s = (Re r, Im r), or None where J is singular.

    J is the 2x6 real Jacobian (Re dr, Im dr) and -s the Gauss-Newton step.
    """
    a = b = c = 0.0
    for d in dr:
        re, im = d.real, d.imag
        a += re * re
        b += re * im
        c += im * im
    det = a * c - b * b
    if not det > SINGULAR_TOL * (a + c) ** 2:
        return None
    y0 = (c * r.real - b * r.imag) / det
    y1 = (a * r.imag - b * r.real) / det
    return [d.real * y0 + d.imag * y1 for d in dr]


def _backtrack(p, x, f, s):
    """Armijo backtracking from ``x`` along the Gauss-Newton step -``s``.

    Takes the first t of 1, 1/2, ... (MAX_HALVINGS values) with
    |r(x - t s)|^2 <= (1 - 2 ARMIJO t) f and returns the value-pass point
    there, which the next iteration takes as it is; None if the attempt
    stalls.
    """
    t = 1.0
    for _ in range(MAX_HALVINGS):
        trial = _residual(p, [xi - t * si for xi, si in zip(x, s)])
        if trial is not None and trial[2] <= (1.0 - 2.0 * ARMIJO * t) * f:
            return trial
        t *= 0.5
    return None


def _accepted_certificate(vec, point, zero_tol) -> HardyCertificate | str:
    """Certificate of a converged attempt, or why its settings were rejected.

    Qubit j gets U+ = u_j and D+ = perp(m_j) = (-conj(m_j[1]), conj(m_j[0])).
    """
    qubits, m = point[3], point[4]
    rows = [
        (c, b.conjugate(), -m[2 * j + 1].conjugate(), m[2 * j].conjugate())
        for j, (c, _, _, b) in enumerate(qubits)
    ]
    cert = _verify_rows(vec, rows, zero_tol)
    if not isinstance(cert, HardyCertificate):
        return "outside_window"
    return cert if cert.satisfied else "unverified"


def _attempt(vec, p, x, zero_tol, maxiter) -> HardyCertificate | str:
    """One attempt from start angles ``x``: its certificate, or why it failed."""
    point = _residual(p, x)
    if point is None:
        return "vanishing_contraction"
    for iteration in range(maxiter + 1):
        x, r, f = point[:3]
        if f <= 0.1 * zero_tol:
            return _accepted_certificate(vec, point, zero_tol)
        if iteration == maxiter:
            break
        s = _gauss_newton_step(r, _jacobian(p, point))
        if s is None:
            return "singular_jacobian"
        point = _backtrack(p, x, f, s)
        if point is None:
            return "stalled_backtrack"
    return "maxiter"


def _attempt_outcomes(vec, seed, zero_tol):
    """Each of the SEARCH_ATTEMPTS attempts' certificate or failure reason, in seeded order.

    Attempt i starts from child i of ``SeedSequence(seed)``, spawned only
    when it runs (``spawn`` continues where its previous call stopped).
    """
    p = vec.tolist()
    seeds = np.random.SeedSequence(seed)
    for _ in range(SEARCH_ATTEMPTS):
        (child,) = seeds.spawn(1)
        x = random_angles(np.random.default_rng(child), 3).ravel().tolist()
        yield _attempt(vec, p, x, zero_tol, SEARCH_MAXITER)


def search_hardy_observables(psi, seed: int = 0, zero_tol: float = ZERO_TOL) -> HardyCertificate | None:
    """Seeded multistart search for settings satisfying the Hardy pattern.

    The six Bloch angles of the U observables are the unknowns; each D+ is
    perpendicular to its contraction vector, which makes three of the four
    zero conditions exact.  The remaining complex condition r, whose zeros
    form a four-dimensional manifold, is solved by damped Gauss-Newton:
    minimum-norm steps of the 2x6 real Jacobian with Armijo backtracking,
    for at most SEARCH_MAXITER iterations; the accepted trial's value pass
    carries into the next step.  An attempt fails when a contraction
    vector vanishes, its Jacobian turns singular or no halved step lowers
    |r|^2 enough; it is accepted when |r|^2 <= zero_tol / 10, its settings
    lie in the window and they pass verify_hardy at ``zero_tol``.  The
    SEARCH_ATTEMPTS attempts run one at a time in seeded order and the
    first accepted one wins, so the result is the same for any number of
    attempts that includes the winner.  Returns the winner's certificate,
    or None when every attempt fails (expected for product states and
    maximally entangled pairs).
    """
    vec = linalg.ket(psi)
    if vec.shape[0] != 8:
        raise DimensionError("search expects a three-qubit ket")
    linalg.require_normalized(vec)
    for outcome in _attempt_outcomes(vec, seed, zero_tol):
        if isinstance(outcome, HardyCertificate):
            return outcome
    return None
