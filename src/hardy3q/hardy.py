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

The D rows are plain arithmetic on the canonical amplitudes and e^{i phi},
homogeneous in the amplitudes, so one code path runs on floats here and on
exact symbols in the tests; D.8, D.12 and D.13 take the roots of a binary
quadratic form from ``_binary_roots``, the search's solver.  The B and C
recipes are closed forms in Python complex arithmetic.  In the canonical
form the product qubit is already a basis state, so the pair state is the
half of the ket that basis state selects; the pair's Schmidt bases come
from ``linalg.schmidt_decompose``.  The tests keep a numpy construction
(``tensordot``, ``eigh``) as their oracle; the kets agree with it to about
1e-15, and no witness decision differs.

``build_witness`` runs every class through one pipeline: each recipe
candidate is self-validated against the actual joint probabilities, and
when no B or D candidate passes, a seeded numerical search takes over
(and the event is recorded on the result).  Verification alone judges a
candidate: a B pair that contradicts its label (equal Schmidt
coefficients, or a product pair) fails it like any other candidate.

The search solves for settings in closed form.  Each D+ is taken
perpendicular to its contraction vector (psi contracted with the other two
U+ bras), which zeroes the three mixed conditions.  With two U+ kets fixed,
the D-D-D- amplitude is a quadratic form in the third, so each root of one
quadratic zeroes all four conditions; an attempt solves this for each qubit
from seeded random U+ kets and verifies the roots' settings.
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
#: that tie up to rounding (D.8's two roots on most states) keep the first;
#: the search verifies its tied candidates in the order it lists them
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
    settings.  Recipe and search candidates are both judged here.
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

def _binary_roots(c0: complex, c1: complex, c2: complex) -> list[tuple[complex, complex]]:
    """The roots (x, y) of c0 x^2 + c1 x y + c2 y^2 = 0 as unnormalized kets.

    The stable quadratic formula on the larger end coefficient, taken as
    c0 (x and y swap roles when |c2| > |c0|): the roots are (q, c0) and
    (c2, q) for q = -(c1 + s) / 2, with the branch of s = sqrt(c1^2 - 4 c0
    c2) that gives |c1 + s| >= |c1 - s|.  q = 0 only for a double root at
    x = 0, which is listed once; with c0 = c2 = 0 the roots are (1, 0) and
    (0, 1).  No division occurs.  The D recipes and the search both take
    their roots here.
    """
    if abs(c0) < abs(c2):
        return [(y, x) for x, y in _binary_roots(c2, c1, c0)]
    if c0 == 0:
        return [(1.0 + 0j, 0j), (0j, 1.0 + 0j)]
    s = cmath.sqrt(c1 * c1 - 4.0 * c0 * c2)
    q = -0.5 * (c1 + s if (c1.conjugate() * s).real >= 0.0 else c1 - s)
    return [(q, c0), (c2, q)] if q else [(q, c0)]


def genuine_candidates(cls: StateClass, lams, ep) -> list[tuple]:
    """Candidate coefficient rows ((a, b, g, d) per qubit) for a D sub-class.

    A row is the unnormalized plus-kets U+ ~ (a, b) and D+ ~ (g, d) for the
    canonical amplitudes ``lams`` and ``ep`` = e^{i phi}.  The rows are
    plain arithmetic on these, homogeneous in ``lams`` (no normalization
    identity), so they evaluate on floats and on symbols alike.

    D.8, D.12 and D.13 yield one candidate per root (x, y) of their binary
    quadratic form, in ``_binary_roots``' order.
    """
    l0, l1, l2, l3, l4 = lams
    em = ep.conjugate()
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
                (0.0, 1.0, l1 * em * (l4**2 - l0**2), -l0 * (l1**2 + l3**2 + l4**2)),
                (l3 * (l1**2 + l3**2 + l4**2), -l1 * em * (l0**2 + l1**2 + l3**2), l3, -l1 * em),
                (1.0, 0.0, l4 * (l0**2 + l1**2 + l3**2), l3 * (l4**2 - l0**2)),
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
        return [
            (
                (0.0, 1.0, l1 * em * (x + l4 * y), -l0 * x),
                (1.0, 1.0, l4 * y, -x),
                (x, l1 * em * y, l4, -l1 * em),
            )
            for x, y in _binary_roots(l0**2 + l1**2, l4 * (l1**2 + l4**2), l4**4)
        ]
    if cls in (StateClass.D9, StateClass.D10):
        return [
            (
                (l2 * (l2**2 + l4**2) + l4 * (l2**2 + l3**2 + l4**2), -l0 * l3 * l4, 1.0, 0.0),
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
        return [
            (
                (0.0, 1.0, x * l0 * l2 * l3, l2**3 * x + l3**3 * y),
                (1.0, 1.0, l3 * y, -l2 * x),
                (y, x, l2, -l3),
            )
            for x, y in _binary_roots(l2**4, l2 * l3 * (l0**2 + l2**2 + l3**2), l3**4)
        ]
    if cls is StateClass.D13:
        return [
            (
                (1.0, 1.0, l2 * y, -l0 * x),
                (1.0, 0.0, l4 * y, -(l0 * x + l2 * y)),
                (x, y, l2, -l0),
            )
            for x, y in _binary_roots(l0**4, l0 * l2 * (l0**2 + l2**2), l2**2 * (l2**2 + l4**2))
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
        return genuine_candidates(cls, state.lams, cmath.exp(1j * state.phi))
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

#: contraction vectors shorter than this fix no D direction
VANISHING_NORM = 1e-14
#: the search's number of attempts
SEARCH_ATTEMPTS = 40

#: per qubit j, its other two qubits k < l
_OTHERS = ((1, 2), (0, 2), (0, 1))
#: per qubit j, psi's flat index 4a + 2b + c at bit x of qubit j, y of k and
#: z of l, listed in the order 4x + 2y + z
_AXES = tuple(
    tuple(
        (x << 2 - j) | (y << 2 - k) | (z << 2 - l)
        for x in (0, 1) for y in (0, 1) for z in (0, 1)
    )
    for j, (k, l) in enumerate(_OTHERS)
)


def _candidates(p, us, j):
    """Qubit j's candidates with the other two U+ kets of ``us`` fixed.

    ``p`` holds psi's amplitudes, index 4a + 2b + c.  The contraction
    vector m_j[x] = sum conj(u_k[y] u_l[z]) psi[x, y, z] (axes j, k, l) is
    fixed, and m_k, m_l are linear in conj(u_j): m_k[y] = sum_x conj(u_j[x])
    mk[x][y] with mk psi contracted with u_l's bra, ml likewise with u_k's.
    With D_i+ = perp(m_i) the three mixed conditions vanish, and the
    D-D-D- amplitude sum conj(m_j[x] m_k[y] m_l[z]) psi[x, y, z] is the
    quadratic form u_j^T F u_j, F[x][w] = sum conj(mk[x][y]) g[y][z]
    conj(ml[w][z]) with g[y][z] = sum_x conj(m_j[x]) psi[x, y, z].  Each
    root of it yields (P5, kets, ms): the unit U+ kets with u_j the root,
    the contraction vectors m_i and P5 = |<u_j|m_j>|^2.
    """
    k, l = _OTHERS[j]
    t = [p[i] for i in _AXES[j]]
    (k0, k1), (l0, l1) = us[k], us[l]
    k0, k1, l0, l1 = k0.conjugate(), k1.conjugate(), l0.conjugate(), l1.conjugate()
    mk = [(t[x] * l0 + t[x + 1] * l1, t[x + 2] * l0 + t[x + 3] * l1) for x in (0, 4)]
    ml = [(t[x] * k0 + t[x + 2] * k1, t[x + 1] * k0 + t[x + 3] * k1) for x in (0, 4)]
    mj = tuple(a * k0 + b * k1 for a, b in mk)
    h0, h1 = mj[0].conjugate(), mj[1].conjugate()
    g = [h0 * t[y] + h1 * t[y + 4] for y in range(4)]  # g[2y + z]
    e = [  # e[x][z] = sum_y conj(mk[x][y]) g[y][z]
        (a.conjugate() * g[0] + b.conjugate() * g[2], a.conjugate() * g[1] + b.conjugate() * g[3])
        for a, b in mk
    ]
    f = [[ex[0] * a.conjugate() + ex[1] * b.conjugate() for a, b in ml] for ex in e]
    found = []
    for x0, x1 in _binary_roots(f[0][0], f[0][1] + f[1][0], f[1][1]):
        n = math.hypot(x0.real, x0.imag, x1.real, x1.imag)
        u0, u1 = x0 / n, x1 / n
        b0, b1 = u0.conjugate(), u1.conjugate()
        kets, ms = list(us), [None] * 3
        kets[j] = (u0, u1)
        ms[j] = mj
        ms[k] = (b0 * mk[0][0] + b1 * mk[1][0], b0 * mk[0][1] + b1 * mk[1][1])
        ms[l] = (b0 * ml[0][0] + b1 * ml[1][0], b0 * ml[0][1] + b1 * ml[1][1])
        amp = b0 * mj[0] + b1 * mj[1]
        found.append((amp.real * amp.real + amp.imag * amp.imag, kets, ms))
    return found


def _attempt(vec, p, us, zero_tol) -> HardyCertificate | str:
    """One attempt from the U+ kets ``us``: its certificate, or why it failed.

    The three qubits' quadratics give up to six candidates, verified in
    the order of their P5, largest first; of candidates whose P5 ties up to
    ``CANDIDATE_RTOL`` (on GHZ both roots of a qubit do), the first listed
    goes first.  Qubit i of a candidate gets U+ = u_i and D+ = perp(m_i) =
    (-conj(m_i[1]), conj(m_i[0])); a candidate with some |m_i| <=
    VANISHING_NORM fixes no D direction and is skipped.  The failure reason
    is "unverified" when some candidate made settings, else
    "outside_window" when one failed the window check, else
    "vanishing_contraction".
    """
    found = [cand for j in range(3) for cand in _candidates(p, us, j)]
    failure = "vanishing_contraction"
    while found:
        top = max(p5 for p5, _, _ in found) * (1.0 - CANDIDATE_RTOL)
        _, kets, ms = found.pop(next(i for i, (p5, _, _) in enumerate(found) if p5 >= top))
        if not min(linalg._norm(*m) for m in ms) > VANISHING_NORM:
            continue
        rows = [(u0, u1, -m1.conjugate(), m0.conjugate()) for (u0, u1), (m0, m1) in zip(kets, ms)]
        cert = _verify_rows(vec, rows, zero_tol)
        if isinstance(cert, HardyCertificate):
            if cert.satisfied:
                return cert
            failure = "unverified"
        elif failure == "vanishing_contraction":
            failure = "outside_window"
    return failure


def _attempt_outcomes(vec, seed, zero_tol):
    """Each of the SEARCH_ATTEMPTS attempts' certificate or failure reason, in seeded order.

    Attempt i starts from the U+ kets of the Bloch angles that
    ``random_angles`` draws from child i of ``SeedSequence(seed)``, spawned
    only when it runs (``spawn`` continues where its previous call stopped).
    """
    p = vec.tolist()
    seeds = np.random.SeedSequence(seed)
    for _ in range(SEARCH_ATTEMPTS):
        (child,) = seeds.spawn(1)
        us = [
            (complex(math.cos(0.5 * theta)), cmath.exp(1j * phi) * math.sin(0.5 * theta))
            for theta, phi in random_angles(np.random.default_rng(child), 3).tolist()
        ]
        yield _attempt(vec, p, us, zero_tol)


def search_hardy_observables(psi, seed: int = 0, zero_tol: float = ZERO_TOL) -> HardyCertificate | None:
    """Seeded multistart search for settings satisfying the Hardy pattern.

    Each D+ is perpendicular to its contraction vector, which makes three
    of the four zero conditions exact.  An attempt draws three random U+
    kets; for each qubit in turn it fixes the other two and solves the
    quadratic whose roots zero the D-D-D- probability too (see
    ``_candidates``), which gives up to six candidates with no iteration.
    They are verified in the order of their success probability P5,
    largest first: settings from the plus-kets, in the window, passing
    verify_hardy at ``zero_tol``.  The SEARCH_ATTEMPTS attempts run one at
    a time in seeded order and the first certificate wins, so the result
    is the same for any number of attempts that includes the winner.
    Returns the winner's certificate, or None when every attempt fails
    (expected for product states and maximally entangled pairs).
    """
    vec = linalg.ket(psi)
    if vec.shape[0] != 8:
        raise DimensionError("search expects a three-qubit ket")
    linalg.require_normalized(vec)
    for outcome in _attempt_outcomes(vec, seed, zero_tol):
        if isinstance(outcome, HardyCertificate):
            return outcome
    return None
