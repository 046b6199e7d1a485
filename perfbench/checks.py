"""Correctness checks the benchmark makes with its own arithmetic.

Nothing here imports hardy3q.  Every joint probability is recomputed by the
Kronecker-product contraction

    P(k1, k2, k3) = |<k1 (x) k2 (x) k3 | psi>|^2,

with the 8-amplitude ket in the order |abc> -> 4a + 2b + c, and compared
with what the program reported.  Reference values come from the literature
(GHZ and W optima) or from closed forms (the pair Hardy probability, the
fixed maximally-entangled-pair settings), never from a stored copy of an
earlier run's output.  Every check raises CheckError on a mismatch.
"""

from __future__ import annotations

import numpy as np

#: literature optima of the five-term Bell expression and their thresholds
REFERENCE = {
    "ghz": {"b_min": -0.175459, "v_thr": 0.68125, "v_tol": 1e-4},
    "w": {"b_min": -0.192608, "v_thr": 0.6606676, "v_tol": 1e-5},
}
B_MIN_TOL = 1e-3
#: Bell value of the maximally mixed state, the noise endpoint of B(v)
WHITE_NOISE_BELL = 3.0 / 8.0
#: B of the fixed settings on any maximally entangled pair (class C)
MAXIMAL_PAIR_BELL = -0.0184
#: the four Hardy zero terms must stay below this, and the fifth above it
ZERO_TOL = 1e-9
#: recomputed probabilities must match the reported ones this closely
MATCH_TOL = 1e-12
#: non-commutation window on |<U+|D+>|
WINDOW_TOL = 1e-9


class CheckError(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def canonical_ket(lams, phi: float) -> np.ndarray:
    l0, l1, l2, l3, l4 = (float(x) for x in lams)
    psi = np.zeros(8, dtype=complex)
    psi[0], psi[4], psi[5], psi[6], psi[7] = l0, l1 * np.exp(1j * phi), l2, l3, l4
    return psi


def _unit(k) -> np.ndarray:
    k = np.asarray(k, dtype=complex)
    return k / np.linalg.norm(k)


def perp(k: np.ndarray) -> np.ndarray:
    return np.array([-np.conj(k[1]), np.conj(k[0])])


def five_probabilities(psi: np.ndarray, plus_kets) -> np.ndarray:
    """The canonical five terms for ((U1+, D1+), (U2+, D2+), (U3+, D3+)).

    Order: P(D-,D-,D-), P(D+,U+,U+), P(U+,D+,U+), P(U+,U+,D+), P(U+,U+,U+).
    """
    (u1, d1), (u2, d2), (u3, d3) = ((_unit(u), _unit(d)) for u, d in plus_kets)
    picks = (
        (perp(d1), perp(d2), perp(d3)),
        (d1, u2, u3),
        (u1, d2, u3),
        (u1, u2, d3),
        (u1, u2, u3),
    )
    return np.array(
        [abs(np.vdot(np.kron(np.kron(a, b), c), psi)) ** 2 for a, b, c in picks]
    )


def bell_of(probs) -> float:
    return float(probs[0] + probs[1] + probs[2] + probs[3] - probs[4])


def kets_from_payload(settings: dict) -> list[tuple[np.ndarray, np.ndarray]]:
    """Plus-kets from a CLI settings payload ({"pairs": [{"u_plus", "d_plus"}]})."""
    return [
        (
            np.array([complex(re, im) for re, im in pair["u_plus"]]),
            np.array([complex(re, im) for re, im in pair["d_plus"]]),
        )
        for pair in settings["pairs"]
    ]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def check_window(plus_kets) -> None:
    for j, (u, d) in enumerate(plus_kets):
        overlap = abs(np.vdot(_unit(u), _unit(d)))
        _require(
            WINDOW_TOL < overlap < 1.0 - WINDOW_TOL,
            f"qubit {j + 1}: |<U+|D+>| = {overlap!r} is outside (0, 1)",
        )


def check_optimize(target: str, psi: np.ndarray, report: dict) -> None:
    """An ``optimize`` report for the GHZ or W state."""
    ref = REFERENCE[target]
    opt = report["optimization"]
    b_min = float(opt["best_value"])
    v_thr = opt["threshold_visibility"]
    _require(
        abs(b_min - ref["b_min"]) <= B_MIN_TOL,
        f"{target}: B_min {b_min!r} is not within {B_MIN_TOL} of {ref['b_min']}",
    )
    _require(v_thr is not None, f"{target}: no threshold visibility reported")
    _require(
        abs(v_thr - ref["v_thr"]) <= ref["v_tol"],
        f"{target}: v_thr {v_thr!r} is not within {ref['v_tol']} of {ref['v_thr']}",
    )
    closed = WHITE_NOISE_BELL / (WHITE_NOISE_BELL - b_min)
    _require(
        abs(v_thr - closed) <= MATCH_TOL,
        f"{target}: v_thr {v_thr!r} differs from (3/8)/(3/8 - B_min) = {closed!r}",
    )
    kets = kets_from_payload(opt["best_settings"])
    check_window(kets)
    recomputed = bell_of(five_probabilities(psi, kets))
    _require(
        abs(recomputed - b_min) <= MATCH_TOL,
        f"{target}: best settings give B = {recomputed!r}, report says {b_min!r}",
    )


def pair_success_probability(psi: np.ndarray) -> float:
    """Closed-form P5 of the lifted pair construction for a class-B state.

    Finds the product qubit (the unfolding of rank one), takes the pair's
    Schmidt coefficients a >= b from an SVD, and returns
    a^2 b^2 (a^2 - b^2)^2 / (2 (a^3 + b^3)^2).
    """
    psi3 = psi.reshape(2, 2, 2)
    for q in range(3):
        unfolded = np.moveaxis(psi3, q, 0).reshape(2, 4)
        _, s, vh = np.linalg.svd(unfolded)
        if s[1] <= 1e-12:
            pair = vh[0].reshape(2, 2)
            a, b = np.linalg.svd(pair, compute_uv=False)
            return a * a * b * b * (a * a - b * b) ** 2 / (2.0 * (a**3 + b**3) ** 2)
    raise CheckError("no qubit of the state is in a product state")


def check_witness(
    label: str,
    psi: np.ndarray,
    got_label: str,
    plus_kets,
    certificate_probabilities,
    certificate_satisfied: bool,
    bell_value: float | None,
) -> np.ndarray:
    """One witness for a state built to lie in sub-class ``label``.

    ``bell_value`` is the program's B for these settings, or None when the
    operation did not ask for it.  Returns the recomputed five
    probabilities for the sampling check.
    """
    _require(got_label == label, f"state built for {label} was classified {got_label}")
    check_window(plus_kets)
    probs = five_probabilities(psi, plus_kets)
    clamped = np.clip(probs, 0.0, 1.0)
    reported = np.asarray(certificate_probabilities, dtype=float)
    _require(
        np.max(np.abs(clamped - reported)) <= MATCH_TOL,
        f"{label}: certificate probabilities {reported.tolist()} "
        f"differ from recomputed {clamped.tolist()}",
    )
    recomputed_bell = bell_of(probs)
    _require(
        bell_value is None or abs(recomputed_bell - bell_value) <= MATCH_TOL,
        f"{label}: B = {bell_value!r} reported, {recomputed_bell!r} recomputed",
    )
    if label[0] in "BD":
        _require(
            np.max(probs[:4]) <= ZERO_TOL and probs[4] > ZERO_TOL and certificate_satisfied,
            f"{label}: Hardy pattern fails, probabilities {probs.tolist()}, "
            f"certificate satisfied={certificate_satisfied}",
        )
    if label[0] == "B":
        p5 = pair_success_probability(psi)
        _require(
            abs(probs[4] - p5) <= ZERO_TOL * 0.1,
            f"{label}: P5 = {probs[4]!r}, closed form gives {p5!r}",
        )
    if label[0] == "C":
        _require(
            recomputed_bell < 0.0 and not certificate_satisfied,
            f"{label}: B = {recomputed_bell!r}, certificate satisfied={certificate_satisfied}",
        )
        _require(
            abs(recomputed_bell - MAXIMAL_PAIR_BELL) <= ZERO_TOL,
            f"{label}: B = {recomputed_bell!r}, expected {MAXIMAL_PAIR_BELL}",
        )
    return probs


def check_sample(frequencies, probs, shots: int) -> None:
    """Sampled frequencies lie within six binomial standard errors (plus six
    counts, for terms whose expected count is tiny) of the probabilities."""
    p = np.clip(np.asarray(probs, dtype=float), 0.0, 1.0)
    counts = np.asarray(frequencies, dtype=float) * shots
    allowed = 6.0 * np.sqrt(shots * p * (1.0 - p)) + 6.0
    worst = np.abs(counts - shots * p) - allowed
    _require(
        float(np.max(worst)) <= 0.0,
        f"sampled counts {counts.tolist()} are too far from {(shots * p).tolist()}",
    )


def check_labels(got_labels: np.ndarray, expected_labels: np.ndarray, names) -> None:
    bad = np.flatnonzero(got_labels != expected_labels)
    if bad.size:
        i = int(bad[0])
        raise CheckError(
            f"{bad.size} rows mislabelled; row {i} built for "
            f"{names[expected_labels[i]]} was labelled {names[got_labels[i]]}"
        )
