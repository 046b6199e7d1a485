"""Workload inputs, generated from the workload seed without hardy3q.

States are canonical parameters (l0..l4, phi) of

    |psi> = l0|000> + l1 e^{i phi}|100> + l2|101> + l3|110> + l4|111>.

Each sub-class of the classification table is drawn from its own zero
pattern and equality surface, with free components in [0.3, 1] before
normalization and inequality constraints kept at least 0.05 away from
their boundaries, so every draw lies well inside its sub-class.
Equalities hold by construction (l0 = l4, l2 = l4, l4 = l2 l3 / l1, ...).
"""

from __future__ import annotations

import math

import numpy as np

#: the 25 rows of the classification table, in table order
LABELS = (
    "A.1", "A.2", "A.3",
    "B.1", "B.2", "B.3", "B.4", "B.5",
    "C.1", "C.2", "C.3",
    "D.1", "D.2", "D.3", "D.4", "D.5", "D.6", "D.7",
    "D.8", "D.9", "D.10", "D.11", "D.12", "D.13", "D.14",
)
#: the 22 entangled sub-classes, taken in round robin by class-witness
ENTANGLED = LABELS[3:]
MARGIN = 0.05
INV_SQRT2 = 2**-0.5


def _free(rng, n, k):
    return rng.uniform(0.3, 1.0, (n, k))


def _phases(rng, n):
    return rng.uniform(0.2, math.pi - 0.2, n)


def _pair_margins(lam, phi):
    """|det| and unitarity gap of the l0 = 0 pair matrix [[l1 e^{i phi}, l2], [l3, l4]]."""
    e = np.exp(1j * phi)
    det = np.abs(lam[:, 1] * lam[:, 4] * e - lam[:, 2] * lam[:, 3])
    gap = np.maximum.reduce([
        np.abs(2.0 * (lam[:, 1] ** 2 + lam[:, 2] ** 2) - 1.0),
        np.abs(2.0 * (lam[:, 3] ** 2 + lam[:, 4] ** 2) - 1.0),
        2.0 * np.abs(lam[:, 1] * e * lam[:, 3] + lam[:, 2] * lam[:, 4]),
    ])
    return det, gap


def _draw_once(label: str, rng, n: int):
    lam = np.zeros((n, 5))
    phi = np.zeros(n)
    keep = np.ones(n, dtype=bool)

    def fill(cols, with_phase):
        lam[:, cols] = _free(rng, n, len(cols))
        if with_phase:
            phi[:] = _phases(rng, n)

    if label == "A.1":
        fill([0, 1], True)
    elif label == "A.2":
        lam[:, 0] = 1.0
    elif label == "A.3":
        # l0 = 0 and l1 l4 e^{i phi} = l2 l3: a factor surface or a zero pattern
        fill([1, 2, 3], False)
        mode = rng.integers(3, size=n)
        lam[:, 4] = np.where(mode == 0, lam[:, 2] * lam[:, 3] / lam[:, 1], 0.0)
        lam[mode == 1, 3] = 0.0
        lam[mode == 2, 2] = 0.0
    elif label == "B.1":
        fill([0, 1, 2], True)
    elif label == "B.2":
        fill([0, 1, 3], True)
    elif label in ("B.3", "B.4"):
        t = rng.uniform(0.15, math.pi / 2 - 0.15, n)
        keep = np.abs(t - math.pi / 4) >= 2 * MARGIN
        lam[:, 0] = np.cos(t)
        lam[:, 2 if label == "B.3" else 3] = np.sin(t)
    elif label == "B.5":
        fill([1, 2, 3, 4], True)
    elif label == "C.1":
        lam[:, [0, 2]] = INV_SQRT2
    elif label == "C.2":
        lam[:, [0, 3]] = INV_SQRT2
    elif label == "C.3":
        # sqrt(2) [[l1 e^{i phi}, l2], [l3, l4]] unitary: l1 = l4, l2 = l3 = 0 at
        # any phase, or the rotation family (cos x, sin x, sin x, cos x) at phi = pi
        x = rng.uniform(0.15, math.pi / 2 - 0.15, n)
        rotation = rng.integers(2, size=n) == 1
        lam[:, 1] = lam[:, 4] = np.where(rotation, np.cos(x), 1.0)
        lam[:, 2] = lam[:, 3] = np.where(rotation, np.sin(x), 0.0)
        phi[:] = np.where(rotation, math.pi, _phases(rng, n))
    elif label == "D.1":
        fill([0, 1, 2, 3, 4], True)
    elif label == "D.2":
        fill([0, 1, 2, 3, 4], False)
    elif label == "D.3":
        fill([0, 1, 2, 3], False)
        lam[:, 4] = lam[:, 2] * lam[:, 3] / lam[:, 1]
    elif label == "D.4":
        fill([0, 1, 2, 3], True)
    elif label == "D.5":
        fill([0, 1, 2, 4], True)
    elif label == "D.6":
        fill([0, 1, 3, 4], True)
    elif label == "D.7":
        fill([0, 1, 3], True)
        lam[:, 4] = lam[:, 0]
    elif label == "D.8":
        fill([0, 1, 4], True)
    elif label == "D.9":
        fill([0, 3, 4], False)
    elif label == "D.10":
        fill([0, 2, 3, 4], False)
    elif label == "D.11":
        fill([0, 2, 3], False)
        lam[:, 4] = lam[:, 2]
    elif label == "D.12":
        fill([0, 2, 3], False)
    elif label == "D.13":
        fill([0, 2, 4], False)
    elif label == "D.14":
        fill([0, 4], False)
    else:
        raise ValueError(f"unknown sub-class {label!r}")

    lam /= np.linalg.norm(lam, axis=1, keepdims=True)
    if label == "B.5":
        det, gap = _pair_margins(lam, phi)
        keep = (det >= MARGIN) & (gap >= MARGIN)
    elif label == "D.2":
        keep = np.abs(lam[:, 2] * lam[:, 3] - lam[:, 1] * lam[:, 4]) >= MARGIN
    elif label == "D.6":
        keep = np.abs(lam[:, 0] - lam[:, 4]) >= MARGIN
    elif label == "D.10":
        keep = np.abs(lam[:, 2] - lam[:, 4]) >= MARGIN
    return lam[keep], phi[keep]


def draw(label: str, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` canonical parameter rows inside sub-class ``label``: (n, 5) and (n,)."""
    lams, phis = [], []
    have = 0
    while have < n:
        lam, phi = _draw_once(label, rng, 2 * (n - have))
        lams.append(lam)
        phis.append(phi)
        have += len(lam)
    return np.concatenate(lams)[:n], np.concatenate(phis)[:n]


def round_robin(labels, rng, per_label: int):
    """``per_label`` rounds, each one state of every label in order."""
    drawn = [draw(label, rng, per_label) for label in labels]
    return [
        (label, tuple(drawn[i][0][r]), float(drawn[i][1][r]))
        for r in range(per_label)
        for i, label in enumerate(labels)
    ]


# ---------------------------------------------------------------------------
# near-boundary-witness
# ---------------------------------------------------------------------------

#: (sub-class, which of l0, l1, l2 is scaled down) strata; one round is one of each
NEAR_BOUNDARY_STRATA = tuple((label, j) for label in ("D.1", "D.2") for j in (0, 1, 2))
#: Below about 10^-4.5 every recipe fails its P5 > 1e-9 check and the search
#: runs; above 10^-3.5 none does.  Ending the range at 10^-3.5 rather than
#: 10^-3 keeps the recipe share near a fifth, so the median operation lies
#: inside the search's latency mode instead of on its lower edge.
NEAR_BOUNDARY_EXPONENTS = (-6.0, -3.5)


def near_boundary(rng: np.random.Generator, rounds: int):
    """D.1 and D.2 states with one of l0, l1, l2 scaled by 10^-6 .. 10^-3.5.

    One round holds one state of each stratum in NEAR_BOUNDARY_STRATA.  The
    exponent of round r in stratum s is lo + (hi - lo) frac(u_s + r g), with
    a seeded offset u_s and g the golden ratio's fractional part, so that
    every prefix of whole rounds covers [-6, -3.5] evenly.  D.2 states keep
    |l2 l3 - l1 l4| >= 0.05 after scaling.  Returns (label, lams, phi,
    exponent) tuples in round order.
    """
    lo, hi = NEAR_BOUNDARY_EXPONENTS
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    offsets = rng.uniform(size=len(NEAR_BOUNDARY_STRATA))
    deck = []
    for r in range(rounds):
        for s, (label, j) in enumerate(NEAR_BOUNDARY_STRATA):
            exponent = lo + (hi - lo) * ((offsets[s] + r * golden) % 1.0)
            while True:
                lam, phi = draw(label, rng, 1)
                lam = lam[0]
                lam[j] *= 10.0**exponent
                lam /= np.linalg.norm(lam)
                if label == "D.1" or abs(lam[2] * lam[3] - lam[1] * lam[4]) >= MARGIN:
                    break
            deck.append((label, tuple(lam), float(phi[0]), float(exponent)))
    return deck


# ---------------------------------------------------------------------------
# classify-bulk
# ---------------------------------------------------------------------------

#: share of rows drawn uniformly on the positive sphere (labelled D.1)
BULK_UNIFORM_SHARE = 0.7
#: rows per label among the rest: the zero patterns and equality surfaces
BULK_STRUCTURED_WEIGHTS = {
    label: (3 if label in ("C.1", "C.2", "C.3", "D.3", "D.7", "D.11", "A.3") else 1)
    for label in LABELS
}
#: uniform rows are drawn this many at a time
BULK_BLOCK = 100_000


def bulk(rng: np.random.Generator, rows: int):
    """Rows for classify_batch and the label index each was built for.

    The uniform rows have every component and phi >= 1e-6, so they sit
    inside D.1 with margin; the structured rows follow the class weights.
    Each block of rows is written straight to its shuffled positions, so
    generation holds the output arrays and one block at a time.
    """
    order = rng.permutation(rows)
    out_lam = np.empty((rows, 5))
    out_phi = np.empty(rows)
    out_label = np.empty(rows, dtype=np.int64)

    n_uniform = int(rows * BULK_UNIFORM_SHARE)
    for lo in range(0, n_uniform, BULK_BLOCK):
        lam = np.abs(rng.standard_normal((min(BULK_BLOCK, n_uniform - lo), 5)))
        lam = np.maximum(lam / np.linalg.norm(lam, axis=1, keepdims=True), 1e-6)
        lam /= np.linalg.norm(lam, axis=1, keepdims=True)
        out_lam[order[lo:lo + len(lam)]] = lam
    at = order[:n_uniform]
    out_phi[at] = rng.uniform(1e-6, math.pi, n_uniform)
    out_label[at] = LABELS.index("D.1")

    total = sum(BULK_STRUCTURED_WEIGHTS.values())
    left = rows - n_uniform
    filled = n_uniform
    for i, label in enumerate(LABELS):
        n = left * BULK_STRUCTURED_WEIGHTS[label] // total
        if i == len(LABELS) - 1:
            n = rows - filled
        at = order[filled:filled + n]
        out_lam[at], out_phi[at] = draw(label, rng, n)
        out_label[at] = i
        filled += n
    return out_lam, out_phi, out_label
