"""Minimizing the Bell expression over settings and threshold visibility.

The Bell value of the white-noise mixture v|psi><psi| + (1-v)/8 I is affine
in v with noise endpoint 3/8, so once the most negative value B_min of a
state is known, the smallest visibility at which the inequality is still
violated is

    v_thr = (3/8) / (3/8 - B_min).

The minimization is a see-saw iteration (Werner & Wolf, QIC 2001; Pal &
Vertesi, PRA 82, 022116, 2010).  B is linear in each party's projectors,
and P(D-) = I - P(D+), so with two parties fixed the best U+ and D+ of the
third are the minimum eigenvectors of two 2x2 Hermitian matrices.  Each
seeded start escapes local minima by seeded basin hops: random rotations
of its kets, each kept only when the re-descent ends lower.  All starts
sweep together as one array, each at its own stage: a start whose descent
ends moves on to its next hop or its polish at once, so no start waits for
the slowest descent of another.

Plain sweeps converge linearly, and slowly near the optimum, so each
descent is a safeguarded Anderson acceleration (Walker & Ni, SIAM J.
Numer. Anal. 49, 1715, 2011) of the sweep fixed point: in its linear-rate
tail a start sweeps from a combination of its last few iterates, which is
kept only when it lowers B.

At the usual few dozen starts a sweep costs numpy calls, not arithmetic,
so each sweep is a short, fixed sequence of elementwise operations on all
running starts: one stack of every qubit's bras, one contraction shared
by the first two parties, length-2 sums written out and one eigenpair
call per party.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .bell import VIOLATION_CUTOFF, WHITE_NOISE_BELL_VALUE, bell_value
from .errors import DimensionError, VisibilityUndefinedError
from .observables import (
    WINDOW_TOL,
    MeasurementSettings,
    kets_from_angles,
    random_angles,
    settings_from_plus_kets,
)

#: basin hops per start after its first descent
HOPS = 4
#: rotation angle (radians) of the random SU(2) kick applied to each ket in a
#: hop; on W at 8 starts, seeds 0-29, 1.5 rad brings 163 of 240 starts to the
#: global minimum and 1.0 rad 96, at the same run time
KICK_ANGLE = 1.5
#: stopping tolerance of the descents before the final polish to ``tol``
LOOSE_TOL = 1e-6
#: iterates per start that the Anderson extrapolation combines, and the
#: plain-sweep gain below which a start begins to extrapolate.  Measured at
#: 8 starts, seeds 0-29, when each descent stage ran as a batch until its
#: slowest start was done: plain sweeps take 22,809 batched sweeps on W (163
#: starts reach the global minimum) and 3,646 on GHZ.  Depth 3, 5 and 8 at
#: onset 1e-4 take 11,190, 11,125 and 10,641 on W (175, 174 and 167 starts).
#: At depth 5, onset 1e-3, 1e-4 and 1e-5 take 10,476, 11,125 and 13,130 on W
#: (181, 174 and 164 starts) and 3,371, 3,009 and 3,191 on GHZ; extrapolating
#: from the second sweep on takes 10,182 on W but 4,056 on GHZ, more than
#: plain sweeps.  With every start at its own stage, depth 5 at onset 1e-4
#: takes 7,073 on W and 2,626 on GHZ, with the same starts at the minimum.
ANDERSON_DEPTH = 5
ANDERSON_ONSET = 1e-4
#: starts whose final B is this close to the best count as reaching it
AT_BEST_TOL = 1e-9

_LAGS = np.arange(1, ANDERSON_DEPTH)
_RIDGE_EYE = np.eye(ANDERSON_DEPTH - 1)
_TINY = np.finfo(float).tiny
#: party j of a sweep and the qubits o and t it contracts, t first
_PARTIES = ((0, 1, 2), (1, 0, 2), (2, 0, 1))
#: rows of the bra stack (<U+|, <D+|, <D-|) of qubits t and o that give the
#: amplitudes c3 = <D+U+|, b = <U+U+|, c4 = <U+D+| and a = <D-D-| (o's bra first)
_T_ROWS = np.array([0, 0, 1, 2])
_O_ROWS = np.array([1, 0, 0, 2])


@dataclass(frozen=True)
class OptimizationResult:
    """Best Bell value found, the settings achieving it, and the threshold."""

    best_value: float
    best_settings: MeasurementSettings
    threshold_visibility: float | None
    starts: int
    converged: bool
    seed: int
    #: final B of every start, in start order
    start_values: tuple[float, ...]
    #: batched sweeps of the one loop that runs every start's descents
    sweeps: int

    @property
    def violation_found(self) -> bool:
        return self.best_value < VIOLATION_CUTOFF

    @property
    def starts_at_best(self) -> int:
        """How many starts ended within AT_BEST_TOL of the best value."""
        return sum(abs(v - self.best_value) <= AT_BEST_TOL for v in self.start_values)


def _norm2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def _min_eigpair(p, r, q, fallback):
    """Minimum eigenpair of the Hermitian matrices M = [[p, q], [conj(q), r]].

    ``p`` and ``r`` are real arrays, ``q`` a complex array of the same shape.
    With half = (p - r) / 2 and h = sqrt(half^2 + |q|^2), lambda is
    (p + r) / 2 - h.  The eigenvector is read off the row of M - lambda I
    with the larger diagonal gap g = h + |half|: (q, -g) if p >= r, else
    (g, -conj(q)), so it stays well conditioned and its squared norm is
    |q|^2 + g^2.  Where M is a multiple of the identity every ket is a
    minimizer and ``fallback`` (shape (..., 2)) is kept.  Returns (lambda,
    unit eigenvector).
    """
    half = 0.5 * (p - r)
    nq = _norm2(q)
    h = np.sqrt(half * half + nq)
    lam = 0.5 * (p + r) - h
    upper = half >= 0.0
    gap = h + np.abs(half)
    v = np.empty(q.shape + (2,), complex)
    v[..., 0] = np.where(upper, q, gap)
    v[..., 1] = np.where(upper, -gap, -np.conj(q))
    n2 = (nq + gap * gap)[..., None]
    ok = n2 > 0.0
    return lam, np.where(ok, v / np.sqrt(np.where(ok, n2, 1.0)), fallback)


def _load_bras(bras: np.ndarray, kets: np.ndarray) -> None:
    """Write <U+|, <D+| and <D-| of ``kets`` (..., 2, 2) into ``bras`` (..., 3, 2).

    <D-| is the conjugate of the complement (-conj(d1), conj(d0)) of D+.
    """
    np.conjugate(kets, out=bras[..., :2, :])
    bras[..., 2, :] = kets[..., 1, ::-1]
    np.negative(bras[..., 2, 0], out=bras[..., 2, 0])


def _sweep(psi3: np.ndarray, kets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One see-saw sweep over the three parties, for every start at once.

    ``kets`` is (S, 3, 2, 2): start, qubit, U/D, plus-ket component.  With
    the other two parties fixed, party j's share of B is

        |a|^2 + <D+|(b b^+ - a a^+)|D+> + <U+|(c3 c3^+ + c4 c4^+ - b b^+)|U+>

    with a = <D-D-|psi>, b = <U+U+|psi>, c3 = <D+U+|psi> and c4 = <U+D+|psi>
    contracted over the other two qubits o and t, t first.  One (S, 3, 3, 2)
    stack holds every qubit's <U+|, <D+| and <D-|; only the updated
    party's rows are rewritten.  Parties 0 and 1 both contract qubit 2
    first, which party 0 leaves alone, so party 1 reuses that contraction.
    Length-2 sums are written out.  Both brackets are minimized exactly,
    by one ``_min_eigpair`` call on the stacked U and D matrices.  Returns
    the new kets and B after the sweep.  Only elementwise arithmetic is
    used, so a start's result does not depend on the other starts in the
    batch.
    """
    new = np.empty_like(kets)
    bras = np.empty((len(kets), 3, 3, 2), complex)
    _load_bras(bras, kets)
    for j, o, t in _PARTIES:
        if j != 1:
            tensor = psi3.transpose(j, o, t)
            bra_t = bras[:, t, _T_ROWS, None, None]  # (S, 4, 1, 1, 2)
            # contract qubit t -> (S, 4, j, o)
            part = tensor[..., 0] * bra_t[..., 0] + tensor[..., 1] * bra_t[..., 1]
        else:
            part = part.swapaxes(2, 3)
        bra_o = bras[:, o, _O_ROWS, None]  # (S, 4, 1, 2)
        # contract qubit o -> rows c3, b, c4, a of (S, 4, j)
        amps = part[..., 0] * bra_o[..., 0] + part[..., 1] * bra_o[..., 1]
        n = _norm2(amps)
        x = amps[..., 0] * np.conj(amps[..., 1])
        # U = c3 + c4 - b and D = b - a, as rows (c3 + c4, b) - (b, a)
        n[:, 0] += n[:, 2]
        x[:, 0] += x[:, 2]
        diag = n[:, :2] - n[:, 1::2]
        lam, new[:, j] = _min_eigpair(diag[..., 0], diag[..., 1], x[:, :2] - x[:, 1::2], kets[:, j])
        if j != 2:
            _load_bras(bras[:, j], new[:, j])
    return new, n[:, 3].sum(axis=-1) + lam[:, 1] + lam[:, 0]


def _extrapolate(hist: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """Anderson extrapolation of the sweep map for every start at once.

    ``hist`` (S, ANDERSON_DEPTH, 2, 3, 2, 2) holds a start's last iterates,
    latest first: the residual f_i = G(x_i) - x_i and the sweep output
    G(x_i), each read as 24 reals; only the first ``depth`` are valid.  With
    differences dF_i = f_0 - f_i and dG_i = g_0 - g_i, gamma solves the
    ridge-regularized normal equations of min |f_0 - dF gamma| and the
    result is g_0 - dG gamma, returned as (S, 3, 2, 2) unit kets.  The
    normal equations are built from elementwise products and sums, and
    solved per start, so a start's result does not depend on the batch.
    """
    hist = hist.reshape(len(hist), ANDERSON_DEPTH, 2, 12).view(float)
    valid = _LAGS < depth[:, None]
    diff = (hist[:, :1] - hist[:, 1:]) * valid[..., None, None]
    df, dg = diff[:, :, 0], diff[:, :, 1]
    gram = (df[:, :, None, :] * df[:, None, :, :]).sum(axis=-1)
    trace = gram.trace(axis1=1, axis2=2)
    # a relative ridge, and a unit diagonal on unused differences (gamma_i = 0)
    ridge = (1e-10 * trace + _TINY)[:, None] + ~valid
    gram = gram + ridge[:, :, None] * _RIDGE_EYE
    rhs = (df * hist[:, :1, 0]).sum(axis=-1)
    gamma = np.linalg.solve(gram, rhs[..., None])
    x = (hist[:, 0, 1] - (gamma * dg).sum(axis=1)).view(complex).reshape(-1, 3, 2, 2)
    n2 = _norm2(x)
    return x / np.sqrt(n2[..., :1] + n2[..., 1:])


def _see_saw(psi3, kets, axes, tol, maxiter):
    """Run every start through its descents, hops and polish in one batch.

    A descent sweeps a start until a plain sweep lowers its B by at most
    its stopping tolerance, or for ``maxiter`` sweeps.  The sweeps are a
    safeguarded Anderson iteration (Walker & Ni, SIAM J. Numer. Anal. 49,
    1715, 2011) on the sweep map, which sends a start's kets, viewed as 24
    reals, to the kets after one ``_sweep``.  Once a plain sweep of a start
    gains less than ANDERSON_ONSET, its inputs are extrapolated from its
    last ANDERSON_DEPTH iterates.  An extrapolated input is kept only if the
    sweep from it lowers B; otherwise the start goes back to its last kept
    kets and value, forgets its history and sweeps plainly.  A sweep from
    an extrapolated input never stops a start, and one that gains at most
    the tolerance is followed by a plain sweep, so a descent always ends
    on a plain sweep's gain.

    Each start descends from ``kets`` to LOOSE_TOL, then takes HOPS basin
    hops: hop h (from 0) rotates the start's best kets by KICK_ANGLE about
    the axes ``axes[:, h]`` (S, HOPS, 3, 2, 3) and descends to LOOSE_TOL,
    and its kets are kept only if it ends lower.  The best kets are then
    polished to ``tol``.  A start moves to its next stage as soon as its
    descent ends, while the others keep sweeping, and its Anderson state
    restarts.  The loop's state holds only the starts still running, in
    start order; a start leaves it when its polish ends.

    Returns the polished kets, their B and the last plain sweep's
    improvement per start, and the number of batched sweeps run.
    """
    count = len(kets)
    # the kick exp(-i KICK_ANGLE/2 n.sigma) maps k to c k - i s (n0 k0 + n1 k1)
    nx, ny, nz = np.moveaxis(axes / np.linalg.norm(axes, axis=-1, keepdims=True), -1, 0)
    n0 = np.stack([nz, nx + 1j * ny], axis=-1)
    n1 = np.stack([nx - 1j * ny, -nz], axis=-1)
    c, s = math.cos(KICK_ANGLE / 2.0), math.sin(KICK_ANGLE / 2.0)
    final_kets = np.empty_like(kets)
    final_value = np.empty(count)
    final_gain = np.empty(count)

    ids = np.arange(count)  # start index of each running start
    stage = np.zeros(count, int)  # 0 first descent, 1..HOPS hops, HOPS + 1 polish
    stop = np.full(count, LOOSE_TOL)
    deadline = np.full(count, maxiter)  # batched sweep at which the descent is capped
    best_kets = np.empty_like(kets)
    best_value = np.full(count, np.inf)
    kets = kets.copy()  # last kept sweep output of the current descent
    inputs = kets.copy()  # next sweep input
    value = np.full(count, np.inf)
    gain = np.full(count, np.inf)  # last plain sweep's
    onset = np.zeros(count, bool)
    extrapolated = np.zeros(count, bool)
    depth = np.zeros(count, int)
    hist = np.zeros((count, ANDERSON_DEPTH, 2, 3, 2, 2), complex)  # f, g of the last iterates
    sweeps = 0
    while ids.size:
        sweeps += 1
        out, new = _sweep(psi3, inputs)
        plain = ~extrapolated
        lowered = value - new
        kept = plain | (lowered > 0.0)
        gain = np.where(plain, lowered, gain)
        onset |= plain & (lowered < ANDERSON_ONSET)
        value = np.where(kept, new, value)
        kept_kets = kept[:, None, None, None]
        kets = np.where(kept_kets, out, kets)
        shifted = np.empty_like(hist)
        shifted[:, 1:] = hist[:, :-1]
        np.subtract(out, inputs, out=shifted[:, 0, 0])
        shifted[:, 0, 1] = out
        hist = np.where(kept_kets[:, None, None], shifted, hist)
        depth = np.where(kept, np.minimum(depth + 1, ANDERSON_DEPTH), 0)

        slow = lowered > stop
        going = (extrapolated | slow) & (deadline > sweeps)
        inputs = kets.copy()
        # a rejected start has depth 0; one whose sweep gained at most its
        # tolerance sweeps plainly
        extrapolated = going & onset & (depth >= 2) & slow
        if extrapolated.any():
            inputs[extrapolated] = _extrapolate(hist[extrapolated], depth[extrapolated])
        if going.all():
            continue
        ended = np.flatnonzero(~going)
        # the first descent sets a start's best; a hop replaces it only if lower
        lower = ended[value[ended] < best_value[ended]]
        best_kets[lower], best_value[lower] = kets[lower], value[lower]
        stage[ended] += 1
        hop = ended[stage[ended] <= HOPS]
        h = stage[hop] - 1
        k = best_kets[hop]
        axis0, axis1 = n0[ids[hop], h], n1[ids[hop], h]
        inputs[hop] = c * k - 1j * s * (axis0 * k[..., :1] + axis1 * k[..., 1:])
        polish = ended[stage[ended] == HOPS + 1]
        inputs[polish] = best_kets[polish]
        stop[polish] = tol
        begun = ended[stage[ended] <= HOPS + 1]
        value[begun] = np.inf
        onset[begun] = False
        depth[begun] = 0
        deadline[begun] = sweeps + maxiter
        done = stage > HOPS + 1
        if done.any():
            final_kets[ids[done]] = kets[done]
            final_value[ids[done]] = value[done]
            final_gain[ids[done]] = gain[done]
            run = ~done
            ids, stage, stop, deadline, best_kets, best_value = (
                a[run] for a in (ids, stage, stop, deadline, best_kets, best_value)
            )
            kets, inputs, value, gain, onset, extrapolated, depth, hist = (
                a[run] for a in (kets, inputs, value, gain, onset, extrapolated, depth, hist)
            )
    return final_kets, final_value, final_gain, sweeps


def _inside_window(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Unit ``d``, moved in its plane with unit ``u`` into the window.

    Commuting optima (overlap 0 or 1) occur, for instance for product
    states; they are moved to overlap 2*WINDOW_TOL or 1 - 2*WINDOW_TOL.
    """
    along = np.vdot(u, d)
    overlap = abs(along)
    target = min(max(overlap, 2.0 * WINDOW_TOL), 1.0 - 2.0 * WINDOW_TOL)
    if target == overlap:
        return d
    u_perp = linalg.perp_qubit(u)
    across = np.vdot(u_perp, d)
    phase_along = along / overlap if overlap > 0.0 else 1.0
    phase_across = across / abs(across) if abs(across) > 0.0 else 1.0
    return (
        target * phase_along * u
        + math.sqrt(1.0 - target * target) * phase_across * u_perp
    )


def minimize_bell(
    psi,
    starts: int = 64,
    seed: int = 0,
    tol: float = 1e-10,
    maxiter: int = 4000,
) -> OptimizationResult:
    """Multistart see-saw minimization of B over all settings.

    Start ``i`` draws its first settings and then the axes of its HOPS hop
    rotations from the generator of child ``i`` of ``SeedSequence(seed)``.
    Every start descends to LOOSE_TOL, takes HOPS basin hops (a hop is kept
    only when it ends lower), and is polished until a plain sweep improves
    B by at most ``tol`` (see ``_see_saw``); ``maxiter`` caps the sweeps of
    each of a start's descents.  The first start with the lowest B wins,
    so the outcome is deterministic for fixed (starts, seed), and a start's
    result does not depend on how many run beside it.  The winner's
    settings are moved inside the non-commutation window if they commute,
    and ``best_value`` is B at the reported settings.
    """
    if not starts >= 1:
        raise ValueError(f"starts must be at least 1, got {starts!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if not maxiter >= 1:
        raise ValueError(f"maxiter must be at least 1, got {maxiter!r}")
    vec = linalg.ket(psi)
    if vec.shape[0] != 8:
        raise DimensionError("optimization expects a three-qubit ket")
    linalg.require_normalized(vec)
    psi3 = vec.reshape(2, 2, 2)

    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(int(starts))]
    kets = kets_from_angles(np.stack([random_angles(rng, 6) for rng in rngs])).reshape(-1, 3, 2, 2)
    axes = np.stack([rng.standard_normal((HOPS, 3, 2, 3)) for rng in rngs])
    kets, value, gain, sweeps = _see_saw(psi3, kets, axes, tol, maxiter)

    best = int(np.argmin(value))  # the first of equal values, in start order
    settings = settings_from_plus_kets([(u, _inside_window(u, d)) for u, d in kets[best]])
    best_value = bell_value(vec, settings).bell_value
    threshold = (
        threshold_visibility(best_value) if best_value < VIOLATION_CUTOFF else None
    )
    return OptimizationResult(
        best_value=best_value,
        best_settings=settings,
        threshold_visibility=threshold,
        starts=int(starts),
        converged=bool(gain[best] <= tol),
        seed=int(seed),
        start_values=tuple(float(v) for v in value),
        sweeps=sweeps,
    )


def threshold_visibility(best_value: float) -> float:
    """Smallest visibility v at which the noisy state still violates.

    Solves v*B + (1-v)*(3/8) = 0 for a violating B < 0; the affinity of B
    in v is a property of the white-noise mixture and is covered by tests.
    """
    if best_value >= 0.0:
        raise VisibilityUndefinedError(
            f"threshold visibility needs a violation (B < 0), got B = {best_value!r}"
        )
    return WHITE_NOISE_BELL_VALUE / (WHITE_NOISE_BELL_VALUE - best_value)
