"""Minimizing the Bell expression over settings and threshold visibility.

The Bell value of the white-noise mixture v|psi><psi| + (1-v)/8 I is affine
in v with noise endpoint 3/8, so once the most negative value B_min of a
state is known, the smallest visibility at which the inequality is still
violated is

    v_thr = (3/8) / (3/8 - B_min).

The minimization is a see-saw iteration (Werner & Wolf, QIC 2001; Pal &
Vertesi, PRA 82, 022116, 2010) on real unit Bloch vectors: a start is a
(3, 2, 3) array, qubit, U/D, vector, and the projector onto a plus-ket of
Bloch vector n is (I + n.sigma)/2.  B is then a trilinear form in psi's
real 4x4x4 correlation tensor T[mu, nu, lam] = <psi|sigma_mu x sigma_nu x
sigma_lam|psi> (sigma_0 = I), built once per call.  It is affine in each
party's two vectors, and P(D-) = I - P(D+), so with two parties fixed the
best U and D of the third are -h/|h| for two vectors h read off T.  Each
seeded start escapes local minima by seeded basin hops: random rotations
of its first descent's vectors, each kept only when its re-descent ends
lower.  The hops do not depend on each other, so all starts' hops descend
side by side as one batch, and a run is three batched descents: the first
descents, the hops and the polish of each start's best.  The winner's
vectors become plus-kets only for the reported settings.

Plain sweeps converge linearly, and slowly near the optimum, so each
descent is a safeguarded Anderson acceleration (Walker & Ni, SIAM J.
Numer. Anal. 49, 1715, 2011) of the sweep fixed point: in its linear-rate
tail a start sweeps from a combination of its last few iterates, which is
kept only when it lowers B.

At the usual few dozen starts a sweep costs numpy calls, not arithmetic,
so each sweep is a short, fixed sequence of real array operations on all
running starts: one stack of every qubit's frame rows (1, n), and per
party one gather, one product, two small matmuls and one normalization.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .bell import VIOLATION_CUTOFF, WHITE_NOISE_BELL_VALUE, bell_value
from .errors import DimensionError, VisibilityUndefinedError
from .observables import (
    WINDOW_TOL,
    MeasurementSettings,
    random_angles,
    settings_from_plus_kets,
)

#: starts of ``minimize_bell`` (and of ``hardy3q optimize``) by default
DEFAULT_STARTS = 64
#: default stopping tolerance of each start's final polish
POLISH_TOL = 1e-10
#: the most sweeps of any one descent of a start
DESCENT_MAXITER = 4000
#: basin hops per start after its first descent
HOPS = 4
#: rotation angle (radians) of the random kick applied to each Bloch vector in
#: a hop; on W at 8 starts, seeds 0-29, 1.5 rad brings 166 of 240 starts to the
#: global minimum and 1.0 rad 122, in 4,922 and 5,020 batched sweeps
KICK_ANGLE = 1.5
#: stopping tolerance of the descents before the final polish to ``tol``
LOOSE_TOL = 1e-6
#: iterates per start that the Anderson extrapolation combines, and the
#: plain-sweep gain below which a start begins to extrapolate.  Of onsets
#: 1e-3 to 1e-5 at depth 5, 1e-4 took the fewest GHZ sweeps, and depths 3
#: and 8 gave no fewer W sweeps with as many starts at best; extrapolating
#: from the second sweep on took more GHZ sweeps than plain sweeps.  At 8
#: starts, seeds 0-29, it takes 4,922 batched sweeps on W and 1,151 on GHZ,
#: with 166 and all 240 starts at the global minimum.
ANDERSON_DEPTH = 5
ANDERSON_ONSET = 1e-4
#: starts whose final B is this close to the best count as reaching it
AT_BEST_TOL = 1e-9

_LAGS = np.arange(1, ANDERSON_DEPTH)
_RIDGE_EYE = np.eye(ANDERSON_DEPTH - 1)
_TINY = np.finfo(float).tiny
#: party j of a sweep and the other two qubits o and t
_PARTIES = ((0, 1, 2), (1, 0, 2), (2, 0, 1))
#: rows (U+, D+, D-) of qubits o and t whose products give c3 = <D+U+|,
#: b = <U+U+|, c4 = <U+D+| and a = <D-D-| (o's row first), and per party their
#: indices into the (qubit, U+/D+/D-) frame stack, o's then t's
_O_ROWS, _T_ROWS = np.array([1, 0, 0, 2]), np.array([0, 0, 1, 2])
_PICKS = np.array([np.r_[3 * o + _O_ROWS, 3 * t + _T_ROWS] for _, o, t in _PARTIES])
#: (b - c3 - c4, a - b, c3 + c4 + a) from the rows (c3, b, c4, a)
_COMBINE = np.array([[-1.0, 1.0, -1.0, 0.0], [0.0, -1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 1.0]])
#: sigma_0 = I and the Pauli matrices sigma_x, sigma_y, sigma_z
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
#: the correlation tensor's contraction and the order ``optimize=True``
#: picks for it, which depends on the operands' shapes only: found once
_TENSOR_SUBSCRIPTS = "abc,mad,nbe,lcf,def->mnl"
_TENSOR_PATH = np.einsum_path(
    _TENSOR_SUBSCRIPTS, np.ones((2, 2, 2), complex), _PAULI, _PAULI, _PAULI,
    np.ones((2, 2, 2), complex), optimize=True,
)[0]


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
    #: batched sweeps of the three batched descents (first, hops, polish), summed
    sweeps: int

    @property
    def violation_found(self) -> bool:
        return self.best_value < VIOLATION_CUTOFF

    @property
    def starts_at_best(self) -> int:
        """How many starts ended within AT_BEST_TOL of the best value."""
        return sum(abs(v - self.best_value) <= AT_BEST_TOL for v in self.start_values)


def _party_tensors(psi3: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi's correlation tensor as one (16, 4) matrix per party of a sweep.

    T[mu, nu, lam] = <psi|sigma_mu x sigma_nu x sigma_lam|psi> with sigma_0 =
    I, real (4, 4, 4).  Party j's matrix holds T with axes (o, t, j), o and t
    flattened into rows, for the parties of ``_PARTIES``.
    """
    tensor = np.einsum(
        _TENSOR_SUBSCRIPTS, psi3.conj(), _PAULI, _PAULI, _PAULI, psi3, optimize=_TENSOR_PATH
    ).real
    return tuple(tensor.transpose(o, t, j).reshape(16, 4) for j, o, t in _PARTIES)


def _sweep(tensors, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One see-saw sweep over the three parties, for every start at once.

    ``vecs`` is (S, 3, 2, 3): start, qubit, U/D, Bloch vector, and
    ``tensors`` is ``_party_tensors(psi3)``.  A projector is (I + n.sigma)/2,
    so with the frame rows f = (1, n) of U+ and D+ and (1, -d) of D-, the
    amplitudes c = <o t|psi> over the other two qubits give the 4-vectors
    4 c^+ sigma_mu c = T(f_o, f_t), for c3 = <D+U+|, b = <U+U+|, c4 = <U+D+|
    and a = <D-D-| (o's row first).  With V their vector and C their scalar
    parts, party j's U and D see h_U = V_c3 + V_c4 - V_b and h_D = V_b -
    V_a; each moves to -h/|h| (kept where h = 0, when every vector is a
    minimizer), and then

        B = (C_c3 + C_c4 + C_a - |h_U| - |h_D|) / 8.

    One (S, 9, 4) stack holds every qubit's three frame rows; only the
    updated party's rows are rewritten.  Returns the new vectors and B
    after the sweep.  Each start is its own small matmuls and elementwise
    arithmetic, so a start's result does not depend on the other starts.
    """
    count = len(vecs)
    new = vecs.copy()
    frames = np.empty((count, 9, 4))
    frames[..., 0] = 1.0
    rows = frames.reshape(count, 3, 3, 4)
    rows[:, :, :2, 1:] = vecs
    np.negative(vecs[:, :, 1], out=rows[:, :, 2, 1:])
    for j, picks in enumerate(_PICKS):
        pick = frames.take(picks, axis=1)  # o's then t's rows of c3, b, c4, a
        pairs = pick[:, :4, :, None] * pick[:, 4:, None, :]
        terms = _COMBINE @ (pairs.reshape(count, 4, 16) @ tensors[j])
        minus_h = terms[:, :2, 1:]
        size = np.hypot.reduce(minus_h, axis=-1)
        np.divide(minus_h, size[..., None], out=new[:, j], where=size[..., None] > 0.0)
        if j != 2:
            rows[:, j, :2, 1:] = new[:, j]
            np.negative(new[:, j, 1], out=rows[:, j, 2, 1:])
    return new, (terms[:, 2, 0] - size[:, 0] - size[:, 1]) / 8.0


def _extrapolate(hist: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """Anderson extrapolation of the sweep map for every start at once.

    ``hist`` (S, ANDERSON_DEPTH, 2, 3, 2, 3) holds a start's last iterates,
    latest first: the residual f_i = G(x_i) - x_i and the sweep output
    G(x_i), each read as 18 reals; only the first ``depth`` are valid.  With
    differences dF_i = f_0 - f_i and dG_i = g_0 - g_i, gamma solves the
    ridge-regularized normal equations of min |f_0 - dF gamma| and the
    result is g_0 - dG gamma, returned as (S, 3, 2, 3) unit vectors.  The
    normal equations are built and solved per start, so a start's result
    does not depend on the batch.
    """
    hist = hist.reshape(len(hist), ANDERSON_DEPTH, 2, 18)
    valid = _LAGS < depth[:, None]
    diff = (hist[:, :1] - hist[:, 1:]) * valid[..., None, None]
    df, dg = diff[:, :, 0], diff[:, :, 1]
    gram = df @ df.transpose(0, 2, 1)
    trace = gram.trace(axis1=1, axis2=2)
    # a relative ridge, and a unit diagonal on unused differences (gamma_i = 0)
    ridge = (1e-10 * trace + _TINY)[:, None] + ~valid
    gram = gram + ridge[:, :, None] * _RIDGE_EYE
    gamma = np.linalg.solve(gram, df @ hist[:, 0, 0, :, None])
    x = (hist[:, 0, 1] - (gamma.transpose(0, 2, 1) @ dg)[:, 0]).reshape(-1, 3, 2, 3)
    return x / np.sqrt(np.square(x).sum(axis=-1, keepdims=True))


def _kicks(axes: np.ndarray) -> np.ndarray:
    """Rotations (..., 3, 3) by KICK_ANGLE about ``axes`` (..., 3), by Rodrigues' formula.

    The Bloch image of the ket kick exp(-i KICK_ANGLE/2 n.sigma) about the
    unit axis n: c I + s [n]_x + (1 - c) n n^T with c, s the cosine and sine.
    """
    n = axes / np.linalg.norm(axes, axis=-1, keepdims=True)
    # row k is n x e_k, so the transpose is the cross-product matrix [n]_x
    cross = np.cross(n[..., None, :], np.eye(3)).swapaxes(-1, -2)
    c, s = math.cos(KICK_ANGLE), math.sin(KICK_ANGLE)
    return c * np.eye(3) + s * cross + (1.0 - c) * n[..., :, None] * n[..., None, :]


def _descend(tensors, vecs, stop, maxiter):
    """Sweep each start until a plain sweep lowers its B by at most ``stop``.

    A safeguarded Anderson iteration on the sweep map, which sends a start's
    Bloch vectors, viewed as 18 reals, to the vectors after one ``_sweep``:
    once a plain sweep of a start gains less than ANDERSON_ONSET, its inputs
    are extrapolated from its last ANDERSON_DEPTH iterates.  An extrapolated
    input is kept only if the sweep from it lowers B; otherwise the start
    goes back to its last kept vectors and value, forgets its history and
    sweeps plainly.  A descent ends on a plain sweep or after ``maxiter``
    batched sweeps.  The loop's state holds only the starts still running.

    Returns the vectors, their B and the last plain sweep's gain per start,
    and the number of batched sweeps run.
    """
    count = len(vecs)
    final_vecs = np.empty_like(vecs)
    final_value = np.empty(count)
    final_gain = np.empty(count)

    ids = np.arange(count)  # start index of each running start
    inputs = vecs  # next sweep input; ``vecs`` is the last kept sweep output
    value = np.full(count, np.inf)
    gain = np.full(count, np.inf)  # last plain sweep's
    onset = np.zeros(count, bool)
    extrapolated = np.zeros(count, bool)
    depth = np.zeros(count, int)
    hist = np.zeros((count, ANDERSON_DEPTH, 2, 3, 2, 3))  # f, g of the last iterates
    sweeps = 0
    while ids.size:
        sweeps += 1
        out, new = _sweep(tensors, inputs)
        plain = ~extrapolated
        lowered = value - new
        kept = plain | (lowered > 0.0)
        gain = np.where(plain, lowered, gain)
        onset |= plain & (lowered < ANDERSON_ONSET)
        value = np.where(kept, new, value)
        vecs = np.where(kept[:, None, None, None], out, vecs)
        # a rejected start's depth drops to 0, so its history needs no undo
        hist[:, 1:] = hist[:, :-1]
        np.subtract(out, inputs, out=hist[:, 0, 0])
        hist[:, 0, 1] = out
        depth = np.where(kept, np.minimum(depth + 1, ANDERSON_DEPTH), 0)

        slow = lowered > stop
        going = (extrapolated | slow) & (sweeps < maxiter)
        inputs = vecs.copy()
        # a rejected start has depth 0; one whose sweep gained at most its
        # tolerance sweeps plainly
        extrapolated = going & onset & (depth >= 2) & slow
        if extrapolated.any():
            inputs[extrapolated] = _extrapolate(hist[extrapolated], depth[extrapolated])
        if going.all():
            continue
        done = ~going
        final_vecs[ids[done]] = vecs[done]
        final_value[ids[done]] = value[done]
        final_gain[ids[done]] = gain[done]
        ids, vecs, inputs, value, gain, onset, extrapolated, depth, hist = (
            a[going] for a in (ids, vecs, inputs, value, gain, onset, extrapolated, depth, hist)
        )
    return final_vecs, final_value, final_gain, sweeps


def _see_saw(tensors, vecs, axes, tol, maxiter):
    """Run every start's first descent, hops and polish as three batched descents.

    The first descents and the hops stop at LOOSE_TOL.  All HOPS hops of all
    starts run as one batch, start-major: hop h (from 0) rotates a start's
    first-descent vectors about the axes ``axes[:, h]`` (S, HOPS, 3, 2, 3).
    A start's best is its first descent's result unless a hop ends strictly
    lower, hops compared in hop order, and the best is polished to ``tol``.
    Returns ``_descend``'s result for the polish, with the sweeps of all
    three descents.
    """
    count = len(vecs)
    first, value, _, sweeps = _descend(tensors, vecs, LOOSE_TOL, maxiter)
    kicked = (_kicks(axes) @ first[:, None, ..., None])[..., 0]
    hopped, hopped_value, _, hop_sweeps = _descend(
        tensors, kicked.reshape(-1, 3, 2, 3), LOOSE_TOL, maxiter
    )
    # the first of the lowest values: the first descent, then hops in order
    tried = np.concatenate([first[:, None], hopped.reshape(count, HOPS, 3, 2, 3)], axis=1)
    values = np.concatenate([value[:, None], hopped_value.reshape(count, HOPS)], axis=1)
    best = tried[np.arange(count), values.argmin(axis=1)]
    vecs, value, gain, polish_sweeps = _descend(tensors, best, tol, maxiter)
    return vecs, value, gain, sweeps + hop_sweeps + polish_sweeps


def _plus_kets(vecs: np.ndarray) -> np.ndarray:
    """Unit plus-kets (..., 2) of unit Bloch vectors (..., 3).

    (1 + z, x + iy) for z >= 0, else (x - iy, 1 - z), normalized: an entry
    of size at least 1 keeps the ket accurate up to the poles.
    """
    x, y, z = np.moveaxis(vecs, -1, 0)
    north = z >= 0.0
    kets = np.stack(
        [np.where(north, 1.0 + z, x - 1j * y), np.where(north, x + 1j * y, 1.0 - z)], axis=-1
    )
    return kets / np.linalg.norm(kets, axis=-1, keepdims=True)


def _bloch_vectors(angles: np.ndarray) -> np.ndarray:
    """Unit Bloch vectors (..., 3) of Bloch angles (theta, phi) (..., 2)."""
    theta, phi = angles[..., 0], angles[..., 1]
    sin_theta = np.sin(theta)
    return np.stack([sin_theta * np.cos(phi), sin_theta * np.sin(phi), np.cos(theta)], axis=-1)


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
    u_perp = np.array([-np.conj(u[1]), np.conj(u[0])])
    across = np.vdot(u_perp, d)
    phase_along = along / overlap if overlap > 0.0 else 1.0
    phase_across = across / abs(across) if abs(across) > 0.0 else 1.0
    return (
        target * phase_along * u
        + math.sqrt(1.0 - target * target) * phase_across * u_perp
    )


def minimize_bell(
    psi,
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
    tol: float = POLISH_TOL,
) -> OptimizationResult:
    """Multistart see-saw minimization of B over all settings.

    Start ``i`` draws the Bloch angles of its first settings and then the
    axes of its HOPS hop rotations from the generator of child ``i`` of
    ``SeedSequence(seed)``.
    Every start descends to LOOSE_TOL, takes HOPS basin hops from its first
    descent's vectors (a hop is kept only when it ends lower), and is
    polished until a plain sweep improves B by at most ``tol`` (see
    ``_see_saw``); DESCENT_MAXITER caps the sweeps of each of the three
    batched descents.  ``starts`` must be an integer (not a bool) of at
    least 1.  The first start with the lowest
    B wins, so the outcome is deterministic for fixed (starts, seed), and
    a start's result does not depend on how many run beside it.  The
    winner's Bloch vectors become plus-kets, which are moved inside the
    non-commutation window if they commute, and ``best_value`` is B at the
    reported settings.
    """
    if isinstance(starts, bool) or not isinstance(starts, numbers.Integral) or starts < 1:
        raise ValueError(f"starts must be an integer of at least 1, got {starts!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    vec = linalg.ket(psi)
    if vec.shape[0] != 8:
        raise DimensionError("optimization expects a three-qubit ket")
    linalg.require_normalized(vec)

    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(int(starts))]
    vecs = _bloch_vectors(np.stack([random_angles(rng, 6) for rng in rngs])).reshape(-1, 3, 2, 3)
    axes = np.stack([rng.standard_normal((HOPS, 3, 2, 3)) for rng in rngs])
    tensors = _party_tensors(vec.reshape(2, 2, 2))
    vecs, value, gain, sweeps = _see_saw(tensors, vecs, axes, tol, DESCENT_MAXITER)

    best = int(np.argmin(value))  # the first of equal values, in start order
    kets = _plus_kets(vecs[best])
    settings = settings_from_plus_kets([(u, _inside_window(u, d)) for u, d in kets])
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
    if not -math.inf < best_value < 0.0:
        raise VisibilityUndefinedError(
            f"threshold visibility needs a finite violation B < 0, got B = {best_value!r}"
        )
    return WHITE_NOISE_BELL_VALUE / (WHITE_NOISE_BELL_VALUE - best_value)
