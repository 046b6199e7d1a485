"""Minimizing the Bell expression over settings and threshold visibility.

The Bell value of the white-noise mixture v|psi><psi| + (1-v)/8 I is affine
in v with noise endpoint 3/8, so once the most negative value B_min of a
state is known, the smallest visibility at which the inequality is still
violated is

    v_thr = (3/8) / (3/8 - B_min).

The minimization is a see-saw iteration (Werner & Wolf, QIC 2001; Pal &
Vertesi, PRA 82, 022116, 2010) on real unit Bloch vectors: a start is a
(3, 2, 3) array, qubit, U/D, vector, and the projector onto a plus-ket of
Bloch vector n is (I + n.sigma)/2.  Each term of ``BELL_TERMS`` is then
linear in psi's real 4x4x4 correlation tensor T[mu, nu, lam] =
<psi|sigma_mu x sigma_nu x sigma_lam|psi> (sigma_0 = I) and in each
qubit's real row x = (1, u, d), so B = C(x_1, x_2, x_3) for one real
7x7x7 Bell tensor C, built once per call from T and the terms with their
``TERM_SIGNS``.  With two parties fixed, B is affine in the third party's
U and D, so their best vectors are -g/|g| for the parts g of C contracted
with the other two rows.  Each seeded start escapes local minima by
seeded basin hops: random rotations of its first descent's vectors, each
kept only when its re-descent ends lower.  The hops do not depend on
each other, so all starts' hops descend side by side as one batch, and a
run is three batched descents: the first descents, the hops and the
polish of each start's best.  The winner's vectors become plus-kets only
for the reported settings.

Plain sweeps converge linearly, slowly near the optimum and slower still
while a start climbs away from a saddle.  B's Riemannian gradient and
Hessian on the six spheres are contractions of C with the rows (Absil,
Mahony & Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008,
ch. 5-7), so a start whose plain sweeps contract slowly sweeps from a
Levenberg-Marquardt-damped Riemannian Newton point instead, which is
kept only when the sweep from it lowers B.

At the usual few dozen starts a sweep costs numpy calls, not arithmetic,
so each sweep is a short, fixed sequence of real array operations on all
running starts: per party one outer product of two rows, one (1, 49) @
(49, 7) matmul per start and one normalization.  A Newton point is that
contraction for all three parties, C contracted with each third row, a
few batched matmuls and one batched 12 x 12 solve.
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
    BELL_TERMS,
    TERM_SIGNS,
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
#: global minimum and 1.0 rad 105, in 1,181 and 1,154 batched sweeps
KICK_ANGLE = 1.5
#: stopping tolerance of the descents before the final polish to ``tol``
LOOSE_TOL = 1e-6
#: a row takes a Newton point when its last plain gain exceeds this share of
#: the plain gain before it.  At 8 starts, seeds 0-29, 0.2 / 0.3 / 0.4 bring
#: 169 / 166 / 163 W starts to the global minimum in 1,195 / 1,181 / 1,171
#: batched sweeps (GHZ: all 240 in 815 / 802 / 810)
_SLOW_RATIO = 0.3
#: the Levenberg-Marquardt damping of a descent's first Newton point, and its
#: factors after a point whose sweep is kept and after one that is rejected
_DAMPING = 1e-2
_DAMPING_KEPT, _DAMPING_REJECTED = 0.3, 10.0
#: the most rows whose Newton systems are built at once, which bounds their
#: memory at large start counts
_NEWTON_ROWS = 2048
#: starts whose final B is this close to the best count as reaching it
AT_BEST_TOL = 1e-9

#: party j of a sweep and the other two qubits o and t
_PARTIES = ((0, 1, 2), (1, 0, 2), (2, 0, 1))
#: every party's qubits o and t, as index arrays
_O, _T = np.array(_PARTIES)[:, 1:].T


def _frame_map(kind: str, sign: int) -> np.ndarray:
    """The (4, 7) map from a qubit's row (1, u, d) to the frame row (1, sign n)
    of its projector (I + sign n.sigma)/2, n the Bloch vector u or d of ``kind``."""
    frame = np.zeros((4, 7))
    frame[0, 0] = 1.0
    first = 1 if kind == "U" else 4
    frame[1:, first : first + 3] = sign * np.eye(3)
    return frame


#: the Bell tensor as a linear map (64, 343) of the correlation tensor: a term
#: <psi|P1 x P2 x P3|psi> is T(f1, f2, f3)/8 for its projectors' frame rows f
_WEIGHTS = sum(
    sign / 8.0 * np.einsum("ma,nb,lc->mnlabc", *(_frame_map(*factor) for factor in term))
    for term, sign in zip(BELL_TERMS, TERM_SIGNS)
).reshape(64, 343)
#: the first two columns of the 3 x 3 identity, which ``_tangent_bases`` reflects
_FIRST_TWO = np.eye(3)[:, :2]
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
    #: the second-order certificate of the winner's Bloch vectors: the norm of
    #: B's Riemannian gradient and the smallest eigenvalue of its Hessian on
    #: the 12-dimensional tangent space (a local minimum has 0 and >= 0)
    gradient_norm: float
    min_hessian_eigenvalue: float

    @property
    def violation_found(self) -> bool:
        return self.best_value < VIOLATION_CUTOFF

    @property
    def starts_at_best(self) -> int:
        """How many starts ended within AT_BEST_TOL of the best value."""
        return sum(abs(v - self.best_value) <= AT_BEST_TOL for v in self.start_values)


def _party_tensors(psi3: np.ndarray) -> np.ndarray:
    """psi's Bell tensor as one (49, 7) matrix per party of a sweep, stacked.

    The correlation tensor T[mu, nu, lam] = <psi|sigma_mu x sigma_nu x
    sigma_lam|psi> (sigma_0 = I) is real (4, 4, 4), and C = T @ _WEIGHTS is
    the real (7, 7, 7) Bell tensor with B = C(x_1, x_2, x_3) for the
    qubits' rows x_q = (1, u_q, d_q).  Party j's matrix holds C with axes
    (o, t, j), o and t flattened into rows, for the parties of ``_PARTIES``.
    """
    tensor = np.einsum(
        _TENSOR_SUBSCRIPTS, psi3.conj(), _PAULI, _PAULI, _PAULI, psi3, optimize=_TENSOR_PATH
    ).real
    bell = (tensor.reshape(64) @ _WEIGHTS).reshape(7, 7, 7)
    return np.stack([bell.transpose(o, t, j).reshape(49, 7) for j, o, t in _PARTIES])


def _rows(vecs: np.ndarray) -> np.ndarray:
    """Every qubit's row (1, u, d), (S, 3, 7), of Bloch vectors (S, 3, 2, 3)."""
    return np.concatenate([np.ones((len(vecs), 3, 1)), vecs.reshape(-1, 3, 6)], axis=-1)


def _sweep(tensors, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One see-saw sweep over the three parties, for every start at once.

    ``vecs`` is (S, 3, 2, 3): start, qubit, U/D, Bloch vector, and
    ``tensors`` is ``_party_tensors(psi3)``.  B = C(x_1, x_2, x_3) is
    linear in each qubit's row x = (1, u, d), so with the rows of qubits o
    and t fixed, party j sees g = C(x_o, x_t, .) and B = g_0 + g_u.u +
    g_d.d.  Its U and D move to -g_u/|g_u| and -g_d/|g_d| (kept where g_u
    or g_d = 0, when every vector is a minimizer), and then

        B = g_0 - |g_u| - |g_d|.

    Only the updated party's row is rewritten.  Returns the new vectors
    and B after the sweep.  Each start is its own (1, 49) @ (49, 7) matmul
    and elementwise arithmetic, so a start's result does not depend on the
    other starts.
    """
    count = len(vecs)
    new = vecs.copy()
    rows = _rows(vecs)
    for j, o, t in _PARTIES:
        # one (S, 1, 49) product of the two rows, freed before the next party's
        g = ((rows[:, o, :, None] * rows[:, t, None, :]).reshape(count, 1, 49) @ tensors[j])[:, 0]
        slopes = g[:, 1:].reshape(count, 2, 3)
        size = np.hypot.reduce(slopes, axis=-1)
        np.divide(slopes, -size[..., None], out=new[:, j], where=size[..., None] > 0.0)
        rows[:, j, 1:] = new[:, j].reshape(count, 6)
    return new, g[:, 0] - size[:, 0] - size[:, 1]


def _tangent_bases(vecs: np.ndarray) -> np.ndarray:
    """Orthonormal bases (S, 6, 3, 2) of the tangent planes of unit vectors (S, 3, 2, 3).

    The first two columns of the Householder reflection I - w w^T / (1 +
    |z|), w = n + sign(z) e_z, which sends e_z to -sign(z) n; w never
    vanishes, so no vector needs a branch.
    """
    count = len(vecs)
    w = vecs.reshape(count, 6, 3).copy()
    w[..., 2] += np.copysign(1.0, w[..., 2])
    scaled = w[..., :2] / (np.abs(vecs.reshape(count, 6, 3)[..., 2:]) + 1.0)
    return _FIRST_TWO - w[..., :, None] * scaled[..., None, :]


def _derivatives(tensors, vecs: np.ndarray, bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B's Riemannian gradient (S, 12) and Hessian (S, 12, 12) in the tangent ``bases``.

    B = C(x_1, x_2, x_3) is linear in each qubit's row x = (1, u, d), so
    the Euclidean gradient in party j's (u, d) is the (g_u, g_d) of
    ``_sweep`` at the same vectors, and the Euclidean Hessian has zero
    blocks within a qubit; its block between qubits o and t is C(., ., x_j).
    Each qubit's (7, 4) tangent map, which sends the tangent coordinates of
    its U and D to its row, carries that block into the tangent Hessian.
    On the sphere a vector n with Euclidean gradient g has Riemannian
    gradient g - (n.g) n, and the Hessian gains -(n.g) on n's tangent
    plane (Absil, Mahony & Sepulchre, Optimization Algorithms on Matrix
    Manifolds, 2008, ch. 5-6).
    """
    count = len(vecs)
    rows = _rows(vecs)
    pairs = rows[:, _O, :, None] * rows[:, _T, None, :]
    euclid = (pairs.reshape(count, 3, 1, 49) @ tensors)[:, :, 0, 1:].reshape(count, 6, 3)
    grad = (bases.swapaxes(-1, -2) @ euclid[..., None]).reshape(count, 12)
    along = (euclid * vecs.reshape(count, 6, 3)).sum(axis=-1)
    maps = np.zeros((count, 3, 7, 4))
    maps[:, :, 1:4, :2], maps[:, :, 4:, 2:] = bases[:, 0::2], bases[:, 1::2]
    blocks = (tensors @ rows[..., None]).reshape(count, 3, 7, 7)
    blocks = maps[:, _O].swapaxes(-1, -2) @ blocks @ maps[:, _T]
    hess = np.zeros((count, 3, 3, 4, 4))
    hess[:, _O, _T], hess[:, _T, _O] = blocks, blocks.swapaxes(-1, -2)
    hess = hess.swapaxes(2, 3).reshape(count, 12, 12)
    hess.reshape(count, 144)[:, ::13] = -along.repeat(2, axis=-1)
    return grad, hess


def _newton_points(tensors, vecs: np.ndarray, damping: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Damped Riemannian Newton points of B on the six spheres, for every row at once.

    The step solves (Hess + damping) eta = -grad in each row's tangent
    space; |eta| is capped at 1 and each vector moves to (n + eta)/|n +
    eta|.  Returns the points and whether each row's system was solved: a
    row whose system is singular, or whose step is not finite, is not
    moved.  Every row solves its own system, so a row's point does not
    depend on the batch.
    """
    count = len(vecs)
    bases = _tangent_bases(vecs)
    grad, hess = _derivatives(tensors, vecs, bases)
    hess.reshape(count, 144)[:, ::13] += damping[:, None]
    try:
        step = np.linalg.solve(hess, -grad[..., None])
    except np.linalg.LinAlgError:
        step = np.full((count, 12, 1), np.nan)
        for r in range(count):
            try:
                step[r] = np.linalg.solve(hess[r], -grad[r, :, None])
            except np.linalg.LinAlgError:
                pass
    solved = np.isfinite(step).all(axis=(1, 2))
    step[~solved] = 0.0
    size = np.sqrt(np.square(step).sum(axis=1))
    np.divide(step, size[:, None], out=step, where=size[:, None] > 1.0)
    moved = vecs + (bases @ step.reshape(count, 6, 2, 1)).reshape(vecs.shape)
    return moved / np.sqrt(np.square(moved).sum(axis=-1, keepdims=True)), solved


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
    """Sweep each row until a plain sweep lowers its B by at most ``stop``.

    A row is one start's (or one hop's) six Bloch vectors, and its plain
    gain is how much a sweep from its kept vectors lowers B.  A row whose
    last plain gain exceeds _SLOW_RATIO times the plain gain before it
    converges slowly or is climbing away from a saddle, and sweeps from a
    damped Newton point of its kept vectors (``_newton_points``) instead,
    again after every such sweep that lowers B by more than ``stop``.  A
    sweep from a Newton point is kept only if it lowers B; otherwise the
    row goes back to its last kept vectors and value and sweeps plainly.
    Each row's damping starts at _DAMPING and is multiplied by
    _DAMPING_KEPT after a kept point and by _DAMPING_REJECTED after a
    rejected one.  A descent ends on a plain sweep or after ``maxiter``
    batched sweeps.  The loop's state holds only the rows still running.

    Returns the vectors, their B and the last plain sweep's gain per row,
    and the number of batched sweeps run.
    """
    count = len(vecs)
    final_vecs = np.empty_like(vecs)
    final_value = np.empty(count)
    final_gain = np.empty(count)

    ids = np.arange(count)  # row index of each running row
    inputs = vecs  # next sweep input; ``vecs`` is the last kept sweep output
    value = np.full(count, np.inf)
    gain = np.full(count, np.inf)  # last plain sweep's
    earlier = np.full(count, np.inf)  # the plain sweep's before it
    damping = np.full(count, _DAMPING)
    newton = np.zeros(count, bool)
    sweeps = 0
    while ids.size:
        sweeps += 1
        out, new = _sweep(tensors, inputs)
        plain = ~newton
        lowered = value - new
        kept = plain | (lowered > 0.0)
        earlier = np.where(plain, gain, earlier)
        gain = np.where(plain, lowered, gain)
        damping = np.where(plain, damping, damping * np.where(kept, _DAMPING_KEPT, _DAMPING_REJECTED))
        value = np.where(kept, new, value)
        vecs = np.where(kept[:, None, None, None], out, vecs)

        slow = lowered > stop
        going = (newton | slow) & (sweeps < maxiter)
        # a rejected row, and one whose sweep gained at most ``stop``, sweeps plainly
        newton = going & slow & (gain > _SLOW_RATIO * earlier)
        inputs = vecs
        rows = np.flatnonzero(newton)
        if rows.size:
            inputs = vecs.copy()
        for chunk in range(0, rows.size, _NEWTON_ROWS):
            part = rows[chunk : chunk + _NEWTON_ROWS]
            points, solved = _newton_points(tensors, vecs[part], damping[part])
            inputs[part[solved]] = points[solved]
            newton[part[~solved]] = False
        if going.all():
            continue
        done = ~going
        final_vecs[ids[done]] = vecs[done]
        final_value[ids[done]] = value[done]
        final_gain[ids[done]] = gain[done]
        ids, vecs, inputs, value, gain, earlier, damping, newton = (
            a[going] for a in (ids, vecs, inputs, value, gain, earlier, damping, newton)
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
    winner = vecs[best : best + 1]
    grad, hess = _derivatives(tensors, winner, _tangent_bases(winner))
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
        gradient_norm=float(np.linalg.norm(grad)),
        min_hessian_eigenvalue=float(np.linalg.eigvalsh(hess[0])[0]),
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
