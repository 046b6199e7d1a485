"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from hardy3q.observables import random_angles, settings_from_angles
from hardy3q.errors import WindowViolationError


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def random_ket(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_settings(rng):
    """Random windowed settings (redraws on window violations)."""
    while True:
        try:
            return settings_from_angles(random_angles(rng))
        except WindowViolationError:
            continue


def oracle_joint_probability(state, kets):
    """Independent path: build the full product vector and contract.

    ``kets`` are the three chosen eigenkets.  Works for kets and densities.
    """
    v = np.kron(np.kron(kets[0], kets[1]), kets[2])
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        return float(abs(np.vdot(v, arr)) ** 2)
    return float(np.vdot(v, arr @ v).real)


def oracle_hardy_probabilities(state, settings):
    """The five canonical-order probabilities via the kron oracle."""
    pairs = settings.pairs
    picks = [
        (pairs[0].d.minus_ket, pairs[1].d.minus_ket, pairs[2].d.minus_ket),
        (pairs[0].d.plus_ket, pairs[1].u.plus_ket, pairs[2].u.plus_ket),
        (pairs[0].u.plus_ket, pairs[1].d.plus_ket, pairs[2].u.plus_ket),
        (pairs[0].u.plus_ket, pairs[1].u.plus_ket, pairs[2].d.plus_ket),
        (pairs[0].u.plus_ket, pairs[1].u.plus_ket, pairs[2].u.plus_ket),
    ]
    return np.array([oracle_joint_probability(state, kets) for kets in picks])


def oracle_bell_of_kets(state, kets):
    """B via the kron oracle for raw plus-kets (3, 2, 2): qubit, U/D, component."""
    kets = [[k / np.linalg.norm(k) for k in pair] for pair in kets]
    (u1, d1), (u2, d2), (u3, d3) = kets
    m1, m2, m3 = (np.array([-np.conj(d[1]), np.conj(d[0])]) for d in (d1, d2, d3))
    p = [
        oracle_joint_probability(state, ks)
        for ks in ((m1, m2, m3), (d1, u2, u3), (u1, d2, u3), (u1, u2, d3), (u1, u2, u3))
    ]
    return p[0] + p[1] + p[2] + p[3] - p[4]


def nelder_mead_bell(state, starts, seed):
    """Independent minimizer: seeded multistart Nelder-Mead over 12 Bloch angles."""
    from scipy.optimize import minimize

    def objective(x):
        theta, phi = x[0::2], x[1::2]
        kets = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=-1)
        return oracle_bell_of_kets(state, kets.reshape(3, 2, 2))

    best = np.inf
    for child in np.random.SeedSequence(seed).spawn(starts):
        res = minimize(
            objective,
            random_angles(np.random.default_rng(child)),
            method="Nelder-Mead",
            options={"maxiter": 4000, "fatol": 1e-12, "xatol": 1e-9, "adaptive": True},
        )
        best = min(best, float(res.fun))
    return best


def nelder_mead_search(psi, attempts=40, seed=0, zero_tol=1e-8, maxiter=800):
    """Independent search: seeded scalar Nelder-Mead over the six U Bloch angles.

    Each D+ is taken perpendicular to its contraction vector m_j, and
    Nelder-Mead drives the remaining |<m1_hat m2_hat m3_hat|psi>|^2 to zero.
    Attempts run one at a time in seeded order; the first whose plus-kets
    (3, 2, 2) lie in the window and satisfy the Hardy pattern under the kron
    oracle is returned, else None.
    """
    from scipy.optimize import minimize

    psi = np.asarray(psi, dtype=complex)
    psi3 = psi.reshape(2, 2, 2)

    def directions(x):
        theta, phi = x[0::2], x[1::2]
        u = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=-1)
        bra = u.conj()
        m = [
            np.einsum("abc,b,c->a", psi3, bra[1], bra[2]),
            np.einsum("abc,a,c->b", psi3, bra[0], bra[2]),
            np.einsum("abc,a,b->c", psi3, bra[0], bra[1]),
        ]
        return u, m

    def objective(x):
        _, m = directions(x)
        norms = [np.linalg.norm(v) for v in m]
        if min(norms) < 1e-14:
            return 1.0
        v = np.kron(np.kron(m[0] / norms[0], m[1] / norms[1]), m[2] / norms[2])
        return abs(np.vdot(v, psi)) ** 2

    for child in np.random.SeedSequence(seed).spawn(attempts):
        rng = np.random.default_rng(child)
        x0 = np.empty(6)
        x0[0::2] = np.arccos(rng.uniform(-1.0, 1.0, 3))
        x0[1::2] = rng.uniform(0.0, 2.0 * np.pi, 3)
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"maxiter": maxiter, "fatol": 1e-16, "xatol": 1e-10, "adaptive": True},
        )
        if res.fun > 0.1 * zero_tol:
            continue
        u, m = directions(res.x)
        d = [np.array([-np.conj(v[1]), np.conj(v[0])]) / np.linalg.norm(v) for v in m]
        if not all(1e-9 < abs(np.vdot(u[j], d[j])) < 1 - 1e-9 for j in range(3)):
            continue
        minus = [np.array([-np.conj(k[1]), np.conj(k[0])]) for k in d]
        probs = [
            oracle_joint_probability(psi, kets)
            for kets in (
                minus,
                (d[0], u[1], u[2]),
                (u[0], d[1], u[2]),
                (u[0], u[1], d[2]),
                (u[0], u[1], u[2]),
            )
        ]
        if max(probs[:4]) <= zero_tol and probs[4] > zero_tol:
            return np.stack([np.stack([u[j], d[j]]) for j in range(3)])
    return None
