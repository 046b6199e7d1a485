"""Tests for Bell-value minimization and threshold visibility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from hardy3q.bell import bell_value
from hardy3q.errors import DimensionError, VisibilityUndefinedError
from hardy3q.hardy import build_witness, search_hardy_observables
from hardy3q.states import CanonicalState
from hardy3q.observables import WINDOW_TOL, random_angles, settings_from_plus_kets
from hardy3q import visibility
from hardy3q.visibility import (
    HOPS,
    KICK_ANGLE,
    _PARTIES,
    minimize_bell,
    threshold_visibility,
    LOOSE_TOL,
    _bloch_vectors,
    _derivatives,
    _descend,
    _kicks,
    _newton_points,
    _party_tensors,
    _plus_kets,
    _see_saw,
    _sweep,
    _tangent_bases,
)

from conftest import (
    bloch_of_kets,
    frozen_derivatives,
    frozen_sweep,
    kets_of_bloch,
    nelder_mead_bell,
    oracle_bell_of_kets,
    oracle_correlation_tensor,
    pair_overlaps,
    random_canonical,
    random_ket,
    random_settings,
    reference_bloch_sweep,
    reference_derivatives,
    reference_newton_points,
    reference_party_tensors,
    reference_min_eigpair,
    reference_sweep,
    staged_minimize_bell,
    threshold_visibility_bisection,
)

INV_SQRT2 = 2**-0.5
GHZ = CanonicalState((INV_SQRT2, 0, 0, 0, INV_SQRT2), 0.0)

# reference values for the GHZ and W states under this inequality
GHZ_BEST = -0.175459
GHZ_THRESHOLD = 0.68125
W_BEST = -0.192608
W_THRESHOLD = 0.6606676


def w_ket():
    w = np.zeros(8, complex)
    w[1] = w[2] = w[4] = 3**-0.5
    return w


def rotated_w_ket():
    from scipy.stats import unitary_group

    u = [unitary_group.rvs(2, random_state=42 + i) for i in range(3)]
    return np.kron(np.kron(u[0], u[1]), u[2]) @ w_ket()


def product_ket():
    psi = np.zeros(8, complex)
    psi[0] = 1.0
    return psi


def random_vecs(rng, starts):
    """Unit Bloch vectors (starts, 3, 2, 3) of uniformly drawn angles."""
    angles = np.stack([random_angles(rng, 6) for _ in range(starts)])
    return _bloch_vectors(angles).reshape(-1, 3, 2, 3)


class TestThresholdFormula:
    def test_ghz_reference_value(self):
        assert threshold_visibility(GHZ_BEST) == pytest.approx(GHZ_THRESHOLD, abs=1e-4)

    def test_w_reference_value(self):
        assert threshold_visibility(W_BEST) == pytest.approx(W_THRESHOLD, abs=1e-5)

    def test_limit_toward_zero_violation(self):
        assert threshold_visibility(-1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_undefined_without_violation(self):
        # only a finite B < 0 has a threshold
        for best_value in (0.05, 0.0, math.nan, -math.inf):
            with pytest.raises(VisibilityUndefinedError):
                threshold_visibility(best_value)

    def test_bisection_cross_check(self, rng):
        for _ in range(10):
            state = random_canonical(rng)
            try:
                built = build_witness(state)
            except Exception:
                continue
            report = bell_value(state.to_ket(), built.settings)
            if report.bell_value >= -1e-6:
                continue
            closed = threshold_visibility(report.bell_value)
            bisected = threshold_visibility_bisection(state.to_ket(), built.settings)
            assert closed == pytest.approx(bisected, abs=1e-9)


class TestMinimizeBell:
    def test_ghz_quick(self):
        result = minimize_bell(GHZ.to_ket(), starts=16, seed=0)
        assert result.best_value == pytest.approx(GHZ_BEST, abs=1e-3)
        assert result.threshold_visibility == pytest.approx(GHZ_THRESHOLD, abs=1e-4)
        assert result.violation_found
        for overlap in pair_overlaps(result.best_settings):
            assert 1e-9 < overlap < 1 - 1e-9

    @pytest.mark.parametrize("solver", [minimize_bell, search_hardy_observables])
    def test_two_qubit_ket_is_a_dimension_error(self, solver):
        # the optimizer and the witness search check their ket alike
        with pytest.raises(DimensionError, match="three-qubit ket"):
            solver(np.array([1, 0, 0, 1], complex) / np.sqrt(2))

    def test_product_state_never_violates(self):
        psi = np.zeros(8, complex)
        psi[0] = 1.0
        result = minimize_bell(psi, starts=8, seed=0)
        assert result.best_value >= -1e-9
        assert result.threshold_visibility is None
        assert not result.violation_found

    def test_beats_constructive_witness(self, rng):
        state = GHZ
        built = build_witness(state)
        result = minimize_bell(state.to_ket(), starts=8, seed=1)
        assert result.best_value <= -built.certificate.success_probability + 1e-9

    def test_deterministic_for_fixed_seed(self):
        a = minimize_bell(GHZ.to_ket(), starts=4, seed=7)
        b = minimize_bell(GHZ.to_ket(), starts=4, seed=7)
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_settings.plus_kets, b.best_settings.plus_kets)

    def test_more_starts_never_worse(self):
        few = minimize_bell(GHZ.to_ket(), starts=4, seed=3)
        many = minimize_bell(GHZ.to_ket(), starts=12, seed=3)
        assert many.best_value <= few.best_value + 1e-15

    def test_local_unitary_invariance(self, rng):
        from scipy.stats import unitary_group

        base = minimize_bell(w_ket(), starts=24, seed=0).best_value
        u = [unitary_group.rvs(2, random_state=42 + i) for i in range(3)]
        rotated = np.kron(np.kron(u[0], u[1]), u[2]) @ w_ket()
        value = minimize_bell(rotated, starts=24, seed=0).best_value
        assert value == pytest.approx(base, abs=2e-3)

    @pytest.mark.parametrize("seed", range(10))
    def test_w_global_minimum_at_eight_starts(self, seed):
        # most single descents on W stop at the local minimum B = -0.186791
        assert minimize_bell(w_ket(), starts=8, seed=seed).best_value == pytest.approx(
            W_BEST, abs=1e-6
        )

    def test_rotated_w_global_minimum_at_eight_starts(self):
        result = minimize_bell(rotated_w_ket(), starts=8, seed=0)
        assert result.best_value == pytest.approx(W_BEST, abs=1e-6)

    def test_start_values_and_starts_at_best(self):
        result = minimize_bell(w_ket(), starts=8, seed=0)
        assert len(result.start_values) == 8
        assert min(result.start_values) == pytest.approx(result.best_value, abs=1e-12)
        at_best = [v for v in result.start_values if abs(v - result.best_value) <= 1e-9]
        assert result.starts_at_best == len(at_best) >= 1
        assert result.converged

    def test_sweep_counts(self):
        # the plain see-saw needed 765 (W) and 119 (GHZ) batched sweeps here,
        # and Anderson descents run as staged batches 292 and 96; pipelined,
        # they took 176 and 77 on Bloch vectors (171 and 85 on kets); with all
        # hops in one batch the three batched descents took 152 and 36, and
        # with damped Newton points in place of Anderson they take 37 and 25
        assert minimize_bell(w_ket(), starts=8, seed=0).sweeps <= 180
        assert minimize_bell(GHZ.to_ket(), starts=8, seed=0).sweeps <= 90

    @pytest.mark.parametrize("psi", [GHZ.to_ket(), w_ket()], ids=["ghz", "w"])
    def test_winner_is_a_second_order_critical_point(self, psi):
        # the Riemannian gradient vanishes at the winner and its tangent
        # Hessian has no negative eigenvalue, up to the symmetry zeros
        result = minimize_bell(psi, starts=8, seed=0)
        assert result.gradient_norm <= 1e-5
        assert result.min_hessian_eigenvalue >= -1e-6

    def test_weak_ghz_type_family_reaches_minus_l0_squared(self):
        # on (l0, 0, 0, 0, sqrt(1 - l0^2)) B_min / l0^2 tends to -1 as l0 -> 0,
        # and the optimum is at least as low as the constructive witness's -P5
        l0 = 1e-3
        state = CanonicalState((l0, 0, 0, 0, math.sqrt(1.0 - l0 * l0)), 0.0)
        p5 = build_witness(state).certificate.success_probability
        values = [minimize_bell(state.to_ket(), starts=8, seed=seed).best_value for seed in range(5)]
        assert np.mean(values) / l0**2 <= -0.999
        assert max(values) <= -p5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"starts": 0},
            {"starts": -3},
            {"tol": 0.0},
            {"tol": -1.0},
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"starts": 2.5},
            {"starts": True},
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            minimize_bell(GHZ.to_ket(), **kwargs)

    def test_accepts_numpy_integer_starts(self):
        got = minimize_bell(GHZ.to_ket(), starts=np.int64(3), seed=2)
        want = minimize_bell(GHZ.to_ket(), starts=3, seed=2)
        assert got.starts == 3
        assert got.start_values == want.start_values


class TestSeeSaw:
    def test_min_eigpair_matches_eigh(self, rng):
        # the ket-space oracle's eigenpair, which ``reference_sweep`` stacks
        m = rng.standard_normal((200, 2, 2)) + 1j * rng.standard_normal((200, 2, 2))
        m = m + np.conj(np.swapaxes(m, 1, 2))
        m[:10] = np.diag([0.3, -0.7])  # diagonal, both orderings of the gap
        m[10:20] = np.diag([-0.7, 0.3])
        fallback = np.tile([1.0 + 0j, 0.0], (200, 1))
        lam, vec = reference_min_eigpair(m[:, 0, 0].real, m[:, 1, 1].real, m[:, 0, 1], fallback)
        ref_lam, ref_vec = np.linalg.eigh(m)
        np.testing.assert_allclose(lam, ref_lam[:, 0], atol=1e-12)
        overlap = np.abs(np.einsum("si,si->s", np.conj(vec), ref_vec[:, :, 0]))
        np.testing.assert_allclose(overlap, 1.0, atol=1e-12)

    def test_min_eigpair_keeps_fallback_for_multiples_of_identity(self):
        # the ket-space oracle's eigenpair keeps its fallback ket
        fallback = np.array([[0.6, 0.8j]])
        lam, vec = reference_min_eigpair(
            np.array([0.25]), np.array([0.25]), np.array([0j]), fallback
        )
        assert lam[0] == 0.25
        np.testing.assert_array_equal(vec, fallback)

    @pytest.mark.parametrize("name", ["ghz", "w", "rotated-w", "random", "000"])
    def test_party_tensors_match_kron_oracle(self, name):
        # C[a, b, c] = C(e_a, e_b, e_c) of the kron-tensor polynomial, with the
        # frame rows (1, u), (1, d), (1, -d) of a row (x_0, u, d) written out
        psi = {
            "ghz": GHZ.to_ket,
            "w": w_ket,
            "rotated-w": rotated_w_ket,
            "random": lambda: random_ket(np.random.default_rng(3), 8),
            "000": product_ket,
        }[name]()
        tensor = oracle_correlation_tensor(psi)
        assert tensor[0, 0, 0] == pytest.approx(1.0, abs=1e-15)

        def polynomial(x1, x2, x3):
            # the frame rows (U+, D+, D-), linear in each row x
            rows = [
                np.stack([x[[0, 1, 2, 3]], x[[0, 4, 5, 6]], np.r_[x[0], -x[4:]]]) for x in (x1, x2, x3)
            ]

            def term(*picks):
                f0, f1, f2 = (rows[q][k] for q, k in enumerate(picks))
                return np.einsum("abc,a,b,c->", tensor, f0, f1, f2)

            return (term(1, 0, 0) + term(0, 1, 0) + term(0, 0, 1) + term(2, 2, 2) - term(0, 0, 0)) / 8.0

        eye = np.eye(7)
        want = np.array([[[polynomial(a, b, c) for c in eye] for b in eye] for a in eye])
        for (j, o, t), got in zip(_PARTIES, _party_tensors(psi.reshape(2, 2, 2))):
            want_j = want.transpose(o, t, j).reshape(49, 7)
            np.testing.assert_allclose(got, want_j, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", ["ghz", "w", "000", "random"])
    def test_bell_tensor_is_the_bell_value(self, name):
        # C(x_1, x_2, x_3), read through every party's matrix, is B at the
        # settings of the Bloch vectors
        rng = np.random.default_rng(37)
        psi = {
            "ghz": GHZ.to_ket,
            "w": w_ket,
            "000": product_ket,
            "random": lambda: random_ket(rng, 8),
        }[name]
        for _ in range(50):
            ket = psi()
            tensors = _party_tensors(ket.reshape(2, 2, 2))
            vecs = random_vecs(rng, 1)[0]
            rows = np.concatenate([np.ones((3, 1)), vecs.reshape(3, 6)], axis=-1)
            want = bell_value(ket, settings_from_plus_kets(_plus_kets(vecs))).bell_value
            for (j, o, t), matrix in zip(_PARTIES, tensors):
                got = np.outer(rows[o], rows[t]).ravel() @ matrix @ rows[j]
                assert got == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("z", [1.0, -1.0, -1.0 + 1e-12, 1.0 - 1e-12, 0.0])
    @pytest.mark.parametrize("phi", [0.0, 2.1])
    def test_plus_kets_keep_bloch_vectors_at_the_poles(self, z, phi):
        # the product-state optimum lies on the poles, where arccos loses
        # about 1e-8 of x and y; U is the tested vector, D lies on the equator
        r = math.sqrt(1.0 - z * z)
        u = np.array([r * math.cos(phi), r * math.sin(phi), z])
        d = np.array([math.cos(phi + 1.0), math.sin(phi + 1.0), 0.0])
        vecs = np.stack([u, d])
        kets = _plus_kets(np.stack([vecs] * 3))
        np.testing.assert_allclose(np.linalg.norm(kets, axis=-1), 1.0, rtol=0, atol=1e-15)
        reported = settings_from_plus_kets(kets).plus_kets
        for got in (bloch_of_kets(kets), bloch_of_kets(reported)):
            np.testing.assert_allclose(got, np.stack([vecs] * 3), rtol=0, atol=1e-15)

    def test_kicks_are_the_su2_kick(self, rng):
        # the kick exp(-i KICK_ANGLE/2 n.sigma) on kets, seen on Bloch vectors
        kets = np.stack([random_ket(rng, 2) for _ in range(60)]).reshape(10, 3, 2, 2)
        axes = rng.standard_normal((10, 3, 2, 3))
        nx, ny, nz = np.moveaxis(axes / np.linalg.norm(axes, axis=-1, keepdims=True), -1, 0)
        c, s = math.cos(KICK_ANGLE / 2.0), math.sin(KICK_ANGLE / 2.0)
        k0, k1 = kets[..., 0], kets[..., 1]
        kicked = np.stack(
            [
                c * k0 - 1j * s * (nz * k0 + (nx - 1j * ny) * k1),
                c * k1 - 1j * s * ((nx + 1j * ny) * k0 - nz * k1),
            ],
            axis=-1,
        )
        got = (_kicks(axes) @ bloch_of_kets(kets)[..., None])[..., 0]
        np.testing.assert_allclose(got, bloch_of_kets(kicked), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", ["ghz", "w", "random"])
    def test_derivatives_match_kron_oracle(self, name):
        # B is affine in each qubit's (u, d), so central differences of the
        # kron-tensor polynomial with unit steps are exact; the sphere then
        # adds -(n.g) on every tangent plane
        rng = np.random.default_rng(17)
        psi = {"ghz": GHZ.to_ket, "w": w_ket, "random": lambda: random_ket(rng, 8)}[name]()
        tensor = oracle_correlation_tensor(psi)
        vecs = random_vecs(rng, 4)
        vecs[0, 1, 0] = [0.0, 0.0, -1.0]  # a pole, where the basis flips

        def polynomial(x):
            u, d = x.reshape(3, 2, 3)[:, 0], x.reshape(3, 2, 3)[:, 1]
            rows = [np.stack([np.r_[1.0, u[q]], np.r_[1.0, d[q]], np.r_[1.0, -d[q]]]) for q in range(3)]

            def term(*picks):
                f0, f1, f2 = (rows[q][k] for q, k in enumerate(picks))
                return np.einsum("abc,a,b,c->", tensor, f0, f1, f2)

            return (term(1, 0, 0) + term(0, 1, 0) + term(0, 0, 1) + term(2, 2, 2) - term(0, 0, 0)) / 8.0

        grad, hess = _derivatives(_party_tensors(psi.reshape(2, 2, 2)), vecs, _tangent_bases(vecs))
        eye = np.eye(18)
        for s in range(len(vecs)):
            x = vecs[s].reshape(18)
            euclid = np.array([(polynomial(x + e) - polynomial(x - e)) / 2.0 for e in eye])
            second = np.array(
                [
                    [
                        polynomial(x + a + b) - polynomial(x + a - b)
                        - polynomial(x - a + b) + polynomial(x - a - b)
                        for b in eye
                    ]
                    for a in eye
                ]
            ) / 4.0
            bases = _tangent_bases(vecs[s : s + 1])[0]
            embed = np.zeros((18, 12))
            for v in range(6):
                embed[3 * v : 3 * v + 3, 2 * v : 2 * v + 2] = bases[v]
            along = (euclid.reshape(6, 3) * x.reshape(6, 3)).sum(axis=-1)
            np.testing.assert_allclose(embed.T @ embed, np.eye(12), rtol=0, atol=1e-15)
            np.testing.assert_allclose(embed.T @ x, 0.0, rtol=0, atol=1e-15)
            np.testing.assert_allclose(grad[s], embed.T @ euclid, rtol=0, atol=1e-14)
            want = embed.T @ second @ embed - np.diag(np.repeat(along, 2))
            np.testing.assert_allclose(hess[s], want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("name", ["ghz", "w", "random"])
    def test_derivatives_match_finite_differences_of_bell_value(self, name):
        # along the geodesic n cos t + xi sin t of every vector, the first and
        # second derivatives of B at the reported settings are <grad, xi> and
        # <xi, Hess xi>; Hessian entries by polarization
        rng = np.random.default_rng(23)
        psi = {"ghz": GHZ.to_ket, "w": w_ket, "random": lambda: random_ket(rng, 8)}[name]()
        vecs = random_vecs(rng, 1)
        bases = _tangent_bases(vecs)
        grad, hess = _derivatives(_party_tensors(psi.reshape(2, 2, 2)), vecs, bases)

        def along(xi, t):
            step = (bases[0] @ xi.reshape(6, 2, 1))[..., 0]
            size = np.linalg.norm(step, axis=-1, keepdims=True)
            n = vecs[0].reshape(6, 3)
            safe = np.where(size > 0.0, size, 1.0)
            moved = n * np.cos(size * t) + step / safe * np.sin(size * t)
            kets = settings_from_plus_kets(_plus_kets(moved.reshape(3, 2, 3)))
            return bell_value(psi, kets).bell_value

        h = 1e-4
        eye = np.eye(12)
        first = [(along(e, h) - along(e, -h)) / (2 * h) for e in eye]
        np.testing.assert_allclose(grad[0], first, rtol=0, atol=1e-8)

        def curvature(xi):
            return (along(xi, h) - 2.0 * along(xi, 0.0) + along(xi, -h)) / h**2

        want = np.array(
            [[(curvature(a + b) - curvature(a - b)) / 4.0 for b in eye] for a in eye]
        )
        np.testing.assert_allclose(hess[0], want, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("name", ["ghz", "w", "000", "random"])
    def test_newton_points_match_reference_bit_for_bit(self, name):
        # the tangent bases, the derivatives and the damped Newton points,
        # Bloch vectors on both poles included
        rng = np.random.default_rng(29)
        psi = {
            "ghz": GHZ.to_ket,
            "w": w_ket,
            "000": product_ket,
            "random": lambda: random_ket(rng, 8),
        }[name]()
        tensors = _party_tensors(psi.reshape(2, 2, 2))
        hand = reference_party_tensors(psi)
        for count in (1, 5, 17):
            vecs = random_vecs(rng, count)
            vecs[0, 0] = [0.0, 0.0, 1.0]
            vecs[-1, 2] = [0.0, 0.0, -1.0]
            damping = 10.0 ** rng.uniform(-8.0, 1.0, count)
            got = _derivatives(tensors, vecs, _tangent_bases(vecs))
            for g, w in zip(got, frozen_derivatives(tensors, vecs)):
                assert np.array_equal(g.view(np.uint64), w.view(np.uint64))
            # the hand-derived derivatives of the correlation tensor, to rounding
            for g, w in zip(got, reference_derivatives(hand, vecs)):
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-15)
            points, solved = _newton_points(tensors, vecs, damping)
            want_points, want_solved = reference_newton_points(tensors, vecs, damping)
            assert np.array_equal(points.view(np.uint64), want_points.view(np.uint64))
            assert np.array_equal(solved, want_solved)

    def test_newton_points_skip_singular_rows(self):
        # with a zero tensor the undamped Hessian is zero: that row is not
        # solved and not moved, and the damped rows beside it still are
        rng = np.random.default_rng(31)
        vecs = random_vecs(rng, 3)
        points, solved = _newton_points(np.zeros((3, 49, 7)), vecs, np.array([0.0, 1.0, 0.0]))
        assert solved.tolist() == [False, True, False]
        np.testing.assert_allclose(points, vecs, rtol=0, atol=1e-15)

    @hyp_settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_sweep_never_raises_b(self, seed):
        rng = np.random.default_rng(seed)
        psi = random_ket(rng, 8)
        vecs = random_vecs(rng, 2)
        new, value = _sweep(_party_tensors(psi.reshape(2, 2, 2)), vecs)
        np.testing.assert_allclose(np.linalg.norm(new, axis=-1), 1.0, rtol=0, atol=1e-15)
        for s in range(2):
            after = oracle_bell_of_kets(psi, kets_of_bloch(new[s]))
            assert after == pytest.approx(value[s], abs=1e-12)
            assert after <= oracle_bell_of_kets(psi, kets_of_bloch(vecs[s])) + 1e-12

    @pytest.mark.parametrize("name", ["ghz", "w", "rotated-w", "random"])
    def test_sweep_matches_ket_oracle(self, name):
        # the same sweep map: B to 1e-14 and the Bloch vectors of the ket
        # oracle's output kets to 1e-12, sweep after sweep from the same input
        rng = np.random.default_rng(5)
        psi = {
            "ghz": GHZ.to_ket,
            "w": w_ket,
            "rotated-w": rotated_w_ket,
            "random": lambda: random_ket(rng, 8),
        }[name]()
        tensors = _party_tensors(psi.reshape(2, 2, 2))
        for _ in range(10):
            vecs = random_vecs(rng, 8)
            for _ in range(5):
                new, value = _sweep(tensors, vecs)
                kets, ref_value = reference_sweep(psi.reshape(2, 2, 2), kets_of_bloch(vecs))
                np.testing.assert_allclose(value, ref_value, rtol=0, atol=1e-14)
                np.testing.assert_allclose(new, bloch_of_kets(kets), rtol=0, atol=1e-12)
                vecs = new

    @hyp_settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from(["random", "w", "000", "ghz"]))
    def test_sweep_matches_reference_bit_for_bit(self, seed, state):
        # |000> and GHZ give h = 0 for some parties: the input vector is kept
        rng = np.random.default_rng(seed)
        psi = {
            "random": lambda: random_ket(rng, 8),
            "w": w_ket,
            "000": product_ket,
            "ghz": GHZ.to_ket,
        }[state]()
        tensors = _party_tensors(psi.reshape(2, 2, 2))
        vecs = random_vecs(rng, 5)
        vecs[0] = [0.0, 0.0, 1.0]  # U+ = D+ = |0> on every qubit
        for _ in range(4):
            new, value = _sweep(tensors, vecs)
            ref, ref_value = frozen_sweep(tensors, vecs)
            np.testing.assert_array_equal(new, ref)
            np.testing.assert_array_equal(value, ref_value)
            vecs = new

    @hyp_settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from(["random", "w", "000", "ghz"]))
    def test_sweep_matches_hand_derived_sweep(self, seed, state):
        # B to rounding everywhere; a vector only where its h is clearly
        # non-zero: on |000> h is exactly 0 in one formulation and about
        # 1e-17 in the other, which points the vector anywhere
        rng = np.random.default_rng(seed)
        psi = {
            "random": lambda: random_ket(rng, 8),
            "w": w_ket,
            "000": product_ket,
            "ghz": GHZ.to_ket,
        }[state]()
        tensors, hand = _party_tensors(psi.reshape(2, 2, 2)), reference_party_tensors(psi)
        vecs = random_vecs(rng, 5)
        vecs[0] = [0.0, 0.0, 1.0]
        for _ in range(4):
            new, value = _sweep(tensors, vecs)
            ref, ref_value = reference_bloch_sweep(hand, vecs)
            np.testing.assert_allclose(value, ref_value, rtol=0, atol=1e-15)
            clear = np.ones(5, bool)  # starts whose h so far were all clearly non-zero
            for j, o, t in _PARTIES:
                # party j saw the new rows of the parties before it
                seen = np.where(np.arange(3)[:, None, None] < j, new, vecs)
                rows = np.concatenate([np.ones((5, 3, 1)), seen.reshape(5, 3, 6)], axis=-1)
                g = np.einsum("sa,sb,abc->sc", rows[:, o], rows[:, t], tensors[j].reshape(7, 7, 7))
                clear &= (np.linalg.norm(g[:, 1:].reshape(5, 2, 3), axis=-1) > 1e-3).all(axis=-1)
                np.testing.assert_allclose(new[clear, j], ref[clear, j], rtol=0, atol=1e-12)
            vecs = ref

    @hyp_settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 80))
    def test_descend_value_is_b_of_its_kets(self, seed, maxiter):
        # whatever sweep the cap lands on, a rejected extrapolation included,
        # each start reports B at the vectors it returns, never above its first sweep
        rng = np.random.default_rng(seed)
        psi = random_ket(rng, 8)
        tensors = _party_tensors(psi.reshape(2, 2, 2))
        vecs = random_vecs(rng, 3)
        axes = rng.standard_normal((3, HOPS, 3, 2, 3))
        first = _sweep(tensors, vecs)[1]
        out, value, _, sweeps = _see_saw(tensors, vecs, axes, 1e-10, maxiter)
        # three batched descents, each of 1 to maxiter sweeps
        assert 3 <= sweeps <= 3 * maxiter
        for s in range(3):
            at_out = oracle_bell_of_kets(psi, kets_of_bloch(out[s]))
            assert value[s] == pytest.approx(at_out, abs=1e-12)
            assert value[s] <= first[s] + 1e-12

    def test_descend_stops_on_a_plain_sweep(self):
        vecs = np.concatenate([random_vecs(np.random.default_rng(s), 1) for s in range(4)])
        axes = np.random.default_rng(4).standard_normal((4, HOPS, 3, 2, 3))
        tensors = _party_tensors(w_ket().reshape(2, 2, 2))
        _, _, gain, sweeps = _see_saw(tensors, vecs, axes, 1e-10, 4000)
        # all descents together take fewer sweeps than one descent's cap
        assert sweeps < 4000
        assert (gain <= 1e-10).all()

    @pytest.mark.parametrize("maxiter", [1, 3, 20, 4000])
    @pytest.mark.parametrize("name", ["ghz", "w", "random"])
    def test_descend_rows_match_one_row_calls(self, name, maxiter):
        # a batch of 4 * 3 kicked rows, like the hop batch of three starts,
        # returns each row's one-row result bit for bit
        rng = np.random.default_rng(maxiter)
        psi = {"ghz": GHZ.to_ket, "w": w_ket, "random": lambda: random_ket(rng, 8)}[name]()
        tensors = _party_tensors(psi.reshape(2, 2, 2))
        axes = rng.standard_normal((3, HOPS, 3, 2, 3))
        kicked = (_kicks(axes) @ random_vecs(rng, 3)[:, None, ..., None])[..., 0]
        vecs = kicked.reshape(-1, 3, 2, 3)
        out, value, gain, sweeps = _descend(tensors, vecs, LOOSE_TOL, maxiter)
        alone = [_descend(tensors, vecs[r : r + 1], LOOSE_TOL, maxiter) for r in range(len(vecs))]
        for r, (one_out, one_value, one_gain, _) in enumerate(alone):
            assert np.array_equal(out[r], one_out[0])
            assert np.array_equal(value[r], one_value[0])
            assert np.array_equal(gain[r], one_gain[0])
        assert sweeps == max(one[3] for one in alone)

    @pytest.mark.parametrize("psi", [GHZ.to_ket(), w_ket()], ids=["ghz", "w"])
    def test_see_saw_descends_first_then_hops_then_polish(self, psi, monkeypatch):
        # call 2 kicks call 1's vectors by every hop, start-major; call 3
        # polishes each start's lowest result of calls 1 and 2
        calls = []

        def spy(tensors, vecs, stop, maxiter):
            result = _descend(tensors, vecs, stop, maxiter)
            calls.append((vecs, stop, result))
            return result

        monkeypatch.setattr(visibility, "_descend", spy)
        result = minimize_bell(psi, starts=6, seed=3)
        rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(3).spawn(6)]
        for rng in rngs:
            random_angles(rng, 6)
        axes = np.stack([rng.standard_normal((HOPS, 3, 2, 3)) for rng in rngs])
        (_, stop1, (first, first_value, _, s1)), (kicked, stop2, hops), (best, stop3, last) = calls
        assert (stop1, stop2, stop3) == (LOOSE_TOL, LOOSE_TOL, visibility.POLISH_TOL)
        want = (_kicks(axes) @ first[:, None, ..., None])[..., 0].reshape(-1, 3, 2, 3)
        assert np.array_equal(kicked, want)
        hopped, hopped_value = hops[0].reshape(6, HOPS, 3, 2, 3), hops[1].reshape(6, HOPS)
        for i in range(6):
            want_vecs, want_value = first[i], first_value[i]
            for h in range(HOPS):
                if hopped_value[i, h] < want_value:
                    want_vecs, want_value = hopped[i, h], hopped_value[i, h]
            assert np.array_equal(best[i], want_vecs)
        assert result.start_values == tuple(last[1])
        assert result.sweeps == s1 + hops[3] + last[3]

    def test_see_saw_keeps_the_first_of_equal_results(self, monkeypatch):
        # ties between the first descent and its hops, and between hops, go
        # to the earlier result: the first descent, then hops in hop order
        calls = []

        def fake(tensors, vecs, stop, maxiter):
            calls.append(vecs)
            value = np.zeros(len(vecs))
            if len(calls) == 2:  # the hop batch, start-major
                value = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, -1.0, 0.0, -1.0]]).ravel()
            return vecs, value, np.zeros(len(vecs)), 1

        monkeypatch.setattr(visibility, "_descend", fake)
        tensors = _party_tensors(w_ket().reshape(2, 2, 2))
        rng = np.random.default_rng(8)
        vecs, axes = random_vecs(rng, 2), rng.standard_normal((2, HOPS, 3, 2, 3))
        _see_saw(tensors, vecs, axes, 1e-10, 10)
        first, kicked, best = calls
        kicked = kicked.reshape(2, HOPS, 3, 2, 3)
        assert np.array_equal(best[0], first[0])
        assert np.array_equal(best[1], kicked[1, 1])

    def test_hop_axes_match_per_hop_normal_draws(self, monkeypatch):
        # start i draws its angles, then HOPS axis sets in hop order, from child i
        seen = []

        def spy(tensors, vecs, axes, tol, maxiter):
            seen.append(axes)
            return _see_saw(tensors, vecs, axes, tol, maxiter)

        monkeypatch.setattr(visibility, "_see_saw", spy)
        minimize_bell(GHZ.to_ket(), starts=5, seed=7)
        (axes,) = seen
        assert axes.shape == (5, HOPS, 3, 2, 3)
        for i, child in enumerate(np.random.SeedSequence(7).spawn(5)):
            rng = np.random.default_rng(child)
            random_angles(rng, 6)
            for h in range(HOPS):
                assert np.array_equal(axes[i, h], rng.standard_normal((3, 2, 3)))

    @pytest.mark.parametrize("psi", [GHZ.to_ket(), w_ket()], ids=["ghz", "w"])
    def test_starts_independent_of_batch_size(self, psi):
        few = minimize_bell(psi, starts=4, seed=5).start_values
        many = minimize_bell(psi, starts=12, seed=5).start_values
        assert few == many[:4]

    def test_product_state_settings_inside_window(self):
        psi = product_ket()
        result = minimize_bell(psi, starts=8, seed=0)
        for overlap in pair_overlaps(result.best_settings):
            assert WINDOW_TOL < overlap < 1 - WINDOW_TOL
        reported = bell_value(psi, result.best_settings).bell_value
        assert reported == pytest.approx(result.best_value, abs=1e-12)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_not_worse_than_nelder_mead_oracle(self, seed):
        psi = random_ket(np.random.default_rng(seed), 8)
        oracle = nelder_mead_bell(psi, starts=2, seed=seed)
        assert minimize_bell(psi, starts=8, seed=seed).best_value <= oracle + 1e-9


class TestQualityGates:
    @pytest.mark.parametrize(
        "name, psi, min_at_best, max_sweeps",
        [("ghz", GHZ.to_ket(), 240, 2626), ("w", w_ket(), 163, 7073)],
        ids=["ghz", "w"],
    )
    def test_thirty_seeds_at_eight_starts(self, name, psi, min_at_best, max_sweeps):
        # the see-saw's quality gates, which scripts/reproduce_thresholds.py
        # --starts 8 --seeds 30 prints: starts at the best value (GHZ all 240)
        # and batched sweeps, summed over seeds 0-29; the pipelined Bloch
        # see-saw read 240 and 2,401 on GHZ, 170 and 6,519 on W, the three
        # batched Anderson descents 240 and 1,151 on GHZ, 166 and 4,922 on W,
        # and with damped Newton points 240 and 802 on GHZ, 166 and 1,181 on W
        results = [minimize_bell(psi, starts=8, seed=seed) for seed in range(30)]
        assert sum(r.starts_at_best for r in results) >= min_at_best
        assert sum(r.sweeps for r in results) <= max_sweeps


STAGED_STATES = {
    "ghz": GHZ.to_ket,
    "w": w_ket,
    "rotated-w": rotated_w_ket,
    **{f"random-{s}": (lambda s=s: random_ket(np.random.default_rng(s), 8)) for s in (31, 32, 33)},
}


class TestStagedOracle:
    @pytest.mark.parametrize("starts", [1, 3, 8, 64])
    @pytest.mark.parametrize("name", STAGED_STATES)
    def test_matches_staged_batches_bit_for_bit(self, name, starts, monkeypatch):
        # the three batched descents run each start's descents exactly as
        # the staged batches do; small caps cut descents at every stage
        psi = STAGED_STATES[name]()
        for seed, maxiter in enumerate([1, 2, 3, 7, 20, 60, 4000]):
            monkeypatch.setattr(visibility, "DESCENT_MAXITER", maxiter)
            got = minimize_bell(psi, starts=starts, seed=seed)
            want = staged_minimize_bell(psi, starts=starts, seed=seed, maxiter=maxiter)
            assert got.start_values == want.start_values
            assert got.best_value == want.best_value
            assert np.array_equal(got.best_settings.plus_kets, want.best_settings.plus_kets)
            assert got.converged == want.converged
            assert got.threshold_visibility == want.threshold_visibility
            assert got.gradient_norm == want.gradient_norm
            assert got.min_hessian_eigenvalue == want.min_hessian_eigenvalue
