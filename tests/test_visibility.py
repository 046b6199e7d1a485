"""Tests for Bell-value minimization and threshold visibility."""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from hardy3q.bell import bell_value
from hardy3q.errors import DimensionError, VisibilityUndefinedError
from hardy3q.hardy import build_witness, search_hardy_observables
from hardy3q.states import CanonicalState
from hardy3q.observables import WINDOW_TOL, kets_from_angles, random_angles
from hardy3q import visibility
from hardy3q.visibility import (
    HOPS,
    minimize_bell,
    threshold_visibility,
    _extrapolate,
    _min_eigpair,
    _see_saw,
    _sweep,
)

from conftest import (
    nelder_mead_bell,
    oracle_bell_of_kets,
    pair_overlaps,
    random_canonical,
    random_ket,
    random_settings,
    reference_extrapolate,
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


class TestThresholdFormula:
    def test_ghz_reference_value(self):
        assert threshold_visibility(GHZ_BEST) == pytest.approx(GHZ_THRESHOLD, abs=1e-4)

    def test_w_reference_value(self):
        assert threshold_visibility(W_BEST) == pytest.approx(W_THRESHOLD, abs=1e-5)

    def test_limit_toward_zero_violation(self):
        assert threshold_visibility(-1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_undefined_without_violation(self):
        with pytest.raises(VisibilityUndefinedError):
            threshold_visibility(0.05)

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
        # and Anderson descents run as staged batches 292 and 96
        assert minimize_bell(w_ket(), starts=8, seed=0).sweeps <= 180
        assert minimize_bell(GHZ.to_ket(), starts=8, seed=0).sweeps <= 90

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"starts": 0},
            {"starts": -3},
            {"tol": 0.0},
            {"tol": -1.0},
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"maxiter": 0},
            {"maxiter": -2},
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            minimize_bell(GHZ.to_ket(), **kwargs)


class TestSeeSaw:
    def test_min_eigpair_matches_eigh(self, rng):
        m = rng.standard_normal((200, 2, 2)) + 1j * rng.standard_normal((200, 2, 2))
        m = m + np.conj(np.swapaxes(m, 1, 2))
        m[:10] = np.diag([0.3, -0.7])  # diagonal, both orderings of the gap
        m[10:20] = np.diag([-0.7, 0.3])
        fallback = np.tile([1.0 + 0j, 0.0], (200, 1))
        lam, vec = _min_eigpair(m[:, 0, 0].real, m[:, 1, 1].real, m[:, 0, 1], fallback)
        ref_lam, ref_vec = np.linalg.eigh(m)
        np.testing.assert_allclose(lam, ref_lam[:, 0], atol=1e-12)
        overlap = np.abs(np.einsum("si,si->s", np.conj(vec), ref_vec[:, :, 0]))
        np.testing.assert_allclose(overlap, 1.0, atol=1e-12)

    def test_min_eigpair_keeps_fallback_for_multiples_of_identity(self):
        fallback = np.array([[0.6, 0.8j]])
        lam, vec = _min_eigpair(np.array([0.25]), np.array([0.25]), np.array([0j]), fallback)
        assert lam[0] == 0.25
        np.testing.assert_array_equal(vec, fallback)

    @pytest.mark.parametrize(
        "p, r, q",
        [
            # half == 0 exactly with q != 0
            ([0.3, -0.2, 0.0], [0.3, -0.2, 0.0], [0.1 + 0.2j, -1e-3j, 1e-300 + 0j]),
            # q == 0 with half of each sign
            ([0.5, -0.1, 2.0], [-0.5, 0.4, 2.0 + 1e-15], [0j, 0j, 0j]),
            # p == r with q == 0: a multiple of the identity keeps the fallback
            ([0.25, 0.0, -0.0], [0.25, 0.0, 0.0], [0j, 0j, complex(-0.0, -0.0)]),
            # subnormal entries and squares
            (
                [5e-324, 1e-160, 3e-162],
                [0.0, -1e-160, 5e-324],
                [5e-324j, 1e-162 + 0j, complex(-5e-324, 1e-161)],
            ),
            # huge entries, with and without overflow of the squares
            (
                [1e150, -1e150, 1e200, 1e308],
                [-1e150, 1e150, -1e200, -1e308],
                [1e150 + 0j, 1e150j, 1e200j, 1e308 + 0j],
            ),
        ],
        ids=["half-zero", "q-zero", "identity", "subnormal", "huge"],
    )
    def test_min_eigpair_matches_reference_bit_for_bit(self, p, r, q):
        p, r, q = np.array(p), np.array(r), np.array(q, complex)
        fallback = np.tile([0.6 + 0j, 0.8j], (len(p), 1))
        with np.errstate(all="ignore"):
            got = _min_eigpair(p, r, q, fallback)
            want = reference_min_eigpair(p, r, q, fallback)
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))

    @pytest.mark.parametrize("depth", [2, 3, 4, 5])
    @pytest.mark.parametrize("repeated", [False, True], ids=["distinct", "repeated"])
    def test_extrapolate_matches_reference_bit_for_bit(self, depth, repeated):
        rng = np.random.default_rng(depth)
        f_hist = rng.standard_normal((6, visibility.ANDERSON_DEPTH, 24))
        g_hist = rng.standard_normal((6, visibility.ANDERSON_DEPTH, 24))
        f_hist[:3] *= 10.0 ** rng.integers(-12, 0, (3, 1, 1))
        if repeated:
            # iterates repeated up to the depth: every valid difference is
            # zero, and only the ridge keeps the Gram matrix invertible
            f_hist[:, :depth] = f_hist[:, :1]
            g_hist[:, :depth] = g_hist[:, :1]
        depths = np.array([depth, depth, 2, 5, depth, 3])
        hist = np.stack([f_hist, g_hist], axis=2).view(complex).reshape(6, -1, 2, 3, 2, 2)
        got = _extrapolate(hist, depths)
        want = reference_extrapolate(f_hist, g_hist, depths)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @hyp_settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_sweep_never_raises_b(self, seed):
        rng = np.random.default_rng(seed)
        psi = random_ket(rng, 8)
        kets = np.stack([random_ket(rng, 2) for _ in range(12)]).reshape(2, 3, 2, 2)
        new, value = _sweep(psi.reshape(2, 2, 2), kets)
        for s in range(2):
            after = oracle_bell_of_kets(psi, new[s])
            assert after == pytest.approx(value[s], abs=1e-12)
            assert after <= oracle_bell_of_kets(psi, kets[s]) + 1e-12

    @hyp_settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from(["random", "w", "000", "ghz"]))
    def test_sweep_matches_reference_bit_for_bit(self, seed, state):
        # |000> and GHZ give matrices that are multiples of the identity
        rng = np.random.default_rng(seed)
        psi = {
            "random": lambda: random_ket(rng, 8),
            "w": w_ket,
            "000": product_ket,
            "ghz": GHZ.to_ket,
        }[state]().reshape(2, 2, 2)
        kets = np.stack([random_ket(rng, 2) for _ in range(30)]).reshape(5, 3, 2, 2)
        kets[0] = [[1.0, 0.0], [1.0, 0.0]]  # U+ = D+ = |0> on every qubit
        for _ in range(4):
            new, value = _sweep(psi, kets)
            ref, ref_value = reference_sweep(psi, kets)
            # equal values; a sum of two -0.0 terms is -0.0 written out but
            # +0.0 in the reference's reduction, and nothing divides by it
            np.testing.assert_array_equal(new, ref)
            np.testing.assert_array_equal(value, ref_value)
            kets = new

    @hyp_settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 80))
    def test_descend_value_is_b_of_its_kets(self, seed, maxiter):
        # whatever sweep the cap lands on, a rejected extrapolation included,
        # each start reports B at the kets it returns, never above its first sweep
        rng = np.random.default_rng(seed)
        psi = random_ket(rng, 8)
        kets = np.stack([kets_from_angles(random_angles(rng, 6)).reshape(3, 2, 2) for _ in range(3)])
        axes = rng.standard_normal((3, HOPS, 3, 2, 3))
        first = _sweep(psi.reshape(2, 2, 2), kets)[1]
        out, value, _, sweeps = _see_saw(psi.reshape(2, 2, 2), kets, axes, 1e-10, maxiter)
        # HOPS + 2 descents per start, each of 1 to maxiter sweeps
        assert HOPS + 2 <= sweeps <= (HOPS + 2) * maxiter
        for s in range(3):
            assert value[s] == pytest.approx(oracle_bell_of_kets(psi, out[s]), abs=1e-12)
            assert value[s] <= first[s] + 1e-12

    def test_descend_stops_on_a_plain_sweep(self):
        kets = np.stack(
            [kets_from_angles(random_angles(np.random.default_rng(s), 6)).reshape(3, 2, 2) for s in range(4)]
        )
        axes = np.random.default_rng(4).standard_normal((4, HOPS, 3, 2, 3))
        _, _, gain, sweeps = _see_saw(w_ket().reshape(2, 2, 2), kets, axes, 1e-10, 4000)
        # all descents together take fewer sweeps than one descent's cap
        assert sweeps < 4000
        assert (gain <= 1e-10).all()

    def test_hop_axes_match_per_hop_normal_draws(self, monkeypatch):
        # start i draws its angles, then HOPS axis sets in hop order, from child i
        seen = []

        def spy(psi3, kets, axes, tol, maxiter):
            seen.append(axes)
            return _see_saw(psi3, kets, axes, tol, maxiter)

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


STAGED_STATES = {
    "ghz": GHZ.to_ket,
    "w": w_ket,
    "rotated-w": rotated_w_ket,
    **{f"random-{s}": (lambda s=s: random_ket(np.random.default_rng(s), 8)) for s in (31, 32, 33)},
}


class TestStagedOracle:
    @pytest.mark.parametrize("starts", [1, 3, 8, 64])
    @pytest.mark.parametrize("name", STAGED_STATES)
    def test_matches_staged_batches_bit_for_bit(self, name, starts):
        # one pipelined loop runs each start's descents exactly as the staged
        # batches did; small caps cut descents at every stage
        psi = STAGED_STATES[name]()
        for seed, maxiter in enumerate([1, 2, 3, 7, 20, 60, 4000]):
            got = minimize_bell(psi, starts=starts, seed=seed, maxiter=maxiter)
            want = staged_minimize_bell(psi, starts=starts, seed=seed, maxiter=maxiter)
            assert got.start_values == want.start_values
            assert got.best_value == want.best_value
            assert np.array_equal(got.best_settings.plus_kets, want.best_settings.plus_kets)
            assert got.converged == want.converged
            assert got.threshold_visibility == want.threshold_visibility
