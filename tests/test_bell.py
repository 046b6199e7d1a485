"""Tests for joint probabilities, the Bell expression, LHV bound, sampling."""

import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from hardy3q.bell import (
    BELL_TERMS,
    WHITE_NOISE_BELL_VALUE,
    LhvAssignment,
    bell_value,
    hardy_probabilities,
    lhv_assignments,
    lhv_bell_value,
    lhv_hardy_pattern_assignments,
    lhv_minimum,
    lhv_term_indicators,
    sample_statistics,
)
from hardy3q.observables import settings_from_plus_kets
from hardy3q.states import CanonicalState

from conftest import (
    mix_with_white_noise,
    noisy_bell_value,
    oracle_eigenket,
    oracle_hardy_probabilities,
    oracle_joint_probability,
    outcome_distribution,
    random_canonical,
    random_settings,
)

INV_SQRT2 = 2**-0.5


def ghz_ket():
    psi = np.zeros(8, complex)
    psi[0] = psi[7] = INV_SQRT2
    return psi


def maximal_pair_state():
    """(|00> + |11>)/sqrt(2) on qubits 1,2 times |0> on qubit 3."""
    return CanonicalState((INV_SQRT2, 0.0, 0.0, INV_SQRT2, 0.0), 0.0).to_ket()


def quoted_maximal_settings():
    return settings_from_plus_kets(
        [
            (np.array([np.sqrt(0.96), 0.2]), np.array([1.0, 0.0])),
            (np.array([0.2, np.sqrt(0.96)]), np.array([0.0, 1.0])),
            (np.array([1.0, 1.0]) / np.sqrt(2), np.array([0.0, 1.0])),
        ]
    )


class TestJointProbability:
    def test_ghz_all_z_plus(self):
        # U = Z on every qubit; outcome index 0 is all signs +1
        settings = settings_from_plus_kets([([1.0, 0.0], [1.0, 1.0])] * 3)
        p = outcome_distribution(ghz_ket(), settings, "UUU")[0]
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_maximally_mixed_gives_eighth(self, rng):
        settings = random_settings(rng)
        probs = outcome_distribution(np.eye(8, dtype=complex) / 8, settings, "UUU")
        assert probs == pytest.approx([0.125] * 8, abs=1e-12)

    def test_quoted_maximal_all_u_term(self):
        probs = hardy_probabilities(maximal_pair_state(), quoted_maximal_settings())
        assert probs[4] == pytest.approx(0.0384, abs=1e-12)

    def test_matches_kron_oracle_on_random_cases(self, rng):
        for _ in range(100):
            psi = random_canonical(rng).to_ket()
            settings = random_settings(rng)
            ours = hardy_probabilities(psi, settings)
            oracle = oracle_hardy_probabilities(psi, settings)
            assert np.max(np.abs(ours - oracle)) <= 1e-12

    def test_density_and_ket_paths_agree(self, rng):
        psi = random_canonical(rng).to_ket()
        rho = np.outer(psi, psi.conj())
        settings = random_settings(rng)
        assert np.allclose(
            hardy_probabilities(psi, settings),
            hardy_probabilities(rho, settings),
            atol=1e-12,
        )


class TestBellValue:
    def test_maximally_mixed_is_three_eighths(self, rng):
        report = bell_value(np.eye(8, dtype=complex) / 8, random_settings(rng))
        assert report.bell_value == pytest.approx(WHITE_NOISE_BELL_VALUE, abs=1e-12)
        assert report.lhv_bound_satisfied

    def test_ghz_witness_gives_minus_p5(self):
        from hardy3q.hardy import build_witness

        state = CanonicalState((INV_SQRT2, 0, 0, 0, INV_SQRT2), 0.0)
        built = build_witness(state)
        report = bell_value(state.to_ket(), built.settings)
        assert report.bell_value == pytest.approx(
            -built.certificate.success_probability, abs=1e-10
        )
        assert not report.lhv_bound_satisfied

    def test_quoted_maximal_case(self):
        report = bell_value(maximal_pair_state(), quoted_maximal_settings())
        assert report.probabilities == pytest.approx(
            (0.0, 0.01, 0.01, 0.0, 0.0384), abs=1e-12
        )
        assert report.bell_value == pytest.approx(-0.0184, abs=1e-12)

    def test_probabilities_clamped_in_report(self, rng):
        report = bell_value(random_canonical(rng).to_ket(), random_settings(rng))
        assert all(0.0 <= p <= 1.0 for p in report.probabilities)

    def test_value_is_the_five_term_sum_bit_for_bit(self, rng):
        # the signed sum over TERM_SIGNS rounds as p1 + p2 + p3 + p4 - p5
        for _ in range(50):
            psi, settings = random_canonical(rng).to_ket(), random_settings(rng)
            for state in (psi, mix_with_white_noise(psi, rng.uniform())):
                p = hardy_probabilities(state, settings)
                want = p[0] + p[1] + p[2] + p[3] - p[4]
                got = np.float64(bell_value(state, settings).bell_value)
                assert got.view(np.uint64) == want.view(np.uint64)


class TestOutcomeDistribution:
    def test_contexts_sum_to_one(self, rng):
        psi = random_canonical(rng).to_ket()
        settings = random_settings(rng)
        for kinds in {tuple(k for k, _ in term) for term in BELL_TERMS}:
            probs = outcome_distribution(psi, settings, kinds)
            assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("visibility", [None, 0.4], ids=["ket", "white-noise"])
    def test_entries_match_kron_oracle(self, rng, visibility):
        state = random_canonical(rng)
        target = state.to_ket() if visibility is None else mix_with_white_noise(state, visibility)
        settings = random_settings(rng)
        for term in BELL_TERMS:
            kinds = [kind for kind, _ in term]
            probs = outcome_distribution(target, settings, kinds)
            for idx, signs in enumerate(product((+1, -1), repeat=3)):
                kets = [
                    oracle_eigenket(pair[0 if kind == "U" else 1], sign)
                    for pair, kind, sign in zip(settings.plus_kets, kinds, signs)
                ]
                assert probs[idx] == pytest.approx(
                    oracle_joint_probability(target, kets), abs=1e-12
                )

    def test_rejects_bad_kinds(self, rng):
        settings = random_settings(rng)
        psi = random_canonical(rng).to_ket()
        for kinds in (("U", "D"), ("U", "D", "X")):
            with pytest.raises(ValueError):
                outcome_distribution(psi, settings, kinds)


class TestAffinity:
    @hyp_settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 1.0))
    def test_bell_value_affine_in_noise(self, seed, v):
        rng = np.random.default_rng(seed)
        state = random_canonical(rng)
        settings = random_settings(rng)
        pure = bell_value(state.to_ket(), settings).bell_value
        noisy = bell_value(mix_with_white_noise(state, v), settings).bell_value
        expected = v * pure + (1.0 - v) * WHITE_NOISE_BELL_VALUE
        assert noisy == pytest.approx(expected, abs=1e-10)

    def test_noisy_bell_value_helper(self, rng):
        state = random_canonical(rng)
        settings = random_settings(rng)
        direct = bell_value(mix_with_white_noise(state, 0.3), settings).bell_value
        assert noisy_bell_value(state.to_ket(), 0.3, settings) == pytest.approx(
            direct, abs=1e-12
        )


class TestLhv:
    def test_minimum_is_zero(self):
        minimum, argmins = lhv_minimum()
        assert minimum == 0
        assert len(argmins) >= 1
        assert all(lhv_bell_value(a) == 0 for a in argmins)

    def test_enumeration_is_exhaustive_and_nonnegative(self):
        values = [lhv_bell_value(a) for a in lhv_assignments()]
        assert len(values) == 64
        assert all(type(v) is int for v in values)
        for a, v in zip(lhv_assignments(), values):
            t = lhv_term_indicators(a)
            assert v == t[0] + t[1] + t[2] + t[3] - t[4]
        assert min(values) == 0
        assert all(v >= 0 for v in values)

    def test_all_plus_assignment_value(self):
        a = LhvAssignment(u1=+1, d1=+1, u2=+1, d2=+1, u3=+1, d3=+1)
        assert lhv_term_indicators(a) == (0, 1, 1, 1, 1)
        assert lhv_bell_value(a) == 2

    def test_hardy_pattern_impossible(self):
        assert lhv_hardy_pattern_assignments() == ()


class TestSampling:
    def test_deterministic_for_fixed_seed(self, rng):
        psi = random_canonical(rng).to_ket()
        settings = random_settings(rng)
        a = sample_statistics(psi, settings, shots=5000, seed=11)
        b = sample_statistics(psi, settings, shots=5000, seed=11)
        assert a == b

    def test_exact_zero_terms_never_sampled(self):
        from hardy3q.hardy import build_witness

        state = CanonicalState((INV_SQRT2, 0, 0, 0, INV_SQRT2), 0.0)
        built = build_witness(state)
        stats = sample_statistics(state.to_ket(), built.settings, shots=200000, seed=3)
        assert stats.frequencies[0] == 0.0
        assert stats.frequencies[1] == 0.0
        assert stats.frequencies[2] == 0.0
        assert stats.frequencies[3] == 0.0
        assert stats.frequencies[4] > 0.0

    def test_large_shot_consistency(self, rng):
        shots = 1_000_000
        for _ in range(5):
            psi = random_canonical(rng).to_ket()
            settings = random_settings(rng)
            exact = hardy_probabilities(psi, settings)
            stats = sample_statistics(psi, settings, shots=shots, seed=17)
            for p, p_hat, se in zip(exact, stats.frequencies, stats.standard_errors):
                tolerance = 5.0 * max(se, np.sqrt(p * (1 - p) / shots), 1e-6)
                assert abs(p_hat - p) <= tolerance

    def test_rejects_zero_shots(self, rng):
        psi = random_canonical(rng).to_ket()
        with pytest.raises(ValueError):
            sample_statistics(psi, random_settings(rng), shots=0, seed=0)


class TestNonFiniteStates:
    """An all-NaN state raises ValueError; its NaN B never reads as a verdict."""

    @pytest.fixture(params=[(8,), (8, 8)], ids=["ket", "density"])
    def state(self, request):
        return np.full(request.param, np.nan, complex)

    @pytest.mark.filterwarnings("error")
    def test_bell_value_raises(self, state, rng):
        with pytest.raises(ValueError, match="non-finite"):
            bell_value(state, random_settings(rng))

    @pytest.mark.filterwarnings("error")
    def test_verify_hardy_raises(self, state, rng):
        from hardy3q.hardy import verify_hardy

        with pytest.raises(ValueError, match="non-finite"):
            verify_hardy(state, random_settings(rng))

    @pytest.mark.filterwarnings("error")
    def test_sample_statistics_raises(self, state, rng):
        with pytest.raises(ValueError, match="sum to"):
            sample_statistics(state, random_settings(rng), shots=100, seed=0)

    @pytest.mark.parametrize("shape", [(8,), (8, 8)], ids=["ket", "density"])
    @pytest.mark.parametrize(
        "entry", [np.inf, -np.inf, complex(0.0, np.inf)], ids=["inf", "-inf", "inf-j"]
    )
    def test_infinite_entry_raises_without_warning(self, shape, entry):
        # an infinite entry makes NaN or infinite probabilities (inf * 0 is
        # NaN, and the GHZ witness's product vectors have zero entries);
        # library callers get the ValueError and no RuntimeWarning from numpy
        from hardy3q.hardy import build_witness, verify_hardy

        state = np.zeros(shape, complex)
        state[(0,) * len(shape)] = entry
        ghz = CanonicalState((INV_SQRT2, 0, 0, 0, INV_SQRT2), 0.0)
        settings = build_witness(ghz).settings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                bell_value(state, settings)
            with pytest.raises(ValueError, match="non-finite"):
                verify_hardy(state, settings)
            with pytest.raises(ValueError, match="sum to"):
                sample_statistics(state, settings, shots=100, seed=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", [(8,), (8, 8)], ids=["ket", "density"])
    def test_sample_statistics_rejects_zero_state(self, shape, rng):
        with pytest.raises(ValueError, match="sum to"):
            sample_statistics(np.zeros(shape, complex), random_settings(rng), shots=100, seed=0)
