"""Tests for the small dense linear-algebra layer and its test-side oracles."""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from hardy3q import linalg
from hardy3q.errors import DimensionError, NormalizationError

from conftest import (
    KET0,
    KET1,
    SpanError,
    basis_ket,
    fix_global_phase,
    is_density,
    is_projector,
    orthogonal_complement_pick,
    perp_qubit,
    projector,
    qubit_ket,
    random_ket,
    random_settings,
    reconstruct,
    reference_schmidt_decompose,
    state_satisfying_hardy,
    tensor,
)


def basis8(i):
    return basis_ket(8, i)


class TestTensor:
    def test_basis_product_000(self):
        out = tensor(KET0, KET0, KET0)
        assert np.allclose(out, basis8(0))

    def test_basis_product_101(self):
        out = tensor(KET1, KET0, KET1)
        assert np.allclose(out, basis8(5))

    def test_ghz_construction(self):
        ghz = (
            tensor(KET0, KET0, KET0)
            + tensor(KET1, KET1, KET1)
        ) / np.sqrt(2)
        expected = np.zeros(8, complex)
        expected[0] = expected[7] = 2**-0.5
        assert np.allclose(ghz, expected)

    def test_dimension_overflow_rejected(self):
        with pytest.raises(DimensionError):
            tensor(KET0, KET0, KET0, KET0)

    def test_mixed_ranks_rejected(self):
        with pytest.raises(DimensionError):
            tensor(KET0, np.eye(2))

    @hyp_settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_associative_and_bilinear(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_ket(rng, 2) for _ in range(3))
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert np.max(np.abs(left - right)) <= 1e-12
        x, y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lin = tensor(x * a + y * c, b)
        split = x * tensor(a, b) + y * tensor(c, b)
        assert np.max(np.abs(lin - split)) <= 1e-12


class TestProjector:
    def test_ket0(self):
        assert np.allclose(projector(KET0), np.diag([1.0, 0.0]))

    def test_plus(self):
        plus = qubit_ket(1, 1)
        assert np.allclose(projector(plus), np.full((2, 2), 0.5))

    def test_circular(self):
        k = qubit_ket(1, 1j)
        expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
        assert np.allclose(projector(k), expected)

    def test_unnormalized_rejected(self):
        with pytest.raises(NormalizationError):
            projector(np.array([1.0, 1.0]))

    @hyp_settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([2, 4, 8]))
    def test_projector_fixes_its_ket(self, seed, dim):
        k = random_ket(np.random.default_rng(seed), dim)
        p = projector(k)
        assert np.max(np.abs(p @ k - k)) <= 1e-12
        assert is_projector(p, atol=1e-12)


class TestSchmidt:
    def test_bell_pair(self):
        state = np.array([1, 0, 0, 1], complex) / np.sqrt(2)
        dec = linalg.schmidt_decompose(state)
        assert dec.coefficients == pytest.approx((2**-0.5, 2**-0.5), abs=1e-12)

    def test_product_state(self):
        state = np.array([0, 1, 0, 0], complex)  # |01>
        dec = linalg.schmidt_decompose(state)
        assert dec.coefficients == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_product_state_gets_its_own_factors(self):
        # |0> (x) (|0> + i|1>)/sqrt(2): M^dag M has equal diagonal entries,
        # so both eigenvector rows are equally long and the first, whose
        # larger component is complex, is taken; the bases come out
        # phase-fixed all the same
        state = np.array([1, 1j, 0, 0]) / np.sqrt(2)
        dec = linalg.schmidt_decompose(state)
        assert dec.coefficients == pytest.approx((1.0, 0.0), abs=1e-15)
        assert np.allclose(dec.basis_a[0], [1, 0], rtol=0, atol=1e-15)
        assert np.allclose(dec.basis_b[0], np.array([1, 1j]) / np.sqrt(2), rtol=0, atol=1e-15)

    def test_against_reduced_density_oracle(self):
        # sqrt(.8)|00> + sqrt(.2)(|10>+|11>)/sqrt(2)
        state = np.array([np.sqrt(0.8), 0.0, np.sqrt(0.1), np.sqrt(0.1)], complex)
        dec = linalg.schmidt_decompose(state)
        rho_a = state.reshape(2, 2) @ state.reshape(2, 2).conj().T
        eigs = np.sort(np.linalg.eigvalsh(rho_a))[::-1]
        assert np.allclose(np.square(dec.coefficients), eigs, atol=1e-10)
        assert np.max(np.abs(reconstruct(dec) - state)) <= 1e-10

    @hyp_settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_random_states_reconstruct(self, seed):
        state = random_ket(np.random.default_rng(seed), 4)
        dec = linalg.schmidt_decompose(state)
        a, b = dec.coefficients
        assert a >= b >= 0.0
        assert a * a + b * b == pytest.approx(1.0, abs=1e-12)
        # squared coefficients match the reduced-density eigenvalue oracle
        rho_a = state.reshape(2, 2) @ state.reshape(2, 2).conj().T
        eigs = np.sort(np.linalg.eigvalsh(rho_a))[::-1]
        assert np.allclose((a * a, b * b), eigs, atol=1e-10)
        fidelity = abs(np.vdot(reconstruct(dec), state)) ** 2
        assert fidelity >= 1.0 - 1e-10
        for pair in (dec.basis_a, dec.basis_b):
            assert abs(np.vdot(pair[0], pair[1])) <= 1e-12
            assert np.linalg.norm(pair[0]) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_phase_cases(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
            state = np.array([phases[0], 0, 0, phases[1]], complex) / np.sqrt(2)
            dec = linalg.schmidt_decompose(state)
            assert np.max(np.abs(reconstruct(dec) - state)) <= 1e-12


def random_unitary(rng):
    """A random 2x2 unitary: a random ket and its perpendicular as columns."""
    k = random_ket(rng, 2)
    return np.stack([k, perp_qubit(k)], axis=1)


def schmidt_input(kind, rng):
    """A two-qubit input of the given kind; the last three must be rejected."""
    if kind == "random":
        return random_ket(rng, 4)
    if kind == "product":
        return np.kron(random_ket(rng, 2), random_ket(rng, 2))
    if kind == "maximal":
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        return np.array([phases[0], 0, 0, phases[1]]) / np.sqrt(2)
    if kind == "weak":  # Schmidt coefficient b down to 1e-9, in random local bases
        b = 10.0 ** rng.uniform(-9, -1)
        local = np.kron(random_unitary(rng), random_unitary(rng))
        return local @ np.array([np.sqrt(1 - b * b), 0, 0, b])
    if kind == "wrong-length":
        return random_ket(rng, int(rng.choice([2, 3, 8])))
    if kind == "non-finite":
        k = random_ket(rng, 4)
        k[rng.integers(4)] = rng.choice([np.nan, np.inf, complex(0, -np.inf)])
        return k
    return random_ket(rng, 4) * rng.choice([0.0, 0.5, 1.0 + 1e-6, 3.0])  # unnormalized


class TestSchmidtAgainstNumpyOracle:
    @hyp_settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from(
            ["random", "product", "maximal", "weak", "wrong-length", "non-finite", "unnormalized"]
        ),
    )
    def test_matches_matrix_decomposition(self, seed, kind):
        state = schmidt_input(kind, np.random.default_rng(seed))
        try:
            want = reference_schmidt_decompose(state)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                linalg.schmidt_decompose(state)
            assert type(info.value) is type(exc)
            return
        dec = linalg.schmidt_decompose(state)
        assert np.abs(np.subtract(dec.coefficients, want.coefficients)).max() <= 1e-14
        assert np.abs(reconstruct(dec) - state).max() <= 1e-14
        for v in dec.basis_a + dec.basis_b:
            assert type(v) is tuple and [type(z) for z in v] == [complex, complex]


class TestOrthogonalComplementPick:
    def test_target_already_orthogonal(self):
        zeros = [basis8(i) for i in range(4)]
        out = orthogonal_complement_pick(zeros, basis8(7))
        assert np.allclose(out, basis8(7))

    def test_projection_removes_component(self):
        ghz = (basis8(0) + basis8(7)) / np.sqrt(2)
        out = orthogonal_complement_pick([basis8(0)], ghz)
        assert np.allclose(out, basis8(7))

    def test_rank_deficiency_rejected(self):
        zeros = [basis8(0), basis8(1), (basis8(0) + basis8(1)) / np.sqrt(2)]
        with pytest.raises(SpanError):
            orthogonal_complement_pick(zeros, basis8(7))

    def test_target_in_span_rejected(self):
        zeros = [basis8(0), basis8(1)]
        target = (basis8(0) + 1j * basis8(1)) / np.sqrt(2)
        with pytest.raises(SpanError):
            orthogonal_complement_pick(zeros, target)

    def test_postconditions_across_random_inputs(self, rng):
        for _ in range(1000):
            zeros = [random_ket(rng, 8) for _ in range(4)]
            target = random_ket(rng, 8)
            try:
                out = orthogonal_complement_pick(zeros, target)
            except SpanError:
                continue  # measure-zero degenerate draw
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
            for z in zeros:
                assert abs(np.vdot(z, out)) <= 1e-10
            assert abs(np.vdot(out, target)) > 0.0
            lead = out[np.flatnonzero(np.abs(out) > 1e-12)[0]]
            assert lead.imag == pytest.approx(0.0, abs=1e-12)
            assert lead.real >= 0.0

    def test_hardy_state_from_random_settings(self, rng):
        """Forward direction: the picked state satisfies all five conditions."""
        from hardy3q.bell import hardy_probabilities

        for _ in range(50):
            settings = random_settings(rng)
            psi = state_satisfying_hardy(settings)
            probs = hardy_probabilities(psi, settings)
            assert max(probs[:4]) <= 1e-10
            assert probs[4] > 1e-10


class TestPhaseAndValidation:
    def test_fix_global_phase(self):
        k = np.array([0, 1j, 0, 0], complex)
        fixed = fix_global_phase(k)
        assert fixed[1] == pytest.approx(1.0)

    def test_ket_rejects_bad_dims(self):
        with pytest.raises(DimensionError):
            linalg.ket([1, 0, 0])

    def test_ket_rejects_non_finite(self):
        with pytest.raises(ValueError):
            linalg.ket([np.nan, 0.0])

    def test_is_density(self):
        rho = np.eye(8) / 8.0
        assert is_density(rho)
        assert not is_density(np.eye(8))
