"""Tests for witness constructions, verification, and the fallback search."""

import dataclasses
import importlib.util
import logging
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hardy3q import hardy
from hardy3q.bell import bell_value
from hardy3q.errors import (
    ConstructionFailureError,
    NormalizationError,
    NoWitnessError,
    WindowViolationError,
)
from hardy3q.hardy import (
    PRODUCT_QUBIT,
    WitnessConstruction,
    build_witness,
    extract_pair_factorization,
    genuine_candidates,
    search_hardy_observables,
    two_qubit_hardy_coefficients,
    verify_hardy,
)
from hardy3q.linalg import schmidt_decompose
from hardy3q.observables import random_angles, settings_from_plus_kets
from hardy3q.states import (
    CanonicalState,
    StateClass,
    classify,
    normalized_canonical,
    sample_class,
)

from conftest import (
    einsum_candidates,
    kets_from_angles,
    nelder_mead_search,
    one_batch_search,
    oracle_five_probabilities,
    oracle_hardy_probabilities,
    pair_hardy_probability,
    pair_overlaps,
    perp_qubit,
    random_ket,
    reference_extract_pair_factorization,
    reference_lift_pair_kets,
    reference_schmidt_decompose,
    reference_settings,
)

INV_SQRT2 = 2**-0.5

D_CLASSES = [c for c in StateClass if c.major == "D"]
B_CLASSES = [c for c in StateClass if c.major == "B"]
C_CLASSES = [c for c in StateClass if c.major == "C"]

GHZ = CanonicalState((INV_SQRT2, 0, 0, 0, INV_SQRT2), 0.0)
W = CanonicalState((3**-0.5, 0, 3**-0.5, 3**-0.5, 0), 0.0)


def canonical_basis_state(qubit):
    """The product qubit's state in canonical B and C kets: |1> on qubit 0, else |0>."""
    return np.array([0, 1] if qubit == 0 else [1, 0], dtype=complex)


def product_with_pair(chi, eta, qubit):
    """The three-qubit ket with ``chi`` on ``qubit`` and the pair state ``eta`` on the others."""
    return np.moveaxis(np.multiply.outer(chi, np.reshape(eta, (2, 2))), 0, qubit).reshape(8)


def retired_d3_row(lams):
    """The D.3 coefficient row formerly carried from the classification table.

    Kept as a documented counterexample: on the normalized D.3 domain its
    P(D1=+1, U2=+1, U3=+1) amplitude is -l0^4 l1 l3 (l1 + l2)(1 - l0^2),
    which never vanishes, so every D.3 draw fell back to the search.  Works
    on floats and on sympy symbols alike.
    """
    l0, l1, l2, l3, _ = lams
    tau = l0**2 * l3 * (l1 + l2)
    eps_ = l0**2 * l1 * (l1 + l2) + (1 - l0**2)
    return (
        (0, 1, l0 * l1, 1 - l0**2),
        (l1 * tau - l3 * eps_, l3 * tau + l1 * eps_, l3, -l1),
        (l1 + l2, l2 - l1, l2, -l1),
    )


#: deck index 846 of the near-boundary benchmark deck for seed 5001, a D.1
#: state whose recipe fails P5 > 1e-9, so its witness comes from the search
STIFF_D1_LAMS = (
    1.8934886471581971e-06,
    0.5699086041234884,
    0.5530539525508347,
    0.4079416872214782,
    0.4504654130310388,
)
STIFF_D1_PHI = 0.22468093746170578

#: how far the search's plus-kets may lie from ``one_batch_search``'s: on
#: GHZ and W (measured at most 8.7e-16, seeds 0-19), and on the 120-state
#: near-boundary deck (2.9e-14)
GHZ_W_KET_BOUND = 1e-13
DECK_KET_BOUND = 1e-12

#: how a failed search attempt can end
SEARCH_OUTCOMES = {"vanishing_contraction", "outside_window", "unverified"}

#: states on which every search attempt fails, by id
DEGENERATE_LAMS = {
    "product": (1, 0, 0, 0, 0),
    "maximal-pair": (INV_SQRT2, 0, 0, INV_SQRT2, 0),
    "ghz-3e-5": (3e-5, 0, 0, 0, 0.99999999955),
}


def near_boundary_deck(rng, count):
    """D.1/D.2 states with one of l0, l1, l2 scaled by 10^-6 .. 10^-3.5.

    Most of them fail their recipe's P5 > 1e-9 check and fall back to the
    search.  States whose class changes on scaling are redrawn.
    """
    deck = []
    while len(deck) < count:
        cls = (StateClass.D1, StateClass.D2)[len(deck) % 2]
        state = sample_class(cls, rng)
        lams = np.array(state.lams)
        lams[rng.integers(3)] *= 10.0 ** rng.uniform(-6.0, -3.5)
        scaled = CanonicalState(tuple(lams / np.linalg.norm(lams)), state.phi)
        if classify(scaled) is cls:
            deck.append(scaled)
    return deck


def settings_with_pair(j, pair):
    """Settings with ``pair`` ((U+, D+) coefficients) on qubit j, Z/H on the others."""
    kets = [((1, 0), (1, 1))] * 3
    kets[j] = pair
    return settings_from_plus_kets(kets)


class TestObservablePair:
    """One (U, D) pair placed on each qubit j of otherwise valid settings."""

    def test_z_and_hadamard_overlap(self):
        for j in range(3):
            overlaps = pair_overlaps(settings_with_pair(j, ((1, 0), (1, 1))))
            assert overlaps[j] == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_commuting_pair_rejected(self):
        for j in range(3):
            with pytest.raises(WindowViolationError) as info:
                settings_with_pair(j, ((1, 0), (0, 1)))
            assert info.value.pair_index == j

    def test_identical_pair_rejected(self):
        for j in range(3):
            with pytest.raises(WindowViolationError) as info:
                settings_with_pair(j, ((1, 1), (1, 1)))
            assert info.value.pair_index == j

    def test_ghz_recipe_first_pair(self):
        # class D.14 coefficients at the GHZ point; the direct inner product
        # of the normalized kets is (i - 1)/2, magnitude 1/sqrt(2)
        for j in range(3):
            overlap = pair_overlaps(settings_with_pair(j, ((1, 1), (1j * INV_SQRT2, -INV_SQRT2))))[j]
            assert overlap == pytest.approx(INV_SQRT2, abs=1e-12)
            assert 0.0 < overlap < 1.0


class TestVerifyHardy:
    def test_ghz_witness_satisfied(self):
        built = build_witness(GHZ)
        cert = verify_hardy(GHZ.to_ket(), built.settings, zero_tol=1e-10)
        assert cert.satisfied
        assert max(cert.probabilities[:4]) <= 1e-10
        assert cert.success_probability == pytest.approx(0.125, abs=1e-12)

    def test_maximally_mixed_not_satisfied(self):
        built = build_witness(GHZ)
        cert = verify_hardy(np.eye(8, dtype=complex) / 8, built.settings)
        assert not cert.satisfied
        assert cert.probabilities == pytest.approx((0.125,) * 5, abs=1e-12)


class TestGenuineConstructions:
    @pytest.mark.parametrize("cls", D_CLASSES, ids=[c.value for c in D_CLASSES])
    def test_recipe_certificates(self, cls, rng):
        fallbacks = 0
        for _ in range(60):
            state = sample_class(cls, rng)
            built = build_witness(state, cls, zero_tol=1e-9)
            assert built.certificate.satisfied
            probs = oracle_hardy_probabilities(state.to_ket(), built.settings)
            assert max(probs[:4]) <= 1e-9
            assert probs[4] > 1e-9
            fallbacks += built.used_fallback
        assert fallbacks == 0

    def test_ghz_d14(self):
        built = build_witness(GHZ, StateClass.D14)
        assert not built.used_fallback
        assert built.certificate.success_probability == pytest.approx(1 / 8, abs=1e-12)

    def test_w_d12_quadratic(self):
        built = build_witness(W, StateClass.D12)
        assert not built.used_fallback
        assert built.certificate.satisfied

    def test_d12_quadratic_roots_are_real_here(self):
        # for the W point the defining quadratic z^2 l2^4 + z l2 l3 + l3^4
        # reduces to z^2 + 3z + 1 = 0; the second-qubit D coefficient is -l2*z
        cands = genuine_candidates(StateClass.D12, W)
        deltas = sorted(c[1][3].real / -W.lams[2] for c in cands)
        roots = sorted(np.roots([1.0, 3.0, 1.0]))
        assert deltas == pytest.approx(roots, abs=1e-9)

    def test_deterministic_for_fixed_seed(self, monkeypatch, caplog):
        # every D recipe validates, so force the seeded fallback search by
        # substituting the retired D.3 row, which fails its second condition
        monkeypatch.setattr(
            hardy,
            "genuine_candidates",
            lambda cls, state: [retired_d3_row(state.lams)],
        )
        state = sample_class(StateClass.D3, np.random.default_rng(5))
        with caplog.at_level(logging.WARNING, logger="hardy3q.hardy"):
            a = build_witness(state, StateClass.D3, seed=9)
            logged = [r for r in caplog.records if "falling back" in r.getMessage()]
            assert len(logged) == 1
        b = build_witness(state, StateClass.D3, seed=9)
        assert a.used_fallback and b.used_fallback
        assert a.certificate.satisfied
        assert a.certificate.probabilities == b.certificate.probabilities
        assert np.array_equal(a.settings.plus_kets, b.settings.plus_kets)


class TestD3Certificate:
    """Exact certificate of the D.3 recipe on its whole domain."""

    @staticmethod
    def symbols(sp):
        l0, l1, l2, l3 = sp.symbols("l0:4", positive=True)
        return l0, l1, l2, l3, l2 * l3 / l1

    @staticmethod
    def amplitudes(sp, lams, rows):
        """Unnormalized amplitudes of the five canonical events, report order."""
        l0, l1, l2, l3, l4 = lams
        psi = {(0, 0, 0): l0, (1, 0, 0): l1, (1, 0, 1): l2, (1, 1, 0): l3, (1, 1, 1): l4}
        rows = [[sp.nsimplify(c) for c in row] for row in rows]
        u = [(a, b) for a, b, _, _ in rows]
        d = [(g, dl) for _, _, g, dl in rows]
        d_minus = [(-sp.conjugate(dl), sp.conjugate(g)) for _, _, g, dl in rows]

        def amp(x, y, z):
            return sum(
                sp.conjugate(x[a] * y[b] * z[c]) * value
                for (a, b, c), value in psi.items()
            )

        return [
            amp(*d_minus),
            amp(d[0], u[1], u[2]),
            amp(u[0], d[1], u[2]),
            amp(u[0], u[1], d[2]),
            amp(*u),
        ]

    def test_recipe_zero_amplitudes_vanish_identically(self):
        sp = pytest.importorskip("sympy")
        lams = self.symbols(sp)
        l0, l1, l2, l3, _ = lams
        # the branch is plain arithmetic, so the program's own row is
        # evaluated on symbols; phi = 0 on D.3
        (rows,) = genuine_candidates(StateClass.D3, SimpleNamespace(lams=lams, phi=0.0))
        amps = self.amplitudes(sp, lams, rows)
        for value in amps[:4]:
            assert sp.simplify(value) == 0
        assert sp.simplify(amps[4] - l0 * l2 * l3) == 0

    def test_recipe_success_probability_closed_form(self):
        sp = pytest.importorskip("sympy")
        lams = self.symbols(sp)
        l0, l1, l2, l3, l4 = lams
        (rows,) = genuine_candidates(StateClass.D3, SimpleNamespace(lams=lams, phi=0.0))
        rows = [[sp.nsimplify(c) for c in row] for row in rows]
        u_norms = [a**2 + b**2 for a, b, _, _ in rows]
        state_norm = sum(x**2 for x in lams)
        p5 = self.amplitudes(sp, lams, rows)[4] ** 2 / (
            u_norms[0] * u_norms[1] * u_norms[2] * state_norm
        )
        expected = (l0 * l2 * l3) ** 2 / (
            2 * (l1**2 + l3**2) * (l2**2 + (l0 + l1) ** 2) * state_norm
        )
        assert sp.simplify(p5 - expected) == 0

    def test_retired_row_second_amplitude_nonzero(self):
        sp = pytest.importorskip("sympy")
        lams = self.symbols(sp)
        l0, l1, l2, l3, l4 = lams
        amps = self.amplitudes(sp, lams, retired_d3_row(lams))
        # the retired row reads its "1" as the squared norm, so restrict to
        # the unit sphere by eliminating l0
        on_sphere = {l0: sp.sqrt(1 - l1**2 - l2**2 - l3**2 - l4**2)}
        # every factor is non-zero for positive l and 0 < l0 < 1
        nonzero = -(l0**4) * l1 * l3 * (l1 + l2) * (1 - l0**2)
        assert sp.simplify((amps[1] - nonzero).subs(on_sphere)) == 0
        # the other three zero conditions hold, so only the second one fails
        assert sp.simplify(amps[0].subs(on_sphere)) == 0
        assert sp.simplify(amps[2]) == 0 and sp.simplify(amps[3]) == 0

    def test_success_probability_matches_closed_form(self, rng):
        for _ in range(60):
            state = sample_class(StateClass.D3, rng)
            l0, l1, l2, l3, _ = state.lams
            built = build_witness(state, StateClass.D3)
            assert not built.used_fallback
            expected = (l0 * l2 * l3) ** 2 / (
                2 * (l1**2 + l3**2) * (l2**2 + (l0 + l1) ** 2)
            )
            assert built.certificate.success_probability == pytest.approx(
                expected, rel=1e-12
            )


class TestBipartiteConstructions:
    def test_b3_closed_form_example(self):
        state = CanonicalState((np.sqrt(0.8), 0, np.sqrt(0.2), 0, 0), 0.0)
        built = build_witness(state, StateClass.B3)
        assert built.certificate.satisfied
        _, eta = extract_pair_factorization(state.to_ket(), 1)
        a, b = schmidt_decompose(eta).coefficients
        pair_value = pair_hardy_probability(a, b)
        assert pair_value == pytest.approx(0.0888888888888889, abs=1e-12)
        # the product-qubit U+ = (chi + chi_perp)/sqrt(2) halves the success term
        assert built.certificate.success_probability == pytest.approx(
            pair_value / 2, abs=1e-12
        )

    @pytest.mark.parametrize("cls", B_CLASSES, ids=[c.value for c in B_CLASSES])
    def test_pair_lift_certificates(self, cls, rng):
        for _ in range(60):
            state = sample_class(cls, rng)
            built = build_witness(state, cls)
            assert built.certificate.satisfied
            assert not built.used_fallback
            probs = oracle_hardy_probabilities(state.to_ket(), built.settings)
            assert max(probs[:4]) <= 1e-10
            psi = state.to_ket()
            _, eta = extract_pair_factorization(psi, PRODUCT_QUBIT[cls])
            a, b = schmidt_decompose(eta).coefficients
            assert built.certificate.success_probability == pytest.approx(
                pair_hardy_probability(a, b) / 2, abs=1e-9
            )

    def test_two_qubit_coefficients_zero_conditions(self, rng):
        """Re-derivation check: the pair recipe kills the three zero terms."""
        for _ in range(200):
            t = rng.uniform(0.1, np.pi / 4 - 0.05)
            a, b = np.cos(t), np.sin(t)
            eta = np.array([a, 0, 0, b], complex)
            (u1, d1), (u2, d2) = two_qubit_hardy_coefficients(a, b)

            def amp(x, y):
                k = np.kron(
                    np.array(x, complex) / np.linalg.norm(x),
                    np.array(y, complex) / np.linalg.norm(y),
                )
                return np.vdot(k, eta)

            assert abs(amp(d1, u2)) <= 1e-12
            assert abs(amp(u1, d2)) <= 1e-12
            d1m = (-np.conj(d1[1]), np.conj(d1[0]))
            d2m = (-np.conj(d2[1]), np.conj(d2[0]))
            assert abs(amp(d1m, d2m)) <= 1e-12
            assert abs(amp(u1, u2)) ** 2 == pytest.approx(
                pair_hardy_probability(a, b), abs=1e-12
            )

    def test_maximal_pair_rejected(self):
        state = CanonicalState((INV_SQRT2, 0, INV_SQRT2, 0, 0), 0.0)
        with pytest.raises(ConstructionFailureError):
            build_witness(state, StateClass.B3)


class TestPairExtraction:
    @pytest.mark.parametrize("qubit", [0, 1, 2])
    @pytest.mark.parametrize("state", [GHZ, W], ids=["ghz", "w"])
    def test_entangled_qubit_rejected(self, state, qubit):
        with pytest.raises(ConstructionFailureError, match=f"qubit {qubit + 1} is not in a product state"):
            extract_pair_factorization(state.to_ket(), qubit)

    @pytest.mark.parametrize("qubit", [0, 1, 2])
    def test_non_finite_or_zero_ket_rejected(self, qubit, rng):
        chi, eta = canonical_basis_state(qubit), random_ket(rng, 4)
        psi = product_with_pair(chi, eta, qubit)
        got_chi, got_eta = extract_pair_factorization(psi, qubit)
        assert got_chi == tuple(chi)
        assert np.abs(np.subtract(got_eta, eta)).max() <= 1e-15
        bad = [np.zeros(8, dtype=complex)]
        for k in range(8):  # in the selected half and in the other one
            for value in (np.nan, np.inf, complex(-np.inf, 1.0)):
                bad.append(psi.copy())
                bad[-1][k] = value
        for psi in bad:
            with pytest.raises(ConstructionFailureError, match="not in a product state"):
                extract_pair_factorization(psi, qubit)

    @pytest.mark.parametrize("qubit", [0, 1, 2])
    def test_product_qubit_off_its_basis_state_rejected(self, qubit):
        # |+++> is a product state, but canonical B and C states never put
        # their product qubit in |+>; only half of psi's weight is selected
        plus = np.full(8, 8**-0.5, dtype=complex)
        with pytest.raises(ConstructionFailureError, match="weight 0.5"):
            extract_pair_factorization(plus, qubit)

    def test_matches_numpy_oracle_on_random_factors(self, rng):
        # canonical B and C states have a basis state on the product qubit
        # (|1> on qubit 1, |0> on qubits 2 and 3): draws of every B and C
        # class, then random pair states beside that basis state
        cases = [
            (sample_class(cls, rng).to_ket(), PRODUCT_QUBIT[cls])
            for cls in B_CLASSES + C_CLASSES
            for _ in range(20)
        ]
        for _ in range(140):
            qubit = int(rng.integers(3))
            psi = product_with_pair(canonical_basis_state(qubit), random_ket(rng, 4), qubit)
            cases.append((psi, qubit))
        for psi, qubit in cases:
            got = extract_pair_factorization(psi, qubit)
            want = reference_extract_pair_factorization(psi, qubit)
            assert got[0] == tuple(canonical_basis_state(qubit))
            for new, old in zip(got, want):
                assert np.abs(np.subtract(new, old)).max() <= 1e-14

    def test_pair_recipes_use_no_numpy_linear_algebra(self, monkeypatch, rng):
        # the B and C recipes run in Python complex arithmetic; the matrix
        # path they replaced called these for every witness
        states = [(sample_class(cls, rng), cls) for cls in B_CLASSES + C_CLASSES]
        calls = []
        for owner, name in ((np.linalg, "eigh"), (np, "tensordot")):
            real = getattr(owner, name)

            def spy(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)
        for state, cls in states:
            assert not build_witness(state, cls).used_fallback
        assert calls == []


def symbolic_probabilities(sp, psi, rows):
    """The five canonical-order probabilities, exactly, for plus-ket rows (u0, u1, d0, d1) per qubit.

    ``psi`` maps basis triples (a, b, c) to amplitudes and is not
    normalized; the kets are.
    """
    u = [row[:2] for row in rows]
    d = [row[2:] for row in rows]
    d_minus = [(-sp.conjugate(y), sp.conjugate(x)) for x, y in d]

    def prob(*kets):
        amp = sum(
            sp.conjugate(kets[0][a] * kets[1][b] * kets[2][c]) * value
            for (a, b, c), value in psi.items()
        )
        norms = sp.Mul(*(sum(x * sp.conjugate(x) for x in ket) for ket in kets))
        return amp * sp.conjugate(amp) / norms

    return [prob(*d_minus), prob(d[0], u[1], u[2]), prob(u[0], d[1], u[2]), prob(u[0], u[1], d[2]), prob(*u)]


class TestPairLiftCertificate:
    """Exact certificates of the B lift and the C value, in the pair's Schmidt bases.

    In its Schmidt bases every B or C state is a|00>|0> + b|11>|0> up to the
    order of the qubits: the pair on qubits 1 and 2, the product qubit 3
    in chi = |0>, which the lift gives U+ ~ chi + chi_perp = (1, 1) and
    D+ ~ chi_perp = (0, 1).
    """

    PRODUCT_ROW = (1, 1, 0, 1)

    @staticmethod
    def pair_rows(sa, sb):
        """The rows of ``two_qubit_hardy_coefficients`` for a = sa^2, b = sb^2, as its docstring gives them."""
        return (sb**3, -(sa**3), sa, -sb), (sb**3, sa**3, sa, sb)

    def test_b_lift_zero_conditions_vanish_identically(self):
        sp = pytest.importorskip("sympy")
        sa, sb = sp.symbols("sa sb", positive=True)
        a, b = sa**2, sb**2
        probs = symbolic_probabilities(
            sp, {(0, 0, 0): a, (1, 1, 0): b}, (*self.pair_rows(sa, sb), self.PRODUCT_ROW)
        )
        for value in probs[:4]:
            assert sp.simplify(value) == 0
        # P(U1+, U2+) of the pair; the product qubit's U+ halves it
        assert sp.simplify(2 * probs[4] - pair_hardy_probability(a, b)) == 0

    def test_pair_probability_on_the_unit_circle(self):
        sp = pytest.importorskip("sympy")
        t = sp.symbols("t", positive=True)
        # the rational parametrization of a^2 + b^2 = 1
        a, b = (1 - t**2) / (1 + t**2), 2 * t / (1 + t**2)
        expected = (a * b * (a - b) / (1 - a * b)) ** 2
        assert sp.simplify(pair_hardy_probability(a, b) - expected) == 0

    def test_float_rows_match_symbolic_rows(self, rng):
        sp = pytest.importorskip("sympy")
        sa, sb = sp.symbols("sa sb", positive=True)
        exact_rows = self.pair_rows(sa, sb)
        for _ in range(50):
            t = rng.uniform(0.01, np.pi / 4 - 0.01)
            a, b = math.cos(t), math.sin(t)
            point = {sa: sp.sqrt(sp.Float(a, 40)), sb: sp.sqrt(sp.Float(b, 40))}
            rows = [(*u, *d) for u, d in two_qubit_hardy_coefficients(a, b)]
            for row, exact_row in zip(rows, exact_rows):
                for value, exact in zip(row, exact_row):
                    exact = float(exact.subs(point).evalf(40))
                    assert abs(value - exact) <= 2 * math.ulp(exact)

    def test_maximal_pair_value_is_exact(self):
        sp = pytest.importorskip("sympy")
        s, f = sp.sqrt(sp.Rational(24, 25)), sp.Rational(1, 5)
        (u1, d1), (u2, d2) = hardy._MAXIMAL_PAIR_COEFFS
        for value, exact in ((u1[0], s), (u1[1], f), (u2[0], f), (u2[1], s)):
            assert abs(value - float(exact)) <= math.ulp(float(exact))
        assert (d1, d2) == ((1.0, 0.0), (0.0, 1.0))
        amp = 1 / sp.sqrt(2)
        probs = symbolic_probabilities(
            sp, {(0, 0, 0): amp, (1, 1, 0): amp}, ((s, f, 1, 0), (f, s, 0, 1), self.PRODUCT_ROW)
        )
        probs = [sp.simplify(p) for p in probs]
        assert probs == [0, sp.Rational(1, 100), sp.Rational(1, 100), 0, sp.Rational(24, 625)]
        assert sum(probs[:4]) - probs[4] == sp.Rational(-184, 10000)


def weak_b3(l2):
    """B.3 state (sqrt(1 - l2^2), 0, l2, 0, 0), whose lifted pair has P5 = l2^2 / 2."""
    return CanonicalState((np.sqrt(1.0 - l2 * l2), 0, l2, 0, 0), 0.0)


class TestBipartiteFallback:
    """A weak B.3 pair whose lift falls below the 1e-9 success tolerance."""

    def test_search_rescues_weak_pair(self, caplog):
        # the lift's P5 is 9.68e-10 here; the search finds settings above
        # 1e-9 from every seed 0-39
        with caplog.at_level(logging.WARNING, logger="hardy3q.hardy"):
            certified = [build_witness(weak_b3(4.4e-5), seed=seed) for seed in range(40)]
        logged = [r for r in caplog.records if "falling back" in r.getMessage()]
        assert len(logged) == 40
        for built in certified:
            assert built.state_class is StateClass.B3
            assert built.certificate.satisfied
            assert built.used_fallback
            assert built.note == "recipe failed validation; settings found by search"

    def test_too_weak_pair_fails_with_diagnostics(self):
        with pytest.raises(ConstructionFailureError) as info:
            build_witness(weak_b3(3e-5))
        assert set(info.value.diagnostics) == {"class", "failures", "state", "search"}
        assert info.value.diagnostics["class"] == "B.3"
        search = info.value.diagnostics["search"]
        assert search["attempts"] == 40
        assert sum(search["outcomes"].values()) == 40
        assert set(search["outcomes"]) <= SEARCH_OUTCOMES

    def test_label_contradicting_pair_falls_back_to_the_search(self):
        # the C.3 state (0, 1/sqrt2, 0, 0, 1/sqrt2) with sub-CLASS_EPS
        # entries added is labelled B.5, and its pair is maximally
        # entangled; the B recipe's candidate commutes on the pair and fails
        # the window check, after which the search runs (and finds nothing:
        # every attempt's candidates fall outside the window)
        lams = np.array([1.519e-10, 0.70710678, 2.99e-11, 7.60e-10, 0.70710678])
        state = CanonicalState(tuple(lams / np.linalg.norm(lams)), 0.6555)
        assert classify(state) is StateClass.B5
        with pytest.raises(ConstructionFailureError) as info:
            build_witness(state)
        (failure,) = info.value.diagnostics["failures"]
        assert failure.startswith("candidate 0: pair 1: |<U+|D+>| = 1.000000e+00")
        assert sum(info.value.diagnostics["search"]["outcomes"].values()) == 40

    @pytest.mark.parametrize(
        "state, cls, failure_start",
        [
            # the exact C.3 point under a B.5 label: equal Schmidt coefficients
            (
                CanonicalState((0.0, INV_SQRT2, 0.0, 0.0, INV_SQRT2), 0.6555),
                StateClass.B5,
                "candidate 0: pair 1: |<U+|D+>| = 1.000000e+00",
            ),
            # a B.1 pair with Schmidt coefficient b = 1e-10: P5 ~ b^2 / 2
            (
                CanonicalState((1e-5, math.sqrt(1 - 2e-10), 1e-5, 0.0, 0.0), 0.3),
                StateClass.B1,
                "candidate 0: probabilities",
            ),
        ],
        ids=["exact-c3-as-b5", "weak-b1"],
    )
    def test_pair_that_contradicts_its_label_is_a_failed_candidate(
        self, state, cls, failure_start
    ):
        # verification alone judges the B recipe's candidate; no recipe
        # error stops the search from running
        with pytest.raises(ConstructionFailureError) as info:
            build_witness(state, cls)
        (failure,) = info.value.diagnostics["failures"]
        assert failure.startswith(failure_start)
        assert sum(info.value.diagnostics["search"]["outcomes"].values()) == 40


class TestMaximalConstructions:
    @pytest.mark.parametrize("cls", C_CLASSES, ids=[c.value for c in C_CLASSES])
    def test_violation_without_hardy(self, cls, rng):
        for _ in range(60):
            state = sample_class(cls, rng)
            built = build_witness(state, cls)
            assert not built.certificate.satisfied
            report = bell_value(state.to_ket(), built.settings)
            assert report.bell_value == pytest.approx(-0.0184, abs=1e-12)

    def test_c2_is_quoted_canonical_case(self):
        state = CanonicalState((INV_SQRT2, 0, 0, INV_SQRT2, 0), 0.0)
        built = build_witness(state, StateClass.C2)
        assert built.certificate.probabilities == pytest.approx(
            (0.0, 0.01, 0.01, 0.0, 0.0384), abs=1e-12
        )


def candidate_certificates(state, cls, build=settings_from_plus_kets):
    """Per recipe candidate of ``state``: its certificate, or None if ``build`` rejects it."""
    psi = state.to_ket()
    out = []
    for kets in hardy._recipe_kets(cls, state, psi):
        try:
            settings = build(np.reshape(kets, (3, 2, 2)))
        except (WindowViolationError, NormalizationError):
            out.append(None)
            continue
        out.append(verify_hardy(psi, settings, hardy.ZERO_TOL))
    return out


def chosen_candidate(built, certificates):
    """Index of the candidate whose settings ``built`` reports, or None (search)."""
    matches = [
        k
        for k, cert in enumerate(certificates)
        if cert is not None and np.array_equal(cert.settings.plus_kets, built.settings.plus_kets)
    ]
    assert len(matches) <= 1 and (built.used_fallback or matches)
    return matches[0] if matches else None


class TestCandidateChoice:
    def test_tied_d8_roots_keep_candidate_zero(self):
        # D.8's two roots give success probabilities equal up to rounding on
        # most draws; the second root's is larger in the last bits on about
        # half of those, which must not make it the witness
        rng = np.random.default_rng(5)
        tied = later_larger = 0
        for _ in range(40):
            state = sample_class(StateClass.D8, rng)
            certs = candidate_certificates(state, StateClass.D8)
            p0, p1 = (c.success_probability for c in certs)
            assert all(c.satisfied for c in certs)
            if abs(p1 - p0) > hardy.CANDIDATE_RTOL * p0:
                continue
            tied += 1
            later_larger += p1 > p0
            assert chosen_candidate(build_witness(state), certs) == 0
        assert tied >= 25 and later_larger >= 5

    def test_larger_success_probability_wins_on_d12(self):
        rng = np.random.default_rng(5)
        second = 0
        for _ in range(40):
            state = sample_class(StateClass.D12, rng)
            certs = candidate_certificates(state, StateClass.D12)
            p = [c.success_probability for c in certs]
            assert abs(p[1] - p[0]) > 1e-3 * max(p)
            assert chosen_candidate(build_witness(state), certs) == int(p[1] > p[0])
            second += p[1] > p[0]
        assert second >= 5


class TestBuildWitness:
    def test_product_state_has_no_witness(self):
        with pytest.raises(NoWitnessError):
            build_witness(CanonicalState((1, 0, 0, 0, 0), 0.0))

    def test_dispatch_covers_entangled_majors(self, rng):
        for cls in (StateClass.B1, StateClass.C3, StateClass.D5):
            state = sample_class(cls, rng)
            built = build_witness(state)
            assert built.state_class is cls

    def test_every_entangled_witness_violates(self, rng):
        for cls in StateClass:
            if cls.major == "A":
                continue
            state = sample_class(cls, rng)
            built = build_witness(state)
            assert bell_value(state.to_ket(), built.settings).bell_value < 0

    def test_b_and_d_witnesses_give_minus_p5(self, rng):
        # the four zero terms vanish, so B collapses to -P5
        for cls in StateClass:
            if cls.major not in ("B", "D"):
                continue
            for _ in range(10):
                state = sample_class(cls, rng)
                built = build_witness(state)
                value = bell_value(state.to_ket(), built.settings).bell_value
                assert value == pytest.approx(
                    -built.certificate.success_probability, abs=1e-9
                )


class TestSearch:
    def test_finds_ghz_settings(self, monkeypatch):
        monkeypatch.setattr(hardy, "SEARCH_ATTEMPTS", 10)
        found = search_hardy_observables(GHZ.to_ket(), seed=0)
        assert found is not None
        assert verify_hardy(GHZ.to_ket(), found.settings, zero_tol=1e-8).satisfied

    def test_not_found_for_product_state(self, monkeypatch):
        monkeypatch.setattr(hardy, "SEARCH_ATTEMPTS", 25)
        psi = np.zeros(8, complex)
        psi[0] = 1.0
        assert search_hardy_observables(psi, seed=0) is None

    def test_not_found_for_maximal_pair(self, monkeypatch):
        monkeypatch.setattr(hardy, "SEARCH_ATTEMPTS", 25)
        psi = CanonicalState((INV_SQRT2, 0, 0, INV_SQRT2, 0), 0.0).to_ket()
        assert search_hardy_observables(psi, seed=0) is None

    def test_deterministic(self, rng, monkeypatch):
        monkeypatch.setattr(hardy, "SEARCH_ATTEMPTS", 10)
        state = sample_class(StateClass.D1, rng)
        a = search_hardy_observables(state.to_ket(), seed=4)
        b = search_hardy_observables(state.to_ket(), seed=4)
        assert a is not None and b is not None
        assert np.array_equal(a.settings.plus_kets, b.settings.plus_kets)

    @pytest.mark.parametrize("lead", [(1,), (4,), (4, 6)], ids=["1", "4", "4x6"])
    def test_derived_d_directions_match_frozen_copy(self, rng, lead):
        # each candidate's P5, U+ kets and contraction vectors m_j (which
        # fix D_j+ = perp(m_j)) against the numpy einsum oracle, on a batch
        # of start kets with leading shape ``lead``: equal up to rounding,
        # and the four zero conditions vanish to rounding under the kron
        # oracle
        psi = random_ket(rng, 8)
        us = kets_from_angles(rng.uniform(0.2, 3.0, (*lead, 3, 2))).reshape(-1, 3, 2)
        p5, kets, ms = einsum_candidates(psi, us)
        for k, start in enumerate(us):
            got = [
                cand
                for j in range(3)
                for cand in hardy._candidates(psi.tolist(), [tuple(u) for u in start], j)
            ]
            assert len(got) == 6
            for i, (q, u, m) in enumerate(got):
                assert abs(q - p5[k, i]) <= 1e-15
                assert np.abs(np.subtract(u, kets[k, i])).max() <= 1e-14
                assert np.abs(np.subtract(m, ms[k, i])).max() <= 1e-14
                probs = oracle_five_probabilities(psi, np.stack([u, perp_qubit(m)], axis=1))
                assert max(probs[:4]) <= 1e-24
                assert probs[4] == pytest.approx(q, rel=1e-12)

    @pytest.mark.parametrize(
        "c0, c1, c2",
        [(1, 0, 0), (0, 0, 1), (0, 1, 0), (0, 0, 0), (0, 2, 3), (3, 2, 0), (1, 2, 1), (1e-300, 1, 1e-300)],
        ids=["x2", "y2", "xy", "zero", "c0-zero", "c2-zero", "double", "tiny-ends"],
    )
    def test_binary_roots_zero_the_form(self, c0, c1, c2):
        # unit roots zero c0 x^2 + c1 x y + c2 y^2; the double root at x = 0
        # (or y = 0) is listed once and the identically zero form gives
        # (1, 0), (0, 1); Python arithmetic raises on any division by zero
        roots = hardy._binary_roots(complex(c0), complex(c1), complex(c2))
        assert len(roots) == (1 if (c0, c1, c2) in ((1, 0, 0), (0, 0, 1)) else 2)
        for x, y in roots:
            n = math.hypot(abs(x), abs(y))
            x, y = x / n, y / n
            assert abs(c0 * x * x + c1 * x * y + c2 * y * y) <= 1e-15 * max(abs(c0), abs(c1), abs(c2), 1.0)
        if (c0, c1, c2) == (0, 0, 0):
            assert roots == [(1, 0), (0, 1)]

    def test_binary_roots_of_random_forms(self, rng):
        for _ in range(200):
            c = rng.standard_normal(6) * 10.0 ** rng.uniform(-8, 8, 6)
            c0, c1, c2 = c[:3] + 1j * c[3:]
            for x, y in hardy._binary_roots(c0, c1, c2):
                n = math.hypot(abs(x), abs(y))
                x, y = x / n, y / n
                terms = (abs(c0 * x * x), abs(c1 * x * y), abs(c2 * y * y))
                assert abs(c0 * x * x + c1 * x * y + c2 * y * y) <= 1e-14 * max(terms)

    def test_start_angles_match_per_attempt_uniform_draws(self):
        for child in np.random.SeedSequence(7).spawn(25):
            x = random_angles(np.random.default_rng(child), 3)
            rng = np.random.default_rng(child)
            assert np.array_equal(x[:, 0], np.arccos(rng.uniform(-1.0, 1.0, 3)))
            assert np.array_equal(x[:, 1], rng.uniform(0.0, 2.0 * np.pi, 3))

    @pytest.mark.parametrize("lams", DEGENERATE_LAMS.values(), ids=DEGENERATE_LAMS.keys())
    def test_degenerate_inputs_fail_cleanly(self, lams):
        # vanishing contractions and windowless candidates mark attempts
        # failed; no division by zero or invalid value occurs on the way
        psi = CanonicalState(lams, 0.0).to_ket()
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            assert search_hardy_observables(psi, seed=0, zero_tol=1e-9) is None

    @staticmethod
    def spy(monkeypatch, name):
        """Count the calls the search makes to ``hardy.<name>``."""
        calls = []
        real = getattr(hardy, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(hardy, name, counted)
        return calls

    @pytest.mark.parametrize(
        "state, seed",
        [(GHZ, 1), (CanonicalState(STIFF_D1_LAMS, STIFF_D1_PHI), 0)],
        ids=["ghz", "stiff-d1"],
    )
    def test_winning_first_attempt_draws_and_verifies_once(self, monkeypatch, state, seed):
        draws = self.spy(monkeypatch, "random_angles")
        verified = self.spy(monkeypatch, "verify_hardy")
        assert search_hardy_observables(state.to_ket(), seed=seed, zero_tol=1e-9) is not None
        assert (len(draws), len(verified)) == (1, 1)

    def test_fallback_witness_verifies_each_candidate_and_the_winner_once(self, monkeypatch):
        # the stiff D.1 state's one recipe candidate fails P5 > 1e-9 and the
        # search's attempt 0 wins; build_witness keeps the certificate the
        # search made for the winner instead of verifying it again
        certificates = []
        real = hardy.verify_hardy

        def counted(*args, **kwargs):
            certificates.append(real(*args, **kwargs))
            return certificates[-1]

        monkeypatch.setattr(hardy, "verify_hardy", counted)
        state = CanonicalState(STIFF_D1_LAMS, STIFF_D1_PHI)
        built = build_witness(state)
        assert len(certificates) == len(genuine_candidates(StateClass.D1, state)) + 1
        assert built.certificate is certificates[-1]
        assert built.certificate.satisfied
        assert built.settings is built.certificate.settings
        assert built.used_fallback
        assert built.note == "recipe failed validation; settings found by search"

    @pytest.mark.parametrize(
        "state", [GHZ, W, CanonicalState(STIFF_D1_LAMS, STIFF_D1_PHI)], ids=["ghz", "w", "stiff-d1"]
    )
    def test_evaluates_each_point_once(self, monkeypatch, state):
        # an attempt solves each qubit's quadratic once, from its start kets;
        # at seed 0 attempt 0 wins on all three states, so no later start is
        # drawn or solved
        calls = self.spy(monkeypatch, "_candidates")
        monkeypatch.setattr(hardy, "SEARCH_ATTEMPTS", 10)
        assert search_hardy_observables(state.to_ket(), seed=0) is not None
        (child,) = np.random.SeedSequence(0).spawn(1)
        start = kets_from_angles(random_angles(np.random.default_rng(child), 3))
        assert [j for _, _, j in calls] == [0, 1, 2]
        for _, us, _ in calls:
            assert np.abs(np.subtract(us, start)).max() <= 1e-15

    def test_failing_first_attempt_draws_every_attempt(self, monkeypatch):
        draws = self.spy(monkeypatch, "random_angles")
        psi = CanonicalState(DEGENERATE_LAMS["ghz-3e-5"], 0.0).to_ket()
        assert search_hardy_observables(psi, seed=0, zero_tol=1e-9) is None
        assert len(draws) == 40

    def test_attempt_count_does_not_change_winner(self, monkeypatch):
        checked = 0
        for state in near_boundary_deck(np.random.default_rng(31), 12):
            psi = state.to_ket()
            monkeypatch.setattr(hardy, "SEARCH_ATTEMPTS", 10)
            a = search_hardy_observables(psi, seed=0, zero_tol=1e-9)
            if a is None:
                continue
            monkeypatch.setattr(hardy, "SEARCH_ATTEMPTS", 40)
            b = search_hardy_observables(psi, seed=0, zero_tol=1e-9)
            assert np.array_equal(a.settings.plus_kets, b.settings.plus_kets)
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("seed", range(10))
    def test_damped_steps_solve_stiff_d1_state_quickly(self, seed, monkeypatch):
        # the state is stiff for Newton-type steps (hence the name); the
        # closed form's attempt 0 alone certifies it from each seed
        monkeypatch.setattr(hardy, "SEARCH_ATTEMPTS", 1)
        state = CanonicalState(STIFF_D1_LAMS, STIFF_D1_PHI)
        found = search_hardy_observables(state.to_ket(), seed=seed, zero_tol=1e-9)
        assert found is not None
        probs = oracle_hardy_probabilities(state.to_ket(), found.settings)
        assert max(probs[:4]) <= 1e-9 < probs[4]

    def test_succeeds_wherever_nelder_mead_oracle_does(self, monkeypatch):
        monkeypatch.setattr(hardy, "SEARCH_ATTEMPTS", 8)
        deck = near_boundary_deck(np.random.default_rng(17), 24)
        deck.append(CanonicalState(STIFF_D1_LAMS, STIFF_D1_PHI))
        oracle_hits = 0
        for state in deck:
            psi = state.to_ket()
            oracle = nelder_mead_search(psi, attempts=8, seed=0, zero_tol=1e-9)
            found = search_hardy_observables(psi, seed=0, zero_tol=1e-9)
            if oracle is None:
                continue
            oracle_hits += 1
            assert found is not None, state
            probs = oracle_hardy_probabilities(psi, found.settings)
            assert max(probs[:4]) <= 1e-9 < probs[4]
        assert oracle_hits >= len(deck) - 2

    @pytest.mark.parametrize("cls", B_CLASSES + D_CLASSES, ids=lambda c: c.value)
    def test_first_attempt_certifies_every_b_and_d_draw(self, cls, monkeypatch):
        monkeypatch.setattr(hardy, "SEARCH_ATTEMPTS", 1)
        rng = np.random.default_rng(3)
        for _ in range(20):
            psi = sample_class(cls, rng).to_ket()
            found = search_hardy_observables(psi, seed=0, zero_tol=1e-9)
            assert found is not None
            probs = oracle_hardy_probabilities(psi, found.settings)
            assert max(probs[:4]) <= 1e-9 < probs[4]

    @pytest.mark.parametrize("cls", C_CLASSES, ids=lambda c: c.value)
    def test_no_c_draw_certified(self, cls):
        # a maximally entangled pair cannot satisfy the Hardy conditions
        rng = np.random.default_rng(3)
        for _ in range(20):
            assert search_hardy_observables(sample_class(cls, rng).to_ket(), seed=0) is None


@pytest.fixture(scope="module")
def deck_searches():
    """Per state of a near-boundary deck: the one-batch oracle's result, the
    search's result and the result of attempt 0 alone, at seed 0."""
    rows = []
    for state in near_boundary_deck(np.random.default_rng(17), 120):
        psi = state.to_ket()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hardy, "SEARCH_ATTEMPTS", 1)
            first = search_hardy_observables(psi, seed=0, zero_tol=1e-9)
        rows.append(
            (
                one_batch_search(psi, seed=0, zero_tol=1e-9)[0],
                search_hardy_observables(psi, seed=0, zero_tol=1e-9),
                first,
            )
        )
    return rows


class TestSearchRounds:
    """The search against ``one_batch_search``, the same closed form with
    every attempt's candidates computed in one numpy einsum batch.

    numpy's fused complex products round differently from the search's
    Python arithmetic, so the oracle's certificates are met with plus-kets
    within GHZ_W_KET_BOUND and DECK_KET_BOUND, and its failure reasons
    exactly.
    """

    @staticmethod
    def same(psi, oracle, found, bound):
        """Both None, or plus-kets within ``bound`` of the oracle's settings
        and a certificate that the kron oracle verifies at 1e-9."""
        if oracle is None or found is None:
            return oracle is None and found is None
        probs = oracle_hardy_probabilities(psi, found.settings)
        return (
            np.abs(oracle.plus_kets - found.settings.plus_kets).max() <= bound
            and max(probs[:4]) <= 1e-9 < probs[4]
        )

    def test_matches_one_batch_oracle_on_the_deck(self, deck_searches):
        deck = near_boundary_deck(np.random.default_rng(17), 120)
        assert all(
            self.same(state.to_ket(), oracle, found, DECK_KET_BOUND)
            for state, (oracle, found, _) in zip(deck, deck_searches)
        )
        # the search certifies every state of the deck
        assert all(found is not None for _, found, _ in deck_searches)

    @pytest.mark.parametrize("lams", DEGENERATE_LAMS.values(), ids=DEGENERATE_LAMS.keys())
    def test_matches_one_batch_oracle_when_every_attempt_fails(self, lams):
        psi = CanonicalState(lams, 0.0).to_ket()
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            oracle, reasons = one_batch_search(psi, seed=0, zero_tol=1e-9)
            found = search_hardy_observables(psi, seed=0, zero_tol=1e-9)
            outcomes = list(hardy._attempt_outcomes(psi, 0, 1e-9))
        assert self.same(psi, oracle, found, 0.0)
        assert outcomes == reasons

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("state", [GHZ, W], ids=["ghz", "w"])
    def test_matches_one_batch_oracle_on_ghz_and_w(self, state, seed, monkeypatch):
        monkeypatch.setattr(hardy, "SEARCH_ATTEMPTS", 10)
        psi = state.to_ket()
        oracle, _ = one_batch_search(psi, attempts=10, seed=seed)
        found = search_hardy_observables(psi, seed=seed)
        assert found is not None
        assert self.same(psi, oracle, found, GHZ_W_KET_BOUND)

    @pytest.mark.parametrize("attempts", [0, 1, 2, 7, 800])
    @pytest.mark.parametrize(
        "state",
        [GHZ, W, CanonicalState(STIFF_D1_LAMS, STIFF_D1_PHI)],
        ids=["ghz", "w", "stiff-d1"],
    )
    def test_matches_one_batch_oracle_at_every_budget(self, state, attempts, monkeypatch):
        # the budget is the number of attempts; with none, neither finds settings
        monkeypatch.setattr(hardy, "SEARCH_ATTEMPTS", attempts)
        psi = state.to_ket()
        oracle, _ = one_batch_search(psi, attempts=attempts, seed=0, zero_tol=1e-9)
        found = search_hardy_observables(psi, seed=0, zero_tol=1e-9)
        assert (found is None) is (attempts == 0)
        assert self.same(psi, oracle, found, GHZ_W_KET_BOUND)

    def test_first_attempt_alone_solves_nine_in_ten(self, deck_searches):
        # the search runs its attempts one at a time in seeded order and
        # stops at the first that certifies; attempt 0 usually wins, so most
        # searches stop after one attempt.  A change to the start draw that
        # breaks this fails here
        solved = [first is not None for _, found, first in deck_searches if found is not None]
        assert sum(solved) >= 0.9 * len(solved)


class TestWindowInvariant:
    def test_all_constructions_stay_in_window(self, rng):
        for cls in StateClass:
            if cls.major == "A":
                continue
            for _ in range(20):
                state = sample_class(cls, rng)
                built = build_witness(state)
                for overlap in pair_overlaps(built.settings):
                    assert 1e-9 < overlap < 1 - 1e-9


def benchmark_inputs():
    """perfbench/inputs.py, which generates the benchmark's decks without hardy3q."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSearchWork:
    def test_counts_on_near_boundary_deck(self, monkeypatch):
        # exact work counts on the first 60 states of the near-boundary-witness
        # deck (44 fall back to the search); unlike timings on a shared
        # machine they do not drift, so a change that does more work per
        # search fails here
        calls = dict.fromkeys(
            ["_attempt_outcomes", "random_angles", "_attempt", "_candidates", "verify_hardy"], 0
        )
        for name in calls:
            real = getattr(hardy, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(hardy, name, counted)
        deck = benchmark_inputs().near_boundary(np.random.default_rng(1), 10)
        fallbacks = sum(
            build_witness(CanonicalState(lams, phi)).used_fallback for _, lams, phi, _ in deck
        )
        assert fallbacks == 44
        # attempt 0 wins every search: one draw, three quadratics and, the
        # top-ranked candidate certifying, one verification per search
        assert calls == {
            "_attempt_outcomes": 44,
            "random_angles": 44,
            "_attempt": 44,
            "_candidates": 132,
            "verify_hardy": 78,
        }


#: the weak GHZ-type D.14 state at l0 = 3e-5, and the C.3 state with
#: sub-CLASS_EPS entries added that classify labels B.5
WEAK_D14 = CanonicalState((3e-5, 0, 0, 0, math.sqrt(1 - 9e-10)), 0.0)
C3_AS_B5_LAMS = np.array([1.519e-10, 0.70710678, 2.99e-11, 7.60e-10, 0.70710678])
C3_AS_B5 = CanonicalState(tuple(C3_AS_B5_LAMS / np.linalg.norm(C3_AS_B5_LAMS)), 0.6555)


class TestOnePass:
    @pytest.mark.parametrize(
        "state, failure, outcomes",
        [
            (
                WEAK_D14,
                "candidate 0: pair 2: |<U+|D+>| = 1.000000e+00 is outside the open window (0, 1); "
                "the observables commute",
                {"outside_window": 17, "unverified": 23},
            ),
            (
                C3_AS_B5,
                "candidate 0: pair 1: |<U+|D+>| = 1.000000e+00 is outside the open window (0, 1); "
                "the observables commute",
                {"outside_window": 40},
            ),
        ],
        ids=["weak-d14", "c3-as-b5"],
    )
    def test_failed_search_runs_each_attempt_once(self, monkeypatch, state, failure, outcomes):
        # the diagnostics count the outcomes of the one search pass
        attempts = TestSearch.spy(monkeypatch, "_attempt")
        with pytest.raises(ConstructionFailureError) as info:
            build_witness(state)
        assert len(attempts) == 40
        assert info.value.diagnostics == {
            "class": classify(state).value,
            "failures": [failure],
            "state": state.lams,
            "search": {"attempts": 40, "outcomes": outcomes},
        }

    @pytest.mark.parametrize(
        "state, used_fallback",
        [(GHZ, False), (CanonicalState(STIFF_D1_LAMS, STIFF_D1_PHI), True)],
        ids=["recipe", "fallback"],
    )
    def test_witness_stores_its_certificate_once(self, state, used_fallback):
        fields = [f.name for f in dataclasses.fields(WitnessConstruction)]
        assert fields == ["certificate", "state_class", "used_fallback"]
        built = build_witness(state)
        assert built.used_fallback is used_fallback
        assert built.settings is built.certificate.settings
        for fallback in (used_fallback, not used_fallback):
            note = dataclasses.replace(built, used_fallback=fallback).note
            assert note == ("recipe failed validation; settings found by search" if fallback else None)


def contract_deck(name):
    """A benchmark deck: the class-witness deck at seed s, or the near-boundary deck."""
    inputs = benchmark_inputs()
    if name == "near-boundary":
        rows = [row[:3] for row in inputs.near_boundary(np.random.default_rng(1), 60)]
    else:
        rows = inputs.round_robin(inputs.ENTANGLED, np.random.default_rng(int(name[-1])), 60)
    return [CanonicalState(lams, phi) for _, lams, phi in rows]


def oracle_pair_witness(monkeypatch, state, cls):
    """``build_witness`` with the B/C pair extraction, Schmidt decomposition and lift in numpy arrays."""
    with monkeypatch.context() as patch:
        patch.setattr(hardy, "extract_pair_factorization", reference_extract_pair_factorization)
        patch.setattr(hardy.linalg, "schmidt_decompose", reference_schmidt_decompose)
        patch.setattr(hardy, "_lift_pair_kets", reference_lift_pair_kets)
        return build_witness(state, cls)


class TestRoundingContract:
    """Settings built in scalar arithmetic change no witness decision.

    Each state's witness is built by ``build_witness`` and again with every
    settings object built by the numpy oracle (``reference_settings``, the
    construction before settings were built one complex number at a time).
    """

    @pytest.mark.parametrize(
        "deck", ["class-witness-0", "class-witness-1", "class-witness-2", "near-boundary"]
    )
    def test_same_decisions_and_rounding_level_kets(self, monkeypatch, deck):
        for state in contract_deck(deck):
            cls = classify(state)
            new = build_witness(state, cls)
            certs = candidate_certificates(state, cls)
            with monkeypatch.context() as patch:
                patch.setattr(hardy, "settings_from_plus_kets", reference_settings)
                old = build_witness(state, cls)
                old_certs = candidate_certificates(state, cls, reference_settings)
            assert [c and c.satisfied for c in certs] == [c and c.satisfied for c in old_certs]
            assert new.used_fallback == old.used_fallback
            assert new.certificate.satisfied == old.certificate.satisfied
            assert chosen_candidate(new, certs) == chosen_candidate(old, old_certs)
            assert np.abs(new.settings.eigenkets - old.settings.eigenkets).max() <= 2e-15
            difference = np.subtract(new.certificate.probabilities, old.certificate.probabilities)
            assert np.abs(difference).max() <= 1e-15

    @pytest.mark.parametrize("deck", ["class-witness-0", "class-witness-1", "class-witness-2"])
    def test_pair_recipe_matches_numpy_oracle(self, monkeypatch, deck):
        # every B and C state of the deck, its witness built again with the
        # pair extraction, Schmidt decomposition and lift in numpy arrays
        # (tensordot, eigh, matrix products), as before the recipe was
        # computed one complex number at a time
        pairs = [(s, c) for s in contract_deck(deck) if (c := classify(s)).major in ("B", "C")]
        assert len(pairs) == 480
        for state, cls in pairs:
            new = build_witness(state, cls)
            old = oracle_pair_witness(monkeypatch, state, cls)
            assert new.certificate.satisfied == old.certificate.satisfied == (cls.major == "B")
            assert not new.used_fallback and not old.used_fallback
            assert np.abs(new.settings.plus_kets - old.settings.plus_kets).max() <= 5e-15
            assert abs(new.certificate.success_probability - old.certificate.success_probability) <= 1e-15
            if cls.major == "C":
                value = bell_value(state.to_ket(), new.settings).bell_value
                assert value == pytest.approx(-0.0184, abs=1e-12)

    def test_pair_recipe_matches_numpy_oracle_below_eps(self, monkeypatch):
        # the recipe reads the pair from the half of psi that the product
        # qubit's basis state selects and ignores the other half, where the
        # oracle's eigenvector sees every amplitude.  Entries of 1e-12 to
        # 9e-10 in a deck state's zero amplitudes (kept where the class
        # stays) change no decision and move P5 and B by rounding-level
        # amounts.  The kets are not compared: a sub-eps first amplitude
        # above PHASE_TINY may turn a ket's global phase.
        rng = np.random.default_rng(19)
        checked = 0
        for deck in ("class-witness-0", "class-witness-1", "class-witness-2"):
            for state in contract_deck(deck):
                cls = classify(state)
                if cls.major not in ("B", "C"):
                    continue
                lams = np.array(state.lams)
                zero = lams == 0.0
                lams[zero] = np.exp(rng.uniform(np.log(1e-12), np.log(9e-10), zero.sum()))
                state = normalized_canonical(lams, state.phi)[0]
                if classify(state) is not cls:
                    continue
                psi = state.to_ket()
                new = build_witness(state, cls)
                old = oracle_pair_witness(monkeypatch, state, cls)
                assert new.certificate.satisfied == old.certificate.satisfied
                assert new.used_fallback == old.used_fallback
                assert new.certificate.success_probability == pytest.approx(
                    old.certificate.success_probability, rel=1e-8
                )
                values = [bell_value(psi, w.settings).bell_value for w in (new, old)]
                assert values[0] == pytest.approx(values[1], abs=1e-9)
                checked += 1
        assert checked >= 1300
