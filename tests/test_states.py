"""Tests for canonical states, classification, and noisy mixtures."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from hardy3q import states
from hardy3q.errors import ClassificationOverlapError, NormalizationError
from hardy3q.states import (
    CLASS_ORDER,
    CanonicalState,
    StateClass,
    classify,
    classify_batch,
    normalized_canonical,
    sample_class,
    to_ket,
)

from conftest import (
    basis_ket,
    is_density,
    mix_with_white_noise,
    oracle_classify,
    oracle_row_predicates,
    random_canonical,
    reference_sample_b5,
    tensor,
)

INV_SQRT2 = 2**-0.5

#: the rows alone in their zero pattern, each with its non-zero amplitudes l_j
SINGLE_PATTERN_ROWS = {
    StateClass.A1: [0, 1],
    StateClass.B1: [0, 1, 2],
    StateClass.B2: [0, 1, 3],
    StateClass.D4: [0, 1, 2, 3],
    StateClass.D5: [0, 1, 2, 4],
    StateClass.D8: [0, 1, 4],
    StateClass.D9: [0, 3, 4],
    StateClass.D12: [0, 2, 3],
    StateClass.D13: [0, 2, 4],
    StateClass.D14: [0, 4],
}
#: D.6 and D.10: their pattern, and the two amplitudes whose equality is the surface they avoid
SPLIT_PATTERN_ROWS = {StateClass.D6: ([0, 1, 3, 4], (0, 4)), StateClass.D10: ([0, 2, 3, 4], (2, 4))}


def replay_pattern_draw(rng, nonzero):
    """uniform(0.25, 1) on the pattern, then the phase only when l1 != 0, normalized."""
    lams = np.zeros(5)
    lams[nonzero] = rng.uniform(0.25, 1.0, len(nonzero))
    phi = float(rng.uniform(0.05, math.pi - 0.05)) if 1 in nonzero else 0.0
    return CanonicalState(tuple(lams / np.linalg.norm(lams)), phi)


def canonical(lams, phi=0.0):
    arr = np.asarray(lams, float)
    return CanonicalState(tuple(arr / np.linalg.norm(arr)), phi)


class TestCanonicalState:
    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            CanonicalState((-INV_SQRT2, 0, 0, 0, INV_SQRT2), 0.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            CanonicalState((1.0, 1.0, 0, 0, 0), 0.0)

    def test_rejects_phase_outside_range(self):
        with pytest.raises(ValueError):
            CanonicalState((1.0, 0, 0, 0, 0), -0.1)

    def test_normalized_canonical_reports_factor(self):
        state, factor = normalized_canonical([3.0, 0, 0, 0, 4.0], 0.5)
        assert factor == pytest.approx(5.0)
        assert state.lams == pytest.approx((0.6, 0, 0, 0, 0.8))


class TestToKet:
    def test_ghz(self):
        psi = to_ket(CanonicalState((INV_SQRT2, 0, 0, 0, INV_SQRT2), 0.0))
        expected = np.zeros(8, complex)
        expected[0] = expected[7] = INV_SQRT2
        assert np.allclose(psi, expected)

    def test_000(self):
        psi = to_ket(CanonicalState((1, 0, 0, 0, 0), 0.0))
        assert np.allclose(psi, basis_ket(8, 0))

    def test_w_up_to_local_bit_flip(self):
        s = 3**-0.5
        psi = to_ket(CanonicalState((s, 0, s, s, 0), 0.0))
        flip = tensor(np.array([[0, 1], [1, 0]], complex), np.eye(2), np.eye(2))
        w = np.zeros(8, complex)
        w[1] = w[2] = w[4] = s
        assert np.allclose(flip @ psi, w, atol=1e-12)

    def test_phase_lands_on_index_4(self):
        state = canonical([0.5, 0.5, 0.5, 0.4, 0.3], 1.0)
        psi = to_ket(state)
        assert psi[4] == pytest.approx(state.lams[1] * np.exp(1j), abs=1e-12)

    @hyp_settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_norm_one(self, seed):
        state = random_canonical(np.random.default_rng(seed))
        assert np.linalg.norm(to_ket(state)) == pytest.approx(1.0, abs=1e-12)


class TestClassifyExamples:
    def test_ghz_is_d14(self):
        assert classify(canonical([1, 0, 0, 0, 1])) is StateClass.D14

    def test_c1_point(self):
        assert classify(canonical([1, 0, 1, 0, 0])) is StateClass.C1

    def test_a3_equality_surface(self):
        state = CanonicalState((0.0, 0.5, 0.5, 0.5, 0.5), 0.0)
        assert classify(state) is StateClass.A3

    def test_b3_below_half(self):
        assert classify(CanonicalState((0.6, 0, 0.8, 0, 0), 0.0)) is StateClass.B3

    def test_w_is_d12(self):
        s = 3**-0.5
        assert classify(CanonicalState((s, 0, s, s, 0), 0.0)) is StateClass.D12

    def test_product_000_is_a2(self):
        assert classify(CanonicalState((1, 0, 0, 0, 0), 0.0)) is StateClass.A2

    def test_phi_ignored_when_l1_vanishes(self):
        s = 3**-0.5
        a = classify(CanonicalState((s, 0, s, s, 0), 0.0))
        b = classify(CanonicalState((s, 0, s, s, 0), 2.0))
        assert a is b is StateClass.D12


class TestClassifyTargeted:
    @pytest.mark.parametrize("cls", CLASS_ORDER, ids=[c.value for c in CLASS_ORDER])
    def test_sampler_lands_in_class(self, cls, rng):
        for _ in range(200):
            state = sample_class(cls, rng)
            assert classify(state) is cls

    def test_b5_sampler_matches_pair_matrix_oracle(self):
        # the sampler keeps a B.5 draw by the classifier's pair test; the
        # former rejection loop on the pair matrix keeps exactly the same draws
        for seed in range(200):
            state = sample_class(StateClass.B5, np.random.default_rng(seed))
            assert state == reference_sample_b5(np.random.default_rng(seed))
            assert classify(state) is StateClass.B5

    @pytest.mark.parametrize("cls", SINGLE_PATTERN_ROWS, ids=lambda c: c.value)
    def test_single_pattern_draws_replay_exactly(self, cls):
        # every seeded deck of sample_class draws rests on this stream
        for k in range(20):
            ours, twin = np.random.default_rng(k), np.random.default_rng(k)
            for _ in range(5):
                assert sample_class(cls, ours) == replay_pattern_draw(twin, SINGLE_PATTERN_ROWS[cls])

    @pytest.mark.parametrize("cls", SPLIT_PATTERN_ROWS, ids=lambda c: c.value)
    def test_split_pattern_draws_replay_off_their_surface(self, cls):
        nonzero, (i, j) = SPLIT_PATTERN_ROWS[cls]
        for k in range(20):
            ours, twin = np.random.default_rng(k), np.random.default_rng(k)
            for _ in range(5):
                state = sample_class(cls, ours)
                assert abs(state.lams[i] - state.lams[j]) >= states.SAMPLE_MARGIN / 2
                expected = replay_pattern_draw(twin, nonzero)
                while abs(expected.lams[i] - expected.lams[j]) < states.SAMPLE_MARGIN / 2:
                    expected = replay_pattern_draw(twin, nonzero)
                assert state == expected

    def test_perturbation_stability_away_from_boundaries(self, rng):
        eps = 1e-9
        stable_classes = [c for c in CLASS_ORDER if c is not StateClass.A2]
        for _ in range(300):
            cls = stable_classes[int(rng.integers(len(stable_classes)))]
            state = sample_class(cls, rng)
            base = classify(state, eps=eps)
            assert oracle_classify(state.lams, state.phi, eps) is base
            lams = np.array(state.lams)
            jitter = rng.uniform(-eps / 10, eps / 10, 5)
            jittered = np.clip(lams + jitter, 0.0, None)
            # renormalization keeps the perturbation at the eps/10 scale
            jittered /= np.linalg.norm(jittered)
            assert classify(CanonicalState(tuple(jittered), state.phi), eps=eps) is base
            assert oracle_classify(jittered, state.phi, eps) is base


class TestClassifyProperties:
    @hyp_settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_uniform_draws_match_exactly_one_row(self, seed):
        state = random_canonical(np.random.default_rng(seed))
        # both raise unless exactly one row matches
        cls = classify(state)
        assert CLASS_ORDER[classify_batch(np.array([state.lams]), np.array([state.phi]))[0]] is cls
        assert cls is oracle_classify(state.lams, state.phi)

    def test_batch_agrees_with_scalar(self, rng):
        states = [random_canonical(rng) for _ in range(500)]
        states += [sample_class(c, rng) for c in CLASS_ORDER for _ in range(8)]
        lams = np.array([s.lams for s in states])
        phis = np.array([s.phi for s in states])
        codes = classify_batch(lams, phis)
        for state, code in zip(states, codes):
            assert CLASS_ORDER[code] is classify(state)
            assert CLASS_ORDER[code] is oracle_classify(state.lams, state.phi)

    @pytest.mark.parametrize("eps", [float("nan"), 0.0, -1.0, float("inf")])
    def test_bad_eps_rejected_by_both_entry_points(self, eps):
        ghz = canonical([1, 0, 0, 0, 1])
        with pytest.raises(ValueError, match="eps"):
            classify(ghz, eps=eps)
        with pytest.raises(ValueError, match="eps"):
            classify_batch(np.array([ghz.lams]), np.array([ghz.phi]), eps=eps)

    @pytest.mark.parametrize(
        "lams, phis",
        [
            ([[math.nan] * 5], [0.0]),
            ([[math.inf, 0, 0, 0, 0]], [0.0]),
            ([[0.5, 0.5, 0.5, 0.5, math.nan]], [0.0]),
            ([[0.5] * 4 + [0.5], [1, 0, 0, 0, -math.inf]], [0.0, 0.0]),
            ([[0.5] * 4 + [0.5]], [math.nan]),
            ([[1, 0, 0, 0, 0], [0.5] * 4 + [0.5]], [0.0, math.inf]),
        ],
        ids=["nan-row", "inf-l0", "nan-l4", "-inf-second-row", "nan-phi", "inf-phi"],
    )
    def test_batch_rejects_non_finite(self, lams, phis):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                classify_batch(np.array(lams, dtype=float), np.array(phis))

    @pytest.mark.parametrize(
        "lams, phi",
        [([-1, 0, 0, 0, 0], 0.0), ([0.6, 0, 0.8, 0, 0], -5.0), ([0.6, 0, 0.8, 0, 0], 4.0)],
        ids=["negative-l0", "phi-5", "phi4"],
    )
    def test_batch_rejects_rows_outside_canonical_domain(self, lams, phi):
        # CanonicalState rejects these rows, so scalar classify never sees them
        with pytest.raises(ValueError):
            CanonicalState(tuple(lams), phi)
        with pytest.raises(ValueError, match="non-negative|phase"):
            classify_batch(np.array([lams], dtype=float), np.array([phi]))

    def test_batch_accepts_phase_endpoints(self):
        states = [canonical([1, 1, 1, 1, 1], phi) for phi in (0.0, math.pi)]
        codes = classify_batch(np.array([s.lams for s in states]), np.array([s.phi for s in states]))
        assert [CLASS_ORDER[c] for c in codes] == [classify(s) for s in states]

    def test_overlap_raises_in_both_entry_points(self):
        # at eps = 0.6 the maximal pair (|00> + |11>)/sqrt(2) is both
        # singular (A.3) and unitary (C.3)
        state = CanonicalState((0.0, INV_SQRT2, 0.0, 0.0, INV_SQRT2), 0.0)
        with pytest.raises(ClassificationOverlapError) as scalar:
            classify(state, eps=0.6)
        with pytest.raises(ClassificationOverlapError) as batch:
            classify_batch(np.array([state.lams]), np.array([state.phi]), eps=0.6)
        assert scalar.value.labels == batch.value.labels == ("A.3", "C.3")


@pytest.fixture(scope="module")
def criterion8_deck():
    """The rows of acceptance criterion 8: seed 88, 800,000 uniform draws and
    8,000 targeted draws per class."""
    rng = np.random.default_rng(88)
    lams_u = np.abs(rng.standard_normal((800_000, 5)))
    lams_u /= np.linalg.norm(lams_u, axis=1, keepdims=True)
    phis_u = rng.uniform(0.0, np.pi, 800_000)
    targeted = [sample_class(cls, rng) for cls in CLASS_ORDER for _ in range(8000)]
    lams = np.vstack([lams_u, np.array([s.lams for s in targeted])])
    phis = np.concatenate([phis_u, [s.phi for s in targeted]])
    return lams, phis


EDGE_EPS = [1e-9, 1e-6, 1e-3, 0.05]
UNIT = st.floats(0.2, 1.0)
SIGN = st.sampled_from([-1.0, 1.0])
NEAR = st.sampled_from([1.0 - 1e-3, 1.0, 1.0 + 1e-3])


def _fill(lam, fixed, free):
    """Scale ``lam[free]`` so that the row has unit norm, if it can."""
    rest = 1.0 - float(np.sum(lam[fixed] ** 2))
    norm = float(np.linalg.norm(lam[free]))
    if rest > 0.0 and norm > 0.0:
        lam[free] *= math.sqrt(rest) / norm
    return lam


def _amplitude_edge(draw, eps):
    """Some amplitudes at eps or eps (1 +- 1e-3), the others zero or order one."""
    edge = draw(st.lists(st.booleans(), min_size=5, max_size=5))
    at_edge = st.sampled_from([1.0 - 1e-3, 1.0, 1.0 + 1e-3])
    lam = np.array([eps * draw(at_edge) if e else draw(UNIT) * draw(st.booleans()) for e in edge])
    fixed = np.array(edge)
    return _fill(lam, fixed, ~fixed & (lam > 0.0)), draw(st.floats(0.0, math.pi))


def _product_half_edge(j):
    """l0 lj at 0.5 +- eps (1 +- 1e-3) on the B.3/C.1 (j = 2) or B.4/C.2 (j = 3) pattern."""

    def build(draw, eps):
        target = 0.5 + draw(SIGN) * eps * draw(NEAR)
        lam = np.zeros(5)
        if target <= 0.5:  # on the unit sphere
            t = 0.5 * math.asin(2.0 * target)
            c, s = math.cos(t), math.sin(t)
            lam[0], lam[j] = (c, s) if draw(st.booleans()) else (s, c)
        else:  # beyond the unit sphere's maximum of l0 lj: batch and oracle only
            lam[0] = lam[j] = math.sqrt(target)
        return lam, 0.0

    return build


def _difference_edge(i, j, zero):
    """l_i - l_j at +-eps (1 +- 1e-3), with l_zero = 0 (D.6/D.7 and D.10/D.11)."""

    def build(draw, eps):
        lam = np.array([draw(UNIT) for _ in range(5)])
        lam[zero] = 0.0
        lam[i] = draw(st.floats(0.2, 0.6))
        lam[j] = lam[i] - draw(SIGN) * eps * draw(NEAR)
        fixed = np.zeros(5, dtype=bool)
        fixed[[i, j]] = True
        return _fill(lam, fixed, ~fixed), draw(st.floats(0.0, math.pi))

    return build


def _phase_edge(draw, eps):
    """No zero amplitude and phi at eps (1 +- 1e-3), on or off l2 l3 = l1 l4."""
    lam = np.array([draw(UNIT) for _ in range(5)])
    if draw(st.booleans()):
        lam[4] = lam[2] * lam[3] / lam[1]
    return lam / np.linalg.norm(lam), eps * draw(NEAR)


def _c3_rotation(draw, eps):
    """The C.3 family (0, cos x, sin x, sin x, cos x) / sqrt(2) at phi = pi."""
    x = draw(st.floats(0.15, math.pi / 2 - 0.15))
    return np.array([0.0, math.cos(x), math.sin(x), math.sin(x), math.cos(x)]) * INV_SQRT2, math.pi


EDGES = {
    "amplitude": _amplitude_edge,
    "l0 l2": _product_half_edge(2),
    "l0 l3": _product_half_edge(3),
    "l0 - l4": _difference_edge(0, 4, zero=2),
    "l2 - l4": _difference_edge(2, 4, zero=1),
    "phi": _phase_edge,
    "C.3": _c3_rotation,
}


class TestRowPredicateOracle:
    """The lookup table against the 25 row predicates it replaced.

    The table names a row for every zero pattern, so ``classify_batch`` can
    no longer find a gap or an overlap other than A.3+C.3 by itself; these
    tests are what check that acceptance criterion 8's rows each match
    exactly one row of the table.
    """

    @pytest.mark.parametrize("eps", EDGE_EPS)
    def test_criterion8_deck_matches_one_predicate(self, criterion8_deck, eps):
        lams, phis = criterion8_deck
        table = oracle_row_predicates(lams, phis, eps)
        assert (table.sum(axis=1) == 1).all()
        np.testing.assert_array_equal(classify_batch(lams, phis, eps), table.argmax(axis=1))

    @hyp_settings(max_examples=400, deadline=None)
    @given(st.sampled_from(EDGE_EPS), st.sampled_from(sorted(EDGES)), st.data())
    def test_decision_edges_agree(self, eps, edge, data):
        lam, phi = EDGES[edge](data.draw, eps)
        batch = CLASS_ORDER[classify_batch(lam[None], np.array([phi]), eps)[0]]
        table = oracle_row_predicates(lam[None], np.array([phi]), eps)[0]
        assert table.sum() == 1
        assert CLASS_ORDER[int(table.argmax())] is batch
        assert oracle_classify(lam, phi, eps) is batch
        if abs(float(np.sum(lam**2)) - 1.0) <= 1e-12:
            assert classify(CanonicalState(tuple(lam), phi), eps=eps) is batch


BLOCK = states._BLOCK_ROWS


def _structured_rows(rng):
    """One row of every non-empty zero pattern, then four draws of every class,
    which lie on the equality surfaces (A.3, C.*, D.3, D.7, D.11) or off them."""
    lams, phis = [], []
    for code in range(1, 32):
        lam = np.where([code >> j & 1 for j in range(5)], rng.uniform(0.25, 1.0, 5), 0.0)
        lams.append(lam / np.linalg.norm(lam))
        phis.append(rng.uniform(0.0, math.pi))
    for state in (sample_class(c, rng) for c in CLASS_ORDER for _ in range(4)):
        lams.append(state.lams)
        phis.append(state.phi)
    return np.array(lams), np.array(phis)


def _blocked_deck(n, rng):
    """``n`` uniform rows with the structured rows written just before and just
    after every block boundary (and the ends); returns the rows and those positions."""
    lams = np.abs(rng.standard_normal((n, 5)))
    lams /= np.linalg.norm(lams, axis=1, keepdims=True)
    phis = rng.uniform(0.0, math.pi, n)
    s_lams, s_phis = _structured_rows(rng)
    k = len(s_lams)
    placed = []
    for lo in (b + d for b in range(0, n + 1, BLOCK) for d in (-k, 0)):
        at = np.arange(max(lo, 0), min(lo + k, n))
        lams[at], phis[at] = s_lams[at - lo], s_phis[at - lo]
        placed.append(at)
    return lams, phis, np.unique(np.concatenate(placed))


def _overlap_row():
    # at eps = 0.6 the maximal pair (|00> + |11>)/sqrt(2) is both singular
    # (A.3) and unitary (C.3), at every phase
    return np.array([0.0, INV_SQRT2, 0.0, 0.0, INV_SQRT2])


class TestBlockedBatch:
    """``classify_batch`` runs ``_BLOCK_ROWS`` rows at a time: the labels, the
    first overlap and the errors are those of one pass over all rows."""

    @pytest.mark.parametrize(
        "blocks, extra",
        [(1, -1), (1, 0), (1, 1), (2, 3)],
        ids=["block-1", "block", "block+1", "2block+3"],
    )
    def test_labels_at_block_boundaries(self, monkeypatch, blocks, extra):
        rng = np.random.default_rng(blocks + extra)
        lams, phis, placed = _blocked_deck(blocks * BLOCK + extra, rng)
        labels = classify_batch(lams, phis)
        table = oracle_row_predicates(lams, phis)
        assert (table.sum(axis=1) == 1).all()
        np.testing.assert_array_equal(labels, table.argmax(axis=1))
        for i in placed:
            state = CanonicalState(tuple(lams[i]), phis[i])
            assert CLASS_ORDER[labels[i]] is classify(state) is oracle_classify(lams[i], phis[i])
        with monkeypatch.context() as patch:
            patch.setattr(states, "_BLOCK_ROWS", len(lams))  # one block
            np.testing.assert_array_equal(classify_batch(lams, phis), labels)

    def test_overlap_in_second_block_names_its_row(self):
        n = 2 * BLOCK + 3
        lams = np.tile([1.0, 0.0, 0.0, 0.0, 0.0], (n, 1))  # A.2 at eps = 0.6
        phis = np.random.default_rng(7).uniform(0.0, math.pi, n)
        first, later = BLOCK + 5, 2 * BLOCK + 1
        lams[[first, later]] = _overlap_row()
        with pytest.raises(ClassificationOverlapError) as exc:
            classify_batch(lams, phis, eps=0.6)
        assert exc.value.lams == tuple(lams[first]) and exc.value.phi == phis[first]

    @pytest.mark.parametrize("column", [2, 5], ids=["nan-l2", "nan-phi"])
    def test_non_finite_in_later_block_raises_before_an_earlier_overlap(self, column):
        n = 2 * BLOCK + 3
        lams = np.tile([1.0, 0.0, 0.0, 0.0, 0.0], (n, 1))
        phis = np.zeros(n)
        lams[10] = _overlap_row()
        if column < 5:
            lams[BLOCK + 7, column] = math.nan
        else:
            phis[BLOCK + 7] = math.nan
        with pytest.raises(ValueError, match="finite"):
            classify_batch(lams, phis, eps=0.6)

    def test_memory_layout_does_not_change_labels(self):
        n = 2 * BLOCK + 3
        lams, phis, _ = _blocked_deck(n, np.random.default_rng(11))
        want = classify_batch(lams, phis)
        wide = np.zeros((2 * n, 10))
        wide[::2, ::2] = lams
        phi_wide = np.zeros(3 * n)
        phi_wide[::3] = phis
        for lam_in, phi_in, expected in (
            (np.asfortranarray(lams), phis, want),
            (wide[::2, ::2], phi_wide[::3], want),
            (lams[::-1], phis[::-1], want[::-1]),
        ):
            np.testing.assert_array_equal(classify_batch(lam_in, phi_in), expected)

    def test_peak_memory_is_the_output_and_one_block(self):
        # every row through the A.3/B.5/C.3 split, the costliest kind: its
        # temporaries take about 110 bytes per row, held for one block's rows
        # (one pass over all rows would hold them for every row, about 28 MB here)
        rng = np.random.default_rng(12)
        n = 4 * BLOCK + 5
        lams = np.abs(rng.standard_normal((n, 5)))
        lams[:, 0] = 0.0
        lams /= np.linalg.norm(lams, axis=1, keepdims=True)
        phis = rng.uniform(0.0, math.pi, n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = classify_batch(lams, phis)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 160 * BLOCK


class TestWhiteNoise:
    def test_v_one_is_pure_projector(self):
        state = canonical([1, 0, 0, 0, 1])
        rho = mix_with_white_noise(state, 1.0)
        assert np.allclose(rho, np.outer(state.to_ket(), state.to_ket().conj()))

    def test_v_zero_is_maximally_mixed(self):
        state = canonical([1, 0, 0, 0, 1])
        assert np.allclose(mix_with_white_noise(state, 0.0), np.eye(8) / 8)

    def test_half_ghz_spectrum(self):
        rho = mix_with_white_noise(canonical([1, 0, 0, 0, 1]), 0.5)
        eigs = np.sort(np.linalg.eigvalsh(rho))
        assert eigs[-1] == pytest.approx(0.5625, abs=1e-12)
        assert np.allclose(eigs[:-1], 0.0625, atol=1e-12)

    def test_rejects_bad_visibility(self):
        with pytest.raises(ValueError):
            mix_with_white_noise(canonical([1, 0, 0, 0, 1]), 1.5)

    def test_noisy_state_density_is_valid(self, rng):
        state = random_canonical(rng)
        rho = mix_with_white_noise(state, 0.37)
        assert is_density(rho)

    def test_accepts_raw_ket(self):
        w = np.zeros(8, complex)
        w[1] = w[2] = w[4] = 3**-0.5
        rho = mix_with_white_noise(w, 0.25)
        assert is_density(rho)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
