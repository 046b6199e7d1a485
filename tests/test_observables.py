"""Tests for settings construction and the per-settings product-vector table.

``MeasurementSettings`` builds its kets one complex number at a time; the
numpy array construction it replaced is the oracle
(``reference_settings_eigenkets``).  The two agree to rounding: numpy's
vectorized complex loops round some products differently from scalar
arithmetic.  Every probability read from the table must equal, bit for bit,
the former per-call kernel applied to the same settings' eigenkets.
"""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from hardy3q.bell import bell_value, hardy_probabilities, sample_statistics
from hardy3q.errors import DimensionError, NormalizationError, WindowViolationError
from hardy3q.observables import (
    PHASE_TINY,
    WINDOW_TOL,
    random_angles,
    settings_from_plus_kets,
)

from conftest import (
    kets_from_angles,
    mix_with_white_noise,
    random_canonical,
    random_settings,
    reference_context_kets,
    reference_product_probabilities,
    reference_product_vectors,
    reference_settings_eigenkets,
    reference_term_kets,
)

#: kets of the two constructions may differ by this much per component
KET_TOL = 2e-15
#: a window decision on an overlap this close to an edge may go either way
WINDOW_BAND = 1e-15
ULP = 2.0**-52
#: a phase decision on an amplitude this close to PHASE_TINY may go either way
PHASE_BAND = 8 * ULP * PHASE_TINY


def outcome(kets, build):
    """(exception type, qubit index or None, eigenkets or None) of one construction."""
    try:
        return None, None, build(kets)
    except WindowViolationError as exc:
        return WindowViolationError, exc.pair_index, None
    except NormalizationError:
        return NormalizationError, None, None


def new_eigenkets(kets):
    return settings_from_plus_kets(kets).eigenkets


def component(draw, scale):
    """One complex amplitude: zero, a plain value, or a value near PHASE_TINY * scale."""
    kind = draw(st.sampled_from(["zero"] + ["plain"] * 6 + ["tiny"]))
    if kind == "zero":
        return 0j
    phase = np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
    if kind == "tiny":
        return PHASE_TINY * (1.0 + draw(st.integers(-4, 4)) * ULP) * phase * scale
    return draw(st.floats(1e-3, 1.0)) * phase * scale


@st.composite
def plus_kets(draw):
    """(3, 2, 2) kets: scaled random amplitudes with zeros and near-threshold
    leads, pairs near the window's edges, zero kets and non-finite entries."""
    kets = np.empty((3, 2, 2), dtype=complex)
    for j in range(3):
        kind = draw(st.sampled_from(["random"] * 6 + ["low-edge", "high-edge"]))
        if kind == "random":
            for k in range(2):
                scale = 10.0 ** draw(st.floats(-8.0, 3.0))
                kets[j, k] = component(draw, scale), component(draw, scale)
        else:
            # unit pairs whose overlap is an edge of the window up to a few ulps
            ulps = draw(st.integers(-6, 6))
            if kind == "low-edge":
                c = WINDOW_TOL * (1.0 + ulps * ULP)
                kets[j] = (0.0, 1.0), (np.sqrt(1.0 - c * c), c)
            else:
                c = 1.0 - WINDOW_TOL + ulps * ULP / 2.0
                kets[j] = (1.0, 0.0), (c, np.sqrt(1.0 - c * c))
    special = draw(st.sampled_from(["none"] * 6 + ["nan", "inf", "zero-ket"]))
    if special != "none":
        j, k, c = draw(st.integers(0, 2)), draw(st.integers(0, 1)), draw(st.integers(0, 1))
        if special == "zero-ket":
            kets[j, k] = 0.0
        else:
            kets[j, k, c] = complex(np.nan if special == "nan" else np.inf, draw(st.floats(-1, 1)))
    return kets


class TestConstructionMatchesNumpyOracle:
    @hyp_settings(max_examples=400, deadline=None)
    @given(plus_kets())
    def test_same_outcome_and_kets(self, kets):
        with np.errstate(all="ignore"):
            want = outcome(kets, reference_settings_eigenkets)
            got = outcome(kets, new_eigenkets)
            unit = kets / np.linalg.norm(kets, axis=-1, keepdims=True)
            overlaps = np.abs(np.vecdot(unit[:, 0], unit[:, 1]))
        if want[:2] != got[:2]:
            # only a window decision within rounding of an edge may differ
            assert NormalizationError not in (want[0], got[0]), (want[:2], got[:2])
            first = min(j for j in (want[1], got[1]) if j is not None)
            edges = np.array([WINDOW_TOL, 1.0 - WINDOW_TOL])
            assert np.abs(overlaps[first] - edges).min() <= WINDOW_BAND
            return
        if got[2] is None:
            return
        # a ket whose phase-setting amplitude lies within rounding of
        # PHASE_TINY may take its phase from either amplitude; its plus- and
        # minus-kets then agree up to a phase
        loose = (np.abs(np.abs(unit) - PHASE_TINY) <= PHASE_BAND).any(axis=-1)
        close = (np.abs(got[2] - want[2]) <= KET_TOL).all(axis=-1)
        for j, k, s in zip(*np.nonzero(~close)):
            assert loose[j, k], (j, k, s, got[2][j, k, s], want[2][j, k, s])
            assert abs(abs(np.vdot(got[2][j, k, s], want[2][j, k, s])) - 1.0) <= KET_TOL

    @pytest.mark.parametrize("ulps", range(-4, 5))
    def test_low_edge_decided_alike(self, ulps):
        # (0, 1) and (1, c) are unit kets that the phase rule leaves alone,
        # so both constructions compute their overlap c exactly and put the
        # pair inside the window or both outside
        c = WINDOW_TOL * (1.0 + ulps * ULP)
        kets = [((1, 0), (1, 1)), ((0.0, 1.0), (1.0, c)), ((1, 0), (1, 1))]
        want, got = outcome(kets, reference_settings_eigenkets), outcome(kets, new_eigenkets)
        assert want[:2] == got[:2] == ((None, None) if ulps > 0 else (WindowViolationError, 1))

    @pytest.mark.parametrize("ulps", range(-4, 5))
    def test_phase_threshold_decided_alike(self, ulps):
        # (i t, 1) is a unit ket whose amplitude sizes both constructions
        # compute exactly; i t sets the phase only when t > PHASE_TINY
        t = PHASE_TINY * (1.0 + ulps * ULP)
        kets = [((1j * t, 1.0), (1, 1)), ((1, 0), (1, 1)), ((1, 0), (1, 1))]
        want, got = reference_settings_eigenkets(kets), new_eigenkets(kets)
        lead = (t, -1j) if ulps > 0 else (1j * t, 1.0)
        assert np.array_equal(want[0, 0, 0], lead) and np.array_equal(got[0, 0, 0], lead)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionError):
            settings_from_plus_kets(np.ones((3, 2, 3)))

    @pytest.mark.parametrize(
        "rows",
        [[(1, 0, 1, 1)] * 2, [(1, 0, 1)] * 3, [(np.ones(2),) * 4] * 3],
        ids=["two-rows", "rows-of-three", "rows-of-arrays"],
    )
    def test_rejects_rows_of_wrong_shape(self, rows):
        with pytest.raises(DimensionError):
            settings_from_plus_kets(rows)

    def test_rows_give_the_settings_of_the_array(self, rng):
        # the recipes' form: three (u0, u1, d0, d1) rows of Python numbers
        kets = kets_from_angles(random_angles(rng, 6)).reshape(3, 2, 2)
        rows = [tuple(pair.ravel().tolist()) for pair in kets]
        want, got = settings_from_plus_kets(kets), settings_from_plus_kets(rows)
        for name in ("eigenkets", "bras", "hardy_bras"):
            a, b = getattr(want, name), getattr(got, name)
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_arrays_are_read_only(self, rng):
        settings = random_settings(rng)
        for arr in (settings.plus_kets, settings.eigenkets, settings.bras, settings.hardy_bras):
            assert not arr.flags.writeable


class TestProductTable:
    """The table gives the former per-call kernel's numbers bit for bit."""

    @staticmethod
    def same_bits(a, b):
        return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))

    @hyp_settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_probabilities_match_former_kernel(self, seed, visibility):
        rng = np.random.default_rng(seed)
        settings = random_settings(rng)
        state = random_canonical(rng)
        term_kets, context_kets = reference_term_kets(settings), reference_context_kets(settings)
        assert self.same_bits(settings.bras, np.conj(reference_product_vectors(context_kets)))
        for target in (state.to_ket(), mix_with_white_noise(state, visibility)):
            want = reference_product_probabilities(target, term_kets)
            assert self.same_bits(hardy_probabilities(target, settings), want)
            assert bell_value(target, settings).bell_value == float(
                want[0] + want[1] + want[2] + want[3] - want[4]
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_sample_statistics_match_former_kernel(self, rng, seed):
        settings = random_settings(rng)
        psi = random_canonical(rng).to_ket()
        shots = 10_000
        kets = reference_context_kets(settings)
        probs = np.clip(reference_product_probabilities(psi, kets), 0.0, None)
        draws = np.random.default_rng(seed)
        terms = [(probs[0], 7)] + [(p, 0) for p in probs[1:]]
        p_hat = np.array([draws.multinomial(shots, p / p.sum())[t] for p, t in terms]) / shots
        stats = sample_statistics(psi, settings, shots, seed)
        assert stats.frequencies == tuple(float(f) for f in p_hat)
        assert stats.standard_errors == tuple(
            float(e) for e in np.sqrt(p_hat * (1.0 - p_hat) / shots)
        )
