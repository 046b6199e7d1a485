"""Acceptance gate: every exit criterion, one test each, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one [PASS]/[FAIL]
line per criterion.  Criterion 3 is parametrized per genuine-entanglement
sub-class; besides the zero-probability requirements, each row must not
fall back to the numerical search on every draw, a clause that exists to
surface a defective coefficient recipe rather than hide it behind the
search.
"""

import json
import time

import numpy as np
import pytest

from hardy3q.bell import (
    bell_value,
    hardy_probabilities,
    lhv_hardy_pattern_assignments,
    lhv_minimum,
)
from hardy3q.hardy import (
    PRODUCT_QUBIT,
    build_witness,
    extract_pair_factorization,
    search_hardy_observables,
)
from hardy3q.linalg import schmidt_decompose
from hardy3q.states import (
    CLASS_ORDER,
    CanonicalState,
    StateClass,
    classify_batch,
    sample_class,
)
from hardy3q.visibility import minimize_bell, threshold_visibility
from hardy3q import cli, hardy

from conftest import (
    mix_with_white_noise,
    oracle_hardy_probabilities,
    pair_hardy_probability,
    random_settings,
    threshold_visibility_bisection,
)

INV_SQRT2 = 2**-0.5

GHZ_BEST = -0.175459
GHZ_THRESHOLD = 0.68125
W_BEST = -0.192608
W_THRESHOLD = 0.6606676

D_CLASSES = [c for c in StateClass if c.major == "D"]
B_CLASSES = [c for c in StateClass if c.major == "B"]
C_CLASSES = [c for c in StateClass if c.major == "C"]


def check(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCriterion1GhzReproduction:
    def test_ghz_optimize_via_cli(self, tmp_path, capsys):
        path = tmp_path / "ghz.json"
        path.write_text(
            json.dumps({"lambda": [INV_SQRT2, 0, 0, 0, INV_SQRT2], "phi": 0.0})
        )
        started = time.monotonic()
        code, report = run_cli(
            capsys, ["optimize", str(path), "--starts", "64", "--seed", "0"]
        )
        elapsed = time.monotonic() - started
        best = report["optimization"]["best_value"]
        threshold = report["optimization"]["threshold_visibility"]
        ok = (
            code == 0
            and abs(best - GHZ_BEST) <= 1e-3
            and abs(threshold - GHZ_THRESHOLD) <= 1e-4
            and elapsed <= 60.0
        )
        check(
            "criterion 1 (GHZ reproduction)",
            ok,
            f"best={best:.7f} (ref {GHZ_BEST}), threshold={threshold:.6f} "
            f"(ref {GHZ_THRESHOLD}), runtime={elapsed:.1f}s at 64 starts",
        )


class TestCriterion2WReproduction:
    def test_w_optimize_via_cli_amplitudes(self, tmp_path, capsys):
        s = 3**-0.5
        amps = [[0.0, 0.0] for _ in range(8)]
        for idx in (1, 2, 4):
            amps[idx] = [s, 0.0]
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"amplitudes": amps}))
        code, report = run_cli(
            capsys, ["optimize", str(path), "--starts", "64", "--seed", "0"]
        )
        best = report["optimization"]["best_value"]
        threshold = report["optimization"]["threshold_visibility"]
        ok = (
            code == 0
            and abs(best - W_BEST) <= 1e-3
            and abs(threshold - W_THRESHOLD) <= 1e-5
        )
        check(
            "criterion 2 (W reproduction)",
            ok,
            f"best={best:.7f} (ref {W_BEST}), threshold={threshold:.7f} (ref {W_THRESHOLD})",
        )


class TestCriterion3GenuineSweep:
    @pytest.mark.parametrize("cls", D_CLASSES, ids=[c.value for c in D_CLASSES])
    def test_recipe_sweep(self, cls, caplog):
        import logging

        # logging probe: one draw at WARNING level to assert that fallback
        # invocations are logged (and that healthy rows are silent)
        probe_rng = np.random.default_rng(500 + D_CLASSES.index(cls))
        with caplog.at_level(logging.WARNING, logger="hardy3q.hardy"):
            probe = build_witness(
                sample_class(cls, probe_rng), cls, zero_tol=1e-9, seed=0
            )
            probe_logged = sum(
                1 for r in caplog.records if "falling back" in r.getMessage()
            )
            assert probe_logged == int(probe.used_fallback)
        caplog.clear()

        # bulk sweep with the per-draw warnings silenced to keep the report
        # readable; fallback counts come from the construction results
        caplog.set_level(logging.ERROR, logger="hardy3q.hardy")
        rng = np.random.default_rng(1000 + D_CLASSES.index(cls))
        draws = 1000
        fallbacks = 0
        worst_zero = 0.0
        min_p5 = np.inf
        for i in range(draws):
            state = sample_class(cls, rng)
            built = build_witness(state, cls, zero_tol=1e-9, seed=i)
            probs = built.certificate.probabilities
            worst_zero = max(worst_zero, max(probs[:4]))
            min_p5 = min(min_p5, probs[4])
            fallbacks += built.used_fallback
            assert max(probs[:4]) <= 1e-9
            assert probs[4] > 1e-9
            if i % 100 == 0:  # independent-oracle spot check
                oracle = oracle_hardy_probabilities(state.to_ket(), built.settings)
                assert max(oracle[:4]) <= 1e-9
                assert oracle[4] > 1e-9
        ok = fallbacks < draws
        detail = (
            f"{draws} draws, zero-probabilities <= {worst_zero:.2e}, "
            f"min P5 = {min_p5:.2e}, fallbacks = {fallbacks}/{draws} (logged)"
        )
        if fallbacks == draws:
            detail += (
                " -- every draw fell back: the tabulated recipe for this row is "
                "defective (transcription issue); its second Hardy condition is "
                "provably non-zero for all valid parameters"
            )
        check(f"criterion 3 ({cls.value} sweep)", ok, detail)


class TestCriterion4BipartiteSweep:
    @pytest.mark.parametrize("cls", B_CLASSES, ids=[c.value for c in B_CLASSES])
    def test_pair_lift_sweep(self, cls):
        rng = np.random.default_rng(2000 + B_CLASSES.index(cls))
        draws = 1000
        worst_dev = 0.0
        for i in range(draws):
            state = sample_class(cls, rng)
            built = build_witness(state, cls)
            assert built.certificate.satisfied
            psi = state.to_ket()
            _, eta = extract_pair_factorization(psi, PRODUCT_QUBIT[cls])
            a, b = schmidt_decompose(eta).coefficients
            # the product-qubit observable choice halves the pair-level
            # success probability, so P5 = closed_form / 2 exactly
            expected = pair_hardy_probability(a, b) / 2.0
            dev = abs(built.certificate.success_probability - expected)
            worst_dev = max(worst_dev, dev)
            assert dev <= 1e-9
        check(
            f"criterion 4 ({cls.value} sweep)",
            True,
            f"{draws} draws satisfied; max |P5 - closed_form/2| = {worst_dev:.2e}",
        )


class TestCriterion5MaximalPairViolation:
    def test_quoted_settings_exact_value(self):
        state = CanonicalState((INV_SQRT2, 0, 0, INV_SQRT2, 0), 0.0)
        built = build_witness(state)
        report = bell_value(state.to_ket(), built.settings)
        oracle = oracle_hardy_probabilities(state.to_ket(), built.settings)
        oracle_bell = oracle[:4].sum() - oracle[4]
        ok = (
            abs(report.bell_value + 0.0184) <= 1e-12
            and abs(oracle_bell + 0.0184) <= 1e-12
            and not built.certificate.satisfied
        )
        check(
            "criterion 5 (symmetric maximal case)",
            ok,
            f"B={report.bell_value:.17f} (module) / {oracle_bell:.17f} (oracle), "
            f"certificate satisfied={built.certificate.satisfied}",
        )

    @pytest.mark.parametrize("cls", C_CLASSES, ids=[c.value for c in C_CLASSES])
    def test_all_sub_classes_violate(self, cls):
        rng = np.random.default_rng(3000 + C_CLASSES.index(cls))
        worst = -np.inf
        for _ in range(200):
            state = sample_class(cls, rng)
            built = build_witness(state, cls)
            value = bell_value(state.to_ket(), built.settings).bell_value
            worst = max(worst, value)
            assert value < 0
            assert not built.certificate.satisfied
        check(
            f"criterion 5 ({cls.value} violation)",
            True,
            f"200 draws, max B = {worst:.6f} < 0, certificates unsatisfied",
        )


class TestCriterion6LhvOracle:
    def test_enumeration(self):
        minimum, argmins = lhv_minimum()
        pattern = lhv_hardy_pattern_assignments()
        ok = minimum == 0 and len(pattern) == 0
        check(
            "criterion 6 (LHV oracle)",
            ok,
            f"min over 64 assignments = {minimum} (exact), "
            f"Hardy-pattern assignments = {len(pattern)}",
        )


class TestCriterion7AffinityLaw:
    def test_affinity_and_threshold_cross_check(self):
        rng = np.random.default_rng(77)
        worst_aff = 0.0
        for _ in range(100):
            state = sample_class(
                CLASS_ORDER[int(rng.integers(len(CLASS_ORDER)))], rng
            )
            settings = random_settings(rng)
            v = float(rng.uniform(0.0, 1.0))
            pure = bell_value(state.to_ket(), settings).bell_value
            noisy = bell_value(mix_with_white_noise(state, v), settings).bell_value
            dev = abs(noisy - (v * pure + (1 - v) * 0.375))
            worst_aff = max(worst_aff, dev)
            assert dev <= 1e-10
        worst_thr = 0.0
        checked = 0
        for cls in (StateClass.B1, StateClass.D1, StateClass.D8, StateClass.D12):
            for _ in range(10):
                state = sample_class(cls, rng)
                built = build_witness(state, cls)
                value = bell_value(state.to_ket(), built.settings).bell_value
                closed = threshold_visibility(value)
                bisected = threshold_visibility_bisection(
                    state.to_ket(), built.settings
                )
                dev = abs(closed - bisected)
                worst_thr = max(worst_thr, dev)
                checked += 1
                assert dev <= 1e-9
        check(
            "criterion 7 (affinity law)",
            True,
            f"100 noisy triples, max affinity deviation = {worst_aff:.2e}; "
            f"{checked} threshold cross-checks, max deviation = {worst_thr:.2e}",
        )


class TestCriterion8ClassifierSoundness:
    def test_million_draws(self):
        rng = np.random.default_rng(88)
        n_uniform = 800_000
        lams_u = np.abs(rng.standard_normal((n_uniform, 5)))
        lams_u /= np.linalg.norm(lams_u, axis=1, keepdims=True)
        phis_u = rng.uniform(0.0, np.pi, n_uniform)

        per_class = 8000
        targeted = []
        for cls in CLASS_ORDER:
            for _ in range(per_class):
                targeted.append(sample_class(cls, rng))
        lams_t = np.array([s.lams for s in targeted])
        phis_t = np.array([s.phi for s in targeted])

        lams = np.vstack([lams_u, lams_t])
        phis = np.concatenate([phis_u, phis_t])
        codes = classify_batch(lams, phis)  # raises on any gap or overlap
        total = len(codes)
        counts = np.bincount(codes, minlength=len(CLASS_ORDER))
        by_label = {CLASS_ORDER[i].value: int(c) for i, c in enumerate(counts)}
        boundary_labels = {
            "l0*l2 = 1/2": by_label["C.1"],
            "l2*l3 = l1*l4": by_label["D.3"],
            "l0 = l4": by_label["D.7"],
            "det = 0": by_label["A.3"],
            "unitary": by_label["C.3"],
        }
        ok = total == 1_000_000 and all(v >= 1000 for v in boundary_labels.values())
        check(
            "criterion 8 (classifier soundness)",
            ok,
            f"{total} draws, every one matched exactly one row; boundary hits "
            + ", ".join(f"{k}: {v}" for k, v in boundary_labels.items()),
        )


class TestCriterion9ProductNullResult:
    def test_product_states_satisfy_bound(self):
        rng = np.random.default_rng(99)
        a_classes = [StateClass.A1, StateClass.A2, StateClass.A3]
        worst = np.inf
        for i in range(1000):
            state = sample_class(a_classes[i % 3], rng)
            settings = random_settings(rng)
            value = bell_value(state.to_ket(), settings).bell_value
            worst = min(worst, value)
            assert value >= -1e-10
        check(
            "criterion 9 (product-state bound)",
            True,
            f"1000 class-A states with random settings, min B = {worst:.3e} >= -1e-10",
        )

    def test_search_not_found_cases(self, monkeypatch):
        monkeypatch.setattr(hardy, "SEARCH_ATTEMPTS", 100)
        psi_product = np.zeros(8, complex)
        psi_product[0] = 1.0
        found_product = search_hardy_observables(psi_product, seed=0)
        psi_maximal = CanonicalState((INV_SQRT2, 0, 0, INV_SQRT2, 0), 0.0).to_ket()
        found_maximal = search_hardy_observables(psi_maximal, seed=0)
        ok = found_product is None and found_maximal is None
        check(
            "criterion 9 (search null results)",
            ok,
            "search returned not-found for |000> and the symmetric maximal "
            "case at 100 attempts each",
        )
