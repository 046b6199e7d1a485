"""Self-tests of the benchmark's checks.

Run from the root of a checkout:  python3 -m pytest perfbench -q

The contraction must reproduce two values known independently of the
program, and each workload's check must reject a deliberately wrong output
that differs from a correct one by a small amount.
"""

from __future__ import annotations

import copy
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402

hardy3q = pytest.importorskip("hardy3q")
from hardy3q import cli  # noqa: E402

R = 2**-0.5


def test_contraction_gives_ghz_constructive_witness_value():
    # the D.14 recipe at l0 = l4 = 1/sqrt(2): (alpha, beta, gamma, delta) per qubit
    l0 = l4 = R
    rows = ((1, 1, 1j * l0, -l4), (1, 1, 1j * l0, -l4), (l4**2, 1j * l0**2, l4, -l0))
    kets = [(np.array([a, b]), np.array([g, d])) for a, b, g, d in rows]
    probs = checks.five_probabilities(checks.canonical_ket((l0, 0, 0, 0, l4), 0.0), kets)
    assert np.max(probs[:4]) < 1e-15
    assert checks.bell_of(probs) == pytest.approx(-0.125, abs=1e-15)


def test_contraction_gives_fixed_maximal_pair_value():
    # C.2 = (|00> + |11>)|0> / sqrt(2); the fixed pair settings, and the
    # product qubit measured with U+ = |+>, D+ = |1>
    kets = [
        (np.array([np.sqrt(0.96), 0.2]), np.array([1.0, 0.0])),
        (np.array([0.2, np.sqrt(0.96)]), np.array([0.0, 1.0])),
        (np.array([1.0, 1.0]), np.array([0.0, 1.0])),
    ]
    probs = checks.five_probabilities(checks.canonical_ket((R, 0, 0, R, 0), 0.0), kets)
    assert checks.bell_of(probs) == pytest.approx(-0.0184, abs=1e-15)


def test_every_drawn_state_lies_in_its_sub_class():
    rng = np.random.default_rng(7)
    for label in inputs.LABELS:
        lams, phis = inputs.draw(label, rng, 50)
        for lam, phi in zip(lams, phis):
            state = hardy3q.CanonicalState(tuple(lam), float(phi))
            assert hardy3q.classify(state, audit=True).value == label


def _witness_case(label: str, seed: int = 3):
    lams, phis = inputs.draw(label, np.random.default_rng(seed), 1)
    state = hardy3q.CanonicalState(tuple(lams[0]), float(phis[0]))
    built = hardy3q.build_witness(state)
    psi = checks.canonical_ket(lams[0], phis[0])
    bell = hardy3q.bell_value(state.to_ket(), built.settings).bell_value
    kets = [(p.u.plus_ket.copy(), p.d.plus_ket.copy()) for p in built.settings.pairs]
    return dict(
        label=label,
        psi=psi,
        got_label=hardy3q.classify(state).value,
        plus_kets=kets,
        certificate_probabilities=list(built.certificate.probabilities),
        certificate_satisfied=built.certificate.satisfied,
        bell_value=bell,
    ), built


@pytest.mark.parametrize("label", ["B.1", "B.5", "C.3", "D.2", "D.14"])
def test_witness_check_accepts_program_output(label):
    case, _ = _witness_case(label)
    checks.check_witness(**case)


def test_witness_check_rejects_perturbed_u_ket():
    case, _ = _witness_case("D.4")
    u, d = case["plus_kets"][1]
    case["plus_kets"][1] = (u + 1e-4 * checks.perp(u), d)
    with pytest.raises(checks.CheckError):
        checks.check_witness(**case)


def test_witness_check_rejects_wrong_label():
    case, _ = _witness_case("D.11")
    case["got_label"] = "D.10"
    with pytest.raises(checks.CheckError, match="classified"):
        checks.check_witness(**case)


def test_witness_check_rejects_b_class_p5_off_by_1e_6():
    case, _ = _witness_case("B.2")
    case["certificate_probabilities"][4] += 1e-6
    with pytest.raises(checks.CheckError):
        checks.check_witness(**case)


def test_pair_closed_form_rejects_p5_off_by_1e_6():
    case, _ = _witness_case("B.3")
    p5 = checks.pair_success_probability(case["psi"])
    probs = checks.five_probabilities(case["psi"], case["plus_kets"])
    assert probs[4] == pytest.approx(p5, abs=1e-12)
    assert abs(probs[4] + 1e-6 - p5) > checks.ZERO_TOL * 0.1


def test_near_boundary_check_rejects_perturbed_u_ket():
    (label, lams, phi, _), = inputs.near_boundary(np.random.default_rng(5), 1)[:1]
    state = hardy3q.CanonicalState(lams, phi)
    built = hardy3q.build_witness(state)
    kets = [(p.u.plus_ket.copy(), p.d.plus_ket.copy()) for p in built.settings.pairs]
    args = (label, checks.canonical_ket(lams, phi), hardy3q.classify(state).value)
    certificate = (list(built.certificate.probabilities), built.certificate.satisfied, None)
    checks.check_witness(*args, kets, *certificate)
    kets[0] = (kets[0][0] + 1e-4 * checks.perp(kets[0][0]), kets[0][1])
    with pytest.raises(checks.CheckError):
        checks.check_witness(*args, kets, *certificate)


def test_sample_check_rejects_shifted_frequencies():
    probs = np.array([0.0, 0.0, 0.0, 0.0, 0.25])
    checks.check_sample([0.0, 0.0, 0.0, 0.0, 0.2512], probs, 10_000)
    with pytest.raises(checks.CheckError):
        checks.check_sample([0.0, 0.0, 0.0, 0.0, 0.2200], probs, 10_000)
    with pytest.raises(checks.CheckError):
        checks.check_sample([0.0, 0.0, 0.002, 0.0, 0.25], probs, 10_000)


@pytest.fixture(scope="module")
def ghz_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("state") / "ghz.json"
    path.write_text(json.dumps({"lambda": [R, 0, 0, 0, R], "phi": 0.0}))
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(["optimize", str(path), "--starts", "1", "--seed", "0"]) == 0
    return json.loads(buf.getvalue())


GHZ = checks.canonical_ket((R, 0, 0, 0, R), 0.0)


def test_optimize_check_accepts_program_output(ghz_report):
    checks.check_optimize("ghz", GHZ, ghz_report)


def test_optimize_check_rejects_b_min_2e_3_off(ghz_report):
    report = copy.deepcopy(ghz_report)
    opt = report["optimization"]
    opt["best_value"] -= 2e-3
    opt["threshold_visibility"] = 0.375 / (0.375 - opt["best_value"])
    with pytest.raises(checks.CheckError, match="B_min"):
        checks.check_optimize("ghz", GHZ, report)


def test_optimize_check_rejects_perturbed_u_ket(ghz_report):
    # B is stationary at the optimum, so a shift of 1e-3 moves it by about 1e-6
    report = copy.deepcopy(ghz_report)
    report["optimization"]["best_settings"]["pairs"][2]["u_plus"][0][0] += 1e-3
    with pytest.raises(checks.CheckError, match="best settings"):
        checks.check_optimize("ghz", GHZ, report)


def test_label_check_rejects_one_wrong_label():
    lams, phis, expected = inputs.bulk(np.random.default_rng(2), 2000)
    got = hardy3q.classify_batch(lams, phis)
    order = np.array([inputs.LABELS.index(c.value) for c in hardy3q.states.CLASS_ORDER])
    checks.check_labels(order[got], expected, inputs.LABELS)
    wrong = order[got].copy()
    wrong[1234] = (wrong[1234] + 1) % len(inputs.LABELS)
    with pytest.raises(checks.CheckError, match="1 rows mislabelled"):
        checks.check_labels(wrong, expected, inputs.LABELS)
