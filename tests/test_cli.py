"""End-to-end tests for the command-line interface."""

import contextlib
import dataclasses
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings as hyp_settings, strategies as st

from hardy3q import cli
from hardy3q.bell import VIOLATION_CUTOFF
from hardy3q.cli import (
    EXIT_CONSTRUCTION,
    EXIT_EXPECTATION,
    EXIT_FORM,
    EXIT_GAP,
    EXIT_OK,
    EXIT_PARSE,
    MAX_GRID_POINTS,
    MAX_STARTS,
    CliError,
    _parse_grid,
    main,
)

INV_SQRT2 = 2**-0.5


def write_state(tmp_path, payload, name="state.json"):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def ghz_file(tmp_path):
    return write_state(
        tmp_path, {"lambda": [INV_SQRT2, 0, 0, 0, INV_SQRT2], "phi": 0.0, "label": "ghz"}
    )


def w_amplitudes_file(tmp_path):
    s = 3**-0.5
    amps = [[0.0, 0.0]] * 8
    amps = [list(pair) for pair in amps]
    for idx in (1, 2, 4):
        amps[idx] = [s, 0.0]
    return write_state(tmp_path, {"amplitudes": amps, "label": "w"})


def assert_rejected(capsys, argv, code=EXIT_PARSE):
    """The command exits with ``code``, prints no report and a JSON error."""
    got, report, err = run(capsys, argv)
    assert got == code
    assert report is None
    assert json.loads(err)["exit_code"] == code
    return json.loads(err)["error"]


#: an entangled GHZ-type state, smallest amplitude 3e-5, for which neither the
#: recipe nor the search finds settings with P5 > 1e-9
FOUND_GHZ = {"lambda": [3e-05, 0, 0, 0, 0.99999999955], "phi": 0.0}

#: json writes and reads the float NaN as the bare token NaN
NAN_AMPLITUDES = {"amplitudes": [[float("nan"), 0.0]] + [[0.0, 0.0]] * 7}


class TestClassify:
    def test_ghz(self, tmp_path, capsys):
        code, report, _ = run(capsys, ["classify", ghz_file(tmp_path)])
        assert code == EXIT_OK
        assert report["class"] == "D.14"
        assert report["label"] == "ghz"

    def test_product(self, tmp_path, capsys):
        path = write_state(tmp_path, {"lambda": [1, 0, 0, 0, 0], "phi": 0.0})
        code, report, _ = run(capsys, ["classify", path])
        assert code == EXIT_OK
        assert report["class"] == "A.2"

    def test_amplitudes_form_rejected(self, tmp_path, capsys):
        code, _, err = run(capsys, ["classify", w_amplitudes_file(tmp_path)])
        assert code == EXIT_FORM
        assert "canonical" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, _ = run(capsys, ["classify", str(path)])
        assert code == EXIT_PARSE

    def test_both_forms_rejected(self, tmp_path, capsys):
        path = write_state(
            tmp_path,
            {"lambda": [1, 0, 0, 0, 0], "amplitudes": [[1.0, 0.0]] * 8},
        )
        code, _, _ = run(capsys, ["classify", path])
        assert code == EXIT_PARSE

    def test_unnormalized_needs_flag(self, tmp_path, capsys):
        path = write_state(tmp_path, {"lambda": [1, 1, 0, 0, 0], "phi": 0.0})
        code, _, _ = run(capsys, ["classify", path])
        assert code == EXIT_PARSE
        code, report, _ = run(capsys, ["classify", path, "--normalize"])
        assert code == EXIT_OK
        assert report["normalization_factor"] == pytest.approx(np.sqrt(2))
        assert report["class"] == "A.1"

    @pytest.mark.parametrize("eps", ["-1", "nan", "0", "inf"])
    def test_bad_eps_exit_parse(self, tmp_path, capsys, eps):
        assert "--eps" in assert_rejected(capsys, ["classify", ghz_file(tmp_path), "--eps", eps])

    def test_overlap_exit_gap(self, tmp_path, capsys):
        # at eps = 0.6 the maximal pair is both singular (A.3) and unitary (C.3)
        path = write_state(tmp_path, {"lambda": [0, INV_SQRT2, 0, 0, INV_SQRT2], "phi": 0.0})
        error = assert_rejected(capsys, ["classify", path, "--eps", "0.6"], code=EXIT_GAP)
        assert "A.3" in error and "C.3" in error

    @pytest.mark.parametrize("flags", [[], ["--normalize"]], ids=["plain", "normalize"])
    def test_non_finite_amplitudes_exit_parse(self, tmp_path, capsys, flags):
        path = write_state(tmp_path, NAN_AMPLITUDES)
        error = assert_rejected(capsys, ["optimize", path, "--starts", "1"] + flags)
        assert "finite" in error

    def test_non_finite_lambda_with_normalize_exit_parse(self, tmp_path, capsys):
        path = write_state(tmp_path, {"lambda": [float("nan"), 0, 0, 0, 1]})
        error = assert_rejected(capsys, ["classify", path, "--normalize"])
        assert "finite" in error


class TestWitness:
    def test_ghz(self, tmp_path, capsys):
        code, report, _ = run(capsys, ["witness", ghz_file(tmp_path)])
        assert code == EXIT_OK
        assert report["class"] == "D.14"
        assert report["certificate"]["satisfied"] is True
        assert report["bell"]["bell_value"] < 0
        assert report["expectation_met"] is True

    def test_w_canonical_file(self, tmp_path, capsys):
        s = 3**-0.5
        path = write_state(tmp_path, {"lambda": [s, 0, s, s, 0], "phi": 0.0})
        code, report, _ = run(capsys, ["witness", path])
        assert code == EXIT_OK
        assert report["class"] == "D.12"
        assert report["certificate"]["satisfied"] is True
        assert report["bell"]["bell_value"] < 0

    def test_c_class_unsatisfied_but_violating(self, tmp_path, capsys):
        path = write_state(
            tmp_path, {"lambda": [INV_SQRT2, 0, 0, INV_SQRT2, 0], "phi": 0.0}
        )
        code, report, _ = run(capsys, ["witness", path])
        assert code == EXIT_OK
        assert report["class"] == "C.2"
        assert report["certificate"]["satisfied"] is False
        assert report["bell"]["bell_value"] == pytest.approx(-0.0184, abs=1e-12)
        assert report["expectation_met"] is True

    def test_c1_file_same_violation(self, tmp_path, capsys):
        path = write_state(
            tmp_path, {"lambda": [INV_SQRT2, 0, INV_SQRT2, 0, 0], "phi": 0.0}
        )
        code, report, _ = run(capsys, ["witness", path])
        assert code == EXIT_OK
        assert report["class"] == "C.1"
        assert report["bell"]["bell_value"] == pytest.approx(-0.0184, abs=1e-12)

    def test_expectation_mismatch_exit_code(self, tmp_path, capsys, monkeypatch):
        # force an unsatisfied certificate on a D-class state to exercise
        # the mismatch path
        import hardy3q.cli as cli_mod
        from hardy3q.hardy import HardyCertificate, WitnessConstruction, build_witness

        real = build_witness

        def sabotaged(state, cls=None, **kw):
            built = real(state, cls, **kw)
            cert = HardyCertificate(
                settings=built.settings,
                probabilities=built.certificate.probabilities,
                satisfied=False,
                zero_tolerance=built.certificate.zero_tolerance,
            )
            return WitnessConstruction(
                certificate=cert,
                state_class=built.state_class,
                used_fallback=built.used_fallback,
            )

        monkeypatch.setattr(cli_mod, "build_witness", sabotaged)
        code, report, _ = run(capsys, ["witness", ghz_file(tmp_path)])
        assert code == EXIT_EXPECTATION
        assert report["expectation_met"] is False

    def test_b_inside_local_bound_is_no_violation(self, tmp_path, capsys, monkeypatch):
        # B = -5e-13 is negative but above VIOLATION_CUTOFF: the report calls
        # the local bound satisfied, so the expected violation is missing
        real = cli.bell_value
        value = -5e-13

        def barely_negative(state, settings):
            report = real(state, settings)
            return dataclasses.replace(
                report, bell_value=value, lhv_bound_satisfied=value >= VIOLATION_CUTOFF
            )

        monkeypatch.setattr(cli, "bell_value", barely_negative)
        code, report, _ = run(capsys, ["witness", ghz_file(tmp_path)])
        assert report["certificate"]["satisfied"] is True
        assert report["bell"]["bell_value"] == value
        assert report["bell"]["lhv_bound_satisfied"] is True
        assert report["expectation_met"] is False
        assert code == EXIT_EXPECTATION

    def test_construction_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        import hardy3q.cli as cli_mod
        from hardy3q.errors import ConstructionFailureError

        def broken(*args, **kw):
            raise ConstructionFailureError("forced failure")

        monkeypatch.setattr(cli_mod, "build_witness", broken)
        code, _, err = run(capsys, ["witness", ghz_file(tmp_path)])
        assert code == EXIT_CONSTRUCTION
        assert "forced failure" in err

    def test_product_state_flagged(self, tmp_path, capsys):
        path = write_state(tmp_path, {"lambda": [1, 0, 0, 0, 0], "phi": 0.0})
        code, report, _ = run(capsys, ["witness", path])
        assert code == EXIT_OK
        assert report["witness"] is None
        assert "no witness" in report["note"]

    def test_amplitudes_form_rejected(self, tmp_path, capsys):
        code, _, _ = run(capsys, ["witness", w_amplitudes_file(tmp_path)])
        assert code == EXIT_FORM

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "1"])
    def test_bad_tol_rejected_before_construction(self, tmp_path, capsys, monkeypatch, tol):
        import hardy3q.cli as cli_mod

        def unreachable(*args, **kw):
            raise AssertionError("build_witness ran despite an invalid --tol")

        monkeypatch.setattr(cli_mod, "build_witness", unreachable)
        error = assert_rejected(capsys, ["witness", ghz_file(tmp_path), "--tol", tol])
        assert "--tol" in error

    def test_found_ghz_state_exits_construction(self, tmp_path, capsys):
        # the error names the failed recipe candidate and how each of the
        # search's 40 attempts ended
        path = write_state(tmp_path, FOUND_GHZ)
        got, report, err = run(capsys, ["witness", path])
        assert (got, report) == (EXIT_CONSTRUCTION, None)
        error = json.loads(err)
        assert error["exit_code"] == EXIT_CONSTRUCTION
        assert "no valid witness" in error["error"]
        diagnostics = error["diagnostics"]
        assert diagnostics["class"] == "D.14"
        assert diagnostics["failures"][0].startswith("candidate 0: ")
        assert diagnostics["search"]["attempts"] == 40
        outcomes = diagnostics["search"]["outcomes"]
        assert sum(outcomes.values()) == 40 and all(n > 0 for n in outcomes.values())

    def test_label_contradicting_pair_exits_construction_after_the_search(self, tmp_path, capsys):
        # a C.3 state with sub-CLASS_EPS entries added, labelled B.5: the B
        # recipe's candidate commutes on the maximally entangled pair and
        # fails the window check, and the search runs before the command exits 6
        lams = np.array([1.519e-10, 0.70710678, 2.99e-11, 7.60e-10, 0.70710678])
        path = write_state(
            tmp_path, {"lambda": (lams / np.linalg.norm(lams)).tolist(), "phi": 0.6555}
        )
        got, _, err = run(capsys, ["witness", path])
        assert got == EXIT_CONSTRUCTION
        diagnostics = json.loads(err)["diagnostics"]
        assert diagnostics["class"] == "B.5"
        (failure,) = diagnostics["failures"]
        assert failure.startswith("candidate 0: pair 1: |<U+|D+>| = 1.000000e+00")
        assert sum(diagnostics["search"]["outcomes"].values()) == 40

    def test_too_weak_pair_exits_construction(self, tmp_path, capsys):
        # B.3 with l2 = 3e-5: neither the pair lift nor the search reaches P5 > 1e-9
        path = write_state(tmp_path, {"lambda": [(1 - 9e-10) ** 0.5, 0, 3e-5, 0, 0], "phi": 0.0})
        got, report, err = run(capsys, ["witness", path])
        assert got == EXIT_CONSTRUCTION
        assert report is None
        assert "Traceback" not in err
        assert json.loads(err)["exit_code"] == EXIT_CONSTRUCTION
        assert "no valid witness for class B.3" in json.loads(err)["error"]


class TestOptimize:
    def test_product_state_no_violation(self, tmp_path, capsys):
        path = write_state(tmp_path, {"lambda": [1, 0, 0, 0, 0], "phi": 0.0})
        code, report, _ = run(
            capsys, ["optimize", path, "--starts", "4", "--seed", "0"]
        )
        assert code == EXIT_OK
        assert report["note"] == "no violation found"
        assert report["optimization"]["threshold_visibility"] is None

    def test_ghz_small_run(self, tmp_path, capsys):
        code, report, _ = run(
            capsys, ["optimize", ghz_file(tmp_path), "--starts", "8", "--seed", "0"]
        )
        assert code == EXIT_OK
        opt = report["optimization"]
        assert opt["best_value"] < -0.17
        assert 0.0 < opt["threshold_visibility"] < 1.0

    def test_defaults_are_minimize_bells(self):
        defaults = inspect.signature(cli.minimize_bell).parameters
        args = cli.build_parser().parse_args(["optimize", "state.json"])
        assert args.starts == defaults["starts"].default
        assert args.tol == defaults["tol"].default

    def test_amplitudes_form_accepted(self, tmp_path, capsys):
        code, report, _ = run(
            capsys,
            ["optimize", w_amplitudes_file(tmp_path), "--starts", "4", "--seed", "0"],
        )
        assert code == EXIT_OK
        assert report["optimization"]["best_value"] < 0

    def test_deterministic(self, tmp_path, capsys):
        argv = ["optimize", ghz_file(tmp_path), "--starts", "4", "--seed", "9"]
        _, a, _ = run(capsys, argv)
        _, b, _ = run(capsys, argv)
        assert a == b

    def test_reports_starts_at_best(self, tmp_path, capsys):
        code, report, _ = run(
            capsys, ["optimize", ghz_file(tmp_path), "--starts", "8", "--seed", "0"]
        )
        assert code == EXIT_OK
        assert 1 <= report["optimization"]["starts_at_best"] <= 8

    @pytest.mark.parametrize(
        "flags",
        [["--starts", "0"], ["--tol", "0"], ["--tol", "-1"], ["--tol", "nan"]],
        ids=["starts0", "tol0", "tol-1", "tolnan"],
    )
    def test_bad_optimizer_arguments_exit_parse(self, tmp_path, capsys, flags):
        code, report, err = run(capsys, ["optimize", ghz_file(tmp_path)] + flags)
        assert code == EXIT_PARSE
        assert report is None
        assert json.loads(err)["exit_code"] == EXIT_PARSE


    @pytest.mark.parametrize("command", ["optimize", "scan"])
    def test_starts_above_bound_rejected_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        def must_not_run(*args, **kwargs):
            raise AssertionError("minimize_bell ran")

        monkeypatch.setattr(cli, "minimize_bell", must_not_run)
        if command == "optimize":
            argv = ["optimize", ghz_file(tmp_path)]
        else:
            argv = ["scan", "--family", "ghz", "--grid", "t=0.5:0.5:1", "--optimize"]
        error = assert_rejected(capsys, argv + ["--starts", str(MAX_STARTS + 1)])
        assert str(MAX_STARTS) in error

    def test_report_keys(self, tmp_path, capsys):
        _, report, _ = run(capsys, ["optimize", ghz_file(tmp_path), "--starts", "2"])
        assert set(report["optimization"]) == {
            "best_value",
            "threshold_visibility",
            "violation_found",
            "starts",
            "starts_at_best",
            "converged",
            "seed",
            "best_settings",
        }


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--starts", "abc"],
            ["--starts", "1.5"],
            ["--seed", "nan"],
            ["--tol", "x"],
            ["--bogus"],
            ["--starts"],
        ],
    )
    def test_bad_flags_exit_parse_with_json(self, tmp_path, capsys, flags):
        error = assert_rejected(capsys, ["optimize", ghz_file(tmp_path)] + flags)
        assert error.startswith("hardy3q")

    @pytest.mark.parametrize("argv", [[], ["frobnicate"], ["witness"], ["scan"]])
    def test_bad_commands_exit_parse_with_json(self, capsys, argv):
        assert_rejected(capsys, argv)

    @pytest.mark.parametrize(
        "payload",
        [
            {"lambda": [0.0, 0.0, 0.0, 0.0, 1.0], "phi": None},
            {"lambda": [[1.0], 0, 0, 0, 0]},
            {"lambda": [10**400, 0, 0, 0, 0]},
            {"amplitudes": [{"re": 1}] * 8},
            {"amplitudes": [[10**400, 0]] * 8},
            {"lambda": [True, 0, 0, 0, 0]},
            {"lambda": [1, 0, 0, 0, 0], "phi": "0.0"},
            {"lambda": [1, 0, 0, 0, 0], "phi": True},
            {"amplitudes": [[1, 0, 99]] + [[0, 0]] * 7},
            {"amplitudes": ["10"] + ["00"] * 7},
            {"amplitudes": [["NaN", 0.0]] + [[0.0, 0.0]] * 7},
            {"lambda": [1, 0, 0, 0, 0], "x": float("nan")},
            '{"lambda": [1, 0, 0, 0, 0], "note": 1e400}',
        ],
        ids=[
            "phi-null", "nested-lambda", "huge-lambda", "dict-pair", "huge-amplitude",
            "bool-lambda", "string-phi", "bool-phi", "amplitude-triple", "amplitude-strings",
            "nan-string", "nan-literal-extra-key", "overflowing-float-extra-key",
        ],
    )
    def test_ill_typed_state_values_exit_parse(self, tmp_path, capsys, payload):
        # only JSON numbers (int or float, never bool) are numbers, and each
        # amplitude is a list of exactly two; a non-finite constant anywhere in
        # the file is refused, since the report echoes the file as JSON
        assert_rejected(capsys, ["optimize", write_state(tmp_path, payload)])

    @pytest.mark.parametrize(
        "payload",
        [{"lambda": [1e200, 0, 0, 0, 1e200]}, {"amplitudes": [[1e200, 0]] * 8}],
        ids=["lambda", "amplitudes"],
    )
    def test_overflowing_norm_exits_parse_without_warning(self, tmp_path, capsys, payload):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            error = assert_rejected(
                capsys, ["optimize", write_state(tmp_path, payload), "--normalize"]
            )
        assert "norm inf" in error

    def test_help_is_left_to_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--help"])
        assert exc.value.code == 0
        assert "usage: hardy3q optimize" in capsys.readouterr().out


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=9) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=20,
)
NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 0.5, 2**-0.5, 3**-0.5, 1.0]),
)
STATE_OBJECTS = st.one_of(
    st.dictionaries(
        st.sampled_from(["lambda", "amplitudes", "phi", "label", "x"]), JSON_VALUES, max_size=4
    ),
    st.fixed_dictionaries(
        {"lambda": st.lists(NUMBERS, min_size=4, max_size=6)},
        optional={"phi": JSON_VALUES, "label": JSON_VALUES},
    ),
    st.fixed_dictionaries(
        {"amplitudes": st.lists(st.lists(NUMBERS, min_size=1, max_size=3), min_size=7, max_size=9)}
    ),
    st.sampled_from(
        [
            {"lambda": [INV_SQRT2, 0, 0, 0, INV_SQRT2], "phi": 0.0},
            {"lambda": [1, 0, 0, 0, 0]},
            {"amplitudes": [[0, 0], [1, 0], [1, 0], [0, 0], [1, 0], [0, 0], [0, 0], [0, 0]]},
        ]
    ),
)
FLAG_VALUES = {
    "--starts": st.one_of(st.integers(-3, 3).map(str), st.text(max_size=6)),
    "--tol": st.one_of(
        st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-10", "1e-3", "abc"]),
        st.floats(-1.0, 1.0).map(repr),
    ),
    "--seed": st.one_of(
        st.sampled_from(["nan", "inf", "-1", "-7", "1.5"]),
        st.integers(-(2**40), 2**40).map(str),
    ),
}


SAMPLE_FLAG_VALUES = {
    "--shots": st.one_of(
        st.integers(-3, 200).map(str),
        st.sampled_from([str(2**63 - 1), str(2**63), str(10**23), "nan", "1e3", "abc"]),
        st.integers(-(2**80), 2**80).map(str),
        st.text(max_size=6),
    ),
    "--seed": FLAG_VALUES["--seed"],
}
#: half of the sampled states are entangled canonical states, so that the
#: flags reach the sampler
SAMPLE_STATES = st.one_of(
    st.sampled_from(
        [
            {"lambda": [INV_SQRT2, 0, 0, 0, INV_SQRT2], "phi": 0.0},
            {"lambda": [3**-0.5, 0, 3**-0.5, 3**-0.5, 0], "phi": 0.0},
            {"lambda": [0.6, 0, 0.8, 0, 0], "phi": 0.0},
        ]
    ),
    STATE_OBJECTS,
)
GRID_NUMBERS = st.one_of(
    st.sampled_from(["0", "0.5", "1.5707963", "-1", "x", ""]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
GRID_STEPS = st.one_of(
    st.sampled_from(["1", "2", "3"]),
    st.integers(-3, 0).map(str),
    st.integers(10**6 + 1, 2**80).map(str),
    st.sampled_from(["1.5", "nan", "", "abc"]),
)
GRID_SPECS = st.one_of(
    st.tuples(
        st.just("t"),
        st.sampled_from(["0", "0.5", "1.5707963"]),
        st.sampled_from(["0.5", "1", "-1"]),
        GRID_STEPS,
    ),
    st.tuples(st.sampled_from(["t", "x", " t"]), GRID_NUMBERS, GRID_NUMBERS, GRID_STEPS),
).map(lambda p: f"{p[0]}={p[1]}:{p[2]}:{p[3]}") | st.text(max_size=12)


WITNESS_FLAG_VALUES = {
    "--tol": st.one_of(FLAG_VALUES["--tol"], st.sampled_from(["1", "2", "1e300"])),
    "--seed": FLAG_VALUES["--seed"],
}
CLASSIFY_FLAG_VALUES = {
    "--eps": st.one_of(
        st.sampled_from(["nan", "inf", "-inf", "0", "-1", "-1e-9", "1e300", "abc", "", "1e-9", "0.6"]),
        st.floats().map(repr),
    ),
}


def fuzz_main(argv, state=None):
    """Run ``main(argv)``, with a file holding ``state`` appended when given.

    Asserts the CLI contract for any input: a documented exit code, and a
    stderr that is empty or one JSON object (a warning there fails).
    Returns the exit code and stdout.
    """
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if state is not None:
            argv = argv + [os.path.join(tmp, "state.json")]
            with open(argv[-1], "w", encoding="utf-8") as fh:
                json.dump(state, fh)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
    assert code in {0, 2, 3, 4, 5, 6}
    if err.getvalue():
        assert isinstance(json.loads(err.getvalue()), dict)
    return code, out.getvalue()


def flag_pairs(values):
    """Up to three (flag, text) pairs drawn from ``values``."""
    return st.lists(st.sampled_from(sorted(values)), max_size=3).flatmap(
        lambda names: st.tuples(*(st.tuples(st.just(n), values[n]) for n in names))
    )


class TestOptimizeFuzz:
    """Exit codes and JSON errors of every state command and ``scan`` on fuzzed input."""

    @hyp_settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(STATE_OBJECTS, flag_pairs(FLAG_VALUES), st.booleans())
    def test_exit_codes_and_json_errors(self, state, flags, normalize):
        argv = ["optimize"] + [token for pair in flags for token in pair]
        argv += ["--normalize"] if normalize else []
        if not any(name == "--starts" for name, _ in flags):
            argv += ["--starts", "1"]  # keep each run short
        code, out = fuzz_main(argv, state)
        if code == EXIT_OK:
            assert json.loads(out)["command"] == "optimize"

    @hyp_settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(SAMPLE_STATES, flag_pairs(SAMPLE_FLAG_VALUES), st.booleans())
    def test_sample_exit_codes_and_json_errors(self, state, flags, normalize):
        argv = ["sample"] + [token for pair in flags for token in pair]
        argv += ["--normalize"] if normalize else []
        code, out = fuzz_main(argv, state)
        if code == EXIT_OK:
            assert json.loads(out)["command"] == "sample"

    # a weakly entangled state can reach the fallback search (about 0.3 s)
    @hyp_settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(SAMPLE_STATES, flag_pairs(WITNESS_FLAG_VALUES), st.booleans())
    def test_witness_exit_codes_and_json_errors(self, state, flags, normalize):
        argv = ["witness"] + [token for pair in flags for token in pair]
        argv += ["--normalize"] if normalize else []
        code, out = fuzz_main(argv, state)
        if code in (EXIT_OK, EXIT_EXPECTATION):
            assert json.loads(out)["command"] == "witness"

    @hyp_settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(SAMPLE_STATES, flag_pairs(CLASSIFY_FLAG_VALUES), st.booleans())
    def test_classify_exit_codes_and_json_errors(self, state, flags, normalize):
        argv = ["classify"] + [token for pair in flags for token in pair]
        argv += ["--normalize"] if normalize else []
        code, out = fuzz_main(argv, state)
        if code == EXIT_OK:
            assert json.loads(out)["command"] == "classify"

    @hyp_settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        st.sampled_from(["ghz", "w", "pair13", "pair12", "nope"]),
        GRID_SPECS.map(lambda g: [g]) | st.lists(GRID_SPECS, min_size=2, max_size=2),
        st.one_of(st.none(), FLAG_VALUES["--seed"]),
        st.sampled_from([[], ["--optimize", "--starts", "1"], ["--optimize", "--starts", "0"]]),
    )
    def test_scan_exit_codes_and_json_errors(self, family, grids, seed, optimize):
        argv = ["scan", "--family", family] + [t for g in grids for t in ("--grid", g)]
        argv += [] if seed is None else ["--seed", seed]
        code, out = fuzz_main(argv + optimize)
        if code == EXIT_OK:
            assert all(json.loads(line)["family"] == family for line in out.splitlines())


class TestLhv:
    def test_summary(self, capsys):
        code, report, _ = run(capsys, ["lhv"])
        assert code == EXIT_OK
        assert report["minimum"] == 0
        assert report["hardy_pattern_possible"] is False
        assert report["assignment_count"] == 64

    def test_verbose_lists_assignments(self, capsys):
        code, report, _ = run(capsys, ["lhv", "--verbose"])
        assert code == EXIT_OK
        assert len(report["assignments"]) == 64
        assert min(a["bell_value"] for a in report["assignments"]) == 0

    def test_stable_across_runs(self, capsys):
        _, a, _ = run(capsys, ["lhv", "--verbose"])
        _, b, _ = run(capsys, ["lhv", "--verbose"])
        assert a == b


class TestSample:
    def test_ghz_zero_terms(self, tmp_path, capsys):
        code, report, _ = run(
            capsys,
            ["sample", ghz_file(tmp_path), "--shots", "20000", "--seed", "5"],
        )
        assert code == EXIT_OK
        freqs = report["sample"]["frequencies"]
        assert freqs[:4] == [0.0, 0.0, 0.0, 0.0]
        assert freqs[4] > 0.0

    def test_deterministic(self, tmp_path, capsys):
        argv = ["sample", ghz_file(tmp_path), "--shots", "1000", "--seed", "2"]
        _, a, _ = run(capsys, argv)
        _, b, _ = run(capsys, argv)
        assert a == b

    def test_product_state_flagged(self, tmp_path, capsys):
        path = write_state(tmp_path, {"lambda": [1, 0, 0, 0, 0], "phi": 0.0})
        code, report, _ = run(capsys, ["sample", path])
        assert code == EXIT_OK
        assert report["sample"] is None
        assert "no witness" in report["note"]

    def test_amplitudes_form_rejected(self, tmp_path, capsys):
        code, _, _ = run(capsys, ["sample", w_amplitudes_file(tmp_path)])
        assert code == EXIT_FORM

    @pytest.mark.parametrize("shots", ["0", "-5"])
    def test_bad_shots_exit_parse(self, tmp_path, capsys, shots):
        error = assert_rejected(capsys, ["sample", ghz_file(tmp_path), "--shots", shots])
        assert "--shots" in error

    @pytest.mark.parametrize("shots", [str(2**63), "100000000000000000000000"])
    def test_shots_beyond_int64_exit_parse(self, tmp_path, capsys, shots):
        error = assert_rejected(capsys, ["sample", ghz_file(tmp_path), "--shots", shots])
        assert "--shots" in error

    def test_shots_at_int64_limit(self, tmp_path, capsys):
        code, report, _ = run(capsys, ["sample", ghz_file(tmp_path), "--shots", str(2**63 - 1)])
        assert code == EXIT_OK
        assert report["sample"]["shots"] == 2**63 - 1


def scan_records(capsys, family, grid, *flags):
    """The records ``scan`` prints for one family and one ``--grid`` spec."""
    code = main(["scan", "--family", family, "--grid", grid, *flags])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    return [json.loads(line) for line in out.splitlines()]


class TestScan:
    def test_grid_points(self, capsys):
        records = scan_records(capsys, "ghz", "t=0:1:3")
        assert [r["parameters"] for r in records] == [{"t": 0.0}, {"t": 0.5}, {"t": 1.0}]

    def test_ghz_family_interior_violates(self, capsys):
        records = scan_records(capsys, "ghz", f"t=0.1:{np.pi / 2 - 0.1}:7")
        assert len(records) == 7
        for record in records:
            assert record["class"] == "D.14"
            assert record["witness"]["certificate"]["satisfied"]
            assert record["witness"]["bell"]["bell_value"] < 0

    def test_ghz_family_endpoint_is_product(self, capsys):
        records = scan_records(capsys, "ghz", "t=0:0:1")
        assert records[0]["class"] == "A.2"
        assert records[0]["witness"] is None
        assert records[0]["note"] == "no witness: fully product state"

    def test_pair13_family_crosses_maximal_point(self, capsys):
        # t = pi/4 is the maximally entangled pair: still violates, without Hardy
        (record,) = scan_records(capsys, "pair13", f"t={np.pi / 4}:{np.pi / 4}:1")
        assert record["class"] == "C.1"
        assert not record["witness"]["certificate"]["satisfied"]
        assert record["witness"]["bell"]["bell_value"] == pytest.approx(-0.0184, abs=1e-12)

    def test_errors_propagate_per_point(self, capsys):
        # negative amplitudes at t < 0 make the family constructor fail
        records = scan_records(capsys, "ghz", "t=-0.5:-0.5:1")
        assert "error" in records[0]

    def test_optimize_flag_adds_threshold(self, capsys):
        grid = f"t={np.pi / 4}:{np.pi / 4}:1"
        (record,) = scan_records(capsys, "ghz", grid, "--optimize", "--starts", "8")
        assert record["optimized"]["best_value"] < 0
        assert 0 < record["optimized"]["threshold_visibility"] < 1

    def test_ghz_line_records(self, capsys):
        code = main(["scan", "--family", "ghz", "--grid", "t=0.2:1.2:5"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 5
        for r in records:
            assert r["family"] == "ghz"
            assert r["class"] == "D.14"
            assert r["witness"]["bell"]["bell_value"] < 0

    def test_unknown_family(self, capsys):
        code = main(["scan", "--family", "nope", "--grid", "t=0:1:2"])
        assert code == EXIT_PARSE

    def test_bad_grid_spec(self, capsys):
        code = main(["scan", "--family", "ghz", "--grid", "t=0..1"])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize(
        "grid", ["t=0:1:0", "t=0:1:-2", "t=nan:1:2", "t=0:inf:2", "t=-1e308:1e308:3"]
    )
    def test_bad_grid_values_exit_parse(self, capsys, grid):
        assert_rejected(capsys, ["scan", "--family", "ghz", "--grid", grid])

    @pytest.mark.parametrize(
        "grids",
        [
            [f"t=0:1:{MAX_GRID_POINTS + 1}"],
            ["t=0:1:100000000000"],
            [f"t=0:1:{2**80}"],
        ],
    )
    def test_grid_point_limit_in_parse_grid(self, grids):
        with pytest.raises(CliError) as exc:
            _parse_grid(grids)
        assert exc.value.code == EXIT_PARSE

    def test_huge_grid_rejected_before_allocation(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("grid axis allocated")

        monkeypatch.setattr(cli.np, "linspace", refuse)
        error = assert_rejected(capsys, ["scan", "--family", "ghz", "--grid", "t=0:1:100000000000"])
        assert str(MAX_GRID_POINTS) in error

    @pytest.mark.parametrize(
        "grids", [["x=0:1:2"], ["t=0:1:2", "t=0:1:2"], ["t=0:1:2", "s=0:1:2"]]
    )
    def test_axes_must_name_family_parameters(self, capsys, grids):
        argv = ["scan", "--family", "ghz"] + [t for g in grids for t in ("--grid", g)]
        error = assert_rejected(capsys, argv)
        assert "'t'" in error

    def test_optimize_with_zero_starts(self, capsys):
        argv = ["scan", "--family", "ghz", "--grid", "t=0.5:0.5:1", "--optimize", "--starts", "0"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert json.loads(captured.err)["exit_code"] == EXIT_PARSE


#: scan points shared with the state-file commands: GHZ, the C.1 point of
#: pair13 and the product endpoint of the GHZ family
SHARED_POINTS = [("ghz", np.pi / 4), ("pair13", np.pi / 4), ("ghz", 0.0)]


class TestSharedRecords:
    """``witness``, ``sample`` and ``scan`` print one witness record, and
    ``optimize`` and ``scan --optimize`` one optimization record."""

    @pytest.mark.parametrize("family,t", SHARED_POINTS, ids=["ghz", "pair13-C.1", "ghz-product"])
    def test_records_match_across_commands(self, tmp_path, capsys, family, t):
        state = cli.FAMILIES[family](t)
        path = write_state(tmp_path, {"lambda": list(state.lams), "phi": state.phi})
        seed = ["--seed", "3"]
        code, witness, _ = run(capsys, ["witness", path, *seed])
        assert code == EXIT_OK
        _, sample, _ = run(capsys, ["sample", path, "--shots", "1000", *seed])
        _, optimize, _ = run(capsys, ["optimize", path, "--starts", "8", *seed])
        (point,) = scan_records(capsys, family, f"t={t}:{t}:1", "--optimize", "--starts", "8", *seed)

        product = witness["class"].startswith("A.")
        keys = ["witness", "note"] if product else ["certificate", "bell", "used_fallback", "note"]
        record = {key: witness[key] for key in keys}
        assert {key: sample[key] for key in keys} == record
        assert set(sample) - set(witness) == {"sample"}
        assert set(witness) - set(sample) == {"expectation_met"}
        assert (sample["sample"] is None) == product
        if product:
            assert {key: point[key] for key in keys} == record
        else:
            assert point["witness"] == record
        assert point["class"] == witness["class"]
        assert point["optimized"] == optimize["optimization"]


def test_cli_import_skips_scipy_optimize():
    # no scipy module is loaded, not even by a witness that falls back to the search
    code = (
        "import sys, hardy3q.cli\n"
        "from hardy3q import CanonicalState, build_witness\n"
        "lams = (1.8934886471581971e-06, 0.5699086041234884, 0.5530539525508347,\n"
        "        0.4079416872214782, 0.4504654130310388)\n"
        "assert build_witness(CanonicalState(lams, 0.22468093746170578)).used_fallback\n"
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


class TestReportRoundTrip:
    def test_serialization_round_trips(self, tmp_path, capsys):
        code, report, _ = run(capsys, ["witness", ghz_file(tmp_path)])
        assert code == EXIT_OK
        assert json.loads(json.dumps(report)) == report

    def test_input_echoed_verbatim(self, tmp_path, capsys):
        payload = {"lambda": [INV_SQRT2, 0, 0, 0, INV_SQRT2], "phi": 0.0, "label": "g"}
        path = write_state(tmp_path, payload)
        _, report, _ = run(capsys, ["classify", path])
        assert report["input"] == payload

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        import io

        payload = json.dumps({"lambda": [1, 0, 0, 0, 0], "phi": 0.0})
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, report, _ = run(capsys, ["classify", "-"])
        assert code == EXIT_OK
        assert report["class"] == "A.2"

    def test_version_field_present(self, tmp_path, capsys):
        _, report, _ = run(capsys, ["classify", ghz_file(tmp_path)])
        from hardy3q import __version__

        assert report["version"] == __version__


def test_fallback_warning_stays_off_cli_stderr(tmp_path):
    # the recipe fails and the search runs, which logs a warning; stderr must
    # still hold the one JSON error
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "hardy3q.cli", "witness", write_state(tmp_path, FOUND_GHZ)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert out.returncode == EXIT_CONSTRUCTION
    assert json.loads(out.stderr)["exit_code"] == EXIT_CONSTRUCTION


class TestSeeds:
    @pytest.mark.parametrize(
        "command",
        [["witness"], ["optimize", "--starts", "1"], ["sample"], ["scan", "--family", "ghz"]],
        ids=["witness", "optimize", "sample", "scan"],
    )
    def test_negative_seed_exit_parse(self, tmp_path, capsys, command):
        if command[0] == "scan":
            argv = command + ["--grid", "t=0.5:0.5:1"]
        else:
            argv = command + [ghz_file(tmp_path)]
        error = assert_rejected(capsys, argv + ["--seed", "-1"])
        assert "seed" in error

    def test_negative_env_seed_exit_parse(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HARDY3Q_SEED", "-3")
        error = assert_rejected(capsys, ["sample", ghz_file(tmp_path)])
        assert "HARDY3Q_SEED" in error

    def test_huge_seed_accepted(self, tmp_path, capsys):
        code, report, _ = run(capsys, ["sample", ghz_file(tmp_path), "--seed", str(2**80)])
        assert code == EXIT_OK
        assert report["seed"] == 2**80


class TestSeedEnvVar:
    def test_env_default_flag_precedence(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HARDY3Q_SEED", "123")
        argv = ["witness", ghz_file(tmp_path)]
        code, report, _ = run(capsys, argv)
        assert code == EXIT_OK
        assert report["seed"] == 123
        code, report, _ = run(capsys, argv + ["--seed", "7"])
        assert report["seed"] == 7

    @pytest.mark.parametrize("raw", ["abc", "1.5", ""], ids=["word", "float", "empty"])
    @pytest.mark.parametrize(
        "command",
        [["witness"], ["optimize", "--starts", "1"], ["sample"], ["scan", "--family", "ghz"]],
        ids=["witness", "optimize", "sample", "scan"],
    )
    def test_malformed_env_seed_exit_parse(self, tmp_path, capsys, monkeypatch, command, raw):
        # was read as seed 0, so the command ran and exited 0
        monkeypatch.setenv("HARDY3Q_SEED", raw)
        if command[0] == "scan":
            argv = command + ["--grid", "t=0.5:0.5:1"]
        else:
            argv = command + [ghz_file(tmp_path)]
        error = assert_rejected(capsys, argv)
        assert "HARDY3Q_SEED" in error
        # a flag takes precedence, so the variable is not read
        code, report, _ = run(capsys, argv + ["--seed", "4"])
        assert code == EXIT_OK
        if command[0] != "scan":  # scan's grid records carry no seed
            assert report["seed"] == 4

    def test_malformed_env_seed_ignored_where_unused(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HARDY3Q_SEED", "abc")
        code, _, _ = run(capsys, ["lhv"])
        assert code == EXIT_OK
        code, report, _ = run(capsys, ["classify", ghz_file(tmp_path)])
        assert code == EXIT_OK
        assert report["class"] == "D.14"
