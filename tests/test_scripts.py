"""The experiment scripts run from a checkout, without PYTHONPATH."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_script(name):
    """A script under scripts/ as a module, without running its main."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(*argv):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_reproduce_thresholds():
    out = run_script("scripts/reproduce_thresholds.py", "--starts", "2")
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("GHZ:")
    assert "\nW:" in out.stdout
    # one row per seed: seed, best B, diff, v_thr, at best (k / 2), sweeps, time, ms/sweep
    row = out.stdout.splitlines()[2].split()
    assert row[0] == "0" and row[5:7] == ["/", "2"] and int(row[7]) > 0
    sweeps, seconds, ms_per_sweep = int(row[7]), float(row[8].rstrip("s")), float(row[9])
    # time / sweeps, up to the rounding of the printed time (0.005 s) and ms/sweep
    assert ms_per_sweep > 0.0
    assert ms_per_sweep == pytest.approx(1e3 * seconds / sweeps, abs=5.0 / sweeps + 5e-4)


def test_reproduce_thresholds_sums_over_seeds():
    out = run_script("scripts/reproduce_thresholds.py", "--starts", "1", "--seeds", "2")
    assert out.returncode == 0, out.stderr
    sums = [line.split() for line in out.stdout.splitlines() if line.split()[:1] == ["sum"]]
    assert len(sums) == 2 and all(row[3] == "2" for row in sums)


@pytest.mark.parametrize(
    "argv",
    [
        ("scripts/reproduce_thresholds.py", "--starts", "1", "--seed", "-1"),
        ("scripts/class_sweep.py", "--draws", "0"),
        ("scripts/class_sweep.py", "--draws", "-3"),
        ("scripts/class_sweep.py", "--draws", "1", "--seed", "-1"),
        ("scripts/bench_pair.py", "--parent", ".", "--change", ".", "--workload", "class-witness",
         "--seeds", "1", "--seconds", "0", "--out", "unwritten.json"),
        ("scripts/bench_pair.py", "--parent", "tests", "--change", ".", "--workload", "class-witness",
         "--seeds", "1", "--seconds", "1", "--out", "unwritten.json"),
        ("scripts/identity.py", "--rows", "witness Z.9"),
        ("scripts/identity.py", "--rows", "lhv", "--against", "tests"),
    ],
)
def test_bad_arguments_exit_2(argv):
    out = run_script(*argv)
    assert out.returncode == 2
    assert "error:" in out.stderr and "Traceback" not in out.stderr
    assert out.stdout == ""


def test_class_sweep():
    out = run_script("scripts/class_sweep.py", "--draws", "3")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 2 + 22  # header, rule, one row per sub-class
    assert lines[0].split()[-1] == "us/witness"
    # the median witness time in microseconds, after max B
    assert all(float(line.split()[-1]) > 0.0 for line in lines[2:])


def perfbench_output(p50, failed=0):
    """The lines perfbench/run.py prints for one run, with a made-up p50 and throughput."""
    machine = {"calibration_kernel": "interpreted", "calibration_kernel_median_ms": 1.5, "nproc": 2}
    result = {
        "correct": True,
        "attempted": 120,
        "failed": failed,
        "metrics": {
            "latency_cal_p50": {"value": p50, "unit": "cal"},
            "throughput_cal": {"value": 1.0 / p50, "unit": "1/cal"},
        },
    }
    return "\n".join([
        "machine " + json.dumps(machine),
        "workload near-boundary-witness seed 1: 120 attempted, 0 failed, 0 wrong",
        "result:",
        f"  latency_cal_p50 {p50:14.6g} cal",
        json.dumps(result),
        "",
    ])


class TestBenchPair:
    def test_parses_machine_line_and_last_line_json(self):
        run = load_script("bench_pair").parse_run(perfbench_output(0.5, failed=2))
        assert run["machine"]["nproc"] == 2
        assert (run["correct"], run["attempted"], run["failed"]) == (True, 120, 2)
        assert run["metrics"] == {"latency_cal_p50": 0.5, "throughput_cal": 2.0}

    @pytest.mark.parametrize("text", ["", "machine {}\nresult:\n", '{"correct": true}\n'])
    def test_output_without_a_result_is_rejected(self, text):
        with pytest.raises(ValueError):
            load_script("bench_pair").parse_run(text)

    def test_medians_quartiles_and_pairs_won(self):
        bench = load_script("bench_pair")
        p50s = {"parent": [1.4, 1.3, 1.5, 1.2], "change": [0.5, 0.6, 1.6, 0.4]}
        runs = [
            {"pair": pair, "side": side, **bench.parse_run(perfbench_output(p50s[side][pair]))}
            for pair in range(4)
            for side in bench.SIDES
        ]
        summary = bench.summarize(runs, {"latency_cal_p50": "lower", "throughput_cal": "higher"})
        assert summary["parent"]["latency_cal_p50"] == pytest.approx(
            {"median": 1.35, "q1": 1.275, "q3": 1.425}
        )
        assert summary["change"]["latency_cal_p50"]["median"] == pytest.approx(0.55)
        # pair 2 reads 1.6 against 1.5: the change wins three pairs of four
        assert summary["change_better_in"]["latency_cal_p50"] == {"change_better": 3, "pairs": 4}
        assert summary["change_better_in"]["throughput_cal"] == {"change_better": 3, "pairs": 4}

    def test_one_run_per_side_is_its_own_median_and_quartiles(self):
        bench = load_script("bench_pair")
        runs = [
            {"pair": 0, "side": side, **bench.parse_run(perfbench_output(0.7))}
            for side in bench.SIDES
        ]
        summary = bench.summarize(runs, {"latency_cal_p50": "lower"})
        assert summary["parent"]["latency_cal_p50"] == {"median": 0.7, "q1": 0.7, "q3": 0.7}
        assert summary["change_better_in"]["latency_cal_p50"] == {"change_better": 0, "pairs": 1}


class TestIdentity:
    def test_rows_cover_every_class_the_references_and_the_exit_6_states(self):
        names = [row["name"] for row in load_script("identity").rows()]
        # witness and sample on 25 classes, GHZ, W and 22 deck states; optimize at 8 and 64
        # starts; lhv twice; four scans and one optimizing scan; two exit-6 and two exit-2 inputs
        assert len(names) == len(set(names)) == 2 * (25 + 2 + 22) + 4 + 2 + 5 + 2 + 2
        assert {
            "witness D.8", "sample D.8", "sample W", "optimize GHZ", "optimize W 64", "lhv",
            "lhv --verbose", "witness deck D.1", "scan pair12", "scan w --optimize",
            "witness C.3 as B.5", "classify non-finite constants", "scan non-finite span",
        } <= set(names)

    def test_hashes_are_those_of_the_cli_output(self, tmp_path):
        names = ["witness GHZ", "lhv", "witness weak GHZ 3e-5", "classify non-finite constants"]
        out = run_script("scripts/identity.py", "--rows", *names, "--out", str(tmp_path / "table.json"))
        assert out.returncode == 0, out.stderr
        assert out.stdout == ""
        rows = json.loads((tmp_path / "table.json").read_text())["rows"]
        assert [row["name"] for row in rows] == names
        assert [row["exit"] for row in rows] == [0, 0, 6, 2]
        ghz = rows[0]
        direct = subprocess.run(
            [sys.executable, "-m", "hardy3q.cli", *ghz["argv"]],
            cwd=ROOT,
            env={**{k: v for k, v in os.environ.items() if not k.startswith("HARDY3Q")}, "PYTHONPATH": str(ROOT / "src")},
            input=json.dumps(ghz["input"]).encode(),
            capture_output=True,
            timeout=120,
        )
        assert ghz["stdout_sha256"] == hashlib.sha256(direct.stdout).hexdigest()
        assert ghz["stderr_sha256"] == hashlib.sha256(b"").hexdigest()

    def test_a_checkout_against_itself_differs_nowhere(self):
        out = run_script("scripts/identity.py", "--rows", "sample D.13", "--against", ".")
        assert out.returncode == 0, out.stderr
        assert out.stdout == "0 of 1 rows differ from .\n"

    def test_differing_rows_are_named(self):
        identity = load_script("identity")
        row = {"name": "witness D.8", "exit": 0, "stdout_sha256": "a", "stderr_sha256": "e"}
        lines = identity.differences([row, {**row, "name": "lhv"}], [{**row, "stdout_sha256": "b"}, row])
        assert lines == ["witness D.8: stdout_sha256 (exit 0 -> 0)"]
