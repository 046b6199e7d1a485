"""The experiment scripts run from a checkout, without PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
