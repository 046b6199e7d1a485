#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and write one JSON file.

For every workload and seed, ``perfbench/run.py --trace 0`` runs once in
each checkout, the parent and the change, each run in its own process
with the checkout as its working directory.  The side that runs first
alternates from one pair to the next.  Each run's ``machine`` line and
last-line JSON are parsed.  The output file (``BENCH_<pr>.json`` by
convention) holds every run's end-to-end values and, per workload, each
side's median and quartiles of every metric and the number of pairs in
which the change read better (metric directions from the change's
BENCHMARK.json).

    python3 scripts/bench_pair.py --parent ../parent --change . \\
        --workload near-boundary-witness --workload class-witness \\
        --seeds 701 702 703 --seconds 20 --out BENCH_21.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_run(stdout: str) -> dict:
    """The machine record, outcome counts and metric values of one run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    machines = [line for line in lines if line.startswith("machine ")]
    if not machines or not lines[-1].startswith("{"):
        raise ValueError("no machine line or no JSON result on the last line")
    result = json.loads(lines[-1])
    return {
        "machine": json.loads(machines[0][len("machine "):]),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> list[float]:
    """(q1, median, q3) of the values; one value is all three."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per side, each metric's median and quartiles; per metric, the pairs the change won.

    ``runs`` are records with ``pair``, ``side`` and ``metrics``; ``better``
    maps a metric to "lower" or "higher".  Ties count for neither side.
    """
    out = {}
    for side in SIDES:
        values: dict[str, list[float]] = {}
        for run in runs:
            if run["side"] == side:
                for name, value in run["metrics"].items():
                    values.setdefault(name, []).append(value)
        out[side] = {}
        for name, vals in values.items():
            q1, median, q3 = quartiles(vals)
            out[side][name] = {"median": median, "q1": q1, "q3": q3}
    pairs: dict[int, dict[str, dict]] = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    wins = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        both = [p for p in pairs.values() if len(p) == 2 and name in p["parent"] and name in p["change"]]
        won = sum(sign * (p["change"][name] - p["parent"][name]) > 0 for p in both)
        wins[name] = {"change_better": won, "pairs": len(both)}
    out["change_better_in"] = wins
    return out


def revision(checkout: Path) -> str | None:
    """The checkout's git HEAD, or None where it is not a git work tree."""
    done = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else None


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(argv)} exited {done.returncode}: {done.stderr}")
    return parse_run(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, action="append", help="repeatable")
    parser.add_argument("--seeds", required=True, type=int, nargs="+", help="one pair per seed")
    parser.add_argument("--seconds", required=True, type=float, help="run length, as BENCHMARK.json sets it")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {path} has no perfbench/run.py")
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    report = {
        "revisions": {side: revision(path) for side, path in checkouts.items()},
        "seconds": args.seconds,
        "machine": None,
        "workloads": {},
    }
    for workload in args.workload:
        runs = []
        for pair, seed in enumerate(args.seeds):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                run = run_once(checkouts[side], workload, seed, args.seconds)
                machine = run.pop("machine")
                run.update(pair=pair, seed=seed, side=side, calibration={
                    "kernel": machine.pop("calibration_kernel"),
                    "median_ms": machine.pop("calibration_kernel_median_ms"),
                })
                report["machine"] = report["machine"] or machine
                runs.append(run)
                print(f"{workload} seed {seed} {side}: " + json.dumps(run["metrics"]), flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summarize(runs, better)}
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
