#!/usr/bin/env python3
"""Output-identity table of the CLI: command, input, exit code and output hashes.

Each row runs one ``hardy3q`` command in its own process, from a
checkout's ``src/`` and with the state file on stdin, and records the exit
code and the sha256 of stdout and stderr.  The rows are:

- ``witness`` and ``sample --shots 1000 --seed 3`` on one
  ``sample_class(cls, default_rng(0))`` draw per class, on GHZ and W, and
  on the 22 states of perfbench's ``round_robin(ENTANGLED, default_rng(0), 1)``
  (the ``deck`` rows)
- ``optimize`` on GHZ and W at 8 and 64 starts
- ``lhv`` and ``lhv --verbose``
- ``scan --grid t=0.1:1.47:5`` on every family, and on ``w`` with
  ``--optimize --starts 8``
- ``witness`` on the two states that exit 6 (the weak GHZ-type state at
  l0 = 3e-5 and the B.5-labelled C.3 state)
- the two inputs that exit 2: a state file with non-finite constants, and a
  scan grid whose span overflows

The inputs are drawn by this checkout, so two checkouts run the same inputs.

    python3 scripts/identity.py --out identity.json
    python3 scripts/identity.py --against ../parent     # the rows that differ
    python3 scripts/identity.py --rows "witness GHZ" lhv --against ../parent

With ``--against DIR`` it runs the rows in both checkouts and prints one
line per row that differs, then how many differ; it exits 1 when any row
differs, like ``diff``.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# run from a checkout: import the package from its src/ directory
sys.path.insert(0, str(ROOT / "src"))

from hardy3q.cli import FAMILIES  # noqa: E402
from hardy3q.states import CLASS_ORDER, sample_class  # noqa: E402

# perfbench/ is no package: load its deck generator from the file, read-only
_spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
perfbench_inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_inputs)

INV_SQRT2 = 2**-0.5
#: the B.5-labelled C.3 state: sub-CLASS_EPS entries on a maximally entangled pair
_C3_AS_B5 = np.array([1.519e-10, 0.70710678, 2.99e-11, 7.60e-10, 0.70710678])
#: named inputs besides the class draws
STATES = {
    "GHZ": {"lambda": [INV_SQRT2, 0.0, 0.0, 0.0, INV_SQRT2], "phi": 0.0},
    "W": {"lambda": [3**-0.5, 0.0, 3**-0.5, 3**-0.5, 0.0], "phi": 0.0},
    "weak GHZ 3e-5": {"lambda": [3e-05, 0.0, 0.0, 0.0, 0.99999999955], "phi": 0.0},
    "C.3 as B.5": {"lambda": (_C3_AS_B5 / np.linalg.norm(_C3_AS_B5)).tolist(), "phi": 0.6555},
}
SAMPLE_FLAGS = ["--shots", "1000", "--seed", "3"]
SCAN_GRID = ["--grid", "t=0.1:1.47:5"]
#: a state file whose extra keys hold an overflowing float literal and NaN: raw
#: text, since json writes neither
NON_FINITE_CONSTANTS = '{"lambda": [0.7071067811865476, 0, 0, 0, 0.7071067811865476], "phi": 0, "note": 1e400, "x": NaN}'


def rows() -> list[dict]:
    """Every row: its name, the CLI arguments and the state file (an object, raw text or None)."""
    states = {}
    for cls in CLASS_ORDER:
        state = sample_class(cls, np.random.default_rng(0))
        states[cls.value] = {"lambda": [float(x) for x in state.lams], "phi": float(state.phi)}
    states.update(GHZ=STATES["GHZ"], W=STATES["W"])
    deck = perfbench_inputs.round_robin(perfbench_inputs.ENTANGLED, np.random.default_rng(0), 1)
    for label, lams, phi in deck:
        states[f"deck {label}"] = {"lambda": [float(x) for x in lams], "phi": phi}
    out = []
    for name, state in states.items():
        out.append({"name": f"witness {name}", "argv": ["witness", "-"], "input": state})
        out.append({"name": f"sample {name}", "argv": ["sample", "-", *SAMPLE_FLAGS], "input": state})
    for starts in ("8", "64"):
        for name in ("GHZ", "W"):
            suffix = "" if starts == "8" else " 64"
            argv = ["optimize", "-", "--starts", starts]
            out.append({"name": f"optimize {name}{suffix}", "argv": argv, "input": STATES[name]})
    out.append({"name": "lhv", "argv": ["lhv"], "input": None})
    out.append({"name": "lhv --verbose", "argv": ["lhv", "--verbose"], "input": None})
    for family in FAMILIES:
        out.append({"name": f"scan {family}", "argv": ["scan", "--family", family, *SCAN_GRID], "input": None})
    argv = ["scan", "--family", "w", *SCAN_GRID, "--optimize", "--starts", "8"]
    out.append({"name": "scan w --optimize", "argv": argv, "input": None})
    for name in ("weak GHZ 3e-5", "C.3 as B.5"):
        out.append({"name": f"witness {name}", "argv": ["witness", "-"], "input": STATES[name]})
    out.append({"name": "classify non-finite constants", "argv": ["classify", "-"], "input": NON_FINITE_CONSTANTS})
    argv = ["scan", "--family", "ghz", "--grid", "t=-1e308:1e308:3"]
    out.append({"name": "scan non-finite span", "argv": argv, "input": None})
    return out


def run_row(checkout: Path, row: dict) -> dict:
    """The row with the exit code and output hashes of its command in ``checkout``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HARDY3Q")}
    env["PYTHONPATH"] = str(checkout / "src")
    stdin = row["input"]
    if not isinstance(stdin, str):  # a state object, or None for no state file
        stdin = "" if stdin is None else json.dumps(stdin)
    done = subprocess.run(
        [sys.executable, "-m", "hardy3q.cli", *row["argv"]],
        cwd=checkout,
        env=env,
        input=stdin.encode(),
        capture_output=True,
    )
    return {
        **row,
        "exit": done.returncode,
        "stdout_sha256": hashlib.sha256(done.stdout).hexdigest(),
        "stderr_sha256": hashlib.sha256(done.stderr).hexdigest(),
    }


def differences(ours: list[dict], theirs: list[dict]) -> list[str]:
    """One line per row whose exit code or output hashes differ."""
    keys = ("exit", "stdout_sha256", "stderr_sha256")
    lines = []
    for a, b in zip(ours, theirs):
        changed = [k for k in keys if a[k] != b[k]]
        if changed:
            lines.append(f"{a['name']}: {', '.join(changed)} (exit {b['exit']} -> {a['exit']})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="checkout to compare with")
    parser.add_argument("--rows", nargs="+", metavar="NAME", help="run only these rows")
    parser.add_argument("--out", type=Path, help="write this checkout's table here, not to stdout")
    args = parser.parse_args(argv)
    selected = rows()
    if args.rows:
        known = {row["name"] for row in selected}
        unknown = [name for name in args.rows if name not in known]
        if unknown:
            parser.error(f"unknown rows: {unknown}; known: {sorted(known)}")
        selected = [row for row in selected if row["name"] in args.rows]
    if args.against is not None and not (args.against / "src" / "hardy3q" / "cli.py").is_file():
        parser.error(f"--against {args.against} has no src/hardy3q/cli.py")

    ours = [run_row(ROOT, row) for row in selected]
    text = json.dumps({"rows": ours}, indent=2) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    elif args.against is None:
        sys.stdout.write(text)
    if args.against is None:
        return 0
    theirs = [run_row(args.against.resolve(), row) for row in selected]
    lines = differences(ours, theirs)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(ours)} rows differ from {args.against}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
