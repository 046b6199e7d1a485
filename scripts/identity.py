#!/usr/bin/env python3
"""Output-identity table of the CLI: command, input, exit code and output hashes.

Each row runs one ``hardy3q`` command in its own process, from a
checkout's ``src/`` and with the state file on stdin, and records the exit
code and the sha256 of stdout and stderr.  The rows are ``witness`` and
``sample --shots 1000 --seed 3`` on one ``sample_class(cls,
default_rng(0))`` draw per class plus GHZ and W, ``optimize`` on GHZ and W
at 8 starts, ``lhv``, and ``witness`` on the two states that exit 6 (the
weak GHZ-type state at l0 = 3e-5 and the B.5-labelled C.3 state).  The
inputs are drawn by this checkout, so two checkouts run the same inputs.

    python3 scripts/identity.py --out identity.json
    python3 scripts/identity.py --against ../parent     # the rows that differ
    python3 scripts/identity.py --rows "witness GHZ" lhv --against ../parent

With ``--against DIR`` it runs the rows in both checkouts and prints one
line per row that differs, then how many differ; it exits 1 when any row
differs, like ``diff``.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# run from a checkout: import the package from its src/ directory
sys.path.insert(0, str(ROOT / "src"))

from hardy3q.states import CLASS_ORDER, sample_class  # noqa: E402

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


def rows() -> list[dict]:
    """Every row: its name, the CLI arguments and the state file's content (or None)."""
    states = {}
    for cls in CLASS_ORDER:
        state = sample_class(cls, np.random.default_rng(0))
        states[cls.value] = {"lambda": [float(x) for x in state.lams], "phi": float(state.phi)}
    states.update(GHZ=STATES["GHZ"], W=STATES["W"])
    out = []
    for name, state in states.items():
        out.append({"name": f"witness {name}", "argv": ["witness", "-"], "input": state})
        out.append({"name": f"sample {name}", "argv": ["sample", "-", *SAMPLE_FLAGS], "input": state})
    for name in ("GHZ", "W"):
        out.append({"name": f"optimize {name}", "argv": ["optimize", "-", "--starts", "8"], "input": STATES[name]})
    out.append({"name": "lhv", "argv": ["lhv"], "input": None})
    for name in ("weak GHZ 3e-5", "C.3 as B.5"):
        out.append({"name": f"witness {name}", "argv": ["witness", "-"], "input": STATES[name]})
    return out


def run_row(checkout: Path, row: dict) -> dict:
    """The row with the exit code and output hashes of its command in ``checkout``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HARDY3Q")}
    env["PYTHONPATH"] = str(checkout / "src")
    done = subprocess.run(
        [sys.executable, "-m", "hardy3q.cli", *row["argv"]],
        cwd=checkout,
        env=env,
        input=b"" if row["input"] is None else json.dumps(row["input"]).encode(),
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
