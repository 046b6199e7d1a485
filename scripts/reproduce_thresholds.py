#!/usr/bin/env python3
"""Reproduce the GHZ and W maximal violations and threshold visibilities.

Runs the multistart see-saw Bell-value minimizer on both states and prints the
optimized values next to the reference numbers for this inequality
(GHZ: -0.175459 / 0.68125, W: -0.192608 / 0.6606676).  With ``--seeds N`` it
runs seeds ``seed .. seed + N - 1`` and prints, per seed and summed, how many
starts reached the best value, how many batched see-saw sweeps it took
(``OptimizationResult.sweeps``: the iterations of the three batched
descents, every start's first descent, all starts' hops side by side and
the polish), the wall time and the wall time per sweep.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

# run from a checkout: import the package from its src/ directory
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hardy3q.states import CanonicalState  # noqa: E402
from hardy3q.visibility import minimize_bell  # noqa: E402

REFERENCES = {
    "GHZ": {"best": -0.175459, "threshold": 0.68125},
    "W": {"best": -0.192608, "threshold": 0.6606676},
}


def ghz_ket():
    return CanonicalState((2**-0.5, 0, 0, 0, 2**-0.5), 0.0).to_ket()


def w_ket():
    w = np.zeros(8, complex)
    w[1] = w[2] = w[4] = 3**-0.5
    return w


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--starts", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0, help="first seed (at least 0)")
    parser.add_argument("--seeds", type=int, default=1, help="number of seeds")
    args = parser.parse_args()
    if args.starts < 1 or args.seeds < 1:
        parser.error("--starts and --seeds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be at least 0")

    for name, psi in (("GHZ", ghz_ket()), ("W", w_ket())):
        ref = REFERENCES[name]
        print(f"{name}:  reference B = {ref['best']:+.6f}, v_thr = {ref['threshold']:.7f}")
        print(
            f"  {'seed':>6} {'best B':>11} {'diff':>9} {'v_thr':>10} {'at best':>9} "
            f"{'sweeps':>7} {'time':>7} {'ms/sweep':>8}"
        )
        at_best = sweeps = 0
        elapsed = 0.0
        for seed in range(args.seed, args.seed + args.seeds):
            started = time.perf_counter()
            result = minimize_bell(psi, starts=args.starts, seed=seed)
            took = time.perf_counter() - started
            v_thr = result.threshold_visibility
            print(
                f"  {seed:>6} {result.best_value:+.8f} {result.best_value - ref['best']:+.2e} "
                f"{'-' if v_thr is None else format(v_thr, '.7f'):>10} "
                f"{result.starts_at_best:>4} / {result.starts:<2} {result.sweeps:>7} {took:>6.2f}s "
                f"{1e3 * took / result.sweeps:>8.3f}"
            )
            at_best += result.starts_at_best
            sweeps += result.sweeps
            elapsed += took
        if args.seeds > 1:
            print(
                f"  {'sum':>6} {'':>11} {'':>9} {'':>10} "
                f"{at_best:>4} / {args.starts * args.seeds:<2} {sweeps:>7} {elapsed:>6.2f}s "
                f"{1e3 * elapsed / sweeps:>8.3f}"
            )


if __name__ == "__main__":
    main()
