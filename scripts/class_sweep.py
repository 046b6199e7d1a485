#!/usr/bin/env python3
"""Randomized per-class witness sweep: constructive evidence, class by class.

For every entangled sub-class, draws random in-class states, builds the
class-appropriate settings, and reports certificate statistics: worst
zero-condition probability, success-probability range, Bell value range,
and how often the construction had to fall back to the numerical search.
A fallback rate of 100% flags a defective tabulated recipe for that row.
The last column, us/witness, is the median wall time in microseconds of
one draw's ``build_witness`` and ``bell_value`` calls.  The draws run in
rounds of one state per sub-class, so the rows are timed over the same
stretch of the run and compare with each other directly.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

# run from a checkout: import the package from its src/ directory
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hardy3q.bell import bell_value  # noqa: E402
from hardy3q.hardy import build_witness  # noqa: E402
from hardy3q.states import CLASS_ORDER, sample_class  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--draws", type=int, default=200, help="draws per sub-class (at least 1)")
    parser.add_argument("--seed", type=int, default=0, help="base seed (at least 0)")
    args = parser.parse_args()
    if args.draws < 1:
        parser.error("--draws must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be at least 0")

    header = (
        f"{'class':>6} {'draws':>6} {'satisfied':>9} {'fallbacks':>9} "
        f"{'worst zero':>11} {'min P5':>10} {'max B':>10} {'us/witness':>10}"
    )
    print(header)
    print("-" * len(header))
    classes = [cls for cls in CLASS_ORDER if cls.major != "A"]
    rngs = {c: np.random.default_rng(args.seed + 100 * CLASS_ORDER.index(c)) for c in classes}
    draws = {cls: [] for cls in classes}
    # one draw of every class per round, so that a change in machine speed
    # during the run reaches every row alike
    for _ in range(args.draws):
        for cls in classes:
            state = sample_class(cls, rngs[cls])
            start = time.perf_counter()
            built = build_witness(state, cls, seed=args.seed)
            report = bell_value(state.to_ket(), built.settings)
            elapsed = time.perf_counter() - start
            probs = built.certificate.probabilities
            draws[cls].append((
                built.certificate.satisfied, built.used_fallback, max(probs[:4]), probs[4],
                report.bell_value, elapsed,
            ))
    for cls in classes:
        satisfied, fallbacks, zero, p5, bell, seconds = zip(*draws[cls])
        print(
            f"{cls.value:>6} {args.draws:>6} {sum(satisfied):>9} {sum(fallbacks):>9} "
            f"{max(0.0, *zero):>11.2e} {min(p5):>10.2e} {max(bell):>10.6f} "
            f"{1e6 * np.median(seconds):>10.1f}"
        )


if __name__ == "__main__":
    main()
