#!/usr/bin/env python3
"""Reproduce the GHZ and W maximal violations and threshold visibilities.

Runs the multistart see-saw Bell-value minimizer on both states and prints the
optimized values next to the reference numbers for this inequality
(GHZ: -0.175459 / 0.68125, W: -0.192608 / 0.6606676).
"""

import argparse
import time

import numpy as np

from hardy3q.states import CanonicalState
from hardy3q.visibility import minimize_bell

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
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    for name, psi in (("GHZ", ghz_ket()), ("W", w_ket())):
        started = time.perf_counter()
        result = minimize_bell(psi, starts=args.starts, seed=args.seed)
        elapsed = time.perf_counter() - started
        ref = REFERENCES[name]
        print(f"{name}:")
        print(
            f"  best B        = {result.best_value:+.7f}   "
            f"(reference {ref['best']:+.6f}, diff {result.best_value - ref['best']:+.2e})"
        )
        print(
            f"  threshold v   = {result.threshold_visibility:.7f}    "
            f"(reference {ref['threshold']:.7f})"
        )
        print(f"  at best       = {result.starts_at_best} of {result.starts} starts")
        print(f"  starts / time = {result.starts} / {elapsed:.1f}s")


if __name__ == "__main__":
    main()
