"""The benchmark's calibration kernels: fixed work that never imports hardy3q.

Operations are also reported in units of a kernel's median time in the same
run, which cancels much of the drift in the machine's speed.  The machine
does not drift uniformly: interpreted code with small NumPy calls and
streaming array arithmetic speed up and slow down by different amounts.
So there are two kernels, and each workload is calibrated by the one whose
cost resembles its operations:

    interpreted  integer arithmetic in the interpreter, then many small
                 NumPy calls on an 8-dimensional complex vector
    array        elementwise comparisons and selects on 200,000 floats, the
                 kind of work classify_batch does on its columns

Changing a kernel rescales every calibrated metric of the workloads that
use it, so a change to this file is a benchmark change of its own and needs
a fresh baseline.
"""

from __future__ import annotations

import time

import numpy as np

_DIM = 8
#: the unitary discrete Fourier transform on three qubits
_DFT = np.exp(2j * np.pi * np.outer(np.arange(_DIM), np.arange(_DIM)) / _DIM) / np.sqrt(_DIM)
_START = np.arange(1, _DIM + 1, dtype=complex) / np.sqrt(204.0)
_COLUMN = np.linspace(0.0, 1.0, 200_000)


def interpreted() -> tuple[int, complex]:
    acc = 0
    for i in range(2000):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
    v = _START
    for _ in range(100):
        v = (_DFT @ v).reshape(2, 2, 2).transpose(1, 2, 0).reshape(_DIM)
        v = v / np.linalg.norm(v)
    return acc, complex(v[0])


def array() -> float:
    near = np.abs(_COLUMN * 0.7 - 0.3) < 0.2
    folded = np.where(near, _COLUMN, 1.0 - _COLUMN)
    return float((folded * folded).sum()) + int(near.sum())


KERNELS = {"interpreted": interpreted, "array": array}


#: back-to-back kernel calls in one sample
REPEATS = 3


def timed(kernel) -> float:
    """Fastest wall time, in seconds, of REPEATS back-to-back kernel calls.

    The first call after a long operation runs with cold caches; the
    fastest of a few calls measures the machine rather than the eviction.
    """
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best
