"""Benchmark for hardy3q: four workloads, each a closed loop from one thread.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload class-witness --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists and what it stresses):

    reference-optimize      hardy3q optimize on GHZ and W through cli.main
    class-witness           classify, build_witness, bell_value, sample_statistics
                            on states of the 22 entangled sub-classes
    near-boundary-witness   classify and build_witness on D.1/D.2 states with one
                            amplitude scaled down, where the fallback search works
    classify-bulk           classify_batch on 10^6 generated rows

Each run times set-up (five fresh processes, spread over the run, import
the package and build one witness), measures whole rounds of operations
for --seconds with calibration-kernel samples in between, checks every
output with the benchmark's own arithmetic (checks.py), and prints as its
last stdout line one JSON object with the end-to-end metrics (--trace 0)
or the per-layer metrics (--trace 1).  Operation times are reported in units of the
calibration measured around each operation, because the machine's speed
changes by up to 1.8x within a run; the wall-clock figures are printed
above the result.  A traced run repeats each round with the tracer
installed; the per-layer metrics come from the traced repeats and
``trace.overhead_pct`` compares the two.  Spans are written to .perfbench/
when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibration  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: fresh processes timed for setup_s; the median is reported
SETUP_REPEATS = 5
#: one calibration sample per this much operation time
CALIBRATE_EVERY_S = 0.1
#: at most this many calibration samples after one operation
CALIBRATE_MAX_SAMPLES = 50
#: a short operation is calibrated by this many samples on each side of it
CALIBRATE_NEIGHBOURS = 3

SETUP_CHILD = """
import sys
sys.path.insert(0, "src")
import hardy3q.cli
from hardy3q import CanonicalState, build_witness, classify
state = CanonicalState((2 ** -0.5, 0.0, 0.0, 0.0, 2 ** -0.5), 0.0)
build_witness(state, classify(state))
print("ready", flush=True)
"""

h = None  # the hardy3q package, imported from ./src by load_package()


def load_package():
    """Import hardy3q from ./src, and nowhere else."""
    global h
    sys.path.insert(0, str(SRC))
    import hardy3q
    import hardy3q.cli  # noqa: F401

    if Path(hardy3q.__file__).resolve().parent != (SRC / "hardy3q").resolve():
        raise ImportError(f"hardy3q was imported from {hardy3q.__file__}, not from {SRC}")
    h = hardy3q
    # the fallback search logs a warning per state; the benchmark counts fallbacks instead
    logging.getLogger("hardy3q").setLevel(logging.ERROR)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class ReferenceOptimize:
    """hardy3q optimize <file> --starts 8 --seed 0, GHZ then W, through cli.main."""

    name = "reference-optimize"
    STARTS = 8
    TARGETS = ("ghz", "w")
    CALIBRATION = "interpreted"
    # An operation lasts seconds, and the machine's speed can change within
    # it, so calibration samples are also taken inside it (see Run.time_op).
    SAMPLE_INSIDE_S = 0.25
    round_size = 2

    def __init__(self, seed: int):
        # The paper fixes both inputs, so the workload seed does not vary them.
        OUT.mkdir(exist_ok=True)
        r = 2**-0.5
        s = 3**-0.5
        self.files = {"ghz": OUT / "ghz.json", "w": OUT / "w.json"}
        self.files["ghz"].write_text(json.dumps({"lambda": [r, 0, 0, 0, r], "phi": 0.0}))
        w_amps = [[0, 0], [s, 0], [s, 0], [0, 0], [s, 0], [0, 0], [0, 0], [0, 0]]
        self.files["w"].write_text(json.dumps({"amplitudes": w_amps}))
        self.kets = {"ghz": checks.canonical_ket((r, 0, 0, 0, r), 0.0)}
        self.kets["w"] = np.array([complex(*a) for a in w_amps])
        self.witnesses = self.fallbacks = 0

    def op(self, k: int):
        argv = ["optimize", str(self.files[self.TARGETS[k % 2]]), "--starts", str(self.STARTS), "--seed", "0"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = h.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"hardy3q {' '.join(argv)} exited {code}")
        return buf.getvalue()

    def check(self, k: int, out) -> None:
        target = self.TARGETS[k % 2]
        checks.check_optimize(target, self.kets[target], json.loads(out))


class ClassWitness:
    """One state per operation: classify, build_witness, bell_value, sample_statistics."""

    name = "class-witness"
    SHOTS = 10_000
    DECK_ROUNDS = 256
    CALIBRATION = "interpreted"
    round_size = len(inputs.ENTANGLED)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.deck = inputs.round_robin(inputs.ENTANGLED, rng, self.DECK_ROUNDS)
        self.states = [h.CanonicalState(lams, phi) for _, lams, phi in self.deck]
        self.sample_seeds = [int(s) for s in rng.integers(2**31, size=len(self.deck))]
        self.witnesses = self.fallbacks = 0

    def op(self, k: int):
        i = k % len(self.states)
        state = self.states[i]
        cls = h.classify(state)
        built = h.build_witness(state, cls)
        psi = state.to_ket()
        report = h.bell_value(psi, built.settings)
        stats = h.sample_statistics(psi, built.settings, self.SHOTS, self.sample_seeds[i])
        return cls, built, report, stats

    def check(self, k: int, out) -> None:
        cls, built, report, stats = out
        label, lams, phi = self.deck[k % len(self.deck)]
        probs = checks.check_witness(
            label, checks.canonical_ket(lams, phi), cls.value, _plus_kets(built.settings),
            built.certificate.probabilities, built.certificate.satisfied, report.bell_value,
        )
        checks.check_sample(stats.frequencies, probs, self.SHOTS)
        self.witnesses += 1
        self.fallbacks += bool(built.used_fallback)


class NearBoundaryWitness:
    """classify and build_witness on D.1/D.2 states close to a class boundary."""

    name = "near-boundary-witness"
    DECK_ROUNDS = 200
    CALIBRATION = "interpreted"
    round_size = len(inputs.NEAR_BOUNDARY_STRATA)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.deck = inputs.near_boundary(rng, self.DECK_ROUNDS)
        self.states = [h.CanonicalState(lams, phi) for _, lams, phi, _ in self.deck]
        self.witnesses = self.fallbacks = 0

    def op(self, k: int):
        state = self.states[k % len(self.states)]
        cls = h.classify(state)
        return cls, h.build_witness(state, cls)

    def check(self, k: int, out) -> None:
        cls, built = out
        label, lams, phi, _ = self.deck[k % len(self.deck)]
        checks.check_witness(
            label, checks.canonical_ket(lams, phi), cls.value, _plus_kets(built.settings),
            built.certificate.probabilities, built.certificate.satisfied, None,
        )
        self.witnesses += 1
        self.fallbacks += bool(built.used_fallback)


class ClassifyBulk:
    """One classify_batch call on 10^6 generated rows per operation."""

    name = "classify-bulk"
    ROWS = 1_000_000
    CALIBRATION = "array"
    round_size = 1

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.lams, self.phis, self.expected = inputs.bulk(rng, self.ROWS)
        order = [c.value for c in h.states.CLASS_ORDER]
        self.to_table_index = np.array([inputs.LABELS.index(label) for label in order])
        self.witnesses = self.fallbacks = 0

    def op(self, k: int):
        return h.classify_batch(self.lams, self.phis)

    def check(self, k: int, out) -> None:
        checks.check_labels(self.to_table_index[out], self.expected, inputs.LABELS)


WORKLOADS = {w.name: w for w in (ReferenceOptimize, ClassWitness, NearBoundaryWitness, ClassifyBulk)}


def _plus_kets(settings):
    return [(p.u.plus_ket, p.d.plus_ket) for p in settings.pairs]


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def time_setup() -> float:
    """Wall time from spawning a fresh interpreter to its first witness."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_CHILD], cwd=ROOT, stdout=subprocess.PIPE, text=True
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        code = child.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up process failed with exit code {code}")
    return elapsed


class Run:
    """Whole rounds of one workload's operations for a fixed wall time."""

    def __init__(self, workload, seconds: float, tracer: Tracer | None):
        self.workload = workload
        self.seconds = seconds
        self.tracer = tracer
        self.kernel = calibration.KERNELS[workload.CALIBRATION]
        #: per completed operation: wall time, start and end, whether traced
        self.durations: list[float] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.traced: list[bool] = []
        self.calibration: list[float] = []
        self.calibration_times: list[float] = []
        #: set-up times; an untraced run spreads SETUP_REPEATS of them over
        #: its length, so that they see the machine in more than one state
        self.setup_times: list[float] = []
        #: calibration time inside the current operation
        self.paused = 0.0
        signal.signal(signal.SIGALRM, self._sample_inside)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = 0

    def calibrate(self) -> float:
        """Take one calibration sample; return the wall time it took."""
        t0 = time.perf_counter()
        self.calibration.append(calibration.timed(self.kernel))
        t1 = time.perf_counter()
        self.calibration_times.append(t1)
        return t1 - t0

    def time_op(self, k: int):
        """Run operation ``k``; return its wall time and its output.

        A workload whose operations last seconds sets SAMPLE_INSIDE_S: a
        wall-clock interval timer then takes a calibration sample in this
        thread every SAMPLE_INSIDE_S during the operation, wherever the
        program is, and the samples' own time is not counted in the
        operation's.  Nothing in the package is patched for it.
        """
        period = getattr(self.workload, "SAMPLE_INSIDE_S", None)
        self.paused = 0.0
        t0 = time.perf_counter()
        if period:
            signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            out = self.workload.op(k)
        finally:
            if period:
                signal.setitimer(signal.ITIMER_REAL, 0)
        return time.perf_counter() - t0 - self.paused, out

    def _sample_inside(self, signum, frame) -> None:
        self.paused += self.calibrate()

    def execute(self) -> None:
        clock = time.perf_counter
        start = clock()
        deadline = start + self.seconds
        setups = 0 if self.tracer else SETUP_REPEATS
        # A traced run repeats every untraced round traced, on the same
        # inputs, so the two differ only by the tracing.
        min_rounds = 2 if self.tracer else 1
        k = rounds = 0
        debt = 0.0
        while rounds < min_rounds or clock() < deadline:
            if len(self.setup_times) < setups and clock() - start >= (
                len(self.setup_times) * self.seconds / setups
            ):
                self.setup_times.append(time_setup())
                deadline += self.setup_times[-1]
                start += self.setup_times[-1]
            traced = self.tracer is not None and rounds % 2 == 1
            if traced:
                k -= self.workload.round_size
                self.tracer.install()
            for _ in range(self.workload.round_size):
                self.attempted += 1
                if traced:
                    self.tracer.op = k
                began = clock()
                try:
                    dt, out = self.time_op(k)
                except Exception as exc:  # a failed operation is counted, not fatal
                    self.failed += 1
                    self._note(f"operation {k} failed: {type(exc).__name__}: {exc}")
                else:
                    self.durations.append(dt)
                    self.starts.append(began)
                    self.ends.append(clock())
                    self.traced.append(traced)
                    try:
                        self.workload.check(k, out)
                    except checks.CheckError as exc:
                        self.wrong += 1
                        self._note(f"operation {k} is wrong: {exc}")
                    debt = min(debt + dt, CALIBRATE_EVERY_S * CALIBRATE_MAX_SAMPLES)
                    while debt >= CALIBRATE_EVERY_S:
                        self.calibrate()
                        debt -= CALIBRATE_EVERY_S
                k += 1
            if traced:
                self.tracer.uninstall()
            rounds += 1
        while len(self.setup_times) < setups:
            self.setup_times.append(time_setup())
        self.calibrate()

    def calibrated(self) -> np.ndarray:
        """Each operation's wall time over its local calibration.

        When at least two samples were taken during the operation (long
        operations take them, see time_op), the local calibration is their
        harmonic mean: the samples are evenly spaced in time, and the work
        the machine does in an interval is proportional to its length over
        the kernel's time, so the operation's time over that harmonic mean
        is its time summed in kernel units.  Otherwise it is the median of
        the CALIBRATE_NEIGHBOURS samples before its end and as many after."""
        cal = np.array(self.calibration)
        times = np.array(self.calibration_times)
        durations = np.array(self.durations)
        first = np.searchsorted(times, np.array(self.starts))
        at = np.searchsorted(times, np.array(self.ends))
        local = np.empty(len(durations))
        for i, (a, b) in enumerate(zip(first, at)):
            if b - a >= 2:
                local[i] = 1.0 / (1.0 / cal[a:b]).mean()
            else:
                lo = min(max(b - CALIBRATE_NEIGHBOURS, 0), len(cal) - 1)
                local[i] = np.median(cal[lo:b + CALIBRATE_NEIGHBOURS])
        return durations / local

    def _note(self, message: str) -> None:
        if self.notes < 5:
            print(message, file=sys.stderr)
        self.notes += 1


def end_to_end_metrics(run: Run) -> dict:
    cal = run.calibrated()
    p50, p90 = np.percentile(cal, [50, 90])
    return {
        "setup_s": (statistics.median(run.setup_times), "s"),
        "latency_cal_p50": (float(p50), "cal"),
        "latency_cal_p90": (float(p90), "cal"),
        "throughput_cal": (len(cal) / float(cal.sum()), "1/cal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def wall_clock_figures(run: Run) -> dict:
    """Uncalibrated figures, printed for reading but not part of the result."""
    wall = np.array(run.durations)[~np.array(run.traced, dtype=bool)]
    p50, p90 = np.percentile(wall, [50, 90])
    return {
        "latency_ms_p50": (p50 * 1e3, "ms"),
        "latency_ms_p90": (p90 * 1e3, "ms"),
        "throughput_per_s": (len(wall) / float(wall.sum()), "1/s"),
    }


def per_layer_metrics(run: Run) -> dict:
    tracer = run.tracer
    name, parent, duration, self_time = tracer.arrays()
    traced = np.array(run.traced, dtype=bool)
    ops = max(int(traced.sum()), 1)
    index = {n: i for i, n in enumerate(tracer.names)}
    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in tracer.names] or [0])

    def spans(fn: str) -> np.ndarray:
        return name == index[fn] if fn in index else np.zeros(len(name), dtype=bool)

    def per_call(fn: str, scale: float) -> float:
        mask = spans(fn)
        return float(duration[mask].mean()) * scale if mask.any() else 0.0

    def calls_per_op(fn: str) -> float:
        return float(spans(fn).sum()) / ops

    metrics = {}
    for i, layer in enumerate(LAYERS):
        mask = layer_of[name] == i if len(name) else np.zeros(0, dtype=bool)
        metrics[f"{layer}.self_ms_per_op"] = (float(self_time[mask].sum()) / ops * 1e3, "ms")

    minimize = spans("visibility.minimize_bell")
    starts = minimize.sum() * ReferenceOptimize.STARTS
    metrics["visibility.minimize_bell.ms_per_start"] = (
        float(duration[minimize].sum()) / starts * 1e3 if starts else 0.0, "ms")
    metrics["hardy.build_witness.us_per_call"] = (per_call("hardy.build_witness", 1e6), "us")
    metrics["hardy.verify_hardy.calls_per_op"] = (calls_per_op("hardy.verify_hardy"), "count")
    metrics["hardy.verify_hardy.us_per_call"] = (per_call("hardy.verify_hardy", 1e6), "us")
    metrics["hardy.search_hardy_observables.calls_per_op"] = (
        calls_per_op("hardy.search_hardy_observables"), "count")
    metrics["hardy.search_hardy_observables.ms_per_call"] = (
        per_call("hardy.search_hardy_observables", 1e3), "ms")
    built = run.workload.witnesses
    metrics["hardy.recipe_hit_ratio"] = (
        (built - run.workload.fallbacks) / built if built else 0.0, "ratio")

    # the settings_from_* constructors together, outermost calls only
    ctor = np.isin(name, [i for n, i in index.items() if n.startswith("observables.settings_from_")])
    outer = ctor & ~np.where(parent >= 0, ctor[np.maximum(parent, 0)], False)
    metrics["observables.settings.us_per_call"] = (
        float(duration[outer].mean()) * 1e6 if outer.any() else 0.0, "us")
    metrics["bell.hardy_probabilities.us_per_call"] = (per_call("bell.hardy_probabilities", 1e6), "us")
    metrics["bell.sample_statistics.us_per_call"] = (per_call("bell.sample_statistics", 1e6), "us")
    metrics["states.classify.us_per_call"] = (per_call("states.classify", 1e6), "us")

    batch = spans("states.classify_batch")
    rows = sum(r for r, _ in tracer.alloc_probes)
    metrics["states.classify_batch.ns_per_row"] = (
        float(duration[batch].sum()) / rows * 1e9 if rows else 0.0, "ns")
    peaks = [p for _, p in tracer.alloc_probes]
    metrics["states.classify_batch.alloc_peak_mb"] = (
        statistics.median(peaks) / 2**20 if peaks else 0.0, "MB")
    metrics["linalg.schmidt_decompose.us_per_call"] = (
        per_call("linalg.schmidt_decompose", 1e6), "us")

    # calibrated, so that a change in the machine's speed between the
    # untraced and the traced rounds does not read as overhead
    cal = run.calibrated()
    if traced.any() and (~traced).any():
        overhead = (cal[traced].mean() / cal[~traced].mean() - 1.0) * 100.0
    else:
        overhead = 0.0
    metrics["trace.overhead_pct"] = (float(overhead), "%")
    return metrics


def machine_record(kernel: str, cal_median_s: float) -> dict:
    import scipy

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = {k: config["Build Dependencies"]["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return {
        "calibration_kernel": kernel,
        "calibration_kernel_median_ms": cal_median_s * 1e3,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        load_package()
    except ImportError as exc:
        print(f"cannot import hardy3q from {SRC}: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    # the floor that input generation sets under peak_rss_mb
    inputs_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer = Tracer() if args.trace else None
    run = Run(workload, args.seconds, tracer)
    run.execute()

    cal = statistics.median(run.calibration)
    print("machine " + json.dumps(machine_record(workload.CALIBRATION, cal)))
    print(
        f"workload {args.workload} seed {args.seed}: {run.attempted} attempted, "
        f"{run.failed} failed, {run.wrong} wrong, {len(run.calibration)} calibration samples, "
        f"peak RSS {inputs_rss_mb:.1f} MB before the first operation"
        + (f", fallback share {workload.fallbacks / workload.witnesses:.4f} "
           f"of {workload.witnesses} witnesses" if workload.witnesses else "")
    )
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        metrics = per_layer_metrics(run)
    else:
        metrics = end_to_end_metrics(run)
    print("wall clock, uncalibrated and not part of the result:")
    for key, (value, unit) in wall_clock_figures(run).items():
        print(f"  {key:48s} {value:14.6g} {unit}")
    print("result:")
    for key, (value, unit) in metrics.items():
        print(f"  {key:48s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
