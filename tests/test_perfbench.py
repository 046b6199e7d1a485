"""The benchmark's reads of the package keep working.

``perfbench/`` imports the package from ``src/``, wraps its module-level
functions in timing spans and reads settings through ``pairs``; a change
that breaks any of these would otherwise show only when the benchmark runs.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

import hardy3q
import hardy3q.cli  # noqa: F401  (the tracer wraps every layer, the CLI included)

ROOT = Path(__file__).resolve().parents[1]
INV_SQRT2 = 2**-0.5


def test_perfbench_self_tests_pass():
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    # the self-tests skip, rather than fail, when the package does not import
    assert out.stdout.splitlines()[-1].startswith("18 passed"), out.stdout


def test_tracer_records_settings_and_reads_pairs():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = hardy3q.observables.settings_from_plus_kets
    tracer = spans.Tracer()
    tracer.install()
    try:
        built = hardy3q.build_witness(hardy3q.CanonicalState((INV_SQRT2, 0, 0, 0, INV_SQRT2), 0.0))
    finally:
        tracer.uninstall()
    assert hardy3q.observables.settings_from_plus_kets is original
    recorded = {tracer.names[i] for i in tracer.span_name}
    assert "observables.settings_from_plus_kets" in recorded
    kets = built.settings.plus_kets
    for j, pair in enumerate(built.settings.pairs):
        assert np.array_equal(pair.u.plus_ket, kets[j, 0])
        assert np.array_equal(pair.d.plus_ket, kets[j, 1])
