"""Command-line interface: state files in, JSON reports out.

State files are UTF-8 JSON with exactly one of two forms::

    {"lambda": [l0, l1, l2, l3, l4], "phi": 0.0, "label": "optional"}
    {"amplitudes": [[re, im], ...8 pairs...], "label": "optional"}

Normalization is enforced; pass --normalize to rescale (the applied factor
is echoed in the report).  All commands print a single JSON report to
stdout (``scan`` prints one JSON record per line, for each point of its one
``--grid t=start:stop:steps`` axis) and communicate failure through exit codes:

    0  success
    2  parse error (unreadable file, malformed JSON, invalid values)
    3  classification overlap
    4  wrong input form for the command
    5  witness expectation mismatch
    6  internal construction failure

Two records are built once and printed by several commands.  The witness
record is ``certificate``, ``bell`` (B at the certificate's settings),
``used_fallback`` and ``note``; a fully product state has instead
``"witness": null`` and the note "no witness: fully product state".
``witness`` and ``sample`` print it at top level (``sample`` adds
``sample``, drawn at those settings), and each ``scan`` point under
``witness`` (a product point carries its null and note at top level).
The optimization record of ``minimize_bell`` is ``optimize``'s
``optimization`` and each ``scan --optimize`` point's ``optimized``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, linalg
from .bell import (
    SampleStatistics,
    bell_value,
    lhv_assignments,
    lhv_bell_value,
    lhv_hardy_pattern_assignments,
    lhv_minimum,
    sample_statistics,
)
from .errors import ClassificationOverlapError, ConstructionFailureError, Hardy3QError
from .hardy import ZERO_TOL, WitnessConstruction, build_witness
from .observables import MeasurementSettings
from .states import CLASS_EPS, CanonicalState, StateClass, classify, normalized_canonical
from .visibility import DEFAULT_STARTS, POLISH_TOL, OptimizationResult, minimize_bell

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GAP = 3
EXIT_FORM = 4
EXIT_EXPECTATION = 5
EXIT_CONSTRUCTION = 6

SEED_ENV_VAR = "HARDY3Q_SEED"

#: the most points a ``scan`` grid may have; every point builds a witness
#: (about a millisecond each), and larger grids are rejected before allocation
MAX_GRID_POINTS = 1_000_000
#: the most starts ``optimize`` and ``scan --optimize`` may ask for; each
#: start gets its own generator, Bloch vectors and Anderson histories before
#: any work is done.  On W a start costs about 0.5 ms and 8 kB of peak
#: allocation on a 2-core machine (4,000 starts: 2.1 s), so this bound keeps
#: a run near 5 s and 80 MB
MAX_STARTS = 10_000
#: ``sample --shots`` must be below this: the sampler draws int64 counts
SHOTS_LIMIT = 2**63


class CliError(Exception):
    def __init__(self, message: str, code: int):
        self.code = code
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 2 with a JSON error."""

    def error(self, message: str):
        raise CliError(f"{self.prog}: {message}", EXIT_PARSE)


@dataclass(frozen=True)
class StateSpec:
    """Parsed state file: raw echo plus the realized state objects."""

    raw: dict
    canonical: CanonicalState | None
    ket: np.ndarray
    label: str | None
    normalization_factor: float | None


def _default_seed() -> int:
    """The seed in HARDY3Q_SEED, 0 when it is unset; anything but an integer exits 2."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}", EXIT_PARSE) from None


def load_state_spec(path: str, normalize: bool = False) -> StateSpec:
    """Read and validate a state file ('-' reads stdin)."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path!r}: {exc}", EXIT_PARSE) from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON in {path!r}: {exc}", EXIT_PARSE) from exc
    if not isinstance(raw, dict):
        raise CliError("state file must contain a JSON object", EXIT_PARSE)

    has_canonical = "lambda" in raw
    has_amplitudes = "amplitudes" in raw
    if has_canonical == has_amplitudes:
        raise CliError(
            "state file must contain exactly one of 'lambda' or 'amplitudes'",
            EXIT_PARSE,
        )
    label = raw.get("label")
    if label is not None and not isinstance(label, str):
        raise CliError("'label' must be a string", EXIT_PARSE)

    factor: float | None = None
    if has_canonical:
        lams = raw["lambda"]
        phi = raw.get("phi", 0.0)
        if not isinstance(lams, list) or len(lams) != 5:
            raise CliError("'lambda' must be a list of five numbers", EXIT_PARSE)
        try:
            if normalize:
                state, factor = normalized_canonical([float(x) for x in lams], float(phi))
            else:
                state = CanonicalState(tuple(float(x) for x in lams), float(phi))
        except (TypeError, ValueError, OverflowError, Hardy3QError) as exc:
            raise CliError(f"invalid canonical parameters: {exc}", EXIT_PARSE) from exc
        return StateSpec(raw, state, state.to_ket(), label, factor)

    amps = raw["amplitudes"]
    if not isinstance(amps, list) or len(amps) != 8:
        raise CliError("'amplitudes' must be a list of eight [re, im] pairs", EXIT_PARSE)
    try:
        vec = np.array([complex(float(p[0]), float(p[1])) for p in amps])
    except (TypeError, ValueError, LookupError, OverflowError) as exc:
        raise CliError(f"invalid amplitude entry: {exc}", EXIT_PARSE) from exc
    if not np.isfinite(vec).all():
        raise CliError("amplitude entries must be finite numbers", EXIT_PARSE)
    with np.errstate(over="ignore"):  # an overflowing norm is rejected below
        nrm = float(np.linalg.norm(vec))
    if normalize:
        if not 0.0 < nrm < math.inf:
            raise CliError(f"cannot normalize amplitudes of norm {nrm!r}", EXIT_PARSE)
        vec = vec / nrm
        factor = nrm
    elif abs(nrm - 1.0) > 1e-9:
        raise CliError(
            f"amplitudes are not normalized (norm {nrm!r}); pass --normalize to rescale",
            EXIT_PARSE,
        )
    return StateSpec(raw, None, linalg.ket(vec), label, factor)


def require_positive(flag: str, value: float, upper: float = math.inf) -> None:
    """Reject a numeric flag outside (0, upper), NaN included, with exit 2."""
    if not 0.0 < value < upper:
        bound = "finite" if upper == math.inf else f"below {upper}"
        raise CliError(f"{flag} must be positive and {bound}, got {value!r}", EXIT_PARSE)


def require_starts(starts: int) -> None:
    """Reject a start count outside [1, MAX_STARTS] with exit 2."""
    if not 1 <= starts <= MAX_STARTS:
        raise CliError(f"--starts must lie in [1, {MAX_STARTS}], got {starts}", EXIT_PARSE)


def require_canonical(spec: StateSpec, command: str) -> CanonicalState:
    if spec.canonical is None:
        raise CliError(f"{command} requires canonical form input", EXIT_FORM)
    return spec.canonical


# ---------------------------------------------------------------------------
# payload builders
# ---------------------------------------------------------------------------

def _ket_payload(k: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in k]


def _settings_payload(settings: MeasurementSettings) -> dict:
    return {
        "pairs": [
            {"u_plus": _ket_payload(u), "d_plus": _ket_payload(d)}
            for u, d in settings.plus_kets
        ]
    }


def _optimization_payload(result: OptimizationResult) -> dict:
    return {
        "best_value": float(result.best_value),
        "threshold_visibility": (
            None
            if result.threshold_visibility is None
            else float(result.threshold_visibility)
        ),
        "violation_found": bool(result.violation_found),
        "starts": int(result.starts),
        "starts_at_best": int(result.starts_at_best),
        "converged": bool(result.converged),
        "seed": int(result.seed),
        "best_settings": _settings_payload(result.best_settings),
    }


def _sample_payload(stats: SampleStatistics) -> dict:
    return {
        "frequencies": [float(f) for f in stats.frequencies],
        "standard_errors": [float(e) for e in stats.standard_errors],
        "shots": int(stats.shots),
        "seed": int(stats.seed),
    }


def _base_report(command: str, args: argparse.Namespace, spec: StateSpec | None) -> dict:
    report: dict = {
        "command": command,
        "version": __version__,
        "seed": int(getattr(args, "seed", 0)),
        "options": {
            key: value
            for key, value in sorted(vars(args).items())
            if key not in ("func", "path") and value is not None
        },
    }
    if spec is not None:
        report["input"] = spec.raw
        report["label"] = spec.label
        if spec.normalization_factor is not None:
            report["normalization_factor"] = float(spec.normalization_factor)
    return report


def _witness_record(
    state: CanonicalState, cls: StateClass, seed: int, zero_tol: float = ZERO_TOL
) -> tuple[dict, WitnessConstruction | None]:
    """The witness record of a classified state, with the construction it reports.

    A fully product state has no witness: ``{"witness": None, "note": ...}``
    and no construction.  Otherwise the record holds the certificate, the
    Bell value at its settings, whether the search found them, and the note.
    """
    if cls.major == "A":
        return {"witness": None, "note": "no witness: fully product state"}, None
    built = build_witness(state, cls, zero_tol=zero_tol, seed=seed)
    cert = built.certificate
    bell = bell_value(state.to_ket(), built.settings)
    return {
        "certificate": {
            "probabilities": [float(p) for p in cert.probabilities],
            "satisfied": bool(cert.satisfied),
            "zero_tolerance": float(cert.zero_tolerance),
            "settings": _settings_payload(cert.settings),
        },
        "bell": {
            "probabilities": [float(p) for p in bell.probabilities],
            "bell_value": float(bell.bell_value),
            "lhv_bound_satisfied": bool(bell.lhv_bound_satisfied),
        },
        "used_fallback": bool(built.used_fallback),
        "note": built.note,
    }, built


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_classify(args: argparse.Namespace) -> tuple[dict, int]:
    require_positive("--eps", args.eps)
    spec = load_state_spec(args.path, normalize=args.normalize)
    cls = classify(require_canonical(spec, "classify"), eps=args.eps)
    report = _base_report("classify", args, spec)
    report["class"] = cls.value
    report["major_class"] = cls.major
    return report, EXIT_OK


def _cmd_witness(args: argparse.Namespace) -> tuple[dict, int]:
    # a zero-probability tolerance of 1 or more can never certify P5 > tol
    require_positive("--tol", args.tol, upper=1.0)
    spec = load_state_spec(args.path, normalize=args.normalize)
    state = require_canonical(spec, "witness")
    cls = classify(state)
    report = _base_report("witness", args, spec)
    report["class"] = cls.value
    record, built = _witness_record(state, cls, args.seed, zero_tol=args.tol)
    report.update(record)
    # a product state needs no witness; a C pair violates the bound without
    # the Hardy pattern, every other class with it
    expectation_met = built is None or (
        built.certificate.satisfied == (cls.major != "C")
        and not record["bell"]["lhv_bound_satisfied"]
    )
    report["expectation_met"] = expectation_met
    return report, EXIT_OK if expectation_met else EXIT_EXPECTATION


def _cmd_optimize(args: argparse.Namespace) -> tuple[dict, int]:
    require_starts(args.starts)
    spec = load_state_spec(args.path, normalize=args.normalize)
    try:
        result = minimize_bell(spec.ket, starts=args.starts, seed=args.seed, tol=args.tol)
    except ValueError as exc:
        raise CliError(f"invalid optimizer argument: {exc}", EXIT_PARSE) from exc
    report = _base_report("optimize", args, spec)
    if spec.canonical is not None:
        report["class"] = classify(spec.canonical).value
    report["optimization"] = _optimization_payload(result)
    if not result.violation_found:
        report["note"] = "no violation found"
    return report, EXIT_OK


def _cmd_lhv(args: argparse.Namespace) -> tuple[dict, int]:
    minimum, argmins = lhv_minimum()
    pattern_hits = lhv_hardy_pattern_assignments()
    report = _base_report("lhv", args, None)
    report["assignment_count"] = 64
    report["minimum"] = int(minimum)
    report["minimizer_count"] = len(argmins)
    report["hardy_pattern_possible"] = bool(pattern_hits)
    if args.verbose:
        report["assignments"] = [
            {"assignment": list(a), "bell_value": int(lhv_bell_value(a))}
            for a in lhv_assignments()
        ]
        report["minimizers"] = [list(a) for a in argmins]
    return report, EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> tuple[dict, int]:
    require_positive("--shots", args.shots, upper=SHOTS_LIMIT)
    spec = load_state_spec(args.path, normalize=args.normalize)
    state = require_canonical(spec, "sample")
    cls = classify(state)
    report = _base_report("sample", args, spec)
    report["class"] = cls.value
    record, built = _witness_record(state, cls, args.seed)
    report.update(record)
    report["sample"] = None if built is None else _sample_payload(
        sample_statistics(spec.ket, built.settings, shots=args.shots, seed=args.seed)
    )
    return report, EXIT_OK


# ---------------------------------------------------------------------------
# family scans
# ---------------------------------------------------------------------------

def _ghz_family(t: float) -> CanonicalState:
    return CanonicalState((math.cos(t), 0.0, 0.0, 0.0, math.sin(t)), 0.0)


def _w_family(t: float) -> CanonicalState:
    s = math.sin(t) / math.sqrt(2.0)
    return CanonicalState((math.cos(t), 0.0, s, s, 0.0), 0.0)


def _pair13_family(t: float) -> CanonicalState:
    return CanonicalState((math.cos(t), 0.0, math.sin(t), 0.0, 0.0), 0.0)


def _pair12_family(t: float) -> CanonicalState:
    return CanonicalState((math.cos(t), 0.0, 0.0, math.sin(t), 0.0), 0.0)


#: the one-parameter state families ``scan`` runs over; each takes ``t``
FAMILIES = {
    "ghz": _ghz_family,
    "w": _w_family,
    "pair13": _pair13_family,
    "pair12": _pair12_family,
}


def _parse_grid(values: list[str]) -> np.ndarray:
    """The points of the one ``t=start:stop:steps`` axis, inclusive.

    A second ``--grid``, another axis name, a bad value or more than
    MAX_GRID_POINTS points exits 2 before anything is allocated.
    """
    name, _, rest = values[0].partition("=")
    if len(values) != 1 or name.strip() != "t":
        raise CliError(f"--grid takes the one axis 't' of every family, got {values}", EXIT_PARSE)
    try:
        start, stop, steps = rest.split(":")
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError as exc:
        raise CliError(
            f"grid spec {values[0]!r} must look like t=start:stop:steps", EXIT_PARSE
        ) from exc
    if not (math.isfinite(start) and math.isfinite(stop) and steps >= 1):
        raise CliError(
            f"grid spec {values[0]!r} needs finite start and stop and at least 1 step",
            EXIT_PARSE,
        )
    if steps > MAX_GRID_POINTS:
        raise CliError(
            f"grid has {steps} points, more than the {MAX_GRID_POINTS} a scan may have",
            EXIT_PARSE,
        )
    return np.linspace(start, stop, steps)


def _scan_record(args: argparse.Namespace, t: float) -> dict:
    """Class and witness record of the family's state at ``t``; with --optimize,
    its optimization record too.

    A point whose state cannot be built or witnessed reports why in its
    ``error`` field, and the scan goes on.
    """
    record: dict = {"parameters": {"t": t}}
    try:
        state = FAMILIES[args.family](t)
        cls = classify(state)
        record["class"] = cls.value
        witness, built = _witness_record(state, cls, args.seed)
        record.update(witness if built is None else {"witness": witness})
        if args.optimize:
            result = minimize_bell(state.to_ket(), starts=args.starts, seed=args.seed)
            record["optimized"] = _optimization_payload(result)
    except (Hardy3QError, ValueError) as exc:
        record["error"] = str(exc)
    record["family"] = args.family
    return record


def _cmd_scan(args: argparse.Namespace) -> tuple[dict | None, int]:
    if args.family not in FAMILIES:
        raise CliError(
            f"unknown family {args.family!r}; choose from {sorted(FAMILIES)}",
            EXIT_PARSE,
        )
    grid = _parse_grid(args.grid)
    if args.optimize:
        require_starts(args.starts)
    for t in grid.tolist():
        print(json.dumps(_scan_record(args, t)))
    return None, EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hardy3q",
        description=(
            "Classify three-qubit pure states, build Hardy-type nonlocality "
            "witnesses, and quantify Bell-inequality violation."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_seed=True):
        p.add_argument("path", help="state file path, or '-' for stdin")
        p.add_argument(
            "--normalize",
            action="store_true",
            help="rescale unnormalized input (the factor is echoed)",
        )
        if with_seed:
            p.add_argument("--seed", type=int)

    p = sub.add_parser("classify", help="print the classification-table row")
    add_common(p, with_seed=False)
    p.add_argument("--eps", type=float, default=CLASS_EPS, help="zero/equality tolerance")
    p.set_defaults(func=_cmd_classify, seed=0)

    p = sub.add_parser("witness", help="class-appropriate settings and certificate")
    add_common(p)
    p.add_argument("--tol", type=float, default=ZERO_TOL, help="zero-probability tolerance")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("optimize", help="minimize B and report threshold visibility")
    add_common(p)
    p.add_argument("--starts", type=int, default=DEFAULT_STARTS)
    p.add_argument("--tol", type=float, default=POLISH_TOL, help="optimizer convergence tolerance")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("lhv", help="enumerate all 64 deterministic assignments")
    p.add_argument("--verbose", action="store_true", help="list every assignment")
    p.set_defaults(func=_cmd_lhv, seed=0)

    p = sub.add_parser("sample", help="finite-shot frequencies at the witness settings")
    add_common(p)
    p.add_argument("--shots", type=int, default=100000)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("scan", help="scan a named state family over a grid")
    p.add_argument("--family", required=True, help=f"one of {sorted(FAMILIES)}")
    p.add_argument(
        "--grid",
        action="append",
        required=True,
        help="the family parameter's axis, t=start:stop:steps",
    )
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--starts", type=int, default=16)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.seed is None:  # no --seed; classify and lhv default to 0 and skip the variable
            args.seed = _default_seed()
        if args.seed < 0:
            raise CliError(
                f"seed (--seed or {SEED_ENV_VAR}) must be non-negative, got {args.seed}",
                EXIT_PARSE,
            )
        report, code = args.func(args)
    except CliError as exc:
        print(json.dumps({"error": str(exc), "exit_code": exc.code}), file=sys.stderr)
        return exc.code
    except ClassificationOverlapError as exc:
        print(json.dumps({"error": str(exc), "exit_code": EXIT_GAP}), file=sys.stderr)
        return EXIT_GAP
    except Hardy3QError as exc:
        error = {"error": str(exc), "exit_code": EXIT_CONSTRUCTION}
        if isinstance(exc, ConstructionFailureError) and exc.diagnostics:
            error["diagnostics"] = exc.diagnostics
        print(json.dumps(error), file=sys.stderr)
        return EXIT_CONSTRUCTION
    if report is not None:
        print(json.dumps(report, indent=2))
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
