"""Semantic exception types shared across the package."""

from __future__ import annotations


class Hardy3QError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(Hardy3QError, ValueError):
    """Vector or matrix has an unsupported or mismatched dimension."""


class NormalizationError(Hardy3QError, ValueError):
    """A state-role vector is not normalized within tolerance."""


class ClassificationOverlapError(Hardy3QError):
    """More than one classification row matched."""

    def __init__(self, lams, phi, labels):
        self.lams = tuple(float(x) for x in lams)
        self.phi = float(phi)
        self.labels = tuple(str(x) for x in labels)
        super().__init__(
            f"rows {self.labels} all matched: lambda={self.lams}, phi={self.phi}"
        )


class WindowViolationError(Hardy3QError, ValueError):
    """An observable pair falls outside the open non-commutation window."""

    def __init__(self, pair_index: int, overlap: float):
        self.pair_index = int(pair_index)
        self.overlap = float(overlap)
        super().__init__(
            f"pair {self.pair_index}: |<U+|D+>| = {self.overlap:.6e} is outside "
            "the open window (0, 1); the observables commute"
        )


class ConstructionFailureError(Hardy3QError):
    """All witness candidates failed validation and the fallback gave up."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        self.diagnostics = dict(diagnostics or {})
        super().__init__(message)


class NoWitnessError(Hardy3QError):
    """The state is fully product; no Hardy witness exists for it."""


class VisibilityUndefinedError(Hardy3QError, ValueError):
    """Threshold visibility is undefined because there is no violation."""
