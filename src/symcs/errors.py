"""Shared exception types."""

from __future__ import annotations


class DimensionError(ValueError):
    """Array shapes, sizes, or index sets violate an operation's contract."""


class EnumerationTooLargeError(ValueError):
    """Requested exact enumeration exceeds its combinatorial guard."""


class ConvergenceError(RuntimeError):
    """Iteration failed to converge within its cap."""


class SingularMatrixError(ValueError):
    """Matrix is singular, or not positive definite, for the requested solve."""


class InfeasibleError(RuntimeError):
    """The requested problem has no feasible point."""


class PgmParseError(ValueError):
    """Malformed PGM data; carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class UndefinedMetricError(ValueError):
    """Metric is undefined for these inputs (zero reference)."""
