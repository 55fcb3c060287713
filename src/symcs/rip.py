"""Restricted isometry diagnostics by exhaustive support enumeration.

The order-k isometry constant of a measurement matrix is the smallest
``delta`` with ``(1-delta)|x|^2 <= |Ax|^2 <= (1+delta)|x|^2`` for every
k-sparse ``x``; equivalently the worst eigenvalue deviation from 1 over all
k-column Gram matrices.  These routines compute it exactly by enumerating
supports, which is only feasible for small sizes but gives ground truth the
sampling-based experiments can be held against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .ensembles import MeasurementMatrix, shape
from .errors import DimensionError, EnumerationTooLargeError
from .linalg import gram_on_support
from .linalg import sym_eigen_extremes  # noqa: F401  (the benchmark's trace hook wraps this name)

__all__ = [
    "MAX_SUPPORTS",
    "RipEstimate",
    "delta2_coherence",
    "delta_k_bruteforce",
    "recovery_condition",
]

# supports per chunk are sized so their gathered 8-byte columns fit here
_CHUNK_BYTES = 2**18

MAX_SUPPORTS = 1_000_000


@dataclass(frozen=True)
class RipEstimate:
    """Exact order-k isometry constant with the support attaining it."""

    order: int
    delta: float
    worst_support: tuple
    supports_checked: int


def delta_k_bruteforce(matrix, order: int) -> RipEstimate:
    """Order-k isometry constant over every size-k column support.

    Supports are enumerated in lexicographic chunks; each chunk's Gram
    matrices are built in one stacked ``gram_on_support`` call and reduced
    by one stacked ``numpy.linalg.eigvalsh``.  The reported support is the
    first in enumeration order that attains the constant.  Enumeration
    refuses to start above ``MAX_SUPPORTS`` (1,000,000) supports.
    """
    rows, dimension = shape(matrix)
    if not 1 <= order <= dimension:
        raise DimensionError(
            f"need 1 <= order <= dimension, got {order}, {dimension}"
        )
    total = math.comb(dimension, order)
    if total > MAX_SUPPORTS:
        raise EnumerationTooLargeError(
            f"{total} supports of size {order} from {dimension} columns; "
            f"the cap is {MAX_SUPPORTS}"
        )
    chunk = max(1, _CHUNK_BYTES // (8 * order * rows))
    supports = combinations(range(dimension), order)
    worst, worst_support = -math.inf, None
    for _ in range(0, total, chunk):
        block = np.array(list(islice(supports, chunk)), dtype=np.int64)
        eig = np.linalg.eigvalsh(gram_on_support(matrix, block))
        dev = np.maximum(eig[:, -1] - 1.0, 1.0 - eig[:, 0])
        best = int(np.argmax(dev))
        if dev[best] > worst:
            worst = float(dev[best])
            worst_support = tuple(int(i) for i in block[best])
    return RipEstimate(
        order=order,
        delta=max(worst, 0.0),
        worst_support=worst_support,
        supports_checked=total,
    )


def delta2_coherence(matrix) -> float:
    """Order-2 isometry constant as the worst off-diagonal Gram entry.

    For a sign ensemble the columns have exactly unit norm, each pair Gram is
    ``[[1, g], [g, 1]]`` with eigenvalues ``1 +- g``, and the order-2
    constant equals the coherence ``max |g|``.  Computed with integer sign
    dot products and a single division, so the value is a correctly rounded
    rational.  ``matrix`` must be a sign ensemble's MeasurementMatrix.
    """
    if not isinstance(matrix, MeasurementMatrix) or matrix.signs is None:
        raise DimensionError(
            "coherence shortcut requires a sign ensemble with exact unit columns"
        )
    if matrix.dimension < 2:
        raise DimensionError("need at least 2 columns")
    signs = matrix.signs.astype(np.int64)
    dots = signs.T @ signs
    np.fill_diagonal(dots, 0)
    return float(np.abs(dots).max()) / matrix.rows


def recovery_condition(delta2k: float) -> bool:
    """Whether an order-2k constant certifies exact sparse recovery.

    True exactly when ``delta2k < sqrt(2) - 1``.
    """
    if delta2k < 0.0:
        raise ValueError(f"isometry constant cannot be negative, got {delta2k}")
    return delta2k < math.sqrt(2.0) - 1.0
