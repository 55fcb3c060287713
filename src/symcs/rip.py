"""Restricted isometry diagnostics by exhaustive support enumeration.

The order-k isometry constant of a measurement matrix is the smallest
``delta`` with ``(1-delta)|x|^2 <= |Ax|^2 <= (1+delta)|x|^2`` for every
k-sparse ``x``; equivalently the worst eigenvalue deviation from 1 over all
k-column Gram matrices.  These routines compute it exactly by enumerating
supports, which is only feasible for small sizes but gives ground truth the
sampling-based experiments can be held against.

The scan is an exact branch-and-bound.  Each support's deviation
``max(lambda_max - 1, 1 - lambda_min)`` is at most its Gram's Gershgorin
bound ``b = max_i (|g_ii - 1| + sum_{j != i} |g_ij|)``, the largest row sum
of ``|G - I|`` (for a sign ensemble ``g_ii`` is exactly 1).  Eigenvalues are
computed only for supports with ``b >= worst - margin``, where ``worst`` is
the largest deviation found so far and ``margin = 1e-9 * max(1, |worst|)``
lies far above the rounding in ``b`` and in LAPACK's eigenvalues.  A support
left out has a computed deviation below ``worst``, so it could neither raise
``worst`` nor be the first support to attain it.  The stacked ``eigvalsh``
calls LAPACK once per Gram, so a solved Gram's eigenvalues do not depend on
which others are solved with it.  The constant, the worst support and the
support count are therefore the ones a solve of every support gives, bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice

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
    matrices are built in one stacked ``gram_on_support`` call.  Their
    Gershgorin bounds (the largest row sum of ``|G - I|``) are checked
    finite, and one stacked ``numpy.linalg.eigvalsh`` solves the supports
    whose bound reaches ``worst - 1e-9 * max(1, |worst|)``, ``worst`` being
    the largest deviation so far; the first chunk is solved whole.  No
    support left out could change the result, so the constant, the worst
    support and ``supports_checked`` (every support, solved or bounded) are
    those of solving them all.  The reported support is the first in
    enumeration order that attains the constant.  Enumeration refuses to
    start above ``MAX_SUPPORTS`` (1,000,000) supports; a Gram with a NaN or
    infinite entry or bound raises DimensionError.
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
    identity = np.eye(order)
    worst, worst_support = -math.inf, None
    for _ in range(0, total, chunk):
        block = np.fromiter(
            chain.from_iterable(islice(supports, chunk)), dtype=np.int64
        ).reshape(-1, order)
        grams = gram_on_support(matrix, block)
        bound = np.abs(grams - identity).sum(axis=-1).max(axis=-1)
        if not np.isfinite(bound).all():
            bad = tuple(int(i) for i in block[np.argmin(np.isfinite(bound))])
            raise DimensionError(
                f"the Gram on support {bad} has a NaN or infinite entry or row sum"
            )
        # worst - margin is -inf until a chunk has been solved
        solve = np.flatnonzero(bound >= worst - 1e-9 * max(1.0, abs(worst)))
        if solve.size == 0:
            continue
        eig = np.linalg.eigvalsh(grams[solve])
        dev = np.maximum(eig[:, -1] - 1.0, 1.0 - eig[:, 0])
        best = int(np.argmax(dev))
        if dev[best] > worst:
            worst = float(dev[best])
            worst_support = tuple(int(i) for i in block[solve[best]])
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
