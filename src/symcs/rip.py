"""Restricted isometry diagnostics by exhaustive support enumeration.

The order-k isometry constant of a measurement matrix is the smallest
``delta`` with ``(1-delta)|x|^2 <= |Ax|^2 <= (1+delta)|x|^2`` for every
k-sparse ``x``; equivalently the worst eigenvalue deviation from 1 over all
k-column Gram matrices.  These routines compute it exactly by enumerating
supports, which is only feasible for small sizes but gives ground truth the
sampling-based experiments can be held against.  ``sym_eigen_extremes``
(cyclic Jacobi) uses no ``numpy.linalg`` eigensolver, so tests hold the
scan's LAPACK eigenvalues against it; it is never on the scan's path.

The scan is an exact branch-and-bound.  Each support's deviation
``max(lambda_max - 1, 1 - lambda_min)`` is at most its Gram's Gershgorin
bound ``b = max_i (|g_ii - 1| + sum_{j != i} |g_ij|)``, the largest row sum
of ``|G - I|`` (``gram_on_support`` makes a sign ensemble's ``g_ii`` exactly
1 by integer arithmetic and one division by the row count).  Eigenvalues are
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
from .errors import ConvergenceError, DimensionError, EnumerationTooLargeError

__all__ = [
    "MAX_SUPPORTS",
    "RipEstimate",
    "delta2_coherence",
    "delta_k_bruteforce",
    "gram_on_support",
    "recovery_condition",
    "sym_eigen_extremes",
]

# supports per chunk are sized so their gathered 8-byte columns fit here
_CHUNK_BYTES = 2**18

MAX_SUPPORTS = 1_000_000

_JACOBI_TOL = 1e-12
_JACOBI_SWEEPS = 50


def gram_on_support(matrix, support: np.ndarray) -> np.ndarray:
    """Gram matrices of the columns indexed by ``support``.

    ``support`` is one index set of shape ``(k,)`` or a stack of them of
    shape ``(c, k)``; the result is ``(k, k)`` or ``(c, k, k)``.  For a sign
    ensemble's MeasurementMatrix the entries are (integer sign dot product)
    / rows: the diagonal is exactly 1.0 and each off-diagonal is one rounded
    division.  A dense one or a 2-D float array is read in place, with no
    copy per chunk of supports, and its Gram is symmetrized explicitly.
    """
    rows, _ = shape(matrix)
    support = np.asarray(support, dtype=np.int64)
    if support.ndim not in (1, 2):
        raise DimensionError("support must be a (k,) or (c, k) index array")
    if isinstance(matrix, MeasurementMatrix):
        if matrix.signs is not None:
            cols = np.moveaxis(matrix.signs[:, support], 0, -1).astype(np.int64)
            dots = cols @ np.swapaxes(cols, -1, -2)
            return dots.astype(np.float64) / rows
        matrix = matrix.entries
    cols = np.moveaxis(np.asarray(matrix, dtype=np.float64)[:, support], 0, -1)
    g = cols @ np.swapaxes(cols, -1, -2)
    return (g + np.swapaxes(g, -1, -2)) / 2.0


def sym_eigen_extremes(matrix: np.ndarray):
    """Smallest and largest eigenvalue of a symmetric matrix by cyclic Jacobi.

    Runs full sweeps of Jacobi rotations over the strict upper triangle until
    the off-diagonal Frobenius norm drops below ``_JACOBI_TOL`` (1e-12) times
    the matrix Frobenius norm (or is exactly zero).  Returns ``(lo, hi)``;
    ConvergenceError if ``_JACOBI_SWEEPS`` (50) sweeps do not reach it.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {a.shape}")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(a).max())):
        raise DimensionError("matrix is not symmetric")
    a = (a + a.T) / 2.0
    d = a.shape[0]
    if d == 1:
        return float(a[0, 0]), float(a[0, 0])
    total = np.linalg.norm(a)
    if total == 0.0:
        return 0.0, 0.0
    mask = ~np.eye(d, dtype=bool)
    for _ in range(_JACOBI_SWEEPS):
        off = float(np.linalg.norm(a[mask]))
        if off <= _JACOBI_TOL * total:
            diag = np.diag(a)
            return float(diag.min()), float(diag.max())
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                # an entry too small to move the diagonal is already converged
                if abs(a[p, p]) + 100.0 * abs(apq) == abs(a[p, p]) and (
                    abs(a[q, q]) + 100.0 * abs(apq) == abs(a[q, q])
                ):
                    a[p, q] = 0.0
                    a[q, p] = 0.0
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                elif abs(theta) > 1e150:
                    t = 1.0 / (2.0 * theta)
                else:
                    # smaller-magnitude root for a stable rotation angle
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)
                h = t * apq
                a[p, p] -= h
                a[q, q] += h
                a[p, q] = 0.0
                a[q, p] = 0.0
                for r in range(d):
                    if r == p or r == q:
                        continue
                    grp = a[r, p]
                    grq = a[r, q]
                    a[r, p] = grp - s * (grq + grp * tau)
                    a[p, r] = a[r, p]
                    a[r, q] = grq + s * (grp - grq * tau)
                    a[q, r] = a[r, q]
    raise ConvergenceError(
        f"Jacobi sweeps did not reach tolerance (after {_JACOBI_SWEEPS} iterations)"
    )


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
