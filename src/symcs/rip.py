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
of ``|G - I|`` on the support.  Every bound comes from one Gram of the whole
matrix, ``off = |G - I|``.  For a sign ensemble its entries are the integer
dot products over the rows, divided once by the row count, that each
support's Gram has (``gram_on_support`` makes ``g_ii`` exactly 1); for a
float ensemble they differ from a support's own Gram by rounding only.  A
support is a prefix of ``k-1`` columns plus a column ``c`` above it; the
prefixes come in lexicographic chunks, each bounding its ``(prefix, c)``
supports from the prefix's row sums, and that order is the supports'
lexicographic order.  Before the pass ``worst`` is seeded by solving the
greedy supports, one grown from each start column by the column that adds
the largest row sum, which usually attain the constant.  The pass then
computes eigenvalues only for supports with ``b >= worst - margin``, where
``worst`` is the largest deviation found so far and ``margin = 1e-9 *
max(1, |worst|)`` lies far above the rounding in ``b`` and in LAPACK's
eigenvalues; a seed that reaches it is solved again there.

A second bound, one level up, skips whole subtrees.  The supports whose
first ``k-2`` columns are ``P`` add two columns from the candidates ``C``
above ``P``'s last column, so every one of their bounds is at most ``B(P) =
max(max_{i in P} s_i + T_2(i), max_{i in C} off[i, i] + s_i + T_1(i))``,
where ``s_i`` is the sum of ``off[i, j]`` over ``j`` in ``P`` and ``T_r(i)``
the sum of the ``r`` largest ``off[i, j]`` over ``j`` in ``C`` (``j != i``),
read from two ``N x N`` tables of suffix maxima.  The prefixes ``P`` come in
lexicographic chunks; one with ``B(P) < worst - margin`` is skipped with all
its completions, and the kept ones are expanded with array operations into
their ``(k-1)``-prefixes, in lexicographic order, for the pass above.
``B(P)`` adds up the same nonnegative entries as a completion's ``b``, or
larger ones, in another order, so what rounding can take from it lies far
under the margin too.  An ``off`` with a NaN or infinite entry keeps every
subtree (``nan >= worst`` is False), so the refusal below still names the
first support that has one.

A support left out has a computed deviation below ``worst``, so it could
neither raise ``worst`` nor be the first support to attain it.  A solved
support's Gram is its own ``gram_on_support`` Gram, and the stacked
``eigvalsh`` calls LAPACK once per Gram, so its eigenvalues depend neither
on which others are solved with it nor on how often it is solved.  The
constant, the worst support (the lexicographically first to attain it) and
the support count are therefore the ones a solve of every support gives,
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

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

# a chunk of prefixes is sized so its (prefix, column) bounds fit here, and
# a batch of solved supports so their gathered 8-byte columns do
_CHUNK_BYTES = 2**16

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


def _not_finite(support) -> DimensionError:
    support = tuple(int(i) for i in support)
    return DimensionError(f"the Gram on support {support} has a NaN or infinite entry or row sum")


def _prefix_bounds(off: np.ndarray, prefixes: np.ndarray) -> np.ndarray:
    """Gershgorin bounds of the supports that extend each prefix by one column.

    ``off`` is ``|G - I|`` of the whole matrix's Gram and ``prefixes`` an
    ``(m, k-1)`` index array with ``k >= 2``.  Entry ``[p, c]`` of the
    ``(m, N)`` result is the largest row sum of ``off`` on the support
    ``prefixes[p] + (c,)``: ``max(max_i (r_i + off[i, c]), off[c, c] + sum_i
    off[i, c])`` over ``i`` in the prefix, where ``r_i`` is row ``i``'s sum
    over the prefix.  Only entries with ``c`` above the prefix's last column
    are supports.
    """
    bound, col = -np.inf, np.diagonal(off)
    for i in range(prefixes.shape[1]):
        off_i = off[prefixes[:, i]]
        col = col + off_i
        off_i += off[prefixes[:, i, None], prefixes].sum(axis=1)[:, None]
        bound = np.maximum(bound, off_i, out=off_i)
    return np.maximum(bound, col, out=col)


def _gram_offsets(matrix) -> np.ndarray:
    """``|G - I|`` for the Gram ``G`` of every column, built in place.

    Its entries are those of ``gram_on_support(matrix, np.arange(N))`` bit
    for bit.  A sign ensemble's dot products are taken in int16, which
    holds them exactly: every partial sum is no larger in magnitude than the
    row count, which ``rows <= N`` and ``rows * N <= MAX_ENTRIES`` keep at
    most 2**13.
    """
    rows, dimension = shape(matrix)
    if isinstance(matrix, MeasurementMatrix) and matrix.signs is not None:
        signs = matrix.signs.astype(np.int16, order="F")
        dots = signs.T @ signs
        del signs
        off = np.divide(dots, rows, dtype=np.float64)
    else:
        if isinstance(matrix, MeasurementMatrix):
            matrix = matrix.entries
        entries = np.asarray(matrix, dtype=np.float64)
        off = entries.T @ entries
        off += off.T  # numpy reads the overlapping transpose from a copy
        off /= 2.0
    off.reshape(-1)[:: dimension + 1] -= 1.0
    return np.abs(off, out=off)


def _greedy_supports(off: np.ndarray, order: int) -> np.ndarray:
    """One sorted support per start column, grown by the column adding the largest row sum.

    The start columns go in chunks, so a chunk's gains fit in
    ``_CHUNK_BYTES``.
    """
    n = len(off)
    per_chunk = max(1, _CHUNK_BYTES // (8 * n))
    supports = []
    for first in range(0, n, per_chunk):
        gain = off[first:first + per_chunk] + np.diagonal(off)
        rows = np.arange(len(gain))
        chosen = np.eye(len(gain), n, first, dtype=bool)
        for _ in range(order - 1):
            gain[chosen] = -np.inf
            last = np.argmax(gain, axis=1)
            chosen[rows, last] = True
            gain += off[last]
        supports.append(np.nonzero(chosen)[1].reshape(len(gain), order))
    return np.concatenate(supports)


def _last(prefixes: np.ndarray) -> np.ndarray:
    """Each prefix's last column, ``-1`` for the empty prefix."""
    return prefixes[:, -1] if prefixes.shape[1] else np.full(len(prefixes), -1)


def _extend(prefixes: np.ndarray, top: int) -> np.ndarray:
    """Each prefix followed by each column above its last and below ``top``.

    ``prefixes`` is an ``(m, d)`` index array in lexicographic order, ``d``
    possibly 0; the rows come out in lexicographic order too.
    """
    # nonzero's row-major (prefix, column) order is the lexicographic one
    p, c = np.nonzero(np.arange(top) > _last(prefixes)[:, None])
    return np.column_stack((prefixes[p], c))


def _prefix_chunks(depth: int, top: int, size: int):
    """The ``depth``-subsets of ``range(top)`` in lexicographic chunks of ``size``, the last shorter."""
    subsets = combinations(range(top), depth)
    while chunk := list(islice(subsets, size)):
        yield np.array(chunk, dtype=np.int64).reshape(len(chunk), depth)


def _suffix_tables(off: np.ndarray):
    """``(pair, single)``: the largest ``off`` entries of each row from each start column.

    Entry ``[s, i]`` of ``pair`` is the sum of the two largest ``off[i, j]``
    with ``j >= s`` (``T_2``, used for ``i < s``).  Entry ``[s, i]`` of
    ``single`` is ``off[i, i]`` plus the largest ``off[i, j]`` with ``j >=
    s`` and ``j != i`` (``T_1``), or ``-inf`` for ``i < s``.
    """
    offz = off.copy()
    np.fill_diagonal(offz, 0.0)
    # top[s, i] = max_{j >= s} offz[j, i], which is offz[i, j] since off is symmetric
    top = np.maximum.accumulate(offz[::-1], axis=0)[::-1]
    # the second largest from s is the largest min(offz[j, i], top[j + 1, i]), j >= s
    second = np.zeros_like(offz)
    np.minimum(offz[:-1], top[1:], out=second[:-1])
    pair = np.maximum.accumulate(second[::-1], axis=0)[::-1]
    pair += top
    top += np.diagonal(off)
    top[np.tri(len(off), k=-1, dtype=bool)] = -np.inf
    return pair, top


def _subtree_bounds(off: np.ndarray, tables, prefixes: np.ndarray) -> np.ndarray:
    """A bound on the Gershgorin bound of every completion of each prefix.

    ``prefixes`` is an ``(m, k-2)`` index array and ``tables`` is
    ``_suffix_tables(off)``.  A completion adds two columns from the
    candidates ``C`` above the prefix's last column.  With ``s_i`` the sum of
    ``off[i, j]`` over ``j`` in the prefix, entry ``p`` of the result is
    ``max(max_{i in P} s_i + T_2(i), max_{i in C} off[i, i] + s_i + T_1(i))``,
    ``T_r`` taken over ``C``: a prefix row gains two entries in ``C``, a
    candidate's row its own diagonal and one entry in ``C``.
    """
    pair, single = tables
    start = _last(prefixes) + 1
    sums = np.zeros((len(prefixes), len(off)))
    for column in prefixes.T:
        sums += off[column]
    in_prefix = np.take_along_axis(sums, prefixes, axis=1) + pair[start[:, None], prefixes]
    sums += single[start]
    return np.maximum(sums.max(axis=1), in_prefix.max(axis=1, initial=-np.inf))


def delta_k_bruteforce(matrix, order: int) -> RipEstimate:
    """Order-k isometry constant over every size-k column support.

    Every support is bounded from one Gram of the whole matrix: with ``off =
    |G - I|``, a support's Gershgorin bound is the largest row sum of
    ``off`` on it.  Supports are taken as a prefix of ``k-1`` columns in
    lexicographic order plus a column above it, prefixes chunk by chunk so
    a chunk's ``(prefix, column)`` bounds fit in ``_CHUNK_BYTES``.  Above
    them, from order 3, the ``(k-2)``-column prefixes come in chunks of the
    same size, and each one's ``_subtree_bounds`` entry bounds every
    support that extends it; a prefix whose entry falls below ``worst -
    1e-9 * max(1, |worst|)`` is skipped with all its supports, and the rest
    are expanded into the ``(k-1)``-column prefixes of the pass.  Before
    the pass, ``worst`` is seeded by solving the distinct greedy supports,
    one grown from each start column.  Then ``numpy.linalg.eigvalsh``
    solves, in stacked batches of ``gram_on_support`` Grams, each support
    whose bound reaches ``worst - 1e-9 * max(1, |worst|)``, ``worst`` being
    the largest deviation so far; a seed among them is solved again, to the
    same eigenvalues.  At order 1 a Gram ``[g]`` is its own eigenvalue and
    its bound ``|g - 1|`` its deviation, so every column is solved and no
    whole Gram is built.  No support left out could change the result, so
    the constant, the worst support and ``supports_checked`` (every
    support, solved or bounded) are those of solving them all.  The
    reported support is the lexicographically first that attains the
    constant.  Enumeration refuses to start above ``MAX_SUPPORTS``
    (1,000,000) supports; a Gram with a NaN or infinite entry or bound
    raises DimensionError naming the first such support.
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
    per_solve = max(1, _CHUNK_BYTES // (8 * order * rows))
    worst, worst_support = -math.inf, None

    def solve(supports):
        nonlocal worst, worst_support
        for start in range(0, len(supports), per_solve):
            batch = supports[start:start + per_solve]
            eig = np.linalg.eigvalsh(gram_on_support(matrix, batch))
            dev = np.maximum(eig[:, -1] - 1.0, 1.0 - eig[:, 0])
            if not np.isfinite(dev).all():
                raise _not_finite(batch[np.argmin(np.isfinite(dev))])
            best = int(np.argmax(dev))
            support = tuple(int(i) for i in batch[best])
            if dev[best] > worst or (dev[best] == worst and support < worst_support):
                worst, worst_support = float(dev[best]), support

    def reach():
        # the least bound that lets a support change the result
        return worst - 1e-9 * max(1.0, abs(worst))

    if order == 1:
        solve(np.arange(dimension)[:, None])
        return RipEstimate(order, max(worst, 0.0), worst_support, total)
    off = _gram_offsets(matrix)
    finite = np.isfinite(off).all()
    if finite:
        # each distinct seed once, in lexicographic order, so that a tie
        # among them keeps the first
        seeds = sorted(set(map(tuple, _greedy_supports(off, order).tolist())))
        solve(np.array(seeds))
        if order > 2:
            tables = _suffix_tables(off)
    per_chunk = max(1, _CHUNK_BYTES // (8 * dimension))
    for subtrees in _prefix_chunks(order - 2, dimension - 2, per_chunk):
        if order > 2 and finite:
            subtrees = subtrees[_subtree_bounds(off, tables, subtrees) >= reach()]
            if not len(subtrees):
                continue
        prefixes = _extend(subtrees, dimension - 1)
        for first in range(0, len(prefixes), per_chunk):
            chunk = prefixes[first:first + per_chunk]
            bound = _prefix_bounds(off, chunk)
            valid = np.arange(dimension) > chunk[:, -1, None]
            bad = valid & ~np.isfinite(bound)
            if bad.any():
                p, c = np.unravel_index(np.argmax(bad), bad.shape)
                raise _not_finite((*chunk[p], c))
            bound[~valid] = np.nan
            # nonzero's row-major (prefix, column) order is the lexicographic one
            while (above_reach := np.nonzero(bound >= reach()))[0].size:
                p, c = above_reach[0][:per_solve], above_reach[1][:per_solve]
                bound[p, c] = np.nan
                solve(np.column_stack((chunk[p], c)))
    return RipEstimate(order, max(worst, 0.0), worst_support, total)


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
    # off the diagonal, |G - I| is |dots| / rows correctly rounded, and rounding
    # is monotone, so its largest entry is the largest |dots| over rows
    off = _gram_offsets(matrix)
    np.fill_diagonal(off, 0.0)
    return float(off.max())


def recovery_condition(delta2k: float) -> bool:
    """Whether an order-2k constant certifies exact sparse recovery.

    True exactly when ``delta2k < sqrt(2) - 1``.
    """
    if delta2k < 0.0:
        raise ValueError(f"isometry constant cannot be negative, got {delta2k}")
    return delta2k < math.sqrt(2.0) - 1.0
