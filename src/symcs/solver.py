"""L1-minimization solvers and tiny exact oracles.

``basis_pursuit`` and ``bpdn`` run ADMM, sized for the experiment sweeps.
Both share one row-space step: ``shift*I + A A^T = L L^T`` is factored once
per solve (``shift`` is 0 for basis pursuit and 1 for ``bpdn``) and the row
basis ``W = L^{-1} A`` is cached, so the projection of basis pursuit and the
Woodbury x-update of ``bpdn`` are both ``v - W^T (W v)``.

Each solve preallocates its work vectors and every step of an iteration
writes into them with ``out=``, the products with ``A`` through the array's
own ``dot``; ``z`` and ``w`` swap with their next values instead of being
copied, and the final ``x`` is returned as is.  The dual residual
is computed only when the primal residual passes its tolerance (and on the
last iteration, for the report), since the stopping test reads it only then.
Iterates, iteration counts and both reported residuals are bit-identical to
the plain expression form of the same updates (from 2**20 entries of ``W``
on, with one BLAS thread: see below).

Every product with ``W`` (the particular solution ``W^T L^{-1} y`` too)
goes through one pair, ``W v`` and ``W^T c``.  Below 2**20 entries of ``W``
(8 MiB) these are ``W``'s own ``dot``.  From that size on, each runs as two
fixed halves: ``W v`` splits by rows and ``W^T c`` by columns, at half the
count rounded down to a multiple of 64, each half one ``np.matmul`` into its
slice of the output (``ndarray.dot`` would copy a strided row block).  One
half runs on a single worker thread, started with ``concurrent.futures`` at
the first such solve, and the other on the calling thread; BLAS releases the
GIL, so on two CPUs the halves overlap.  With one BLAS thread each output
entry is still one BLAS dot over its whole length, at the same offset in its
kernel's blocks, so the bits are those of the unsplit product.  A BLAS that
runs more threads splits each half again, at other points than it splits
the whole, so at some shapes the last bits differ from the unsplit
product's at that thread count.  At any thread count they are the bits of
the two halves run one after the other: the split depends on the shape
alone, never on the CPU count or on whether the halves overlap.  The
products are released with ``W``, before the closing check builds its copy.

The l1 step is one clip: with ``v = u + x``, ``clip(v, -1, 1)`` is the next
multiplier and ``v - clip(v)`` the shrink of ``v``, the new ``z``.  For
``|v| < 2**53``, ``v - 1`` and ``v + 1`` are exact, so the clip is bitwise
``v`` less the reference shrink :func:`soft_threshold`, and the shrink
differs from it only in the sign of a zero (``+0`` where the reference gives
``-0``, for ``v`` in ``[-1, 0)``).  That sign never reaches ``x``, the
multipliers or a residual: ``z`` enters only ``z - u``, where a zero ``z``
meets a nonzero ``u = v`` or ``v = +0`` (``u`` starts at ``+0``, so ``v`` is
never ``-0``), and squared norms.  At ``|v| >= 2**53`` the reference's multiplier would
round to 0 or 2, and the clip gives the exact 1 or -1.

A sign matrix (see :mod:`symcs.ensembles`) is its signs: each float copy a
solve needs is built by ``ensembles.dense`` where a product needs it and
then released.  The row-space step takes the Gram from one Fortran-order
copy and solves ``W`` in place in it.  Basis pursuit's iterations hold ``W``
alone, and its closing check builds its copy after ``W`` is gone; ``bpdn``
multiplies by ``A^T`` every iteration, so it builds one C-order copy for its
loop once ``W`` is solved.  An array passed in is read, never written.

The Gram, the factorization and the triangular solves are scipy's BLAS and
LAPACK calls (``dsyrk``, ``cholesky``, ``solve_triangular``), imported by the
first factorization rather than with this module, so a process that solves
nothing never loads ``scipy.linalg``; a failed factorization raises
``numpy.linalg.LinAlgError``, the class scipy's ``LinAlgError`` is.

The ADMM penalty is fixed at 1, so the shrink and the clip are at 1, and the
stopping tolerances at ``PRIMAL_TOL`` and ``DUAL_TOL`` (1e-7).  The one
setting is the iteration cap, ``max_iterations`` (default ``MAX_ITERATIONS``,
5000).  The final check, :func:`verify_solution`, allows ``FEAS_TOL``
(1e-6) relative slack.  Both solvers share one argument check and one
closing step, which sets the status: ``infeasible-detected`` when the last
iterate fails that check, else ``converged`` when both last residuals are
within tolerance (the loop's only exit before the cap), else
``max-iterations``.

``l1_oracle_small`` and ``l0_oracle_small`` solve the same problems by
brute-force enumeration (LP vertices, supports) at toy sizes, to the fixed
tolerance ``_ORACLE_TOL`` (1e-9); they share no iterate logic with the ADMM
path, so the two routes can be compared as independent witnesses and are
never merged.  ``l0_oracle_small`` fits through ``solve_spd``, a hand-written
Cholesky that uses no ``numpy.linalg`` or scipy solver.

Both ADMM solvers map ``y -> -y`` to ``x -> -x`` exactly: every update
(products with ``W``, the clip, ball projection from a zero start) is odd in
IEEE arithmetic, and so is the shrink ``v - clip(v)`` but for its zeros,
which are ``+0`` either way and, as above, reach nothing.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .ensembles import dense, shape
from .errors import DimensionError, EnumerationTooLargeError, InfeasibleError, SingularMatrixError

__all__ = [
    "DUAL_TOL",
    "FEAS_TOL",
    "MAX_ITERATIONS",
    "PRIMAL_TOL",
    "SolverResult",
    "basis_pursuit",
    "bpdn",
    "l0_oracle_small",
    "l1_oracle_small",
    "soft_threshold",
    "solve_spd",
    "verify_solution",
]


PRIMAL_TOL = 1e-7
DUAL_TOL = 1e-7
FEAS_TOL = 1e-6
MAX_ITERATIONS = 5000


@dataclass(frozen=True, eq=False)
class SolverResult:
    """Solver outcome: the iterate, iteration count, and final residuals.

    ``status`` is ``"infeasible-detected"`` when the returned point fails
    :func:`verify_solution` (or a rank-deficient row space left no
    projection), else ``"converged"`` when both final residuals are within
    ``PRIMAL_TOL`` and ``DUAL_TOL``, else ``"max-iterations"``.
    """

    solution: np.ndarray
    iterations: int
    status: str
    primal_residual: float
    dual_residual: float

    @property
    def objective(self) -> float:
        return float(np.abs(self.solution).sum())


def _check_rhs(rows: int, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (rows,):
        raise DimensionError(
            f"rhs shape {y.shape} does not match {rows} rows"
        )
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        first = int(bad[0])
        raise DimensionError(f"measurement y[{first}] = {y[first]:.17g} is not finite")
    return y


def soft_threshold(values: np.ndarray) -> np.ndarray:
    """Elementwise shrink toward zero: sign(v) * max(|v| - 1, 0).

    The reference shrink, off the hot path: the ADMM loops take ``v -
    clip(v, -1, 1)``, which equals it but for the sign of a zero (see the
    module docstring).  The threshold is 1, the reciprocal of the fixed ADMM
    penalty.
    """
    values = np.asarray(values, dtype=np.float64)
    return np.sign(values) * np.maximum(np.abs(values) - 1.0, 0.0)


def _check_args(matrix, y: np.ndarray, max_iterations: int):
    """Both solvers' argument check; returns the matrix shape and ``y`` as float64."""
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be positive, got {max_iterations}")
    n, width = shape(matrix)
    return n, width, _check_rhs(n, y)


def _finish(matrix, x, y, epsilon, iterations, primal, dual) -> SolverResult:
    """Both solvers' closing step: the status rule of :class:`SolverResult`."""
    if not verify_solution(matrix, x, y, epsilon):
        status = "infeasible-detected"
    elif primal <= PRIMAL_TOL and dual <= DUAL_TOL:
        status = "converged"
    else:
        status = "max-iterations"
    return SolverResult(
        solution=x,
        iterations=iterations,
        status=status,
        primal_residual=primal,
        dual_residual=dual,
    )


def _row_basis(matrix, shift: float):
    """Factor ``shift*I + A A^T = L L^T`` once; return ``L`` and ``W = L^{-1} A``.

    ``W^T W = A^T (shift*I + A A^T)^{-1} A``, so ``v - W^T (W v)`` is the
    projection onto the null space of ``A`` at ``shift = 0`` and the
    Woodbury form of ``(I + A^T A)^{-1} v`` at ``shift = 1``.  Raises
    ``numpy.linalg.LinAlgError`` (the class scipy raises) when the shifted
    Gram matrix is not positive definite.

    One fresh Fortran-order copy of the matrix serves both steps: ``dsyrk``
    takes the lower triangle of the Gram from it (the triangle LAPACK
    factors in place, bitwise that of ``a @ a.T``), and ``W`` is then solved
    in place in it.  An array passed in is never written.
    """
    from scipy.linalg import cholesky, solve_triangular
    from scipy.linalg.blas import dsyrk

    a = dense(matrix, "F")
    gram = dsyrk(1.0, a, lower=1)
    gram[np.diag_indices_from(gram)] += shift
    lower = cholesky(gram, lower=True, overwrite_a=True)
    # the Gram passed cholesky's finiteness check, and its diagonal is finite
    # only if every entry is, so the copy needs no second scan
    return lower, solve_triangular(lower, a, lower=True, overwrite_b=True, check_finite=False)


# a row basis of at least this many entries (8 MiB) has its products split in
# two halves on two threads; below it the split costs more than it saves
_SPLIT_SIZE = 2**20


@functools.cache
def _worker(pid: int):
    """The one thread that runs a half of each split product.

    Keyed by process id: a forked child inherits the executor but not its
    thread, so it starts its own.
    """
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(1, thread_name_prefix="symcs-half")


def _basis_products(basis: np.ndarray):
    """Return ``forward(v, out)``, ``out = W v``, and ``backward(c, out)``, ``out = W^T c``.

    ``basis.dot`` and ``basis.T.dot`` below ``_SPLIT_SIZE`` entries, else
    two fixed halves on two threads (see the module docstring).
    """
    if basis.size < _SPLIT_SIZE:
        return basis.dot, basis.T.dot
    worker = _worker(os.getpid())

    def halves(first, second, cut):
        # waits for the worker's half, so no write lands after it returns
        def product(v, out):
            half = worker.submit(np.matmul, first, v, out=out[:cut])
            try:
                np.matmul(second, v, out=out[cut:])
            finally:
                half.result()

        return product

    rows, width = basis.shape
    r = rows // 2 // 64 * 64
    k = width // 2 // 64 * 64
    # np.matmul reads a strided row block where it is; ndarray.dot copies it
    return halves(basis[:r], basis[r:], r), halves(basis[:, :k].T, basis[:, k:].T, k)


def basis_pursuit(matrix, y: np.ndarray, max_iterations: int = MAX_ITERATIONS) -> SolverResult:
    """Minimize ``|x|_1`` subject to ``Ax = y`` by ADMM.

    The x-update is the exact projection onto the affine constraint set
    through the row basis ``W`` of ``A A^T = L L^T``, so every iterate (and
    the returned solution) is feasible to factorization accuracy.  A rank-deficient row
    space leaves no projection to compute and is reported as
    ``infeasible-detected`` with a zero solution.  The iterations hold ``W``
    and no float copy of a sign matrix; the closing check builds one after
    ``W`` is released.
    """
    n, width, y = _check_args(matrix, y, max_iterations)
    try:
        lower, basis = _row_basis(matrix, 0.0)
    except np.linalg.LinAlgError:
        return SolverResult(
            solution=np.zeros(width),
            iterations=0,
            status="infeasible-detected",
            primal_residual=math.inf,
            dual_residual=math.inf,
        )
    from scipy.linalg import solve_triangular

    forward, backward = _basis_products(basis)
    particular = np.empty(width)
    backward(solve_triangular(lower, y, lower=True), out=particular)
    del lower
    x = np.empty(width)
    z = np.zeros(width)
    z_new = np.empty(width)
    u = np.zeros(width)
    clipped = np.empty(width)
    ones = np.ones(width)
    minus_ones = np.full(width, -1.0)
    diff = np.empty(width)
    coef = np.empty(n)
    for it in range(1, max_iterations + 1):
        # x = v - W^T (W v) + particular with v = z - u: the projection
        np.subtract(z, u, out=diff)
        forward(diff, out=coef)
        backward(coef, out=x)
        np.subtract(diff, x, out=x)
        x += particular
        # v = u + x clipped to [-1, 1] is the next multiplier, and v less
        # its clip is the shrink of v, the new z
        u += x
        np.minimum(u, ones, out=clipped)
        np.maximum(clipped, minus_ones, out=clipped)
        np.subtract(u, clipped, out=z_new)
        u, clipped = clipped, u
        np.subtract(x, z_new, out=diff)
        primal = math.sqrt(diff.dot(diff))
        if primal <= PRIMAL_TOL or it == max_iterations:
            np.subtract(z_new, z, out=diff)
            dual = math.sqrt(diff.dot(diff))
            if primal <= PRIMAL_TOL and dual <= DUAL_TOL:
                break
        z, z_new = z_new, z
    # the products hold W too: all three go before the closing check's copy
    del basis, forward, backward
    return _finish(matrix, x, y, 0.0, it, primal, dual)


def bpdn(
    matrix, y: np.ndarray, epsilon: float, max_iterations: int = MAX_ITERATIONS
) -> SolverResult:
    """Minimize ``|x|_1`` subject to ``|Ax - y|_2 <= epsilon`` by ADMM.

    Three-block splitting: an l1 copy of ``x``, a residual copy of ``Ax``
    projected onto the epsilon-ball around ``y``, and an x-update solved
    through the Woodbury identity with the row basis ``W`` of
    ``I + A A^T = L L^T``.  ``epsilon = 0`` delegates to
    :func:`basis_pursuit`; ``|y|_2 <= epsilon`` returns the zero solution
    immediately.
    """
    if not epsilon >= 0.0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    if epsilon == 0.0:
        return basis_pursuit(matrix, y, max_iterations)
    n, width, y = _check_args(matrix, y, max_iterations)
    if float(np.linalg.norm(y)) <= epsilon:
        return SolverResult(
            solution=np.zeros(width),
            iterations=0,
            status="converged",
            primal_residual=0.0,
            dual_residual=0.0,
        )
    _, basis = _row_basis(matrix, 1.0)
    forward, backward = _basis_products(basis)
    # the loop multiplies by A and A^T; this copy is built once W is solved
    a = dense(matrix)
    x = np.empty(width)
    z = np.zeros(width)
    z_new = np.empty(width)
    u1 = np.zeros(width)
    clipped = np.empty(width)
    ones = np.ones(width)
    minus_ones = np.full(width, -1.0)
    rhs = np.empty(width)
    diff = np.empty(width)
    ax = np.empty(n)
    w = np.zeros(n)
    w_new = np.empty(n)
    u2 = np.zeros(n)
    gap = np.empty(n)
    coef = np.empty(n)
    for it in range(1, max_iterations + 1):
        # x = b - W^T (W b) with b = (z - u1) + A^T (w - u2): the Woodbury update
        np.subtract(w, u2, out=gap)
        a.T.dot(gap, out=rhs)
        np.subtract(z, u1, out=diff)
        np.add(diff, rhs, out=rhs)
        forward(rhs, out=coef)
        backward(coef, out=x)
        np.subtract(rhs, x, out=x)
        a.dot(x, out=ax)
        # x + u1 and Ax + u2 are the prox inputs and, less z and w, the
        # multipliers; x + u1 clipped to [-1, 1] is that multiplier, as above
        u1 += x
        np.minimum(u1, ones, out=clipped)
        np.maximum(clipped, minus_ones, out=clipped)
        np.subtract(u1, clipped, out=z_new)
        u1, clipped = clipped, u1
        u2 += ax
        # w is Ax + u2 projected onto the epsilon-ball around y
        np.subtract(u2, y, out=gap)
        norm = math.sqrt(gap.dot(gap))
        if norm <= epsilon:
            np.copyto(w_new, u2)
        else:
            np.multiply(gap, epsilon / norm, out=w_new)
            w_new += y
        u2 -= w_new
        np.subtract(x, z_new, out=diff)
        np.subtract(ax, w_new, out=gap)
        primal = math.hypot(math.sqrt(diff.dot(diff)), math.sqrt(gap.dot(gap)))
        if primal <= PRIMAL_TOL or it == max_iterations:
            np.subtract(z_new, z, out=diff)
            np.subtract(w_new, w, out=gap)
            a.T.dot(gap, out=rhs)
            dual = math.hypot(math.sqrt(diff.dot(diff)), math.sqrt(rhs.dot(rhs)))
            if primal <= PRIMAL_TOL and dual <= DUAL_TOL:
                break
        z, z_new = z_new, z
        w, w_new = w_new, w
    del basis, forward, backward, a
    return _finish(matrix, x, y, epsilon, it, primal, dual)


def verify_solution(matrix, x: np.ndarray, y: np.ndarray, epsilon: float = 0.0) -> bool:
    """Whether ``x`` satisfies the (noisy) measurement constraint.

    The test is ``|Ax - y|_2 <= epsilon + FEAS_TOL * max(1, |y|_2)``; both
    ADMM solvers apply it to their final iterate.
    """
    rows, width = shape(matrix)
    y = _check_rhs(rows, y)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (width,):
        raise DimensionError(f"x shape {x.shape} does not match {width} columns")
    gap = float(np.linalg.norm(dense(matrix) @ x - y))
    return gap <= epsilon + FEAS_TOL * max(1.0, float(np.linalg.norm(y)))


_ORACLE_BASIS_CAP = 200_000
# the oracles' fit and sign tolerance
_ORACLE_TOL = 1e-9


def l1_oracle_small(matrix, y: np.ndarray, details: bool = False):
    """Exact l1 minimizer at toy sizes by LP vertex enumeration.

    Splits ``x`` into positive and negative parts, making the problem a
    linear program over ``[A, -A]`` with nonnegative variables, and visits
    every candidate vertex: supports of size ``rank(A)`` solved by least
    squares, accepted when feasible to ``_ORACLE_TOL`` (1e-9) times
    ``max(1, |y|_2)``.  Returns the optimal vertex, breaking objective ties
    (within 1e-9) lexicographically.  With ``details=True`` also returns
    ``{"objective", "optimal_vertices", "unique"}`` where vertices count
    optima within 1e-7 of the best objective and uniqueness means all of
    them agree with the winner to 1e-7.  Raises InfeasibleError when ``y``
    is outside the row space.
    """
    a = dense(matrix)
    y = _check_rhs(a.shape[0], y)
    n, width = a.shape
    stacked = np.hstack([a, -a])
    rank = int(np.linalg.matrix_rank(stacked))
    if rank == 0:
        if float(np.linalg.norm(y)) <= _ORACLE_TOL:
            x = np.zeros(width)
            return (x, {"objective": 0.0, "optimal_vertices": 1, "unique": True}) if details else x
        raise InfeasibleError("zero matrix cannot match a nonzero rhs")
    if math.comb(2 * width, rank) > _ORACLE_BASIS_CAP:
        raise EnumerationTooLargeError(
            f"{math.comb(2 * width, rank)} candidate supports; "
            f"the oracle cap is {_ORACLE_BASIS_CAP}"
        )
    feas_cut = _ORACLE_TOL * max(1.0, float(np.linalg.norm(y)))
    lstsq_fit = np.linalg.lstsq(stacked, y, rcond=None)[0]
    if float(np.linalg.norm(stacked @ lstsq_fit - y)) > feas_cut:
        raise InfeasibleError("rhs lies outside the matrix row space")
    candidates = []
    for support in combinations(range(2 * width), rank):
        cols = stacked[:, support]
        coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
        if float(np.linalg.norm(cols @ coef - y)) > feas_cut:
            continue
        if coef.min() < -_ORACLE_TOL:
            continue
        coef = np.where(coef < _ORACLE_TOL, 0.0, coef)
        x = np.zeros(width)
        for idx, val in zip(support, coef):
            if idx < width:
                x[idx] += val
            else:
                x[idx - width] -= val
        candidates.append((float(coef.sum()), x))
    if not candidates:
        raise InfeasibleError("no feasible vertex found")
    best_obj = min(obj for obj, _ in candidates)
    tied = [x for obj, x in candidates if obj <= best_obj + 1e-9]
    best_x = min(tied, key=tuple)
    if not details:
        return best_x
    near = [x for obj, x in candidates if obj <= best_obj + 1e-7]
    distinct = [best_x]
    for x in near:
        if all(float(np.abs(x - d).max()) > 1e-7 for d in distinct):
            distinct.append(x)
    return best_x, {
        "objective": best_obj,
        "optimal_vertices": len(distinct),
        "unique": len(distinct) == 1,
    }


def solve_spd(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` for symmetric positive definite ``matrix``.

    Hand-rolled Cholesky with forward/back substitution and one step of
    iterative refinement.  A pivot at or below ``1e-12 * max diagonal``
    raises SingularMatrixError.
    """
    a = np.array(matrix, dtype=np.float64)
    b = np.array(rhs, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {a.shape}")
    d = a.shape[0]
    if b.shape != (d,):
        raise DimensionError(f"rhs shape {b.shape} does not match dimension {d}")
    if d == 0:
        return np.empty(0)
    guard = 1e-12 * max(float(np.abs(np.diag(a)).max()), 1e-300)
    lower = np.zeros((d, d))
    for j in range(d):
        pivot = a[j, j] - np.dot(lower[j, :j], lower[j, :j])
        if pivot <= guard:
            raise SingularMatrixError(f"pivot {pivot:.3e} at column {j}")
        lower[j, j] = np.sqrt(pivot)
        if j + 1 < d:
            lower[j + 1 :, j] = (
                a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]
            ) / lower[j, j]

    def substitute(rhs_vec):
        y = np.zeros(d)
        for i in range(d):
            y[i] = (rhs_vec[i] - np.dot(lower[i, :i], y[:i])) / lower[i, i]
        x = np.zeros(d)
        for i in range(d - 1, -1, -1):
            x[i] = (y[i] - np.dot(lower[i + 1 :, i], x[i + 1 :])) / lower[i, i]
        return x

    x = substitute(b)
    x = x + substitute(b - a @ x)
    return x


def l0_oracle_small(matrix, y: np.ndarray) -> np.ndarray:
    """Sparsest exact fit at toy sizes by support enumeration.

    Visits supports in order of size then lexicographic position; each is fit
    through the in-package normal-equation solver and the first fit within
    ``_ORACLE_TOL`` (1e-9) times ``max(1, |y|_2)`` wins.  Singular supports
    are skipped.  Raises InfeasibleError when no support up to the row count
    fits.
    """
    a = dense(matrix)
    y = _check_rhs(a.shape[0], y)
    n, width = a.shape
    if width > 12:
        raise EnumerationTooLargeError(
            f"support enumeration over {width} columns; the oracle cap is 12"
        )
    cut = _ORACLE_TOL * max(1.0, float(np.linalg.norm(y)))
    if float(np.linalg.norm(y)) <= cut:
        return np.zeros(width)
    for size in range(1, min(n, width) + 1):
        for support in combinations(range(width), size):
            cols = a[:, list(support)]
            try:
                coef = solve_spd(cols.T @ cols, cols.T @ y)
            except SingularMatrixError:
                continue
            if float(np.linalg.norm(cols @ coef - y)) <= cut:
                x = np.zeros(width)
                x[list(support)] = coef
                return x
    raise InfeasibleError("no support fits the rhs exactly")
