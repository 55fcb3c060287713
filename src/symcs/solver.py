"""L1-minimization solvers and tiny exact oracles.

``basis_pursuit`` and ``bpdn`` run one ADMM loop, sized for the experiment
sweeps.  ``bpdn`` is basis pursuit on ``(x, r)``: ``min |x|_1`` subject to
``[A I] (x; r) = y`` and ``|r|_2 <= epsilon``.  Each solve factors the Gram
of its constraint matrix once, ``A A^T = L L^T`` for basis pursuit and ``I +
A A^T = L L^T`` for ``bpdn``, and caches the row basis, ``W = L^{-1} A`` or
``W' = L^{-1} [A I]``; the x-update of both is the projection ``v - W^T (W
v)`` plus the particular solution ``W^T L^{-1} y`` (``W`` stands for either
basis below).  The l1 step clips the first N entries; ``bpdn``'s ball block,
its last n entries, is projected onto the epsilon-ball around 0.

Each solve preallocates its work vectors and every step of an iteration
writes into them with ``out=``; ``z`` swaps with its next value instead of
being copied, and the final ``x`` (its first N entries for ``bpdn``) is
returned as a view.  The dual residual is computed only when the primal
residual passes its tolerance (and on the last iteration, for the report),
since the stopping test reads it only then.
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

From the same size on, the row-space step solves ``W = L^{-1} A`` (or
``W'``) as two column halves, cut at the multiple of 192 nearest half the
columns, one BLAS ``dtrsm`` call each, on the worker thread and the calling
thread.  ``dtrsm`` is the function pointer that ``scipy.linalg.cython_blas``
exports in its ``dtrsm`` capsule, called through ``ctypes``, which releases
the GIL (``solve_triangular`` holds it); ``ctypes`` and ``cython_blas`` are
imported at the first split solve.  ``solve_triangular`` is LAPACK
``dtrtrs``, one call of the same ``dtrsm`` over every column, and each column
is solved on its own; with one BLAS thread the halves keep its bits as long
as the cut keeps the blocks of columns that OpenBLAS hands its kernels.
Cuts at other multiples of 64 moved the last bits of up to 12 columns next
to the cut at some shapes (1031x1117 among them, OpenBLAS 0.3.30 with its
SkylakeX kernels), and cuts at multiples of 24 kept them all; 192 is a
multiple of both.  At any BLAS thread count the bits are those of the two
halves solved one after the other, as with the products.  When scipy
exports no such capsule, or one whose signature string is not
``_DTRSM_SIGNATURE``, the step falls back to one ``solve_triangular`` call.
Before each call the dtype, order, shape and leading dimension of both
operands are checked, since a wrong stride in a ``ctypes`` call writes out
of bounds where numpy would raise.

The Gram stays one ``dsyrk`` call and ``cholesky`` one LAPACK call, each on
one thread.  Row blocks of ``np.matmul``, which would overlap, give the bits
of ``dsyrk``'s lower triangle only at some widths (4096 and 2048, but not
1117 or 2568): OpenBLAS splits the inner dimension of ``gemm`` and of
``syrk`` into blocks at different points.

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
solve needs is built from them where a product needs it and then released.
The row-space step fills one Fortran-order buffer, ``A`` or ``[A I]``, takes
the Gram from its first N columns and solves ``W`` in place in it.  The
iterations hold ``W`` alone and never multiply by ``A``; the closing check
builds its copy after ``W`` is gone.  An array passed in is read, never
written.

The Gram, the factorization and the triangular solves are scipy's BLAS and
LAPACK calls (``dsyrk``, ``cholesky``, ``solve_triangular`` or, split,
``dtrsm``), imported by the first factorization rather than with this
module, so a process that solves nothing never loads ``scipy.linalg``; a
failed factorization raises ``numpy.linalg.LinAlgError``, the class scipy's
``LinAlgError`` is.

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
(products with ``W``, the clip, the ball projection) is odd in IEEE
arithmetic, and so is the shrink ``v - clip(v)`` but for its zeros, which
are ``+0`` either way and, as above, reach nothing; so is the ball block's
multiplier inside the ball, ``v - v``.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .ensembles import dense, fill_dense, shape
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


def _row_basis(matrix, ball: bool):
    """Factor ``A A^T = L L^T``, or ``I + A A^T`` with the ball block, once.

    Returns ``L`` and the row basis ``W = L^{-1} A``, or with the ball block
    ``W' = L^{-1} [A I] = [W, L^{-1}]``, n x (N+n), since ``I + A A^T`` is
    the Gram of ``[A I]``.  ``v - W^T (W v)`` is the projection onto the null
    space of ``A`` or of ``[A I]``.  Raises ``numpy.linalg.LinAlgError`` (the
    class scipy raises) when ``A A^T`` is not positive definite.

    One fresh Fortran-order buffer serves every step: its first N columns
    take ``A``, from which ``dsyrk`` takes the lower triangle of ``A A^T``
    (the triangle LAPACK factors in place, bitwise that of ``a @ a.T``); its
    last n take the identity, and the basis is solved in place in it, from
    ``_SPLIT_SIZE`` entries on as two column halves on two threads (see the
    module docstring).  An array passed in is never written.
    """
    from scipy.linalg import cholesky, solve_triangular
    from scipy.linalg.blas import dsyrk

    rows, width = shape(matrix)
    a = np.empty((rows, width + rows if ball else width), order="F")
    fill_dense(matrix, a[:, :width])
    gram = dsyrk(1.0, a[:, :width], lower=1)
    if ball:
        gram[np.diag_indices_from(gram)] += 1.0
        a[:, width:] = 0.0
        np.fill_diagonal(a[:, width:], 1.0)
    lower = cholesky(gram, lower=True, overwrite_a=True)
    # the Gram passed cholesky's finiteness check, and its diagonal is finite
    # only if every entry is, so the buffer needs no second scan
    trsm = _dtrsm() if a.size >= _SPLIT_SIZE else None
    if trsm is None:
        return lower, solve_triangular(lower, a, lower=True, overwrite_b=True, check_finite=False)
    cut = round(a.shape[1] / (2 * _SOLVE_CUT)) * _SOLVE_CUT
    _on_two_threads(functools.partial(_solve_lower, trsm, lower, a[:, :cut]),
                    functools.partial(_solve_lower, trsm, lower, a[:, cut:]))
    return lower, a


# a row basis of at least this many entries (8 MiB) is solved, and has its
# products split, in two halves on two threads; below it the split costs more
# than it saves
_SPLIT_SIZE = 2**20
# the split solve cuts its columns at a multiple of this (see the module
# docstring)
_SOLVE_CUT = 192
# the name under which scipy.linalg.cython_blas exports dtrsm: its C signature
_DTRSM_SIGNATURE = (
    b"void (char *, char *, char *, char *, int *, int *, %s *, %s *, int *, %s *, int *)"
    % ((b"__pyx_t_5scipy_6linalg_11cython_blas_d",) * 3)
)


@functools.cache
def _dtrsm():
    """BLAS ``dtrsm`` as a ctypes function, which releases the GIL, or None.

    The function pointer is the one ``scipy.linalg.cython_blas`` exports in
    its ``dtrsm`` capsule: the BLAS that scipy's ``solve_triangular`` calls
    through LAPACK ``dtrtrs``.  None when scipy exports no such capsule, or
    one whose signature is not ``_DTRSM_SIGNATURE``; the row-space step then
    solves on one thread.
    """
    import ctypes
    from scipy.linalg import cython_blas

    capsule = getattr(cython_blas, "__pyx_capi__", {}).get("dtrsm")
    if capsule is None:
        return None
    api, obj = ctypes.pythonapi, ctypes.py_object
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, obj)(("PyCapsule_GetName", api))(capsule)
    if name != _DTRSM_SIGNATURE:
        return None
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, obj, ctypes.c_char_p)(("PyCapsule_GetPointer", api))
    char, count, real = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
    signature = ctypes.CFUNCTYPE(None, char, char, char, char, count, count, real, real, count, real, count)
    return signature(get_pointer(capsule, name))


def _solve_lower(trsm, lower: np.ndarray, block: np.ndarray) -> None:
    """Overwrite ``block`` with ``L^{-1} block`` by one call of ``trsm`` (:func:`_dtrsm`).

    ``block`` is a run of whole columns of a Fortran-order float64 array
    with as many rows as ``L``, which is also Fortran-order: BLAS gets its
    pointer and that row count as the leading dimension.  A wrong stride in a
    ctypes call writes out of bounds where numpy would raise, so each of
    these is checked first, and a block that fails raises ``ValueError``.
    """
    import ctypes

    rows = lower.shape[0]
    if not (
        lower.dtype == block.dtype == np.float64
        and lower.shape == (rows, rows)
        and lower.flags.f_contiguous
        and block.shape[0] == rows
        and block.strides == (8, 8 * rows)
        and block.flags.writeable
        and max(block.shape) < 2**31
    ):
        raise ValueError(
            f"dtrsm takes Fortran-order float64 columns with leading dimension {rows}: "
            f"got L {lower.dtype} {lower.shape}, a block {block.dtype} {block.shape} "
            f"with strides {block.strides}"
        )
    real = ctypes.POINTER(ctypes.c_double)
    m, n = ctypes.c_int(rows), ctypes.c_int(block.shape[1])
    trsm(b"L", b"L", b"N", b"N", m, n, ctypes.c_double(1.0), lower.ctypes.data_as(real), m,
         block.ctypes.data_as(real), m)


@functools.cache
def _worker(pid: int):
    """The one thread that runs a half of each split step.

    Keyed by process id: a forked child inherits the executor but not its
    thread, so it starts its own.
    """
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(1, thread_name_prefix="symcs-half")


def _on_two_threads(first, second) -> None:
    """Run ``first()`` on the worker thread and ``second()`` on this one.

    Returns once both are done, so no write of either lands after it.
    """
    half = _worker(os.getpid()).submit(first)
    try:
        second()
    finally:
        half.result()


def _basis_products(basis: np.ndarray):
    """Return ``forward(v, out)``, ``out = W v``, and ``backward(c, out)``, ``out = W^T c``.

    ``basis.dot`` and ``basis.T.dot`` below ``_SPLIT_SIZE`` entries, else
    two fixed halves on two threads (see the module docstring).
    """
    if basis.size < _SPLIT_SIZE:
        return basis.dot, basis.T.dot

    def halves(first, second, cut):
        def product(v, out):
            _on_two_threads(functools.partial(np.matmul, first, v, out=out[:cut]),
                            functools.partial(np.matmul, second, v, out=out[cut:]))

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
    _, width, y = _check_args(matrix, y, max_iterations)
    return _admm(matrix, y, width, 0.0, max_iterations)


def bpdn(
    matrix, y: np.ndarray, epsilon: float, max_iterations: int = MAX_ITERATIONS
) -> SolverResult:
    """Minimize ``|x|_1`` subject to ``|Ax - y|_2 <= epsilon`` by ADMM.

    This is basis pursuit on ``(x, r)``: minimize ``|x|_1`` subject to ``[A
    I] (x; r) = y`` and ``|r|_2 <= epsilon``.  The loop is that of
    :func:`basis_pursuit` over N + n entries, through the row basis ``W' =
    L^{-1} [A I]`` of ``I + A A^T = L L^T``; its l1 step clips the x block
    as basis pursuit's does, and projects the r block onto the epsilon-ball
    around 0.  ``epsilon = 0`` delegates to :func:`basis_pursuit`; ``|y|_2
    <= epsilon`` returns the zero solution immediately.
    """
    if not epsilon >= 0.0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    if epsilon == 0.0:
        return basis_pursuit(matrix, y, max_iterations)
    _, width, y = _check_args(matrix, y, max_iterations)
    if float(np.linalg.norm(y)) <= epsilon:
        return SolverResult(
            solution=np.zeros(width),
            iterations=0,
            status="converged",
            primal_residual=0.0,
            dual_residual=0.0,
        )
    return _admm(matrix, y, width, epsilon, max_iterations)


def _admm(matrix, y, width, epsilon, max_iterations) -> SolverResult:
    """Both solvers' ADMM loop: basis pursuit on ``x``, or with ``epsilon >
    0`` on ``(x, r)`` with the ball block (see :func:`bpdn`).

    The row basis, its products and ``L`` live in this frame alone, so all
    are released before the closing check builds its copy of the matrix.
    """
    try:
        lower, basis = _row_basis(matrix, epsilon > 0.0)
    except np.linalg.LinAlgError:
        return SolverResult(
            solution=np.zeros(width),
            iterations=0,
            status="infeasible-detected",
            primal_residual=math.inf,
            dual_residual=math.inf,
        )
    from scipy.linalg import solve_triangular

    rows, size = basis.shape
    forward, backward = _basis_products(basis)
    particular = np.empty(size)
    backward(solve_triangular(lower, y, lower=True), out=particular)
    del lower
    x = np.empty(size)
    z = np.zeros(size)
    z_new = np.empty(size)
    u = np.zeros(size)
    clipped = np.empty(size)
    ones = np.ones(size)
    minus_ones = np.full(size, -1.0)
    diff = np.empty(size)
    coef = np.empty(rows)
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
        if epsilon:
            # the ball block of v: z takes its projection onto the
            # epsilon-ball around 0, and the multiplier what that takes off
            v, ball = u[width:], z_new[width:]
            np.multiply(v, epsilon / max(math.sqrt(v.dot(v)), epsilon), out=ball)
            np.subtract(v, ball, out=clipped[width:])
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
    return _finish(matrix, x[:width], y, epsilon, it, primal, dual)


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
