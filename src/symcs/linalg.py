"""Small dense linear algebra helpers.

Two of these are deliberately independent of ``numpy.linalg`` so they can act
as cross-checks on results that also flow through library routines:
``sym_eigen_extremes`` (cyclic Jacobi) and ``solve_spd`` (Cholesky with a
pivot guard).  Gram matrices of sign ensembles are computed in integer
arithmetic and divided by the row count once, so diagonals are exactly 1.0
and off-diagonals are single correctly rounded ratios.
"""

from __future__ import annotations

import numpy as np

from .ensembles import MeasurementMatrix, shape
from .errors import ConvergenceError, DimensionError, SingularMatrixError

__all__ = [
    "gram_on_support",
    "soft_threshold",
    "solve_spd",
    "sym_eigen_extremes",
]

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


def soft_threshold(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise shrink toward zero: sign(v) * max(|v| - 1, 0).

    The threshold is 1, the reciprocal of the fixed ADMM penalty.  ``out``,
    a float64 array of the shape of ``values`` (``values`` itself is
    allowed), receives the result; the arithmetic is the same either way.
    """
    values = np.asarray(values, dtype=np.float64)
    sign = np.sign(values)
    out = np.abs(values, out=out)
    np.subtract(out, 1.0, out=out)
    np.maximum(out, 0.0, out=out)
    return np.multiply(sign, out, out=out)


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
    raise ConvergenceError("Jacobi sweeps did not reach tolerance", _JACOBI_SWEEPS)


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
