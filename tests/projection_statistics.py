"""Sign-row statistics and a distortion audit that only the tests compute.

``q_statistics`` and ``moment4_exact`` read one row block or every row
pattern through ``concentration``'s own statistic; ``pairwise_distortion``
audits a projected point set for check 4.
"""

import math
from dataclasses import dataclass

import numpy as np

from symcs.concentration import _check_alpha, _row_enumeration, _row_statistics
from symcs.ensembles import dense
from symcs.errors import DimensionError


def q_statistics(signs: np.ndarray, alpha: np.ndarray):
    """Row statistics ``Q_1..Q_n`` of a sign row block for ``alpha``, and ``S``.

    ``signs`` holds the first ``n`` rows of an ``N x N`` symmetric sign
    matrix.  Returns ``(values, total)`` where
    ``values[j] = (M_j . alpha)/sqrt(N)`` and ``total = sum(values**2)``.
    """
    signs = np.asarray(signs)
    if signs.ndim != 2 or not 1 <= signs.shape[0] <= signs.shape[1]:
        raise DimensionError(f"need an n x N row block with 1 <= n <= N, got {signs.shape}")
    values = _row_statistics(signs, _check_alpha(alpha, signs.shape[1]))
    return values, float(values @ values)


def moment4_exact(dimension: int, alpha: np.ndarray) -> float:
    """Exact ``E Q**4`` for one sign row, by enumeration of all row patterns."""
    q = _row_statistics(_row_enumeration(dimension), _check_alpha(alpha, dimension))
    return float(np.mean(q ** 4))


@dataclass(frozen=True)
class DistortionReport:
    """Pairwise squared-distance ratios of a projected point set.

    Ratios are ``|f(u) - f(v)|**2 / |u - v|**2`` over distinct pairs;
    coincident pairs are counted separately (their distances are preserved
    trivially) and excluded from the extremes.
    """

    eps: float
    pairs: int
    degenerate_pairs: int
    min_ratio: float
    max_ratio: float

    @property
    def within(self) -> bool:
        if self.pairs == self.degenerate_pairs:
            return True
        return (
            self.min_ratio >= 1.0 - self.eps and self.max_ratio <= 1.0 + self.eps
        )


def pairwise_distortion(matrix, points: np.ndarray, eps: float) -> DistortionReport:
    """Audit every pairwise distance of ``points`` under a measurement matrix.

    ``points`` has one vector per row; ``matrix``, a MeasurementMatrix or a
    2-D float array, is applied as the projection ``f``.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    entries = dense(matrix)
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != entries.shape[1]:
        raise DimensionError(
            f"points shape {pts.shape} does not match matrix width {entries.shape[1]}"
        )
    m = pts.shape[0]
    if m < 2:
        raise DimensionError(f"need at least 2 points, got {m}")
    ii, jj = np.triu_indices(m, k=1)
    diffs = pts[ii] - pts[jj]
    denom = np.einsum("ij,ij->i", diffs, diffs)
    projected = pts @ entries.T
    proj = projected[ii] - projected[jj]
    numer = np.einsum("ij,ij->i", proj, proj)
    live = denom > 0.0
    ratios = numer[live] / denom[live]
    return DistortionReport(
        eps=eps,
        pairs=len(denom),
        degenerate_pairs=int(np.sum(~live)),
        min_ratio=float(ratios.min()) if ratios.size else math.nan,
        max_ratio=float(ratios.max()) if ratios.size else math.nan,
    )
