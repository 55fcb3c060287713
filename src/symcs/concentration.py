"""Concentration diagnostics for partial symmetric sign projections.

For a fixed vector ``alpha`` in R^N and the full symmetric sign matrix ``M``,
the row statistics are ``Q_j = (M_j . alpha) / sqrt(N)`` and their energy is
``S = sum_{j < n} Q_j**2``.  When ``alpha`` is a unit vector, ``E Q_j**2`` is
exactly ``1/N``, so ``E S = n/N``, and the image of ``alpha`` under the
``n**-0.5``-scaled partial matrix has squared norm ``(N/n) * S`` with mean 1.

This module provides

* exact enumeration of ``E exp(h*S)`` over every symmetric sign matrix
  (small N) and of the per-row ``E exp(h*Q**2)`` over every sign row
  pattern, so claimed product factorizations can be checked by brute force
  rather than sampling
* the analytic per-row bound ``E exp(h*Q**2) <= (1 - 2h/N)**-0.5`` and the
  tail bound ``exp(-(n/2)*(eps**2/2 - eps**3/3))`` on each one-sided relative
  deviation of ``(N/n)*S`` from 1, ``P(T >= 1+eps)`` and ``P(T <= 1-eps)``
  separately (their sum can exceed it)
* Monte Carlo tail frequency checks with fully derived per-trial seeds
* Johnson-Lindenstrauss style sizing of the row count for a point set
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ensembles import gen_symmetric_sign_matrix
from .errors import DimensionError, EnumerationTooLargeError
from .rng import Stream, _absorb, derive_seed

_MAX_FREE_BITS = 20
_MAX_ROW_BITS = 16

__all__ = [
    "TailCheckReport",
    "empirical_tails",
    "jl_measurement_bound",
    "jl_min_measurements",
    "mgf_lhs_exact",
    "mgf_rhs_exact",
    "random_unit_vector",
    "row_mgf_bound",
    "tail_bound",
]


def random_unit_vector(dimension: int, seed: int) -> np.ndarray:
    """Uniform random direction in R^dimension from a derived seed.

    Draws standard normals and normalizes; in the (measure-zero) event of an
    exactly zero draw the same stream simply continues with fresh normals.
    """
    if dimension < 1:
        raise DimensionError(f"dimension must be positive, got {dimension}")
    stream = Stream(seed)
    while True:
        v = stream.normals(dimension)
        norm = float(np.linalg.norm(v))
        if norm > 0.0:
            return v / norm


@lru_cache(maxsize=8)
def _symmetric_enumeration(dimension: int) -> np.ndarray:
    """All symmetric sign matrices of the given dimension, shape (count, N, N)."""
    free = dimension * (dimension + 1) // 2
    if free > _MAX_FREE_BITS:
        raise EnumerationTooLargeError(
            f"{2**free} symmetric sign matrices at dimension {dimension}; "
            f"the enumeration cap is 2**{_MAX_FREE_BITS}"
        )
    vals = _sign_patterns(free)
    mats = np.zeros((len(vals), dimension, dimension), dtype=np.int8)
    iu = np.triu_indices(dimension)
    mats[:, iu[0], iu[1]] = vals
    il = np.tril_indices(dimension, k=-1)
    mats[:, il[0], il[1]] = mats.transpose(0, 2, 1)[:, il[0], il[1]]
    mats.setflags(write=False)
    return mats


@lru_cache(maxsize=8)
def _row_enumeration(dimension: int) -> np.ndarray:
    """All sign row patterns of the given length, shape (2**N, N)."""
    if dimension > _MAX_ROW_BITS:
        raise EnumerationTooLargeError(
            f"{2**dimension} sign rows at dimension {dimension}; "
            f"the enumeration cap is 2**{_MAX_ROW_BITS}"
        )
    rows = _sign_patterns(dimension)
    rows.setflags(write=False)
    return rows


def mgf_lhs_exact(dimension: int, rows: int, alpha: np.ndarray, h: float) -> float:
    """Exact ``E exp(h*S)`` over every symmetric sign matrix.

    ``S`` couples the first ``rows`` rows of one shared symmetric matrix, so
    this expectation sees the dependence between rows induced by the mirrored
    entries.  Against :func:`mgf_rhs_exact` it is equal for ``rows <= 2`` and
    for axis vectors ``alpha``; beyond two rows it lies between the row
    product and the Hoelder bound ``mgf_rhs_exact(N, 1, alpha, rows*h)``,
    i.e. ``E exp(rows*h*Q**2)``, which holds because every row of the
    symmetric matrix is marginally a uniform sign row.
    """
    alpha = _check_alpha(alpha, dimension)
    _check_rows(rows, dimension)
    q = _row_statistics(_symmetric_enumeration(dimension)[:, :rows, :], alpha)
    s = np.einsum("ij,ij->i", q, q)
    return float(np.mean(np.exp(h * s)))


def mgf_rhs_exact(dimension: int, rows: int, alpha: np.ndarray, h: float) -> float:
    """``(E exp(h*Q**2))**rows`` with ``Q`` from one independent sign row.

    This is the value ``E exp(h*S)`` would take if the ``rows`` row statistics
    were independent copies.  Equality with :func:`mgf_lhs_exact` holds when
    ``alpha`` is an axis vector (every ``Q**2`` is then the constant ``1/N``)
    and when ``rows <= 2``: rows ``i`` and ``j`` share only the entry
    ``M_ij``, and flipping the signs of the rest of either row leaves the law
    unchanged, so each ``Q**2`` is independent of that shared entry; given
    it, the two rows draw on disjoint entries and the factors separate.  With
    three or more rows the shared entries close cycles that no such flip
    removes, and the left side is strictly larger for generic ``alpha``,
    though never above ``E exp(rows*h*Q**2)`` by Hoelder's inequality.  The
    two routes are kept separate and compared, never merged.
    """
    alpha = _check_alpha(alpha, dimension)
    _check_rows(rows, dimension)
    q = _row_statistics(_row_enumeration(dimension), alpha)
    base = np.mean(np.exp(h * q * q))
    # numpy's power, so an overflow gives inf as mgf_lhs_exact's exponentials do
    return float(base ** rows)


def row_mgf_bound(h: float, dimension: int) -> float:
    """Analytic bound ``(1 - 2h/N)**-0.5`` on ``E exp(h*Q**2)``, unit alpha.

    The row dot product with a unit vector has the sign-average property
    ``E exp(t*(M_1 . alpha)) <= exp(t**2/2)``, so its square's transform is
    dominated by the standard normal one; requires ``h < N/2``.
    """
    if dimension < 1:
        raise DimensionError(f"dimension must be positive, got {dimension}")
    if not h < dimension / 2.0:
        raise ValueError(f"bound requires h < dimension/2, got h={h}")
    return (1.0 - 2.0 * h / dimension) ** -0.5


def tail_bound(eps: float, rows: int) -> float:
    """One-sided tail bound ``exp(-(rows/2)*(eps**2/2 - eps**3/3))``.

    With ``T = (N/n)*S``, bounds ``P(T >= 1+eps)`` and ``P(T <= 1-eps)``,
    each tail on its own.  It does not bound ``P(|T-1| >= eps)``: at
    ``N = 2``, one row and ``alpha = (1, 1)/sqrt(2)``, ``|T-1| = 1`` always,
    so at ``eps = 0.75`` that probability is 1 against a bound of 0.932.
    Trivial (at or above 1) once ``eps >= 3/2``; ValueError once it
    overflows a float.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if rows < 1:
        raise DimensionError(f"rows must be positive, got {rows}")
    try:
        return math.exp(-(rows / 2.0) * (eps * eps / 2.0 - eps ** 3 / 3.0))
    except OverflowError:
        raise ValueError(f"the tail bound at eps={eps}, rows={rows} overflows a float") from None


@dataclass(frozen=True)
class TailCheckReport:
    """Monte Carlo tail frequencies against the analytic bound.

    ``upper_count`` trials had ``S >= (1+eps)*n/N`` and ``lower_count`` had
    ``S <= (1-eps)*n/N``.  ``slack_3se`` is three standard errors of a
    frequency sitting exactly at the bound, a natural pass margin for
    ``freq <= bound + slack``.  A bound of 1 or more (``eps >= 3/2``) is met
    by every frequency, and its slack is 0.
    """

    dimension: int
    rows: int
    eps: float
    trials: int
    upper_count: int
    lower_count: int
    bound: float
    mean_energy: float

    @property
    def upper_freq(self) -> float:
        return self.upper_count / self.trials

    @property
    def lower_freq(self) -> float:
        return self.lower_count / self.trials

    @property
    def slack_3se(self) -> float:
        p = min(self.bound, 1.0)
        return 3.0 * math.sqrt(p * (1.0 - p) / self.trials)


def empirical_tails(
    dimension: int, rows: int, eps_values, trials: int, master_seed: int
) -> tuple:
    """Tail frequencies at several thresholds over one shared trial sample.

    Trial ``t`` draws the first ``rows`` rows of its symmetric matrix with
    seed ``derive_seed(master_seed, [t, 0])`` and its unit vector with
    ``derive_seed(master_seed, [t, 1])``, so any single trial can be
    reproduced in isolation; every threshold is evaluated against the same
    energies.  Returns one report per threshold, in the given order.
    """
    eps_values = tuple(eps_values)
    if not eps_values:
        raise DimensionError("need at least one eps value")
    if trials < 1:
        raise DimensionError(f"trials must be positive, got {trials}")
    _check_rows(rows, dimension)
    bounds = [tail_bound(eps, rows) for eps in eps_values]
    target = rows / dimension
    highs = [(1.0 + eps) * target for eps in eps_values]
    lows = [(1.0 - eps) * target for eps in eps_values]
    upper = [0] * len(eps_values)
    lower = [0] * len(eps_values)
    total = 0.0
    root = derive_seed(master_seed, ())
    for t in range(trials):
        # derive_seed(master_seed, [t, 0]) and [t, 1], absorbing t once
        trial = _absorb(root, t)
        signs = gen_symmetric_sign_matrix(rows, dimension, _absorb(trial, 0))
        alpha = random_unit_vector(dimension, _absorb(trial, 1))
        # the energy S = sum_j Q_j**2 over the trial's rows
        values = _row_statistics(signs, alpha)
        energy = float(values @ values)
        for i in range(len(eps_values)):
            upper[i] += energy >= highs[i]
            lower[i] += energy <= lows[i]
        total += energy
    return tuple(
        TailCheckReport(
            dimension=dimension,
            rows=rows,
            eps=eps,
            trials=trials,
            upper_count=upper[i],
            lower_count=lower[i],
            bound=bounds[i],
            mean_energy=total / trials,
        )
        for i, eps in enumerate(eps_values)
    )


def jl_measurement_bound(eps: float, beta: float, points: int) -> float:
    """Real-valued row count ``(4 + 2*beta)/(eps**2/2 - eps**3/3) * ln(points)``.

    With at least this many rows, all pairwise squared distances of a set of
    ``points`` vectors are preserved to relative ``eps`` with probability at
    least ``1 - points**-beta``.  Natural logarithm; linear in ``ln(points)``.
    ValueError when the count overflows a float.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if points < 2:
        raise DimensionError(f"need at least 2 points, got {points}")
    gap = eps * eps / 2.0 - eps ** 3 / 3.0
    count = (4.0 + 2.0 * beta) / gap * math.log(points) if gap > 0.0 else math.inf
    if count == math.inf:
        raise ValueError(f"the row count at eps={eps}, beta={beta} overflows a float")
    return count


def jl_min_measurements(eps: float, beta: float, points: int) -> int:
    """Smallest integer row count meeting :func:`jl_measurement_bound`."""
    return math.ceil(jl_measurement_bound(eps, beta, points))


def _sign_patterns(length: int) -> np.ndarray:
    """Every sign pattern of the given length as int8, shape (2**length, length)."""
    codes = np.arange(1 << length, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(length, dtype=np.int64)[None, :]) & 1
    return (2 * bits - 1).astype(np.int8)


def _row_statistics(signs: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """``(M_j . alpha)/sqrt(N)`` along the last axis of a sign block."""
    return signs.astype(np.float64) @ alpha / math.sqrt(signs.shape[-1])


def _check_rows(rows: int, dimension: int) -> None:
    if not 1 <= rows <= dimension:
        raise DimensionError(f"need 1 <= rows <= dimension, got {rows}, {dimension}")


def _check_alpha(alpha: np.ndarray, dimension: int) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (dimension,):
        raise DimensionError(
            f"alpha shape {alpha.shape} does not match dimension {dimension}"
        )
    return alpha
