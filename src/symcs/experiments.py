"""Planted sparse recovery trials and deterministic sweeps.

A trial is fully determined by its seed: the trial seed splits into matrix,
signal, and noise sub-seeds (labels 0, 1, 2), the measurement matrix is
regenerated fresh for every trial, and the noiseless path consumes no noise
draws at all.  A sweep addresses each trial as
``derive_seed(master_seed, [ensemble_index, axis_index, trial_index])``
where the ensemble index is the position in the canonical ensemble tuple
(not in the sweep's own list), so adding or reordering ensembles in a spec
never changes any other ensemble's trials.

Success means relative l2 error at or below ``SUCCESS_TOL`` (1e-3).  Noisy
trials solve the residual-ball problem with the ball radius set to the
realized noise norm; noiseless trials solve the equality-constrained problem.
The solver's iteration cap is the one setting a spec carries
(``solver.maxIterations``); its tolerances are the constants of
:mod:`symcs.solver`.

Results serialize to a canonical CSV (fixed header, floats via repr) and a
JSON mirror (sorted keys, indent 2) that additionally carries per-row SNR
aggregates for noisy rows; a relative error of exactly zero is reported by
the distinguished marker ``EXACT_SNR`` rather than an infinite decibel
value, and such trials are counted separately and excluded from the SNR
mean.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Final

import numpy as np

from .ensembles import ENSEMBLES, checked_int, gen_measurement
from .errors import DimensionError, UndefinedMetricError
from .rng import Stream, derive_seed
from .solver import MAX_ITERATIONS, basis_pursuit, bpdn

EXACT_SNR: Final = "exact"

SIGNAL_KINDS = ("pm1", "gaussian")

# trials * len(axisValues) * len(ensembleList); the largest sweep in the
# tests and the benchmark runs 600
MAX_SPEC_TRIALS = 100_000

SUCCESS_TOL = 1e-3

_COLUMNS = ("ensemble", "axis", "axis_value", "trials", "successes", "success_rate",
            "mean_rel_err", "mean_iterations")

__all__ = [
    "EXACT_SNR",
    "MAX_SPEC_TRIALS",
    "SIGNAL_KINDS",
    "SUCCESS_TOL",
    "ExperimentSpec",
    "SparseSignal",
    "SweepResult",
    "SweepRow",
    "TrialOutcome",
    "mse",
    "plant_signal",
    "rel_err",
    "results_csv",
    "results_json",
    "run_trial",
    "snr_db",
    "sweep",
]


@dataclass(frozen=True, eq=False)
class SparseSignal:
    """Dense vector with a known support."""

    vector: np.ndarray
    support: np.ndarray
    kind: str

    @property
    def sparsity(self) -> int:
        return int(self.support.size)


def plant_signal(dimension: int, sparsity: int, kind: str, seed: int) -> SparseSignal:
    """Draw a sparse vector: a uniform support, then coefficients.

    ``kind`` is ``"pm1"`` (random signs) or ``"gaussian"``.  One stream
    serves both stages, support first, so the whole signal is a function of
    the seed alone.
    """
    if not 1 <= sparsity <= dimension:
        raise DimensionError(
            f"need 1 <= sparsity <= dimension, got {sparsity}, {dimension}"
        )
    if kind not in SIGNAL_KINDS:
        raise DimensionError(f"unknown signal kind {kind!r}")
    stream = Stream(seed)
    support = stream.sample_without_replacement(dimension, sparsity)
    if kind == "pm1":
        coeffs = stream.signs(sparsity).astype(np.float64)
    else:
        coeffs = stream.normals(sparsity)
    vector = np.zeros(dimension)
    vector[support] = coeffs
    return SparseSignal(vector=vector, support=support, kind=kind)


def _float_pair(estimate, reference):
    """Both arguments as float64 arrays of one shape."""
    reference = np.asarray(reference, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if reference.shape != estimate.shape:
        raise DimensionError(
            f"shapes {estimate.shape} and {reference.shape} do not match"
        )
    return estimate, reference


def rel_err(estimate: np.ndarray, reference: np.ndarray) -> float:
    """Relative l2 error; undefined for a zero reference."""
    estimate, reference = _float_pair(estimate, reference)
    denom = float(np.linalg.norm(reference))
    if denom == 0.0:
        raise UndefinedMetricError("relative error against a zero reference")
    return float(np.linalg.norm(estimate - reference)) / denom


def mse(estimate: np.ndarray, reference: np.ndarray) -> float:
    """Mean squared entrywise error."""
    estimate, reference = _float_pair(estimate, reference)
    gap = estimate - reference
    return float(np.mean(gap * gap))


def snr_db(relative_error: float):
    """``-20*log10(rel_err)`` in decibels; exactly-zero error -> EXACT_SNR."""
    if relative_error < 0.0:
        raise ValueError(f"relative error cannot be negative, got {relative_error}")
    if relative_error == 0.0:
        return EXACT_SNR
    return -20.0 * math.log10(relative_error)


@dataclass(frozen=True)
class TrialOutcome:
    rel_err: float
    success: bool
    iterations: int
    status: str


def run_trial(
    ensemble: str,
    dimension: int,
    rows: int,
    sparsity: int,
    kind: str,
    sigma: float,
    trial_seed: int,
    max_iterations: int = MAX_ITERATIONS,
) -> TrialOutcome:
    """One planted recovery trial, fully determined by ``trial_seed``.

    Sub-seeds: label 0 draws the matrix, label 1 the signal, label 2 the
    noise (consumed only when ``sigma > 0``).  A solver error propagates,
    through ``sweep`` too.  The solver is called positionally, as
    ``(matrix, y, max_iterations)`` or ``(matrix, y, epsilon,
    max_iterations)``: the benchmark records each solve by wrapping these
    two names with that signature.
    """
    if sigma < 0.0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    matrix = gen_measurement(ensemble, rows, dimension, derive_seed(trial_seed, [0]))
    signal = plant_signal(dimension, sparsity, kind, derive_seed(trial_seed, [1]))
    y = matrix.entries @ signal.vector
    if sigma > 0.0:
        noise = sigma * Stream(derive_seed(trial_seed, [2])).normals(rows)
        y = y + noise
        result = bpdn(matrix, y, float(np.linalg.norm(noise)), max_iterations)
    else:
        result = basis_pursuit(matrix, y, max_iterations)
    error = rel_err(result.solution, signal.vector)
    return TrialOutcome(
        rel_err=error,
        success=error <= SUCCESS_TOL,
        iterations=result.iterations,
        status=result.status,
    )


def _number(name: str, value, integer: bool = False):
    """``value`` as a Python int (``checked_int`` when ``integer``), or as a finite float.

    Ints and floats stay apart, so a sigma axis value ``0`` prints as ``0``.
    """
    if integer:
        return checked_int(name, value)
    if isinstance(value, float) and math.isfinite(value):
        return float(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DimensionError(f"{name} must be a finite number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ExperimentSpec:
    """Sweep description: one varying axis, everything else pinned.

    ``axis`` is ``"n"`` (row count), ``"k"`` (sparsity), or ``"sigma"``
    (noise level); ``fixed`` pins the quantities the axis does not vary and
    may set ``kind`` (default ``"pm1"``) and, for the n and k axes,
    ``sigma`` (default 0).  ``max_iterations`` is the solver's iteration cap.
    """

    dimension: int
    axis: str
    axis_values: tuple
    fixed: dict
    trials: int
    ensembles: tuple
    master_seed: int
    max_iterations: int = MAX_ITERATIONS

    def __post_init__(self):
        # named as in the spec file; a float would reach range() as a TypeError
        for key, name in (("max_iterations", "solver maxIterations"), ("dimension", "N"),
                          ("trials", "trials"), ("master_seed", "masterSeed")):
            object.__setattr__(self, key, _number(name, getattr(self, key), integer=True))
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be positive, got {self.max_iterations}")
        if self.dimension < 1:
            raise DimensionError(f"dimension must be positive, got {self.dimension}")
        if self.axis not in ("n", "k", "sigma"):
            raise DimensionError(f"axis must be n, k, or sigma, got {self.axis!r}")
        if not self.axis_values:
            raise DimensionError("axisValues must be nonempty")
        if self.trials < 1:
            raise DimensionError(f"trials must be positive, got {self.trials}")
        if not self.ensembles:
            raise DimensionError("ensembleList must be nonempty")
        for name in self.ensembles:
            if name not in ENSEMBLES:
                raise DimensionError(f"unknown ensemble {name!r}")
        if len(set(self.ensembles)) != len(self.ensembles):
            raise DimensionError("ensembleList has duplicates")
        total = self.trials * len(self.axis_values) * len(self.ensembles)
        if total > MAX_SPEC_TRIALS:
            raise DimensionError(
                f"spec asks for {total} trials; the cap is {MAX_SPEC_TRIALS}"
            )
        required = {"n": {"k"}, "k": {"n"}, "sigma": {"n", "k"}}[self.axis]
        optional = {"kind"} if self.axis == "sigma" else {"kind", "sigma"}
        keys = set(self.fixed)
        if not required <= keys or not keys <= required | optional:
            raise DimensionError(
                f"fixed keys {sorted(keys)} must cover {sorted(required)} and "
                f"stay within {sorted(required | optional)}"
            )
        if self.fixed.get("kind", "pm1") not in SIGNAL_KINDS:
            raise DimensionError(f"unknown signal kind {self.fixed.get('kind')!r}")
        # row counts and sparsities are integers; only sigma takes fractions
        object.__setattr__(self, "axis_values", tuple(
            _number("axisValues entry", value, self.axis != "sigma") for value in self.axis_values
        ))
        fixed = dict(self.fixed)
        for name in ("n", "k", "sigma"):
            if name in fixed:
                fixed[name] = _number(f"fixed {name}", fixed[name], name != "sigma")
        object.__setattr__(self, "fixed", fixed)
        if self.fixed.get("sigma", 0.0) < 0.0:
            raise ValueError("fixed sigma must be nonnegative")
        for name in ("n", "k"):
            if name in self.fixed and not 1 <= self.fixed[name] <= self.dimension:
                raise DimensionError(
                    f"fixed {name}={self.fixed[name]} out of range for "
                    f"dimension {self.dimension}"
                )
        for value in self.axis_values:
            if self.axis == "sigma":
                if value < 0.0:
                    raise ValueError(f"sigma axis value {value} is negative")
            elif not 1 <= value <= self.dimension:
                raise DimensionError(
                    f"{self.axis} axis value {value} out of range for "
                    f"dimension {self.dimension}"
                )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise DimensionError("spec must be a JSON object")
        required = {"N", "axis", "axisValues", "fixed", "trials", "ensembleList", "masterSeed"}
        optional = {"solver"}
        keys = set(data)
        if not required <= keys or not keys <= required | optional:
            raise DimensionError(
                f"spec keys {sorted(keys)} must cover {sorted(required)} and "
                f"stay within {sorted(required | optional)}"
            )
        fixed, raw = data["fixed"], data.get("solver", {})
        if not isinstance(raw, dict) or not set(raw) <= {"maxIterations"}:
            raise DimensionError("solver keys must stay within ['maxIterations']")
        if not isinstance(fixed, dict) or not all(
            isinstance(data[key], list) for key in ("axisValues", "ensembleList")
        ):
            raise DimensionError("fixed must be an object, axisValues and ensembleList lists")
        return cls(
            dimension=data["N"],
            axis=data["axis"],
            axis_values=tuple(data["axisValues"]),
            fixed=dict(fixed),
            trials=data["trials"],
            ensembles=tuple(data["ensembleList"]),
            master_seed=data["masterSeed"],
            max_iterations=raw.get("maxIterations", MAX_ITERATIONS),
        )

    def to_json(self) -> str:
        data = {
            "N": self.dimension,
            "axis": self.axis,
            "axisValues": list(self.axis_values),
            "fixed": self.fixed,
            "trials": self.trials,
            "ensembleList": list(self.ensembles),
            "masterSeed": self.master_seed,
            "solver": {"maxIterations": self.max_iterations},
        }
        return json.dumps(data, sort_keys=True, indent=2)

    def cell_params(self, value):
        """(rows, sparsity, sigma, kind) for one axis value."""
        kind = self.fixed.get("kind", "pm1")
        if self.axis == "n":
            return int(value), int(self.fixed["k"]), float(self.fixed.get("sigma", 0.0)), kind
        if self.axis == "k":
            return int(self.fixed["n"]), int(value), float(self.fixed.get("sigma", 0.0)), kind
        return int(self.fixed["n"]), int(self.fixed["k"]), float(value), kind


@dataclass(frozen=True)
class SweepRow:
    """Aggregates for one (ensemble, axis value) cell.

    ``mean_snr_db`` and ``exact_count`` are populated for noisy cells and
    for every cell of a sigma-axis sweep (including its sigma=0 baseline);
    ``mean_snr_db`` is None when every contributing trial was exact.
    """

    ensemble: str
    axis: str
    axis_value: object
    trials: int
    successes: int
    mean_rel_err: float
    mean_iterations: float
    mean_snr_db: float | None = None
    exact_count: int | None = None

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials


@dataclass(frozen=True)
class SweepResult:
    spec: ExperimentSpec
    rows: tuple


def _run_cell(spec: ExperimentSpec, ensemble: str, axis_index: int) -> SweepRow:
    value = spec.axis_values[axis_index]
    rows_n, sparsity, sigma, kind = spec.cell_params(value)
    ensemble_index = ENSEMBLES.index(ensemble)
    errors = []
    iterations = []
    successes = 0
    for trial in range(spec.trials):
        seed = derive_seed(spec.master_seed, [ensemble_index, axis_index, trial])
        outcome = run_trial(
            ensemble,
            spec.dimension,
            rows_n,
            sparsity,
            kind,
            sigma,
            seed,
            spec.max_iterations,
        )
        errors.append(outcome.rel_err)
        iterations.append(outcome.iterations)
        successes += outcome.success
    mean_snr = exact = None
    if sigma > 0.0 or spec.axis == "sigma":
        finite = [snr_db(e) for e in errors if e > 0.0]
        mean_snr = float(np.mean(finite)) if finite else None
        exact = sum(1 for e in errors if e == 0.0)
    return SweepRow(
        ensemble=ensemble,
        axis=spec.axis,
        axis_value=value,
        trials=spec.trials,
        successes=successes,
        mean_rel_err=float(np.mean(errors)),
        mean_iterations=float(np.mean(iterations)),
        mean_snr_db=mean_snr,
        exact_count=exact,
    )


def sweep(spec: ExperimentSpec) -> SweepResult:
    """Run every (ensemble, axis value) cell of a spec, one after another.

    Row order is ensembles in spec order, then axis values in spec order.
    """
    rows = [
        _run_cell(spec, ensemble, axis_index)
        for ensemble in spec.ensembles
        for axis_index in range(len(spec.axis_values))
    ]
    return SweepResult(spec=spec, rows=tuple(rows))


def _columns(row: SweepRow) -> dict:
    """The fields the CSV and JSON share, in CSV column order."""
    return {name: getattr(row, name) for name in _COLUMNS}


def results_csv(result: SweepResult) -> str:
    """Canonical CSV: fixed header, one row per cell, numbers via repr (a spec's ints stay ints)."""
    lines = [",".join(_COLUMNS)]
    for row in result.rows:
        lines.append(",".join(
            value if isinstance(value, str) else repr(value) for value in _columns(row).values()
        ))
    return "\n".join(lines) + "\n"


def results_json(result: SweepResult) -> str:
    """JSON mirror of the CSV plus SNR aggregates for noisy rows."""
    rows = []
    for row in result.rows:
        entry = _columns(row)
        if row.exact_count is not None:
            entry["exact_count"] = row.exact_count
            entry["mean_snr_db"] = (
                EXACT_SNR if row.mean_snr_db is None else row.mean_snr_db
            )
        rows.append(entry)
    data = {"spec": json.loads(result.spec.to_json()), "rows": rows}
    return json.dumps(data, sort_keys=True, indent=2)
