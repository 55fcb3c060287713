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
import sys
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
    """Relative l2 error; against a zero reference, 0 for an exact estimate and else undefined."""
    estimate, reference = _float_pair(estimate, reference)
    denom = float(np.linalg.norm(reference))
    gap = float(np.linalg.norm(estimate - reference))
    if denom == 0.0:
        if gap == 0.0:
            return 0.0
        raise UndefinedMetricError("relative error against a zero reference")
    return gap / denom


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


# spec-file key of each ExperimentSpec field but the iteration cap, in the
# order the fields are declared; the cap is the one nested key
_SPEC_KEYS = {
    "dimension": "N",
    "axis": "axis",
    "axis_values": "axisValues",
    "fixed": "fixed",
    "trials": "trials",
    "ensembles": "ensembleList",
    "master_seed": "masterSeed",
}
_CAP_KEY = ("solver", "maxIterations")


def _check_keys(what: str, keys: set, required: set, allowed: set) -> None:
    if not required <= keys <= allowed:
        raise DimensionError(f"{what} keys {sorted(keys)} must cover {sorted(required)} and "
                             f"stay within {sorted(allowed)}")


def _cell_value(name: str, value, label: str, dimension: int):
    """A cell's ``n`` or ``k`` as an int in ``[1, dimension]``, or its ``sigma``
    as a finite number at least 0 (an int too, within the float range);
    ``label`` names the value in messages.

    Ints and floats stay apart, so a sigma axis value ``0`` prints as ``0``.
    """
    if name != "sigma":
        value = checked_int(label, value)
        if not 1 <= value <= dimension:
            raise DimensionError(f"{label} {value} out of range for dimension {dimension}")
        return value
    finite = isinstance(value, float) and math.isfinite(value)
    if not finite and (isinstance(value, bool) or not isinstance(value, (int, np.integer))):
        raise DimensionError(f"{label} must be a finite number, got {value!r}")
    if not finite and abs(value) > sys.float_info.max:
        raise DimensionError(
            f"{label} must be a finite number, got an integer beyond the float range"
        )
    value = float(value) if finite else int(value)
    if value < 0:
        raise ValueError(f"{label} {value} is negative")
    return value


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
        # messages name values as the spec file does; a float count would
        # reach range() as a TypeError
        key = {**_SPEC_KEYS, "max_iterations": " ".join(_CAP_KEY)}
        for field in ("max_iterations", "dimension", "trials", "master_seed"):
            object.__setattr__(self, field, checked_int(key[field], getattr(self, field)))
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be positive, got {self.max_iterations}")
        if self.dimension < 1:
            raise DimensionError(f"dimension must be positive, got {self.dimension}")
        if self.axis not in ("n", "k", "sigma"):
            raise DimensionError(f"axis must be n, k, or sigma, got {self.axis!r}")
        if not self.axis_values:
            raise DimensionError(f"{key['axis_values']} must be nonempty")
        if self.trials < 1:
            raise DimensionError(f"trials must be positive, got {self.trials}")
        if not self.ensembles:
            raise DimensionError(f"{key['ensembles']} must be nonempty")
        object.__setattr__(self, "ensembles", tuple(self.ensembles))
        for name in self.ensembles:
            if name not in ENSEMBLES:
                raise DimensionError(f"unknown ensemble {name!r}")
        if len(set(self.ensembles)) != len(self.ensembles):
            raise DimensionError(f"{key['ensembles']} has duplicates")
        total = self.trials * len(self.axis_values) * len(self.ensembles)
        if total > MAX_SPEC_TRIALS:
            raise DimensionError(
                f"spec asks for {total} trials; the cap is {MAX_SPEC_TRIALS}"
            )
        # fixed must pin n and k and may pin sigma and kind, each unless it is the axis
        axis = {self.axis}
        _check_keys("fixed", set(self.fixed), {"n", "k"} - axis, {"n", "k", "sigma", "kind"} - axis)
        if self.fixed.get("kind", "pm1") not in SIGNAL_KINDS:
            raise DimensionError(f"unknown signal kind {self.fixed.get('kind')!r}")
        # the axis values first, then the pinned values, by one rule
        object.__setattr__(self, "axis_values", tuple(
            _cell_value(self.axis, value, f"{key['axis_values']} entry", self.dimension)
            for value in self.axis_values
        ))
        object.__setattr__(self, "fixed", {
            name: value if name == "kind" else
            _cell_value(name, value, f"fixed {name}", self.dimension)
            for name, value in self.fixed.items()
        })

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise DimensionError("spec must be a JSON object")
        solver, cap = _CAP_KEY
        required = set(_SPEC_KEYS.values())
        _check_keys("spec", set(data), required, required | {solver})
        raw = data.get(solver, {})
        if not isinstance(raw, dict) or not set(raw) <= {cap}:
            raise DimensionError(f"{solver} keys must stay within {[cap]}")
        fields = {field: data[key] for field, key in _SPEC_KEYS.items()}
        if not isinstance(fields["fixed"], dict) or not all(
                isinstance(fields[field], list) for field in ("axis_values", "ensembles")):
            raise DimensionError("fixed must be an object, {axis_values} and {ensembles} lists"
                                 .format_map(_SPEC_KEYS))
        return cls(**fields, max_iterations=raw.get(cap, MAX_ITERATIONS))

    def to_json(self) -> str:
        solver, cap = _CAP_KEY
        data = {key: getattr(self, field) for field, key in _SPEC_KEYS.items()}
        data[solver] = {cap: self.max_iterations}
        return json.dumps(data, sort_keys=True, indent=2)

    def cell_params(self, value):
        """(rows, sparsity, sigma, kind) for one axis value."""
        cell = {"kind": "pm1", "sigma": 0.0, **self.fixed, self.axis: value}
        return cell["n"], cell["k"], float(cell["sigma"]), cell["kind"]


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
    outcomes = [
        run_trial(
            ensemble,
            spec.dimension,
            rows_n,
            sparsity,
            kind,
            sigma,
            derive_seed(spec.master_seed, [ensemble_index, axis_index, trial]),
            spec.max_iterations,
        )
        for trial in range(spec.trials)
    ]
    errors = [outcome.rel_err for outcome in outcomes]
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
        successes=sum(outcome.success for outcome in outcomes),
        mean_rel_err=float(np.mean(errors)),
        mean_iterations=float(np.mean([outcome.iterations for outcome in outcomes])),
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
