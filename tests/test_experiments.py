"""Trial and sweep determinism, spec validation, and result serialization."""

import json
import math
import sys

import numpy as np
import pytest

from symcs.ensembles import ENSEMBLES, gen_measurement
from symcs.errors import DimensionError, UndefinedMetricError
from symcs.experiments import (
    EXACT_SNR,
    MAX_SPEC_TRIALS,
    ExperimentSpec,
    SweepResult,
    SweepRow,
    mse,
    plant_signal,
    rel_err,
    results_csv,
    results_json,
    run_trial,
    snr_db,
    sweep,
)
from symcs.rng import Stream, derive_seed
from symcs.solver import MAX_ITERATIONS, basis_pursuit, bpdn


def small_spec(**overrides):
    base = dict(
        dimension=16,
        axis="k",
        axis_values=(1, 2),
        fixed={"n": 8},
        trials=3,
        ensembles=("partial-symmetric-bernoulli", "gaussian"),
        master_seed=12,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_plant_signal_frozen_pm1():
    sig = plant_signal(10, 3, "pm1", 5)
    assert sig.support.tolist() == [0, 8, 9]
    assert sig.vector.tolist() == [1.0, 0, 0, 0, 0, 0, 0, 0, 1.0, 1.0]
    assert sig.support.size == 3
    assert sig.kind == "pm1"


def test_plant_signal_frozen_gaussian():
    sig = plant_signal(6, 2, "gaussian", 7)
    assert sig.support.tolist() == [3, 5]
    np.testing.assert_allclose(
        sig.vector[[3, 5]],
        [-0.39652397525381783, -0.22759631143286652],
        rtol=1e-15,
    )
    assert np.count_nonzero(sig.vector) == 2


def test_plant_signal_properties():
    sig = plant_signal(30, 7, "pm1", 9)
    assert np.all(np.diff(sig.support) > 0)
    assert set(np.abs(sig.vector[sig.support])) == {1.0}
    again = plant_signal(30, 7, "pm1", 9)
    np.testing.assert_array_equal(sig.vector, again.vector)
    with pytest.raises(DimensionError):
        plant_signal(5, 0, "pm1", 1)
    with pytest.raises(DimensionError):
        plant_signal(5, 6, "pm1", 1)
    with pytest.raises(DimensionError):
        plant_signal(5, 2, "rademacher", 1)


def test_error_metrics():
    a = np.array([1.0, 2.0, 2.0])
    b = np.array([1.0, 2.0, 0.0])
    assert rel_err(a, b) == pytest.approx(2.0 / np.sqrt(5.0), rel=1e-15)
    assert mse(a, b) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert rel_err(a, a) == 0.0
    assert rel_err(np.zeros(3), np.zeros(3)) == 0.0
    with pytest.raises(UndefinedMetricError):
        rel_err(a, np.zeros(3))
    with pytest.raises(DimensionError):
        rel_err(a, np.zeros(2))
    with pytest.raises(DimensionError):
        mse(a, np.zeros(2))


def test_snr_conversion():
    assert snr_db(0.1) == pytest.approx(20.0, rel=1e-14)
    assert snr_db(1.0) == 0.0
    assert snr_db(0.0) == EXACT_SNR
    with pytest.raises(ValueError):
        snr_db(-0.5)


def test_run_trial_deterministic():
    first = run_trial("partial-symmetric-bernoulli", 20, 12, 3, "pm1", 0.0, 99)
    second = run_trial("partial-symmetric-bernoulli", 20, 12, 3, "pm1", 0.0, 99)
    assert first == second
    assert first.success
    assert first.status == "converged"


def test_run_trial_matches_manual_pipeline():
    trial_seed = 314
    outcome = run_trial("gaussian", 32, 16, 2, "pm1", 0.4, trial_seed)
    matrix = gen_measurement("gaussian", 16, 32, derive_seed(trial_seed, [0]))
    signal = plant_signal(32, 2, "pm1", derive_seed(trial_seed, [1]))
    noise = 0.4 * Stream(derive_seed(trial_seed, [2])).normals(16)
    y = matrix.entries @ signal.vector + noise
    result = bpdn(matrix, y, float(np.linalg.norm(noise)))
    assert outcome.rel_err == rel_err(result.solution, signal.vector)
    assert outcome.iterations == result.iterations
    assert outcome.status == result.status


def test_run_trial_noiseless_consumes_no_noise_stream():
    noiseless = run_trial("partial-symmetric-bernoulli", 20, 12, 3, "pm1", 0.0, 99)
    matrix = gen_measurement(
        "partial-symmetric-bernoulli", 12, 20, derive_seed(99, [0])
    )
    signal = plant_signal(20, 3, "pm1", derive_seed(99, [1]))
    result = basis_pursuit(matrix, matrix.entries @ signal.vector)
    assert noiseless.rel_err == rel_err(result.solution, signal.vector)


def test_run_trial_rejects_negative_sigma():
    with pytest.raises(ValueError):
        run_trial("gaussian", 8, 4, 1, "pm1", -0.1, 0)


def test_spec_validation_axis_rules():
    small_spec()  # k axis with fixed n is valid
    with pytest.raises(DimensionError):
        small_spec(fixed={})
    with pytest.raises(DimensionError):
        small_spec(fixed={"n": 8, "bogus": 1})
    small_spec(axis="n", axis_values=(4, 8), fixed={"k": 2})
    small_spec(axis="n", axis_values=(4, 8), fixed={"k": 2, "sigma": 0.5, "kind": "gaussian"})
    small_spec(axis="sigma", axis_values=(0.0, 0.5), fixed={"n": 8, "k": 2})
    with pytest.raises(DimensionError):
        # sigma cannot be pinned while it is the axis
        small_spec(axis="sigma", axis_values=(0.0,), fixed={"n": 8, "k": 2, "sigma": 1.0})
    with pytest.raises(DimensionError):
        small_spec(axis="sigma", axis_values=(0.0,), fixed={"n": 8})


def test_spec_validation_values():
    with pytest.raises(DimensionError):
        small_spec(axis="bogus")
    with pytest.raises(DimensionError):
        small_spec(axis_values=())
    with pytest.raises(DimensionError):
        small_spec(trials=0)
    with pytest.raises(DimensionError):
        small_spec(ensembles=())
    with pytest.raises(DimensionError):
        small_spec(ensembles=("gaussian", "gaussian"))
    # two axis values and two ensembles: four cells
    assert small_spec(trials=MAX_SPEC_TRIALS // 4).trials == MAX_SPEC_TRIALS // 4
    with pytest.raises(DimensionError, match="the cap is"):
        small_spec(trials=MAX_SPEC_TRIALS // 4 + 1)
    with pytest.raises(DimensionError):
        small_spec(ensembles=("gaussian", "nonsense"))
    with pytest.raises(DimensionError):
        small_spec(axis_values=(1, 17))
    with pytest.raises(ValueError, match=r"^axisValues entry -0\.5 is negative$"):
        small_spec(axis="sigma", axis_values=(-0.5,), fixed={"n": 8, "k": 2})
    with pytest.raises(ValueError, match="^fixed sigma -1 is negative$"):
        small_spec(axis="n", axis_values=(8,), fixed={"k": 2, "sigma": -1})
    with pytest.raises(DimensionError):
        small_spec(fixed={"n": 20})


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"axis_values": (2.7,), "fixed": {"n": 8.9}}, "axisValues entry must be an integer, got 2.7"),
        ({"fixed": {"n": 8.9}}, "fixed n must be an integer, got 8.9"),
        ({"fixed": {"n": 8.0}}, "fixed n must be an integer, got 8.0"),
        ({"axis": "n", "axis_values": (8.5,), "fixed": {"k": 2}},
         "axisValues entry must be an integer, got 8.5"),
        ({"axis": "n", "axis_values": (8,), "fixed": {"k": 2.5}},
         "fixed k must be an integer, got 2.5"),
        ({"axis_values": (True,)}, "axisValues entry must be an integer, got True"),
        ({"axis": "sigma", "axis_values": ("0.5",), "fixed": {"n": 8, "k": 2}},
         "axisValues entry must be a finite number, got '0.5'"),
        ({"axis": "n", "axis_values": (8,), "fixed": {"k": 2, "sigma": math.nan}},
         "fixed sigma must be a finite number, got nan"),
        ({"trials": 2.5}, "trials must be an integer, got 2.5"),
        ({"dimension": 16.0}, "N must be an integer, got 16.0"),
        ({"master_seed": 12.5}, "masterSeed must be an integer, got 12.5"),
        ({"axis_values": (1, 17)}, "axisValues entry 17 out of range for dimension 16"),
        ({"fixed": {"n": 20}}, "fixed n 20 out of range for dimension 16"),
        ({"axis": "sigma", "axis_values": (0, 10**400), "fixed": {"n": 8, "k": 2}},
         "axisValues entry must be a finite number, got an integer beyond the float range"),
        ({"axis": "n", "axis_values": (8,), "fixed": {"k": 2, "sigma": -(10**400)}},
         "fixed sigma must be a finite number, got an integer beyond the float range"),
    ],
    ids=["axis-k-and-fixed-n-fractions", "fixed-n-fraction", "fixed-n-integral-float",
         "axis-n-fraction", "fixed-k-fraction", "axis-value-bool", "sigma-string",
         "fixed-sigma-nan", "trials-fraction", "dimension-integral-float",
         "master-seed-fraction", "axis-k-out-of-range", "fixed-n-out-of-range",
         "axis-sigma-beyond-float", "fixed-sigma-beyond-float"],
)
def test_spec_built_in_python_rejects_non_integer_counts(overrides, message):
    # the same rule as from_json: a fractional count is refused, not truncated
    with pytest.raises(DimensionError) as caught:
        small_spec(**overrides)
    assert str(caught.value) == message


def test_spec_accepts_numpy_integer_counts():
    spec = small_spec(axis_values=(np.int64(2),), fixed={"n": np.int32(8)})
    assert spec.cell_params(spec.axis_values[0]) == (8, 2, 0.0, "pm1")
    # numpy integers are stored as the Python ints they hold
    plain = small_spec(axis_values=(2,), fixed={"n": 8})
    assert spec == plain
    assert spec.to_json() == plain.to_json()
    assert ExperimentSpec.from_json(spec.to_json()) == spec
    assert results_json(sweep(spec)) == results_json(sweep(plain))
    counts = small_spec(dimension=np.int64(16), trials=np.int16(3), master_seed=np.uint8(12),
                        max_iterations=np.int64(MAX_ITERATIONS))
    assert counts.to_json() == small_spec().to_json()


def test_sigma_int_at_the_float_limit_stays_an_int():
    top = int(sys.float_info.max)
    spec = small_spec(axis="sigma", axis_values=(top,), fixed={"n": 8, "k": 2})
    assert spec.axis_values == (top,)
    assert spec.cell_params(top) == (8, 2, sys.float_info.max, "pm1")
    with pytest.raises(DimensionError, match="beyond the float range"):
        small_spec(axis="sigma", axis_values=(top + 1,), fixed={"n": 8, "k": 2})


def test_sigma_axis_keeps_ints_and_floats_apart():
    spec = small_spec(axis="sigma", axis_values=(np.int64(0), 0, np.float64(0.5), 1.0),
                      fixed={"n": 8, "k": 2}, trials=1, ensembles=("gaussian",))
    assert [type(v) for v in spec.axis_values] == [int, int, float, float]
    values = [line.split(",")[2] for line in results_csv(sweep(spec)).splitlines()[1:]]
    assert values == ["0", "0", "0.5", "1.0"]


def test_spec_json_roundtrip_is_canonical():
    spec = small_spec(max_iterations=2500)
    text = spec.to_json()
    again = ExperimentSpec.from_json(text)
    assert again == spec
    assert again.to_json() == text
    payload = json.loads(text)
    assert set(payload) == {
        "N", "axis", "axisValues", "fixed", "trials",
        "ensembleList", "masterSeed", "solver",
    }
    assert payload["solver"] == {"maxIterations": 2500}


def test_spec_from_json_rejections():
    good = json.loads(small_spec().to_json())
    missing = dict(good)
    del missing["axis"]
    with pytest.raises(DimensionError):
        ExperimentSpec.from_json(json.dumps(missing))
    extra = dict(good)
    extra["comment"] = "hi"
    with pytest.raises(DimensionError):
        ExperimentSpec.from_json(json.dumps(extra))
    bad_solver = dict(good)
    bad_solver["solver"] = {"maxIter": 10}
    with pytest.raises(DimensionError):
        ExperimentSpec.from_json(json.dumps(bad_solver))
    with pytest.raises(DimensionError):
        ExperimentSpec.from_json("[1, 2]")


def test_cell_params_per_axis():
    spec_n = small_spec(axis="n", axis_values=(4, 8), fixed={"k": 2, "sigma": 0.5})
    assert spec_n.cell_params(4) == (4, 2, 0.5, "pm1")
    spec_k = small_spec(fixed={"n": 8, "kind": "gaussian"})
    assert spec_k.cell_params(2) == (8, 2, 0.0, "gaussian")
    spec_s = small_spec(axis="sigma", axis_values=(0.0, 0.3), fixed={"n": 8, "k": 2})
    assert spec_s.cell_params(0.3) == (8, 2, 0.3, "pm1")


def test_sweep_row_order():
    result = sweep(small_spec())
    assert [(r.ensemble, r.axis_value) for r in result.rows] == [
        ("partial-symmetric-bernoulli", 1),
        ("partial-symmetric-bernoulli", 2),
        ("gaussian", 1),
        ("gaussian", 2),
    ]


def test_sweep_trials_keyed_by_canonical_ensemble_position():
    both = sweep(small_spec())
    alone = sweep(small_spec(ensembles=("gaussian",)))
    gaussian_rows = [r for r in both.rows if r.ensemble == "gaussian"]
    assert list(alone.rows) == gaussian_rows


def test_sweep_trials_match_run_trial_directly():
    spec = small_spec()
    result = sweep(spec)
    row = result.rows[1]  # partial-symmetric-bernoulli, k = 2
    idx = ENSEMBLES.index("partial-symmetric-bernoulli")
    outcomes = [
        run_trial(
            "partial-symmetric-bernoulli", 16, 8, 2, "pm1", 0.0,
            derive_seed(12, [idx, 1, t]),
        )
        for t in range(3)
    ]
    assert row.successes == sum(o.success for o in outcomes)
    assert row.mean_rel_err == pytest.approx(
        np.mean([o.rel_err for o in outcomes]), rel=1e-15
    )
    assert row.mean_iterations == pytest.approx(
        np.mean([o.iterations for o in outcomes]), rel=1e-15
    )


def test_sigma_axis_rows_carry_snr_fields_even_at_zero():
    spec = small_spec(
        axis="sigma",
        axis_values=(0.0, 0.5),
        fixed={"n": 12, "k": 1},
        ensembles=("gaussian",),
        trials=2,
    )
    rows = sweep(spec).rows
    for row in rows:
        assert row.exact_count is not None
        assert row.mean_snr_db is None or isinstance(row.mean_snr_db, float)
    noiseless_k_axis = sweep(small_spec(ensembles=("gaussian",))).rows
    for row in noiseless_k_axis:
        assert row.exact_count is None
        assert row.mean_snr_db is None


def test_results_csv_layout():
    result = sweep(small_spec(ensembles=("gaussian",)))
    text = results_csv(result)
    lines = text.strip().split("\n")
    assert lines[0] == (
        "ensemble,axis,axis_value,trials,successes,success_rate,"
        "mean_rel_err,mean_iterations"
    )
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "gaussian"
    assert first[1] == "k"
    assert first[2] == "1"
    assert first[3] == "3"
    assert text.endswith("\n")


def test_results_roundtrip_through_csv():
    result = sweep(small_spec())
    lines = results_csv(result).strip().split("\n")[1:]
    parsed = []
    for line in lines:
        ensemble, axis, value, trials, successes, rate, err, iters = line.split(",")
        row = SweepRow(
            ensemble=ensemble,
            axis=axis,
            axis_value=int(value),
            trials=int(trials),
            successes=int(successes),
            mean_rel_err=float(err),
            mean_iterations=float(iters),
        )
        assert float(rate) == row.success_rate
        parsed.append(row)
    assert tuple(parsed) == result.rows


def test_results_json_mirror_and_exact_marker():
    spec = small_spec(ensembles=("gaussian",))
    result = sweep(spec)
    data = json.loads(results_json(result))
    assert data["spec"] == json.loads(spec.to_json())
    assert [r["axis_value"] for r in data["rows"]] == [1, 2]
    assert "mean_snr_db" not in data["rows"][0]
    # one column list: the CSV header names the noiseless JSON row's keys, which dump sorted
    assert sorted(results_csv(result).split("\n")[0].split(",")) == list(data["rows"][0])

    synthetic = SweepResult(
        spec=spec,
        rows=(
            SweepRow(
                ensemble="gaussian",
                axis="sigma",
                axis_value=0.0,
                trials=2,
                successes=2,
                mean_rel_err=0.0,
                mean_iterations=4.0,
                mean_snr_db=None,
                exact_count=2,
            ),
        ),
    )
    payload = json.loads(results_json(synthetic))
    assert payload["rows"][0]["mean_snr_db"] == EXACT_SNR
    assert payload["rows"][0]["exact_count"] == 2
    assert results_json(synthetic) == json.dumps(payload, sort_keys=True, indent=2)


def test_axis_value_formatting_in_csv():
    spec = small_spec(
        axis="sigma",
        axis_values=(0.0, 0.25),
        fixed={"n": 12, "k": 1},
        ensembles=("gaussian",),
        trials=2,
    )
    text = results_csv(sweep(spec))
    values = [line.split(",")[2] for line in text.strip().split("\n")[1:]]
    assert values == ["0.0", "0.25"]
