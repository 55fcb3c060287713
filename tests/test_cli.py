"""Command line behavior: exit codes, byte-deterministic output, file IO."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import symcs
from symcs import cli, concentration, ensembles, experiments, imageio, rip, solver
from symcs.cli import main
from synthetic_images import synthetic_sparse_image


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_matrix_prints_descriptor(capsys):
    code, out, err = run_cli(
        capsys,
        ["gen-matrix", "--ensemble", "partial-symmetric-bernoulli",
         "-n", "4", "-N", "6", "--seed", "3"],
    )
    assert code == 0
    expected = ensembles.gen_measurement(
        "partial-symmetric-bernoulli", 4, 6, 3
    ).descriptor_json()
    assert out == expected + "\n"


def test_gen_matrix_entries_file(capsys, tmp_path):
    path = tmp_path / "entries.csv"
    code, out, _ = run_cli(
        capsys,
        ["gen-matrix", "--ensemble", "gaussian", "-n", "3", "-N", "5",
         "--seed", "1", "--entries", str(path)],
    )
    assert code == 0
    matrix = ensembles.gen_measurement("gaussian", 3, 5, 1)
    expected = io.StringIO()
    ensembles.entries_csv(matrix, expected)
    assert path.read_text() == expected.getvalue()


def test_seed_resolution_order(capsys, monkeypatch):
    monkeypatch.setenv("CS_SEED", "3")
    code, from_env, _ = run_cli(
        capsys,
        ["gen-matrix", "--ensemble", "gaussian", "-n", "2", "-N", "3"],
    )
    assert code == 0
    code, from_flag, _ = run_cli(
        capsys,
        ["gen-matrix", "--ensemble", "gaussian", "-n", "2", "-N", "3",
         "--seed", "3"],
    )
    assert from_env == from_flag
    # explicit flag wins over the environment
    monkeypatch.setenv("CS_SEED", "99")
    code, flagged, _ = run_cli(
        capsys,
        ["gen-matrix", "--ensemble", "gaussian", "-n", "2", "-N", "3",
         "--seed", "3"],
    )
    assert flagged == from_flag


def test_garbage_env_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CS_SEED", "not-a-number")
    with pytest.raises(SystemExit) as exc:
        main(["gen-matrix", "--ensemble", "gaussian", "-n", "2", "-N", "3"])
    assert exc.value.code == 1
    assert "CS_SEED" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    for argv in (
        ["no-such-command"],
        ["gen-matrix", "--ensemble", "gaussian", "-n", "2"],
        ["gen-matrix", "--ensemble", "bogus", "-n", "2", "-N", "3"],
        ["jl-size", "--eps", "x", "--beta", "1", "--points", "10"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error" in capsys.readouterr().err


def test_runtime_errors_exit_two(capsys):
    # rows above the dimension violate the ensemble contract
    code, _, err = run_cli(
        capsys,
        ["gen-matrix", "--ensemble", "gaussian", "-n", "7", "-N", "3"],
    )
    assert code == 2
    assert err.startswith("error:")
    # 7,624,512 supports of size 5 from 64 columns, above rip.MAX_SUPPORTS
    code, out, err = run_cli(
        capsys,
        ["rip-scan", "-n", "6", "-N", "64", "--order", "5", "--seed", "0"],
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "the cap is 1000000" in err
    # numeric flags out of range or beyond the float range: one error line,
    # never a traceback, and no NaN or Infinity printed as a failed check
    for argv in (
        ["check-lemma21", "-N", "0", "-n", "1"],
        ["check-lemma21", "-N", "0", "-n", "1", "--alpha", "axis"],
        ["check-lemma21", "-N", "3", "-n", "3", "--h", "inf"],
        ["check-lemma21", "-N", "3", "-n", "3", "--h", "nan"],
        ["check-lemma21", "-N", "3", "-n", "3", "--h", "1000", "--alpha", "axis"],
        ["check-lemma21", "-N", "3", "-n", "3", "--h=-inf"],
        ["jl-size", "--eps", "1e-200", "--beta", "1", "--points", "100"],
        ["jl-size", "--eps", "0.5", "--beta", "inf", "--points", "100"],
        ["check-tails", "-N", "16", "-n", "8", "--eps", "1000", "--trials", "5"],
        ["check-tails", "-N", "16", "-n", "8", "--eps", "inf", "--trials", "5"],
        ["check-tails", "-N", "0", "-n", "1", "--eps", "0.5", "--trials", "5"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)


def test_size_over_the_cap_exits_two_before_allocating(capsys, tmp_path):
    code, out, err = run_cli(
        capsys,
        ["gen-matrix", "--ensemble", "partial-symmetric-bernoulli",
         "-n", "1", "-N", str(ensembles.MAX_ENTRIES + 1)],
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "the cap is" in err
    descriptor = tmp_path / "matrix.json"
    descriptor.write_text(json.dumps(
        {"ensemble": "gaussian", "n": 2**13 + 1, "N": 2**13 + 1, "seed": 0, "scale": 1.0}
    ))
    measurements = tmp_path / "y.txt"
    measurements.write_text("1.0\n")
    code, out, err = run_cli(
        capsys,
        ["recover", "--descriptor", str(descriptor), "--measurements", str(measurements)],
    )
    assert (code, out) == (2, "")
    assert "the cap is" in err


@pytest.mark.parametrize("rows", ['"2"', "2.0", "null"])
def test_recover_rejects_non_integer_descriptor_shape(capsys, tmp_path, rows):
    descriptor = tmp_path / "matrix.json"
    descriptor.write_text(
        f'{{"ensemble": "gaussian", "n": {rows}, "N": 4, "seed": 0, "scale": 1.0}}'
    )
    measurements = tmp_path / "y.txt"
    measurements.write_text("1.0\n2.0\n")
    code, out, err = run_cli(
        capsys,
        ["recover", "--descriptor", str(descriptor), "--measurements", str(measurements)],
    )
    assert (code, out) == (2, "")
    assert "rows must be an integer" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("5", "descriptor must be a JSON object"),
        ('{"ensemble": "gaussian", "n": 2, "N": 4, "seed": "x", "scale": 1.0}',
         "seed must be an integer, got 'x'"),
        ('{"ensemble": "gaussian", "n": 2, "N": 4, "seed": 1.5, "scale": 1.0}',
         "seed must be an integer, got 1.5"),
        ('{"ensemble": "gaussian", "n": 2, "N": 4, "seed": true, "scale": 1.0}',
         "seed must be an integer, got True"),
    ],
    ids=["not-an-object", "seed-string", "seed-float", "seed-bool"],
)
def test_recover_rejects_malformed_descriptor(capsys, tmp_path, text, message):
    descriptor = tmp_path / "matrix.json"
    descriptor.write_text(text)
    measurements = tmp_path / "y.txt"
    measurements.write_text("1.0\n2.0\n")
    code, out, err = run_cli(
        capsys,
        ["recover", "--descriptor", str(descriptor), "--measurements", str(measurements)],
    )
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_memory_error_exits_two_with_a_message(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(ensembles, "gen_measurement", exhausted)
    code, out, err = run_cli(
        capsys, ["gen-matrix", "--ensemble", "gaussian", "-n", "2", "-N", "3"]
    )
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_recover_roundtrip(capsys, tmp_path):
    matrix = ensembles.gen_measurement("partial-symmetric-bernoulli", 12, 20, 3)
    descriptor = tmp_path / "matrix.json"
    descriptor.write_text(matrix.descriptor_json())
    truth = experiments.plant_signal(20, 3, "pm1", 5)
    y = matrix.entries @ truth.vector
    measurements = tmp_path / "y.txt"
    measurements.write_text("\n".join(repr(float(v)) for v in y) + "\n")

    code, out, err = run_cli(
        capsys,
        ["recover", "--descriptor", str(descriptor),
         "--measurements", str(measurements)],
    )
    assert code == 0
    assert "status=converged" in err
    solution = np.array([float(line) for line in out.split()])
    direct = solver.basis_pursuit(matrix, y)
    np.testing.assert_array_equal(solution, direct.solution)

    out_path = tmp_path / "x.txt"
    code, out, _ = run_cli(
        capsys,
        ["recover", "--descriptor", str(descriptor),
         "--measurements", str(measurements), "--out", str(out_path)],
    )
    assert code == 0
    assert out == ""
    file_solution = np.array([float(line) for line in out_path.read_text().split()])
    np.testing.assert_array_equal(file_solution, direct.solution)


@pytest.mark.parametrize("radius, status, code", [
    (0.05, "max-iterations", 0),
    # the capped iterate misses the ball by more than FEAS_TOL allows
    (0.01, "infeasible-detected", 2),
])
def test_recover_reports_the_cap_on_small_noise(capsys, tmp_path, radius, status, code):
    # the CI step "Noisy recover" (a planted 4-sparse signal at 40x128) with
    # its noise rescaled to norm `radius`, the ball radius.  At the fixed ADMM
    # penalty bpdn's iterations grow about as 1/epsilon (395 at norm 1.0,
    # 1739 at 0.2), and both solves stop at the default cap.  recover exits 0
    # on a capped answer that fits the ball, names the status on stderr, and
    # writes the solution all the same
    matrix = ensembles.gen_measurement("partial-symmetric-bernoulli", 40, 128, 3)
    descriptor = tmp_path / "descriptor.json"
    descriptor.write_text(matrix.descriptor_json())
    x = np.zeros(128)
    x[[5, 40, 77, 120]] = [1.0, -2.0, 0.5, 1.5]
    noise = 0.2 * np.random.default_rng(3).standard_normal(40)
    noise *= radius / np.linalg.norm(noise)
    measurements = tmp_path / "y.txt"
    measurements.write_text("\n".join(repr(float(v)) for v in matrix.entries @ x + noise) + "\n")
    got = run_cli(
        capsys,
        ["recover", "--descriptor", str(descriptor), "--measurements", str(measurements),
         "--epsilon", repr(float(np.linalg.norm(noise)))],
    )
    assert got[0] == code
    assert got[2].startswith(f"status={status} iterations={solver.MAX_ITERATIONS} ")
    assert len(got[1].split()) == 128


def test_recover_reports_infeasible(capsys, tmp_path):
    # this draw's first 6 rows are linearly dependent, so no projection exists
    matrix = ensembles.gen_measurement("partial-symmetric-bernoulli", 6, 8, 20)
    descriptor = tmp_path / "matrix.json"
    descriptor.write_text(matrix.descriptor_json())
    measurements = tmp_path / "y.txt"
    measurements.write_text("\n".join(["1.0"] * 6) + "\n")
    code, _, err = run_cli(
        capsys,
        ["recover", "--descriptor", str(descriptor),
         "--measurements", str(measurements)],
    )
    assert code == 2
    assert "status=infeasible-detected" in err


def test_recover_rejects_non_finite_measurement(capsys, tmp_path):
    matrix = ensembles.gen_measurement("partial-symmetric-bernoulli", 4, 8, 3)
    descriptor = tmp_path / "matrix.json"
    descriptor.write_text(matrix.descriptor_json())
    measurements = tmp_path / "y.txt"
    measurements.write_text("1.0\nnan\n0.5\n-1.0\n")
    code, out, err = run_cli(
        capsys,
        ["recover", "--descriptor", str(descriptor),
         "--measurements", str(measurements)],
    )
    assert code == 2
    assert out == ""
    assert err == "error: measurement y[1] = nan is not finite\n"


def test_rip_scan_matches_module(capsys):
    argv = ["rip-scan", "-n", "12", "-N", "24", "--order", "2", "--seed", "0"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    matrix = ensembles.gen_measurement("partial-symmetric-bernoulli", 12, 24, 0)
    estimate = rip.delta_k_bruteforce(matrix, 2)
    assert payload == {
        "order": 2,
        "delta": estimate.delta,
        "worstSupport": list(estimate.worst_support),
        "supportsChecked": estimate.supports_checked,
        "recoveryCondition": rip.recovery_condition(estimate.delta),
    }
    code, again, _ = run_cli(capsys, argv)
    assert again == out


def test_factorization_check_axis_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        ["check-lemma21", "-N", "4", "-n", "4", "--alpha", "axis"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["factorizes"] is True
    assert abs(payload["relGap"]) <= 1e-12


def test_factorization_check_uniform_three_rows_fails(capsys):
    code, out, _ = run_cli(
        capsys,
        ["check-lemma21", "-N", "3", "-n", "3", "--alpha", "uniform"],
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["factorizes"] is False
    assert payload["relGap"] == pytest.approx(0.0183, abs=2e-3)
    assert payload["lhs"] > payload["rhs"]


def test_factorization_check_uniform_two_rows_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        ["check-lemma21", "-N", "4", "-n", "2", "--alpha", "uniform"],
    )
    assert code == 0
    assert json.loads(out)["factorizes"] is True


def test_factorization_check_random_alpha_seeded(capsys):
    argv = ["check-lemma21", "-N", "3", "-n", "2", "--alpha", "random",
            "--seed", "8"]
    code, first, _ = run_cli(capsys, argv)
    assert code == 0
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_check_tails_matches_module(capsys):
    code, out, _ = run_cli(
        capsys,
        ["check-tails", "-N", "32", "-n", "8", "--eps", "0.5",
         "--trials", "50", "--seed", "5"],
    )
    (report,) = concentration.empirical_tails(32, 8, [0.5], 50, 5)
    payload = json.loads(out)
    assert payload["upperFreq"] == report.upper_freq
    assert payload["lowerFreq"] == report.lower_freq
    assert payload["bound"] == report.bound
    assert payload["slack"] == report.slack_3se
    assert payload["meanEnergy"] == report.mean_energy
    expected_pass = (
        report.upper_freq <= report.bound + report.slack_3se
        and report.lower_freq <= report.bound + report.slack_3se
    )
    assert payload["passed"] is expected_pass
    assert code == (0 if expected_pass else 2)


def test_check_tails_above_three_halves_passes_trivially(capsys):
    # the bound exceeds 1 above eps 3/2, so every frequency meets it
    for eps in ("2", "3"):
        code, out, _ = run_cli(
            capsys,
            ["check-tails", "-N", "16", "-n", "8", "--eps", eps, "--trials", "5", "--seed", "1"],
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["bound"] > 1.0
        assert payload["slack"] == 0.0
        assert payload["passed"] is True


def test_jl_size_output(capsys):
    code, out, _ = run_cli(
        capsys, ["jl-size", "--eps", "0.5", "--beta", "1", "--points", "100"]
    )
    assert code == 0
    assert out == "332\n"


def sweep_spec_file(tmp_path):
    spec = {
        "N": 16,
        "axis": "k",
        "axisValues": [1, 2],
        "fixed": {"n": 8},
        "trials": 2,
        "ensembleList": ["partial-symmetric-bernoulli", "gaussian"],
        "masterSeed": 12,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def test_sweep_stdout_and_files(capsys, tmp_path):
    spec_path = sweep_spec_file(tmp_path)
    code, out, _ = run_cli(capsys, ["sweep", "--spec", str(spec_path)])
    assert code == 0
    spec = experiments.ExperimentSpec.from_json(spec_path.read_text())
    result = experiments.sweep(spec)
    assert out == experiments.results_csv(result)

    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "rows.json"
    code, out, _ = run_cli(
        capsys,
        ["sweep", "--spec", str(spec_path), "--out-csv", str(csv_path),
         "--out-json", str(json_path)],
    )
    assert code == 0
    assert out == ""
    assert csv_path.read_text() == experiments.results_csv(result)
    assert json_path.read_text() == experiments.results_json(result)


def test_raising_solve_ends_sweep_with_exit_two(capsys, monkeypatch, tmp_path):
    def singular(*args):
        raise np.linalg.LinAlgError("singular row-space system")

    monkeypatch.setattr(experiments, "basis_pursuit", singular)
    code, out, err = run_cli(capsys, ["sweep", "--spec", str(sweep_spec_file(tmp_path))])
    assert (code, out) == (2, "")
    assert err == "error: singular row-space system\n"


def test_sweep_thread_count_does_not_change_output(capsys, tmp_path):
    spec_path = sweep_spec_file(tmp_path)
    _, serial, _ = run_cli(capsys, ["sweep", "--spec", str(spec_path)])
    _, rerun, _ = run_cli(capsys, ["sweep", "--spec", str(spec_path)])
    assert serial == rerun


def test_sweep_across_blas_thread_counts_moves_only_rel_err_digits(tmp_path):
    # README's contract: a BLAS thread count may move the last digits of
    # mean_rel_err (about 3e-17 on this cell) and nothing else
    spec = {"N": 256, "axis": "k", "axisValues": [15], "fixed": {"n": 100},
            "trials": 5, "ensembleList": ["partial-symmetric-bernoulli"],
            "masterSeed": 96}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    src = str(Path(symcs.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    tables = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-m", "symcs", "sweep", "--spec", str(spec_path)],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        tables.append(list(csv.DictReader(io.StringIO(done.stdout))))
    one, two = tables
    assert len(one) == len(two) == 1
    for row_one, row_two in zip(one, two):
        assert list(row_one) == list(row_two)
        for column in row_one:
            if column == "mean_rel_err":
                assert abs(float(row_one[column]) - float(row_two[column])) <= 1e-12
            else:
                assert row_one[column] == row_two[column]


@pytest.mark.parametrize(
    "change, message",
    [
        # row counts and sparsities are integers
        ({"axisValues": [None]}, "axisValues entry must be an integer, got None"),
        ({"axisValues": [float("inf")]}, "axisValues entry must be an integer, got inf"),
        ({"axisValues": [2.7]}, "axisValues entry must be an integer, got 2.7"),
        ({"axisValues": [2.0]}, "axisValues entry must be an integer, got 2.0"),
        ({"fixed": {"n": None}}, "fixed n must be an integer, got None"),
        ({"fixed": {"n": 16.9}}, "fixed n must be an integer, got 16.9"),
        ({"axis": "n", "axisValues": [8.5], "fixed": {"k": 2}},
         "axisValues entry must be an integer, got 8.5"),
        ({"axis": "n", "axisValues": [8], "fixed": {"k": 2.5}},
         "fixed k must be an integer, got 2.5"),
        # sigma alone takes fractions, and must still be finite
        ({"axis": "sigma", "axisValues": [None], "fixed": {"n": 8, "k": 2}},
         "axisValues entry must be a finite number, got None"),
        ({"axis": "n", "axisValues": [8], "fixed": {"k": 2, "sigma": float("nan")}},
         "fixed sigma must be a finite number, got nan"),
        ({"axis": "sigma", "axisValues": [0, 10**400], "fixed": {"n": 8, "k": 2}},
         "axisValues entry must be a finite number, got an integer beyond the float range"),
        ({"axis": "n", "axisValues": [8], "fixed": {"k": 2, "sigma": 10**400}},
         "fixed sigma must be a finite number, got an integer beyond the float range"),
        # removed settings are unknown keys
        ({"successTol": None},
         "spec keys ['N', 'axis', 'axisValues', 'ensembleList', 'fixed', 'masterSeed', "
         "'successTol', 'trials'] must cover ['N', 'axis', 'axisValues', 'ensembleList', "
         "'fixed', 'masterSeed', 'trials'] and stay within ['N', 'axis', 'axisValues', "
         "'ensembleList', 'fixed', 'masterSeed', 'solver', 'trials']"),
        ({"solver": {"maxIterations": "5"}}, "solver maxIterations must be an integer, got '5'"),
        ({"solver": {"maxIterations": 0}}, "max_iterations must be positive, got 0"),
        ({"solver": {"penalty": None}}, "solver keys must stay within ['maxIterations']"),
        ({"solver": {"maxIterations": 50, "primalTol": 1e-6}},
         "solver keys must stay within ['maxIterations']"),
        ({"fixed": 8}, "fixed must be an object, axisValues and ensembleList lists"),
        ({"axisValues": 2}, "fixed must be an object, axisValues and ensembleList lists"),
    ],
    ids=["axis-value-null", "axis-value-infinity", "axis-value-fraction",
         "axis-value-integral-float", "fixed-n-null", "fixed-n-fraction",
         "n-axis-value-fraction", "fixed-k-fraction", "sigma-axis-value-null",
         "fixed-sigma-nan", "sigma-axis-value-beyond-float", "fixed-sigma-beyond-float",
         "success-tol-null", "max-iterations-string", "max-iterations-zero",
         "penalty-null",
         "primal-tol", "fixed-not-object", "axis-values-not-list"],
)
def test_sweep_rejects_malformed_spec_values(capsys, tmp_path, change, message):
    spec_path = sweep_spec_file(tmp_path)
    spec_path.write_text(json.dumps(dict(json.loads(spec_path.read_text()), **change)))
    code, out, err = run_cli(capsys, ["sweep", "--spec", str(spec_path)])
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_sweep_rejects_a_spec_over_the_trial_cap(capsys, tmp_path):
    spec_path = sweep_spec_file(tmp_path)
    data = json.loads(spec_path.read_text())
    cells = len(data["axisValues"]) * len(data["ensembleList"])
    data["trials"] = experiments.MAX_SPEC_TRIALS // cells + 1
    spec_path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, ["sweep", "--spec", str(spec_path)])
    assert (code, out) == (2, "")
    assert err == (
        f"error: spec asks for {data['trials'] * cells} trials; "
        f"the cap is {experiments.MAX_SPEC_TRIALS}\n"
    )


def test_sweep_bad_spec_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"N": 16}))
    code, _, err = run_cli(capsys, ["sweep", "--spec", str(bad)])
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(
        capsys, ["sweep", "--spec", str(tmp_path / "missing.json")]
    )
    assert code == 2


def test_image_demo_roundtrip(capsys, tmp_path):
    img = synthetic_sparse_image(8, 8, 3, 5)
    source = tmp_path / "in.pgm"
    imageio.write_pgm(img, source)
    out_path = tmp_path / "out.pgm"
    code, out, _ = run_cli(
        capsys,
        ["image-demo", "--input", str(source), "-n", "24", "--seed", "9",
         "--out", str(out_path)],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["width"] == 8 and payload["height"] == 8
    assert payload["rows"] == 24
    assert payload["status"] == "converged"
    assert payload["exactImage"] is True
    assert payload["relErr"] <= 1e-6
    assert imageio.read_pgm(out_path) == img
    # an all-zero image is recovered exactly, which relErr and snrDb report as such
    zero = tmp_path / "zero.pgm"
    zero.write_text("P2\n8 8\n255\n" + "0 " * 64 + "\n")
    code, out, _ = run_cli(capsys, ["image-demo", "--input", str(zero), "-n", "16", "--seed", "1"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["relErr"], payload["snrDb"], payload["exactImage"]) == (0.0, "exact", True)


def test_image_demo_rejects_malformed_input(capsys, tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P7\n1 1\n255\n0\n")
    code, _, err = run_cli(
        capsys, ["image-demo", "--input", str(bad), "-n", "4"]
    )
    assert code == 2
    assert "error:" in err


def test_image_demo_sizes_a_p2_raster_before_allocating_it(capsys, tmp_path):
    # 25 bytes whose header asks for a 2**40-pixel raster
    bad = tmp_path / "huge.pgm"
    bad.write_bytes(b"P2\n1048576 1048576\n255\n0\n")
    code, out, err = run_cli(capsys, ["image-demo", "--input", str(bad), "-n", "4"])
    assert code == 2
    assert out == ""
    assert "raster needs at least 1099511627776 bytes, found 3 (byte 25)" in err
    assert "out of memory" not in err


def test_reused_parser_keeps_calls_independent(capsys, monkeypatch, tmp_path):
    # main builds its parser once per process; no call may leave state in it
    # that changes the next
    parser = cli._build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["check-lemma21", "-N", "3", "--alpha", "sideways"])
    assert exc.value.code == 1
    capsys.readouterr()
    lemma = ["check-lemma21", "-N", "3", "-n", "2", "--alpha", "random", "--seed", "4"]
    code, out, _ = run_cli(capsys, lemma)
    src = str(Path(symcs.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    fresh = subprocess.run(
        [sys.executable, "-m", "symcs", *lemma],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=60,
    )
    assert (code, out) == (fresh.returncode, fresh.stdout)

    scan = ["rip-scan", "-n", "6", "-N", "12", "--order", "2"]
    code, seeded, _ = run_cli(capsys, scan + ["--seed", "5"])
    assert code == 0
    monkeypatch.setenv("CS_SEED", "7")
    code, from_env, _ = run_cli(capsys, scan)
    assert code == 0
    assert from_env == run_cli(capsys, scan + ["--seed", "7"])[1]
    assert from_env != seeded

    missing = tmp_path / "missing.pgm"
    code, _, err = run_cli(capsys, ["image-demo", "--input", str(missing), "-n", "4"])
    assert code == 2 and "error:" in err
    code, out, _ = run_cli(
        capsys, ["image-demo", "--fixture", "sparse32", "-n", "600", "--seed", "1"]
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["width"], payload["height"], payload["exactImage"]) == (32, 32, True)
    assert cli._build_parser() is parser
