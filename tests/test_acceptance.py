"""End-to-end acceptance suite for the package.

Each test covers one numbered check and prints a single ``[PASS]``/``[FAIL]``
line with the measured quantities before asserting, so a full run yields a
scannable scoreboard (``pytest tests/test_acceptance.py -v -s``).  Checks are
independent: no state is shared between them, and every random input is pinned
through the package seed-derivation helpers.
"""

import json
import math
import time
from itertools import combinations, product

import numpy as np

from symcs import cli, ensembles
from symcs.concentration import (
    empirical_tails,
    jl_min_measurements,
    mgf_lhs_exact,
    mgf_rhs_exact,
    random_unit_vector,
    row_mgf_bound,
    tail_bound,
)
from symcs.experiments import (
    EXACT_SNR,
    ExperimentSpec,
    plant_signal,
    rel_err,
    run_trial,
    snr_db,
    sweep,
)
from symcs.imageio import fixture_image, image_recover, write_pgm
from symcs.rip import delta2_coherence, delta_k_bruteforce, recovery_condition
from symcs.rng import Stream, derive_seed
from symcs.solver import basis_pursuit, l0_oracle_small, l1_oracle_small
from projection_statistics import moment4_exact, pairwise_distortion
from synthetic_images import synthetic_sparse_image


def _report(index: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] check {index:02d} {label}: {detail}")


def _grid():
    for dim in range(1, 5):
        for rows in range(1, dim + 1):
            for h in (0.5, 1.0, 2.0):
                for rep in range(20):
                    yield dim, rows, h, rep


def _sylvester(order: int) -> np.ndarray:
    h = np.array([[1]], dtype=np.int64)
    while h.shape[0] < order:
        h = np.block([[h, h], [h, -h]])
    return h


def _sign_battery(signs: np.ndarray) -> ensembles.MeasurementMatrix:
    # for +-1 signs, s * (1/sqrt(rows)) is s / sqrt(rows) bit for bit
    rows, dimension = signs.shape
    return ensembles.MeasurementMatrix(
        "iid-bernoulli", rows, dimension, 0, scale=1 / math.sqrt(rows),
        signs=np.asarray(signs, dtype=np.int8),
    )


def _exhaustive_patterns(width: int, sparsity: int):
    for support in combinations(range(width), sparsity):
        for pattern in product((-1.0, 1.0), repeat=sparsity):
            x = np.zeros(width)
            x[list(support)] = pattern
            yield x


def test_01_coupled_mgf_factorizes_over_rows_on_small_grid():
    # The coupled transform equals the row product for up to two rows and for
    # the axis direction.  Beyond two rows the mirrored entries couple the
    # rows: the coupled side lies on or above the product, and on or below the
    # Hoelder bound E exp(rows*h*Q**2), since every row of the symmetric
    # matrix is marginally a uniform sign row (at one row the bound is tight).
    start = time.perf_counter()
    equality_gaps = []
    coupling_gaps = []
    upper_slacks = []
    for dim, rows, h, rep in _grid():
        directions = [
            (rep, random_unit_vector(dim, derive_seed(41, [dim, rows, int(2 * h), rep])))
        ]
        if rep == 0:
            directions.append(("axis", np.eye(dim)[0]))
        for draw, alpha in directions:
            cell = (dim, rows, h, draw)
            lhs = mgf_lhs_exact(dim, rows, alpha, h)
            rhs = mgf_rhs_exact(dim, rows, alpha, h)
            upper = mgf_rhs_exact(dim, 1, alpha, rows * h)
            gap = (lhs - rhs) / rhs
            if rows <= 2 or draw == "axis":
                equality_gaps.append((abs(gap), cell))
            else:
                coupling_gaps.append((gap, cell))
            upper_slacks.append(((upper - lhs) / upper, cell))
    elapsed = time.perf_counter() - start
    worst_equality = max(equality_gaps, key=lambda item: item[0])
    weakest_coupling = min(coupling_gaps, key=lambda item: item[0])
    strongest_coupling = max(coupling_gaps, key=lambda item: item[0])
    tightest_upper = min(upper_slacks, key=lambda item: item[0])
    where = "at (dim, rows, h, draw)="
    failures = []
    if not worst_equality[0] <= 1e-10:
        failures.append(
            "the row-product identity fails where it must hold: rel gap "
            f"{worst_equality[0]:.3e} {where}{worst_equality[1]}"
        )
    if not weakest_coupling[0] >= -1e-12:
        failures.append(
            "coupled transform below the row product: rel gap "
            f"{weakest_coupling[0]:.3e} {where}{weakest_coupling[1]}"
        )
    if not strongest_coupling[0] > 1e-10:
        failures.append(
            "coupled transform collapsed into the row product beyond two rows: "
            f"largest rel gap {strongest_coupling[0]:.3e}"
        )
    if not tightest_upper[0] >= -1e-12:
        failures.append(
            "coupled transform above the Hoelder bound: rel slack "
            f"{tightest_upper[0]:.3e} {where}{tightest_upper[1]}"
        )
    _report(
        1,
        "coupled mgf factorizes over rows",
        not failures and elapsed < 5.0,
        f"worst equality gap {worst_equality[0]:.3e} {where}{worst_equality[1]}, "
        f"coupling gap in [{weakest_coupling[0]:.3e}, {strongest_coupling[0]:.3e}] "
        f"over {len(coupling_gaps)} cells, tightest upper slack "
        f"{tightest_upper[0]:.3e} {where}{tightest_upper[1]}, {elapsed:.1f}s",
    )
    assert elapsed < 5.0
    assert not failures, "; ".join(failures)


def test_02_row_mgf_and_fourth_moment_obey_closed_form_bounds():
    mgf_cells = mgf_violations = 0
    moment_cells = moment_violations = 0
    for dim, rows, h, rep in _grid():
        alpha = random_unit_vector(dim, derive_seed(42, [dim, rows, int(2 * h), rep]))
        moment_cells += 1
        if moment4_exact(dim, alpha) > 3.0 / dim**2 + 1e-12:
            moment_violations += 1
        # the closed-form bound only exists below dim / 2
        if 2.0 * h < dim:
            mgf_cells += 1
            row_mgf = mgf_rhs_exact(dim, 1, alpha, h)
            if row_mgf > row_mgf_bound(h, dim) * (1.0 + 1e-12):
                mgf_violations += 1
    ok = mgf_violations == 0 and moment_violations == 0 and mgf_cells > 0
    _report(
        2,
        "row mgf and fourth moment bounds",
        ok,
        f"{mgf_cells} mgf cells, {moment_cells} moment cells, "
        f"{mgf_violations + moment_violations} violations",
    )
    assert mgf_cells > 0
    assert mgf_violations == 0
    assert moment_violations == 0


def test_03_energy_tail_frequencies_stay_under_closed_form_bound():
    start = time.perf_counter()
    reports = empirical_tails(256, 100, (0.3, 0.5), 10_000, 52)
    elapsed = time.perf_counter() - start
    bound_half = tail_bound(0.5, 100)
    tails_ok = all(
        r.upper_freq <= r.bound + r.slack_3se and r.lower_freq <= r.bound + r.slack_3se
        for r in reports
    )
    ok = tails_ok and abs(bound_half - 0.015504) <= 5e-7 and elapsed < 60.0
    detail = ", ".join(
        f"eps={r.eps}: up {r.upper_freq:.4f} low {r.lower_freq:.4f} "
        f"limit {r.bound + r.slack_3se:.4f}"
        for r in reports
    )
    _report(3, "energy tail frequencies", ok, f"{detail}, {elapsed:.1f}s")
    assert abs(bound_half - 0.015504) <= 5e-7
    for r in reports:
        assert r.trials == 10_000
        assert r.upper_freq <= r.bound + r.slack_3se
        assert r.lower_freq <= r.bound + r.slack_3se
    assert elapsed < 60.0


def test_04_jl_row_count_and_distortion_across_seeds():
    assert jl_min_measurements(0.5, 1, 100) == 332
    rows = jl_min_measurements(0.5, 1, 50)
    points = 50
    dimension = 512
    within = 0
    for s in range(100):
        matrix = ensembles.gen_measurement(
            "partial-symmetric-bernoulli", rows, dimension, derive_seed(63, [s, 0])
        )
        cloud = Stream(derive_seed(63, [s, 1])).normals(points * dimension)
        report = pairwise_distortion(matrix, cloud.reshape(points, dimension), 0.5)
        within += report.within
    expected = (1.0 - 1.0 / points) * 100
    needed = math.ceil(expected - 3.0 * math.sqrt(100 * (1 / points) * (1 - 1 / points)))
    ok = within >= needed
    _report(
        4,
        "jl row count and distortion",
        ok,
        f"rows={rows}, within={within}/100, needed>={needed}",
    )
    assert within >= needed


def test_05_isometry_constants_and_certified_exhaustive_recovery():
    full8 = _sign_battery(_sylvester(8))
    drop8 = _sign_battery(_sylvester(8)[1:])
    drop16 = _sign_battery(_sylvester(16)[1:])

    # first-order constants vanish exactly for every sign ensemble
    delta1_ok = all(
        delta_k_bruteforce(m, 1).delta == 0.0
        for m in (
            full8,
            drop8,
            *(
                ensembles.gen_measurement("partial-symmetric-bernoulli", 8, 12, s)
                for s in range(3)
            ),
            *(ensembles.gen_measurement("iid-bernoulli", 8, 12, s) for s in range(3)),
        )
    )

    # second-order constant equals the coherence formula
    worst_coherence_gap = 0.0
    draws = [
        ensembles.gen_measurement("partial-symmetric-bernoulli", 12, 24, s)
        for s in range(10)
    ] + [ensembles.gen_measurement("iid-bernoulli", 16, 30, s) for s in range(10)]
    for matrix in draws:
        gap = abs(delta_k_bruteforce(matrix, 2).delta - delta2_coherence(matrix))
        worst_coherence_gap = max(worst_coherence_gap, gap)

    # constants are monotone in the order
    monotone_ok = True
    for dim, rows in ((10, 6), (14, 8)):
        matrix = ensembles.gen_measurement(
            "partial-symmetric-bernoulli", rows, dim, dim
        )
        deltas = [delta_k_bruteforce(matrix, k).delta for k in range(1, 5)]
        monotone_ok &= all(deltas[i] <= deltas[i + 1] + 1e-12 for i in range(3))

    # whenever the order-2k constant certifies recovery, recovery is exhaustive
    certified = 0
    solves = 0
    worst_recovery = 0.0
    designs = [(full8, 1), (full8, 2), (drop8, 1), (drop16, 2)]
    for seed in range(4):
        designs.append(
            (ensembles.gen_measurement("partial-symmetric-bernoulli", 10, 12, seed), 2)
        )
    for design, sparsity in designs:
        delta = delta_k_bruteforce(design, 2 * sparsity).delta
        if not recovery_condition(delta):
            continue
        certified += 1
        width = design.entries.shape[1]
        for planted in _exhaustive_patterns(width, sparsity):
            result = basis_pursuit(design.entries, design.entries @ planted)
            worst_recovery = max(worst_recovery, rel_err(result.solution, planted))
            solves += 1
    # the dropped-row design at order 4 sits above the threshold and is skipped
    skip_ok = not recovery_condition(delta_k_bruteforce(drop8, 4).delta)

    ok = (
        delta1_ok
        and worst_coherence_gap <= 1e-10
        and monotone_ok
        and certified >= 4
        and worst_recovery <= 1e-6
        and skip_ok
    )
    _report(
        5,
        "isometry constants and certified recovery",
        ok,
        f"coherence gap {worst_coherence_gap:.2e}, certified={certified}, "
        f"solves={solves}, worst rel err {worst_recovery:.2e}",
    )
    assert delta1_ok
    assert worst_coherence_gap <= 1e-10
    assert monotone_ok
    assert skip_ok
    assert certified >= 4
    assert worst_recovery <= 1e-6


def test_06_solver_matches_enumeration_oracles():
    collected = attempts = 0
    worst_gap = 0.0
    while collected < 200 and attempts < 260:
        t = attempts
        attempts += 1
        matrix = ensembles.gen_measurement("gaussian", 4, 6, derive_seed(61, [t, 0]))
        kind = "pm1" if t % 2 == 0 else "gaussian"
        signal = plant_signal(6, 1 + t % 2, kind, derive_seed(61, [t, 1]))
        y = matrix.entries @ signal.vector
        oracle, info = l1_oracle_small(matrix, y, details=True)
        if not info["unique"]:
            continue
        result = basis_pursuit(matrix, y)
        worst_gap = max(worst_gap, float(np.abs(result.solution - oracle).max()))
        collected += 1

    # sparsest-fit agreement on designs whose constants certify recovery
    full8 = _sign_battery(_sylvester(8))
    drop8 = _sign_battery(_sylvester(8)[1:])
    l0_cases = 0
    l0_ok = True
    worst_bp_vs_l0 = 0.0
    for design, sparsity in ((full8, 1), (full8, 2), (drop8, 1)):
        assert recovery_condition(delta_k_bruteforce(design, 2 * sparsity).delta)
        for planted in _exhaustive_patterns(design.entries.shape[1], sparsity):
            y = design.entries @ planted
            sparsest = l0_oracle_small(design.entries, y)
            l0_cases += 1
            if not np.allclose(sparsest, planted, atol=1e-8):
                l0_ok = False
            if design is full8 and sparsity == 2:
                bp = basis_pursuit(design.entries, y)
                worst_bp_vs_l0 = max(
                    worst_bp_vs_l0, float(np.abs(bp.solution - sparsest).max())
                )

    ok = (
        collected == 200
        and worst_gap <= 1e-5
        and l0_ok
        and worst_bp_vs_l0 <= 1e-5
    )
    _report(
        6,
        "solver matches enumeration oracles",
        ok,
        f"unique instances {collected}/{attempts} attempts, max coord gap "
        f"{worst_gap:.2e}, sparsest-fit cases {l0_cases}, bp vs sparsest "
        f"{worst_bp_vs_l0:.2e}",
    )
    assert collected == 200
    assert worst_gap <= 1e-5
    assert l0_ok
    assert worst_bp_vs_l0 <= 1e-5


def test_07_planted_sparse_recovery_anchor_at_100_rows():
    start = time.perf_counter()
    successes = 0
    for t in range(100):
        outcome = run_trial(
            "partial-symmetric-bernoulli",
            256,
            100,
            20,
            "pm1",
            0.0,
            derive_seed(85, [0, 0, t]),
        )
        successes += outcome.success
    elapsed = time.perf_counter() - start
    ok = successes >= 95 and elapsed < 600.0
    _report(
        7,
        "planted k=20 recovery at 100 rows",
        ok,
        f"success rate {successes / 100:.2f} (needs >= 0.95), {elapsed:.0f}s",
    )
    assert successes >= 95
    assert elapsed < 600.0


def test_08_success_decays_with_sparsity_and_ensembles_agree():
    trials = 100

    spec_k = ExperimentSpec(
        dimension=256,
        axis="k",
        axis_values=(5, 15, 25, 35, 45),
        fixed={"n": 100},
        trials=trials,
        ensembles=("partial-symmetric-bernoulli",),
        master_seed=96,
        max_iterations=2500,
    )
    rates = [row.success_rate for row in sweep(spec_k).rows]
    slack = 2.0 / trials
    monotone_ok = all(rates[i + 1] <= rates[i] + slack for i in range(len(rates) - 1))

    spec_all = ExperimentSpec(
        dimension=256,
        axis="k",
        axis_values=(20,),
        fixed={"n": 100},
        trials=trials,
        ensembles=ensembles.ENSEMBLES,
        master_seed=96,
        max_iterations=2500,
    )
    by_ensemble = {row.ensemble: row.success_rate for row in sweep(spec_all).rows}
    spread = max(by_ensemble.values()) - min(by_ensemble.values())

    ok = monotone_ok and len(by_ensemble) == 5 and spread <= 0.1
    _report(
        8,
        "success decays with sparsity, ensembles agree",
        ok,
        f"rates={rates}, k=20 spread {spread:.2f} across {len(by_ensemble)} ensembles",
    )
    assert monotone_ok, rates
    assert len(by_ensemble) == 5
    assert spread <= 0.1, by_ensemble


def test_09_snr_degrades_with_noise_level():
    sigmas = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    trials = 30
    means = []
    errors = []
    marker_ok = snr_db(0.0) == EXACT_SNR
    for axis_index, sigma in enumerate(sigmas):
        values = []
        for t in range(trials):
            outcome = run_trial(
                "partial-symmetric-bernoulli",
                256,
                100,
                20,
                "pm1",
                sigma,
                derive_seed(107, [0, axis_index, t]),
            )
            assert outcome.status != "infeasible-detected"
            measured = snr_db(outcome.rel_err)
            if measured == EXACT_SNR:
                # exact reconstructions carry the marker, not a number
                marker_ok &= sigma == 0.0 and outcome.rel_err == 0.0
                continue
            values.append(measured)
        means.append(float(np.mean(values)))
        errors.append(float(np.std(values, ddof=1) / math.sqrt(len(values))))
    steps_ok = all(
        means[i + 1] <= means[i] + 2.0 * math.hypot(errors[i], errors[i + 1])
        for i in range(len(sigmas) - 1)
    )
    ok = steps_ok and marker_ok
    _report(
        9,
        "snr degrades with noise",
        ok,
        "means " + ", ".join(f"{m:.1f}" for m in means) + " dB",
    )
    assert marker_ok
    assert steps_ok, list(zip(means, errors))


def test_10_image_recovery_on_committed_fixtures():
    image64 = fixture_image("sparse64")
    assert (image64.width, image64.height) == (64, 64)
    assert int(np.count_nonzero(image64.pixels)) == 739
    good64 = 0
    for seed in range(10):
        good64 += image_recover(image64, 2400, seed).rel_err <= 0.1

    image32 = fixture_image("sparse32")
    assert (image32.width, image32.height) == (32, 32)
    assert int(np.count_nonzero(image32.pixels)) == 185
    start = time.perf_counter()
    good32 = 0
    for seed in range(10):
        good32 += image_recover(image32, 600, seed).rel_err <= 0.1
    elapsed32 = time.perf_counter() - start

    ok = good64 >= 9 and good32 >= 9 and elapsed32 < 120.0
    _report(
        10,
        "image recovery on committed fixtures",
        ok,
        f"64x64 {good64}/10, 32x32 {good32}/10 in {elapsed32:.0f}s",
    )
    assert good64 >= 9
    assert good32 >= 9
    assert elapsed32 < 120.0


def test_11_cli_reruns_are_byte_identical(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("CS_SEED", raising=False)

    matrix = ensembles.gen_measurement("partial-symmetric-bernoulli", 12, 20, 3)
    descriptor = tmp_path / "matrix.json"
    descriptor.write_text(matrix.descriptor_json())
    truth = plant_signal(20, 3, "pm1", 5)
    measurements = tmp_path / "y.txt"
    measurements.write_text(
        "\n".join(repr(float(v)) for v in matrix.entries @ truth.vector) + "\n"
    )
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        ExperimentSpec(
            dimension=16,
            axis="k",
            axis_values=(1, 2),
            fixed={"n": 8},
            trials=2,
            ensembles=("partial-symmetric-bernoulli", "gaussian"),
            master_seed=12,
        ).to_json()
    )
    tiny = synthetic_sparse_image(8, 8, 3, 9)
    tiny_path = tmp_path / "tiny.pgm"
    write_pgm(tiny, tiny_path)

    def command_set(run_dir):
        run_dir.mkdir(exist_ok=True)
        return [
            (
                ["gen-matrix", "--ensemble", "partial-symmetric-bernoulli",
                 "-n", "6", "-N", "10", "--seed", "3",
                 "--entries", str(run_dir / "entries.csv")],
                ["entries.csv"],
            ),
            (
                ["recover", "--descriptor", str(descriptor),
                 "--measurements", str(measurements),
                 "--out", str(run_dir / "solution.txt")],
                ["solution.txt"],
            ),
            (
                ["rip-scan", "-n", "10", "-N", "16", "--order", "2", "--seed", "0"],
                [],
            ),
            (
                ["check-lemma21", "-N", "4", "-n", "4", "--alpha", "axis"],
                [],
            ),
            (
                ["check-tails", "-N", "32", "-n", "8", "--eps", "0.5",
                 "--trials", "200", "--seed", "11"],
                [],
            ),
            (
                ["jl-size", "--eps", "0.5", "--beta", "1", "--points", "100"],
                [],
            ),
            (
                ["sweep", "--spec", str(spec_path),
                 "--out-csv", str(run_dir / "rows.csv"),
                 "--out-json", str(run_dir / "rows.json")],
                ["rows.csv", "rows.json"],
            ),
            (
                ["image-demo", "--input", str(tiny_path), "-n", "24", "--seed", "9",
                 "--out", str(run_dir / "recovered.pgm")],
                ["recovered.pgm"],
            ),
        ]

    def run_all(run_dir):
        captured = []
        for argv, outputs in command_set(run_dir):
            code = cli.main(argv)
            stream = capsys.readouterr()
            assert code == 0, (argv, stream.err)
            files = {name: (run_dir / name).read_bytes() for name in outputs}
            captured.append((argv[0], stream.out.encode(), stream.err.encode(), files))
        return captured

    first = run_all(tmp_path / "a")
    second = run_all(tmp_path / "b")
    third = run_all(tmp_path / "c")

    mismatches = []
    for before, after in ((first, second), (first, third)):
        for (name, out_a, err_a, files_a), (_, out_b, err_b, files_b) in zip(
            before, after
        ):
            if out_a != out_b or err_a != err_b:
                mismatches.append(f"{name} stream")
            for fname in files_a:
                if files_a[fname] != files_b[fname]:
                    mismatches.append(f"{name} {fname}")

    ok = not mismatches
    _report(
        11,
        "cli reruns are byte-identical",
        ok,
        f"{len(first)} subcommands, three runs"
        + (f", mismatches: {mismatches}" if mismatches else ""),
    )
    assert not mismatches, mismatches
