"""Solver checks: ADMM routes against brute-force oracles and exact symmetries.

The ADMM solvers and the enumeration oracles share no iterate logic, so
agreement between them on instances with a unique optimum is a genuine
two-route check.  Sign symmetry (negating the data negates the solution) is
asserted at the bit level because every ADMM update that reaches the
solution is odd in IEEE arithmetic.
"""

import hashlib
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, cholesky, solve_triangular

import symcs
from symcs.ensembles import ENSEMBLES, gen_measurement
from symcs.errors import (
    DimensionError,
    EnumerationTooLargeError,
    InfeasibleError,
    SingularMatrixError,
)
from symcs.experiments import plant_signal
from symcs.rng import Stream, derive_seed
from symcs.solver import (
    DUAL_TOL,
    MAX_ITERATIONS,
    PRIMAL_TOL,
    SolverResult,
    _basis_products,
    _row_basis,
    basis_pursuit,
    bpdn,
    l0_oracle_small,
    l1_oracle_small,
    soft_threshold,
    solve_spd,
    verify_solution,
)

# seeds whose 6-row, width-8 draws are full rank with a unique l1 optimum
DUAL_ROUTE_SEEDS = (21, 24, 27, 30, 31)


def planted_instance(n, width, sparsity, seed):
    mat = gen_measurement("partial-symmetric-bernoulli", n, width, seed)
    sig = plant_signal(width, sparsity, "pm1", derive_seed(30, [seed]))
    return mat, sig.vector, mat.entries @ sig.vector


def test_basis_pursuit_recovers_planted_sparse_vector():
    mat, truth, y = planted_instance(12, 20, 3, 3)
    res = basis_pursuit(mat, y)
    assert res.status == "converged"
    rel = np.linalg.norm(res.solution - truth) / np.linalg.norm(truth)
    assert rel <= 1e-6
    assert verify_solution(mat, res.solution, y)


def test_basis_pursuit_zero_rhs_immediate():
    mat = gen_measurement("partial-symmetric-bernoulli", 6, 12, 1)
    res = basis_pursuit(mat, np.zeros(6))
    assert res.status == "converged"
    assert res.iterations == 1
    np.testing.assert_array_equal(res.solution, np.zeros(12))


def test_basis_pursuit_negation_is_bitwise():
    mat, _, y = planted_instance(12, 20, 3, 3)
    plus = basis_pursuit(mat, y)
    minus = basis_pursuit(mat, -y)
    assert np.array_equal(plus.solution, -minus.solution)
    assert plus.iterations == minus.iterations
    assert plus.status == minus.status
    assert plus.primal_residual == minus.primal_residual
    assert plus.dual_residual == minus.dual_residual


def test_basis_pursuit_reports_unusable_row_space():
    res = basis_pursuit(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))
    assert res.status == "infeasible-detected"
    assert not verify_solution(
        np.array([[1.0, 1.0], [1.0, 1.0]]), res.solution, np.array([1.0, 2.0])
    )


def test_basis_pursuit_rank_deficient_draw_reports_no_projection():
    # the first 6 rows of this width-8 symmetric draw are linearly dependent
    mat = gen_measurement("partial-symmetric-bernoulli", 6, 8, 20)
    assert np.linalg.matrix_rank(mat.entries) < 6
    res = basis_pursuit(mat, mat.entries @ np.eye(8)[0])
    assert res.status == "infeasible-detected"
    assert res.iterations == 0
    np.testing.assert_array_equal(res.solution, np.zeros(8))


def test_basis_pursuit_max_iterations_status():
    mat, _, y = planted_instance(12, 20, 3, 3)
    res = basis_pursuit(mat, y, 1)
    assert res.status == "max-iterations"
    assert res.iterations == 1


def test_status_at_the_iteration_cap():
    # a solve that converges at the cap's own iteration is converged, and one
    # cap lower it is capped: the status reads the residuals, not the count
    mat, _, y = planted_instance(12, 20, 3, 3)
    noisy = y + 0.01 * Stream(5).normals(12)
    epsilon = float(np.linalg.norm(noisy - y))
    for solve, converges_at in (
        (lambda cap: basis_pursuit(mat, y, cap), 62),
        (lambda cap: bpdn(mat, noisy, epsilon, cap), 2526),
    ):
        for cap, status in ((converges_at, "converged"), (converges_at - 1, "max-iterations")):
            res = solve(cap)
            assert (res.status, res.iterations) == (status, cap)


def test_admm_matches_l1_oracle_on_unique_instances():
    for seed in DUAL_ROUTE_SEEDS:
        mat, _, y = planted_instance(6, 8, 2, seed)
        res = basis_pursuit(mat, y)
        assert res.status == "converged"
        oracle, info = l1_oracle_small(mat, y, details=True)
        assert info["unique"]
        assert float(np.abs(res.solution - oracle).max()) <= 1e-5


def test_l1_oracle_axis_instance_is_clean():
    x, info = l1_oracle_small(np.eye(3), np.array([0.0, 0.0, 1.0]), details=True)
    assert x.tolist() == [0.0, 0.0, 1.0]
    assert info == {"objective": 1.0, "optimal_vertices": 1, "unique": True}


def test_l1_oracle_detects_tied_vertices():
    x, info = l1_oracle_small(np.array([[1.0, 1.0]]), np.array([1.0]), details=True)
    assert x.tolist() == [0.0, 1.0]
    assert info["optimal_vertices"] == 2
    assert not info["unique"]
    assert info["objective"] == pytest.approx(1.0, abs=1e-12)


def test_l1_oracle_zero_matrix_cases():
    zero = np.zeros((2, 3))
    x, info = l1_oracle_small(zero, np.zeros(2), details=True)
    np.testing.assert_array_equal(x, np.zeros(3))
    assert info["unique"]
    with pytest.raises(InfeasibleError):
        l1_oracle_small(zero, np.array([1.0, 0.0]))


def test_l1_oracle_infeasible_rhs():
    a = np.array([[1.0], [0.0]])
    with pytest.raises(InfeasibleError):
        l1_oracle_small(a, np.array([0.0, 1.0]))


def test_l1_oracle_enumeration_cap():
    mat = gen_measurement("gaussian", 10, 12, 0)
    with pytest.raises(EnumerationTooLargeError):
        l1_oracle_small(mat, np.zeros(10))


def test_bpdn_zero_epsilon_delegates_to_equality_route():
    mat, _, y = planted_instance(12, 20, 3, 3)
    via_bpdn = bpdn(mat, y, 0.0)
    direct = basis_pursuit(mat, y)
    assert np.array_equal(via_bpdn.solution, direct.solution)
    assert via_bpdn.iterations == direct.iterations
    assert via_bpdn.status == direct.status


def test_bpdn_small_rhs_shortcut():
    mat = gen_measurement("partial-symmetric-bernoulli", 6, 12, 1)
    y = np.full(6, 1e-3)
    res = bpdn(mat, y, 1.0)
    assert res.status == "converged"
    assert res.iterations == 0
    np.testing.assert_array_equal(res.solution, np.zeros(12))


def test_bpdn_rejects_negative_epsilon():
    mat = gen_measurement("partial-symmetric-bernoulli", 6, 12, 1)
    for epsilon in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="epsilon must be nonnegative"):
            bpdn(mat, np.ones(6), epsilon)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solvers_reject_non_finite_measurements(bad):
    mat, _, y = planted_instance(12, 20, 3, 3)
    y[4] = bad
    with pytest.raises(DimensionError, match=r"y\[4\] = .* is not finite"):
        basis_pursuit(mat, y)
    with pytest.raises(DimensionError, match=r"y\[4\] = .* is not finite"):
        bpdn(mat, y, 0.1)


def test_bpdn_recovers_from_noisy_measurements():
    mat, truth, y = planted_instance(40, 64, 3, 8)
    noise = Stream(77).normals(40)
    noise *= 0.1 / np.linalg.norm(noise)
    res = bpdn(mat, y + noise, 0.1)
    assert res.status == "converged"
    rel = np.linalg.norm(res.solution - truth) / np.linalg.norm(truth)
    assert rel <= 0.2
    assert verify_solution(mat, res.solution, y + noise, epsilon=0.1)


def test_bpdn_negation_is_bitwise():
    mat, _, y = planted_instance(40, 64, 3, 8)
    noise = Stream(77).normals(40)
    noise *= 0.1 / np.linalg.norm(noise)
    yn = y + noise
    plus = bpdn(mat, yn, 0.1)
    minus = bpdn(mat, -yn, 0.1)
    assert np.array_equal(plus.solution, -minus.solution)
    assert plus.iterations == minus.iterations
    assert plus.status == minus.status
    assert plus.primal_residual == minus.primal_residual
    assert plus.dual_residual == minus.dual_residual


def test_l0_oracle_prefers_smallest_support():
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    x = l0_oracle_small(a, np.array([1.0, 1.0]))
    assert x.tolist() == [0.0, 0.0, 1.0]


def test_l0_oracle_recovers_planted_support():
    mat = gen_measurement("gaussian", 5, 8, 4)
    truth = np.zeros(8)
    truth[2] = 1.5
    truth[6] = -0.5
    x = l0_oracle_small(mat, mat.entries @ truth)
    np.testing.assert_allclose(x, truth, atol=1e-8)


def test_l0_oracle_zero_and_error_cases():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_array_equal(l0_oracle_small(a, np.zeros(3)), np.zeros(2))
    with pytest.raises(InfeasibleError):
        l0_oracle_small(a, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(EnumerationTooLargeError):
        l0_oracle_small(np.zeros((2, 13)), np.zeros(2))


def test_verify_solution_thresholds():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert verify_solution(a, np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert not verify_solution(a, np.array([1.0, 2.0]), np.array([1.0, 3.0]))
    assert verify_solution(a, np.array([1.0, 2.0]), np.array([1.0, 2.5]), epsilon=0.5)
    with pytest.raises(DimensionError):
        verify_solution(a, np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(DimensionError):
        verify_solution(a, np.array([1.0, 2.0]), np.array([1.0]))


def test_iteration_cap_validation():
    mat, _, y = planted_instance(12, 20, 3, 3)
    message = "max_iterations must be positive, got 0"
    with pytest.raises(ValueError, match=message):
        basis_pursuit(mat, y, 0)
    with pytest.raises(ValueError, match=message):
        bpdn(mat, y, 0.1, 0)
    # epsilon = 0 hands the call to basis_pursuit, which checks it the same way
    with pytest.raises(ValueError, match=message):
        bpdn(mat, y, 0.0, 0)
    shape_message = r"rhs shape \(11,\) does not match 12 rows"
    with pytest.raises(DimensionError, match=shape_message):
        basis_pursuit(mat, y[:11])
    with pytest.raises(DimensionError, match=shape_message):
        bpdn(mat, y[:11], 0.0)
    # the penalty and the tolerances are constants, not settings
    for name in ("penalty", "primal_tol", "dual_tol", "feas_tol", "config"):
        with pytest.raises(TypeError):
            basis_pursuit(mat, y, **{name: 1.0})
        with pytest.raises(TypeError):
            bpdn(mat, y, 0.1, **{name: 1.0})


def test_solver_result_objective():
    res = SolverResult(
        solution=np.array([1.0, -2.0, 0.0]),
        iterations=3,
        status="converged",
        primal_residual=0.0,
        dual_residual=0.0,
    )
    assert res.objective == 3.0


@given(seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=20, deadline=None)
def test_basis_pursuit_never_beats_nor_misses_the_planted_objective(seed):
    mat, truth, y = planted_instance(12, 16, 2, seed)
    res = basis_pursuit(mat, y)
    if res.status != "converged":
        return
    assert verify_solution(mat, res.solution, y)
    # the planted vector is feasible, so the minimum cannot exceed its norm
    assert res.objective <= np.abs(truth).sum() + 1e-5


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_row_basis_factors_the_gram_in_place_bitwise(ensemble):
    for rows, width in ((1, 1), (5, 5), (37, 64), (100, 256)):
        a = gen_measurement(ensemble, rows, width, 3).entries
        for shift in (0.0, 1.0):
            gram = a @ a.T
            assert gram.tobytes() == gram.T.tobytes()
            gram[np.diag_indices_from(gram)] += shift
            try:
                lower = cholesky(gram, lower=True)
            except LinAlgError:
                with pytest.raises(LinAlgError):
                    _row_basis(a, shift)
                continue
            got_lower, got_basis = _row_basis(a, shift)
            assert got_lower.tobytes() == lower.tobytes()
            assert got_basis.tobytes() == solve_triangular(lower, a, lower=True).tobytes()


@pytest.mark.parametrize("ensemble", ["partial-symmetric-bernoulli", "iid-bernoulli"])
def test_row_basis_of_a_sign_matrix_matches_its_entries_bitwise(ensemble):
    for rows, width in ((1, 1), (5, 5), (37, 64), (100, 256)):
        matrix = gen_measurement(ensemble, rows, width, 3)
        a = matrix.entries
        before = a.copy()
        # the row-space step solves W in a Fortran-order copy, the order this
        # array already has: it must still be copied, not solved in place
        fortran = np.asfortranarray(a)
        for shift in (0.0, 1.0):
            try:
                expected = _row_basis(a, shift)
            except LinAlgError:
                for source in (matrix, fortran):
                    with pytest.raises(LinAlgError):
                        _row_basis(source, shift)
                continue
            for source in (matrix, fortran):
                got = _row_basis(source, shift)
                for mine, theirs in zip(got, expected):
                    assert mine.tobytes() == theirs.tobytes()
        y = a @ Stream(rows).normals(width)
        for source in (a, fortran):
            basis_pursuit(source, y, 3)
            bpdn(source, y, 0.5 * float(np.linalg.norm(y)), 3)
        # an array passed in is read, never overwritten
        assert a.tobytes() == before.tobytes()
        assert fortran.flags.f_contiguous and fortran.tobytes() == before.tobytes()


def whole_products(basis, v, c):
    return basis.dot(v), basis.T.dot(c)


def sequential_halves(basis, v, c):
    """The split products' halves, one after the other on the calling thread."""
    r, k = basis.shape[0] // 2 // 64 * 64, basis.shape[1] // 2 // 64 * 64
    return (np.concatenate([basis[:r] @ v, basis[r:] @ v]),
            np.concatenate([basis[:, :k].T @ c, basis[:, k:].T @ c]))


def split_mismatches(reference):
    """Shapes, at and above 2**20 entries, whose split products differ from ``reference``."""
    rng = np.random.default_rng(7)
    bases = [np.asfortranarray(rng.standard_normal(size)) for size in (
        (1031, 1117),  # neither count a multiple of 64
        (1024, 1024),  # exactly 2**20 entries
        (131, 8009),   # a top half of 64 rows
        (70, 15000),   # too few rows for a top half: W v stays whole
    )]
    bases.append(_row_basis(gen_measurement("partial-symmetric-bernoulli", 520, 2048, 1), 0.0)[1])
    wrong = []
    for basis in bases:
        assert basis.size >= 2**20 and basis.flags.f_contiguous
        forward, backward = _basis_products(basis)
        rows, width = basis.shape
        for seed in range(3):
            v, c = Stream(seed).normals(width), Stream(seed).normals(rows)
            coef, x = np.full(rows, np.nan), np.full(width, np.nan)
            forward(v, out=coef)
            backward(c, out=x)
            expected = reference(basis, v, c)
            if coef.tobytes() != expected[0].tobytes() or x.tobytes() != expected[1].tobytes():
                wrong.append(basis.shape)
    return wrong


def in_one_blas_thread(expression):
    """What ``expression``, over this module's names, prints in a fresh
    interpreter whose BLAS runs one thread."""
    here = Path(__file__).resolve().parent
    src = str(Path(symcs.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, str(here), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"from test_solver import *; print({expression})"],
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                 MKL_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=300, check=True,
    )
    return done.stdout.strip()


def test_split_products_keep_the_bits_of_the_whole_product():
    # from 2**20 entries on, W v splits by rows and W^T c by columns into two
    # halves on two threads.  With one BLAS thread every output entry is one
    # dot at the offset it has in the whole product, so it keeps its bits;
    # more BLAS threads split each half again, at other points than the whole
    assert in_one_blas_thread("split_mismatches(whole_products)") == "[]"


def test_split_products_do_not_depend_on_the_overlap():
    # at any BLAS thread count: the bits of the halves run one after the other
    assert split_mismatches(sequential_halves) == []
    # one entry below the limit, the products are the array's own methods
    basis = np.asfortranarray(np.random.default_rng(7).standard_normal((1023, 1025)))
    forward, backward = _basis_products(basis)
    assert forward.__self__ is basis and backward.__self__.base is basis


def test_split_products_from_several_threads_keep_the_bits():
    # three callers share the one worker thread, with thread switches forced
    # often: each caller's outputs must still be its own, bit for bit
    basis = np.asfortranarray(np.random.default_rng(8).standard_normal((1024, 1100)))
    forward, backward = _basis_products(basis)
    vectors = [(Stream(seed).normals(1100), Stream(seed).normals(1024)) for seed in range(3)]
    mismatches = []

    def caller(v, c):
        expected = [p.tobytes() for p in sequential_halves(basis, v, c)]
        coef, x = np.empty(1024), np.empty(1100)
        for _ in range(20):
            forward(v, out=coef)
            backward(c, out=x)
            if [coef.tobytes(), x.tobytes()] != expected:
                mismatches.append(v[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=pair) for pair in vectors]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_split_products_run_in_a_forked_child():
    # a child forked after a split product inherits the worker's executor
    # but not its thread; its own split products must still finish
    basis = np.asfortranarray(np.random.default_rng(9).standard_normal((1024, 1024)))
    forward, _ = _basis_products(basis)
    v, coef = Stream(1).normals(1024), np.empty(1024)
    forward(v, out=coef)
    read, write = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12 warns that forking a process with threads may deadlock
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        try:
            child_forward, _ = _basis_products(basis)
            child_forward(v, out=coef)
            os.write(write, coef.tobytes())
        finally:
            os._exit(0)
    os.close(write)
    deadline = time.monotonic() + 30
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            break
        time.sleep(0.01)
    with os.fdopen(read, "rb") as pipe:
        assert pipe.read() == coef.tobytes()


def test_basis_pursuit_holds_under_two_float_copies_at_its_peak():
    # the first factorization imports scipy.linalg; load it here, so that the
    # peak counts the solve alone, whatever else this module has imported
    import scipy.linalg  # noqa: F401
    import scipy.linalg.blas  # noqa: F401

    # numpy reports its buffers to tracemalloc; the peak counts the int8
    # signs, then the Fortran float copy and the Gram, which become the row
    # basis and the Cholesky factor in place, then the closing check's copy.
    # At 520x2048 the products with W split in halves, which must neither
    # copy their blocks of W nor keep W alive into the closing check
    for rows, width in ((600, 1024), (520, 2048)):
        tracemalloc.start()
        try:
            matrix = gen_measurement("partial-symmetric-bernoulli", rows, width, 1)
            y = matrix.entries @ plant_signal(width, 20, "pm1", 2).vector
            tracemalloc.reset_peak()
            basis_pursuit(matrix, y, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * rows * width


def expression_basis_pursuit(a, y, cap):
    """The ADMM loop of ``basis_pursuit`` written as plain array expressions."""
    lower = cholesky(a @ a.T, lower=True)
    basis = solve_triangular(lower, a, lower=True)
    particular = basis.T @ solve_triangular(lower, y, lower=True)
    z = u = x = np.zeros(a.shape[1])
    status, iterations, primal, dual = "max-iterations", cap, math.inf, math.inf
    for it in range(1, cap + 1):
        v = z - u
        x = v - basis.T @ (basis @ v) + particular
        z_old = z
        z = np.sign(x + u) * np.maximum(np.abs(x + u) - 1.0, 0.0)
        u = u + x - z
        primal = float(np.linalg.norm(x - z))
        dual = float(np.linalg.norm(z - z_old))
        if primal <= PRIMAL_TOL and dual <= DUAL_TOL:
            status, iterations = "converged", it
            break
    return x, iterations, status, primal, dual


def expression_bpdn(a, y, epsilon, cap):
    """The ADMM loop of ``bpdn`` written as plain array expressions.

    Returns the result and the number of iterations whose ``Ax + u2`` fell
    inside the ball, where the projection leaves it unchanged.
    """
    n, width = a.shape
    inside = 0
    lower = cholesky(np.eye(n) + a @ a.T, lower=True)
    basis = solve_triangular(lower, a, lower=True)
    z = u1 = x = np.zeros(width)
    w = u2 = np.zeros(n)
    status, iterations, primal, dual = "max-iterations", cap, math.inf, math.inf
    for it in range(1, cap + 1):
        b = (z - u1) + a.T @ (w - u2)
        x = b - basis.T @ (basis @ b)
        ax = a @ x
        z_old, w_old = z, w
        z = np.sign(x + u1) * np.maximum(np.abs(x + u1) - 1.0, 0.0)
        gap = ax + u2 - y
        norm = float(np.linalg.norm(gap))
        inside += norm <= epsilon
        w = ax + u2 if norm <= epsilon else y + gap * (epsilon / norm)
        u1 = u1 + x - z
        u2 = u2 + ax - w
        primal = math.hypot(float(np.linalg.norm(x - z)), float(np.linalg.norm(ax - w)))
        dual = math.hypot(
            float(np.linalg.norm(z - z_old)), float(np.linalg.norm(a.T @ (w - w_old)))
        )
        if primal <= PRIMAL_TOL and dual <= DUAL_TOL:
            status, iterations = "converged", it
            break
    return (x, iterations, status, primal, dual), inside


def frozen_case(name):
    mat, _, y = planted_instance(30, 64, 4, 5)
    eps = 0.5 * float(np.linalg.norm(y))
    # a wide ball around a scaled rhs: some iterates land inside the ball.
    # Penalty rho on (y, eps) runs the iterates of penalty 1 on (rho*y,
    # rho*eps), scaled by 1/rho; this is the rho = 10 case at penalty 1
    gauss = gen_measurement("gaussian", 6, 6, 5)
    y_gauss = Stream(105).normals(6)
    cases = {
        "bp-converged": (mat, y, None, MAX_ITERATIONS),
        "bp-capped": (mat, y, None, 20),
        "bpdn-converged": (mat, y, eps, MAX_ITERATIONS),
        "bpdn-capped": (mat, y, eps, 25),
        "bpdn-ball-inactive": (
            gauss, 10.0 * y_gauss, 5.0 * float(np.linalg.norm(y_gauss)), MAX_ITERATIONS
        ),
    }
    return cases[name]


def fingerprint(solution, iterations, status, primal, dual):
    return (hashlib.sha256(solution.tobytes()).hexdigest(), iterations, status,
            repr(primal), repr(dual))


# sha256 of solution.tobytes(), iterations, status, repr of both residuals,
# from the loops before they moved to preallocated buffers (OpenBLAS 0.3.31,
# x86-64 with AVX-512, one thread); bpdn-ball-inactive, rescaled to penalty
# 1 when the penalty became a constant, from expression_bpdn on that build
FROZEN_RESULTS = {
    "bp-converged": (
        "96541de96e012b081bd68ec8372ce253436ba3e4877fd8a958835c31a3488666",
        76, "converged", "9.981543472465729e-08", "6.942012271288359e-08"),
    "bp-capped": (
        "9a0b7c44852c84ffed9be5bb661baab0475f6a6fbfab2e55a323dc378c6e7fff",
        20, "max-iterations", "0.006287399517998493", "0.023765018000436792"),
    "bpdn-converged": (
        "b704d83308134535535ebfd1e42344d624a8562258729248ae63aa3e949c06da",
        166, "converged", "9.568811616013865e-08", "3.868373889706874e-08"),
    "bpdn-capped": (
        "2c40b3845695c965b8b96120112a7cb91a98c652cebddd3313a20705a57d3421",
        25, "max-iterations", "0.02358392057835549", "0.024109475969638416"),
    "bpdn-ball-inactive": (
        "f9cb87a073dd6831218bec292e601d8677cabd5d5fac21b06b8568c2a972df3d",
        417, "converged", "9.435709324203564e-08", "9.212068384279422e-08"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_RESULTS))
def test_admm_results_are_frozen(name):
    mat, y, epsilon, cap = frozen_case(name)
    if epsilon is None:
        res = basis_pursuit(mat, y, cap)
        expected = expression_basis_pursuit(mat.entries, y, cap)
    else:
        res = bpdn(mat, y, epsilon, cap)
        expected, inside = expression_bpdn(mat.entries, y, epsilon, cap)
        if name == "bpdn-ball-inactive":
            assert inside > 0
    got = fingerprint(res.solution, res.iterations, res.status,
                      res.primal_residual, res.dual_residual)
    # bit for bit the arithmetic of the plain expressions, on any BLAS
    assert got == fingerprint(*expected)
    if fingerprint(*expected) != FROZEN_RESULTS[name]:
        pytest.skip("this BLAS rounds differently from the build the digests come from")
    assert got == FROZEN_RESULTS[name]


def hadamard_case():
    # 24 rows of the 64-point Sylvester Hadamard matrix: A A^T = 64 I, so the
    # factor is 8 I, W = A / 8 and the particular solution A^T y / 64 are
    # exact, and the integer sums of A^T y leave exact zeros in it
    from scipy.linalg import hadamard

    rows = np.sort(Stream(64).sample_without_replacement(64, 24))
    a = hadamard(64)[rows].astype(np.float64)
    truth = np.zeros(64)
    truth[[3, 17, 40]] = [2.0, -1.0, 3.0]
    return a, a @ truth


def widened_cases():
    """Converged and capped instances on every ensemble and on the Hadamard
    matrix, and a capped instance large enough to split the products."""
    cases = []
    for index, ensemble in enumerate(ENSEMBLES):
        mat = gen_measurement(ensemble, 16, 32, 40 + index)
        for label, sparsity, cap in (("converged", 2, MAX_ITERATIONS), ("capped", 9, 30)):
            sig = plant_signal(32, sparsity, "gaussian", derive_seed(41, [index, sparsity]))
            cases.append((f"{ensemble}-{label}", mat, mat.entries, mat.entries @ sig.vector, cap))
    a, y = hadamard_case()
    cases.append(("hadamard-converged", a, a, y, MAX_ITERATIONS))
    cases.append(("hadamard-capped", a, a, y, 4))
    # 520x2048 is above the 2**20 entries from which the products with W split
    mat = gen_measurement("partial-symmetric-bernoulli", 520, 2048, 45)
    sig = plant_signal(2048, 60, "gaussian", derive_seed(41, [5, 60]))
    cases.append(("split-capped", mat, mat.entries, mat.entries @ sig.vector, 30))
    return cases


def test_hadamard_particular_solution_has_exact_zeros():
    a, y = hadamard_case()
    lower = cholesky(a @ a.T, lower=True)
    assert np.array_equal(lower, 8.0 * np.eye(24))
    particular = solve_triangular(lower, a, lower=True).T @ solve_triangular(lower, y, lower=True)
    assert np.array_equal(particular, a.T @ y / 64.0)
    assert 0 < np.count_nonzero(particular == 0.0) < 64


@pytest.mark.parametrize("case", widened_cases(), ids=lambda case: case[0])
def test_admm_loops_match_their_expressions(case):
    name, matrix, a, y, cap = case
    res = basis_pursuit(matrix, y, cap)
    assert res.status == ("max-iterations" if name.endswith("capped") else "converged")
    assert fingerprint(res.solution, res.iterations, res.status, res.primal_residual,
                       res.dual_residual) == fingerprint(*expression_basis_pursuit(a, y, cap))
    epsilon = 0.1 * float(np.linalg.norm(y))
    res = bpdn(matrix, y, epsilon, cap)
    (x, iterations, status, primal, dual), _ = expression_bpdn(a, y, epsilon, cap)
    # a capped iterate outside the ball fails bpdn's closing check
    if not verify_solution(a, x, y, epsilon):
        status = "infeasible-detected"
    assert fingerprint(res.solution, res.iterations, res.status, res.primal_residual,
                       res.dual_residual) == fingerprint(x, iterations, status, primal, dual)


def test_clip_step_reproduces_shrink_and_multiplier():
    # the loops take the multiplier as v clipped to [-1, 1] and the shrink as
    # v less that clip; below 2**53 the first is v less the shrink, bitwise
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = [0.0, tiny, 3 * tiny, np.finfo(np.float64).tiny, 1e-300, 0.25, 0.5, 1.0,
             1.5, 2.0, 3.0, 2.0**26 + 0.5, 2.0**52 - 1.0, 2.0**52]
    near = [np.nextafter(e, toward) for e in edges for toward in (-np.inf, np.inf)]
    spread = np.random.default_rng(0).uniform(-52.0, 52.0, 2000)
    magnitudes = np.abs(np.concatenate([edges, near, np.exp2(spread)]))
    magnitudes = magnitudes[magnitudes <= 2.0**52]
    v = np.concatenate([magnitudes, -magnitudes])
    clipped = np.maximum(np.minimum(v, 1.0), -1.0)
    shrink = soft_threshold(v)
    assert clipped.tobytes() == (v - shrink).tobytes()
    # v less its clip is the shrink but for the sign of zero, which is +0 where
    # the reference gives -0: exactly on [-1, 0)
    step = v - clipped
    assert np.array_equal(step, shrink)
    sign_differs = np.signbit(step) != np.signbit(shrink)
    assert np.array_equal(sign_differs, (v >= -1.0) & (v < 0.0))
    assert not np.signbit(step[sign_differs]).any() and (shrink[sign_differs] == 0.0).all()


def test_soft_threshold_known_values():
    out = soft_threshold(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]))
    assert np.array_equal(out, np.array([-1.0, -0.0, 0.0, 0.0, 1.0]))


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
def test_soft_threshold_properties(values):
    v = np.array(values)
    out = soft_threshold(v)
    assert np.all(np.abs(out) == np.maximum(np.abs(v) - 1.0, 0.0))
    assert np.all(out * v >= 0.0)


def test_soft_threshold_keeps_the_arithmetic():
    values = np.array([-2.0, -1.0, -0.5, -0.0, 0.0, -1e-300, 1e-300, 0.5, 1.0, 3.25])
    expected = (np.sign(values) * np.maximum(np.abs(values) - 1.0, 0.0)).tobytes()
    assert soft_threshold(values).tobytes() == expected
    # -0.0 in gives +0.0 out; a negative entry shrunk to zero gives -0.0
    zeros = np.array([-0.0, 0.0, -0.25])
    assert soft_threshold(zeros).tobytes() == np.array([0.0, 0.0, -0.0]).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32))
def test_solve_spd_matches_library_solver(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    spd = a @ a.T + dim * np.eye(dim)
    b = rng.normal(size=dim)
    x = solve_spd(spd, b)
    assert np.allclose(x, np.linalg.solve(spd, b), atol=1e-9, rtol=1e-9)


def test_solve_spd_rejects_singular_and_indefinite():
    with pytest.raises(SingularMatrixError):
        solve_spd(np.zeros((2, 2)), np.ones(2))
    with pytest.raises(SingularMatrixError):
        solve_spd(np.array([[1.0, 0.0], [0.0, -1.0]]), np.ones(2))


def test_solve_spd_empty_system():
    assert solve_spd(np.zeros((0, 0)), np.zeros(0)).size == 0
