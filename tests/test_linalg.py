import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcs import ensembles as ens
from symcs import linalg as la
from symcs.errors import DimensionError, SingularMatrixError


def _random_symmetric(rng, dim):
    m = rng.normal(size=(dim, dim))
    return (m + m.T) / 2.0


def test_jacobi_two_by_two_exact():
    lo, hi = la.sym_eigen_extremes(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert lo == 0.5
    assert hi == 1.5


def test_jacobi_singleton_and_zero():
    assert la.sym_eigen_extremes(np.array([[3.5]])) == (3.5, 3.5)
    assert la.sym_eigen_extremes(np.zeros((3, 3))) == (0.0, 0.0)


def test_jacobi_diagonal_input():
    lo, hi = la.sym_eigen_extremes(np.diag([2.0, -1.0, 7.0]))
    assert (lo, hi) == (-1.0, 7.0)


def test_jacobi_rejects_asymmetric():
    with pytest.raises(DimensionError):
        la.sym_eigen_extremes(np.array([[1.0, 2.0], [0.0, 1.0]]))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2**32))
def test_jacobi_matches_library_eigensolver(dim, seed):
    m = _random_symmetric(np.random.default_rng(seed), dim)
    lo, hi = la.sym_eigen_extremes(m)
    w = np.linalg.eigvalsh(m)
    scale = max(1.0, float(np.abs(w).max()))
    assert abs(lo - w[0]) <= 1e-10 * scale
    assert abs(hi - w[-1]) <= 1e-10 * scale


def test_gram_sign_path_has_exact_unit_diagonal():
    matrix = ens.gen_measurement("partial-symmetric-bernoulli", 100, 256, 1)
    g = la.gram_on_support(matrix, np.arange(8))
    assert np.all(np.diag(g) == 1.0)
    assert np.array_equal(g, g.T)
    # every entry is an integer dot over the row count
    dots = g * 100
    assert np.allclose(dots, np.rint(dots), atol=1e-9)


def test_gram_float_path_matches_sign_path():
    matrix = ens.gen_measurement("partial-symmetric-bernoulli", 50, 64, 3)
    support = np.array([0, 5, 9, 33])
    exact = la.gram_on_support(matrix, support)
    plain = la.gram_on_support(matrix.entries, support)
    assert np.allclose(exact, plain, atol=1e-12)
    assert np.array_equal(plain, plain.T)


def test_stacked_gram_equals_per_support_grams_bitwise():
    matrix = ens.gen_measurement("partial-symmetric-bernoulli", 12, 24, 4)
    supports = np.array([[0, 1, 2, 3], [5, 9, 17, 23], [23, 2, 11, 7], [4, 6, 8, 10]])
    stacked = la.gram_on_support(matrix, supports)
    assert stacked.shape == (4, 4, 4)
    for support, gram in zip(supports, stacked):
        assert gram.tobytes() == la.gram_on_support(matrix, support).tobytes()


def test_gram_rejects_a_support_array_of_three_dimensions():
    matrix = ens.gen_measurement("gaussian", 4, 6, 0)
    with pytest.raises(DimensionError):
        la.gram_on_support(matrix, np.zeros((1, 1, 1), dtype=np.int64))


@pytest.mark.parametrize("name", ["partial-symmetric-bernoulli", "gaussian"])
def test_gram_of_a_repeated_index_is_singular(name):
    # a repeated column is well defined: its Gram has two equal rows
    matrix = ens.gen_measurement(name, 4, 6, 0)
    g = la.gram_on_support(matrix, np.array([[0, 1], [2, 2]]))
    assert g[1].tobytes() == np.full((2, 2), g[1, 0, 0]).tobytes()


def test_soft_threshold_known_values():
    out = la.soft_threshold(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]))
    assert np.array_equal(out, np.array([-1.0, -0.0, 0.0, 0.0, 1.0]))


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
def test_soft_threshold_properties(values):
    v = np.array(values)
    out = la.soft_threshold(v)
    assert np.all(np.abs(out) == np.maximum(np.abs(v) - 1.0, 0.0))
    assert np.all(out * v >= 0.0)


def test_soft_threshold_out_keeps_the_arithmetic():
    values = np.array([-2.0, -1.0, -0.5, -0.0, 0.0, -1e-300, 1e-300, 0.5, 1.0, 3.25])
    expected = (np.sign(values) * np.maximum(np.abs(values) - 1.0, 0.0)).tobytes()
    assert la.soft_threshold(values).tobytes() == expected
    out = np.full_like(values, np.nan)
    assert la.soft_threshold(values, out=out) is out
    assert out.tobytes() == expected
    same = values.copy()
    assert la.soft_threshold(same, out=same) is same
    assert same.tobytes() == expected
    # -0.0 in gives +0.0 out; a negative entry shrunk to zero gives -0.0
    zeros = np.array([-0.0, 0.0, -0.25])
    assert la.soft_threshold(zeros, out=zeros).tobytes() == np.array(
        [0.0, 0.0, -0.0]).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32))
def test_solve_spd_matches_library_solver(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    spd = a @ a.T + dim * np.eye(dim)
    b = rng.normal(size=dim)
    x = la.solve_spd(spd, b)
    assert np.allclose(x, np.linalg.solve(spd, b), atol=1e-9, rtol=1e-9)


def test_solve_spd_rejects_singular_and_indefinite():
    with pytest.raises(SingularMatrixError):
        la.solve_spd(np.zeros((2, 2)), np.ones(2))
    with pytest.raises(SingularMatrixError):
        la.solve_spd(np.array([[1.0, 0.0], [0.0, -1.0]]), np.ones(2))


def test_solve_spd_empty_system():
    assert la.solve_spd(np.zeros((0, 0)), np.zeros(0)).size == 0
