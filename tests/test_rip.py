"""Exhaustive isometry-constant checks against closed-form sign batteries.

The orthogonal-design battery has isometry constants known in closed form:
with all rows of a Sylvester sign design the column Gram on any support is
the identity, and after deleting one row the Gram on a size-k support is
``(N*I - v v^T)/(N-1)`` for a sign vector ``v``, whose eigenvalues are
``(N-k)/(N-1)`` once and ``N/(N-1)`` with multiplicity ``k-1``.  So the
order-k constant is exactly 0 (full design), 0 (k = 1 after dropping), and
``max(1, k-1)/(N-1)`` for k >= 2 after dropping.  These rationals were also
confirmed by direct eigenvalue enumeration before being pinned.
"""

import math
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcs import rip
from symcs.ensembles import ENSEMBLES, MeasurementMatrix, gen_measurement, shape
from symcs.errors import DimensionError, EnumerationTooLargeError
from symcs.rng import Stream
from symcs.rip import (
    RipEstimate,
    delta2_coherence,
    delta_k_bruteforce,
    gram_on_support,
    recovery_condition,
    sym_eigen_extremes,
)


def sylvester(order):
    h = np.array([[1]], dtype=np.int8)
    while h.shape[0] < order:
        h = np.block([[h, h], [h, -h]]).astype(np.int8)
    return h


def sign_battery(signs):
    # for +-1 signs, s * (1/sqrt(rows)) is s / sqrt(rows) bit for bit
    rows, dimension = signs.shape
    return MeasurementMatrix(
        "iid-bernoulli", rows, dimension, 0, scale=1 / math.sqrt(rows), signs=signs
    )


FULL8 = sign_battery(sylvester(8))
DROP8 = sign_battery(sylvester(8)[1:])
DROP16 = sign_battery(sylvester(16)[1:])


def test_orthogonal_design_constants_are_exactly_zero():
    for order in (1, 2, 4):
        est = delta_k_bruteforce(FULL8, order)
        assert est.delta == 0.0
        assert est.supports_checked == math.comb(8, order)


def test_dropped_row_design_constants_match_rationals():
    assert delta_k_bruteforce(DROP8, 1).delta == 0.0
    assert delta_k_bruteforce(DROP8, 2).delta == pytest.approx(1.0 / 7.0, rel=1e-12)
    assert delta_k_bruteforce(DROP8, 4).delta == pytest.approx(3.0 / 7.0, rel=1e-12)
    assert delta_k_bruteforce(DROP16, 4).delta == pytest.approx(1.0 / 5.0, rel=1e-12)


def test_float_entry_route_agrees_with_sign_route():
    sign_est = delta_k_bruteforce(DROP8, 2)
    float_est = delta_k_bruteforce(DROP8.entries, 2)
    assert float_est.delta == pytest.approx(sign_est.delta, rel=1e-12)
    assert float_est.supports_checked == sign_est.supports_checked


def test_order_one_constant_is_exactly_zero_for_sign_ensembles():
    for seed in range(5):
        mat = gen_measurement("partial-symmetric-bernoulli", 10, 20, seed)
        assert delta_k_bruteforce(mat, 1).delta == 0.0


def test_coherence_shortcut_matches_bruteforce():
    for seed in range(6):
        mat = gen_measurement("partial-symmetric-bernoulli", 12, 24, seed)
        coh = delta2_coherence(mat)
        brute = delta_k_bruteforce(mat, 2).delta
        assert coh == pytest.approx(brute, abs=1e-10)


def test_coherence_shortcut_on_iid_signs():
    mat = gen_measurement("iid-bernoulli", 16, 30, 3)
    coh = delta2_coherence(mat)
    brute = delta_k_bruteforce(mat, 2).delta
    assert coh == pytest.approx(brute, abs=1e-10)


def test_coherence_is_a_correctly_rounded_ratio():
    # worst integer column dot divided by the row count, nothing else
    mat = gen_measurement("partial-symmetric-bernoulli", 12, 24, 0)
    dots = mat.signs.T.astype(np.int64) @ mat.signs.astype(np.int64)
    np.fill_diagonal(dots, 0)
    assert delta2_coherence(mat) == np.abs(dots).max() / 12


def test_coherence_requires_sign_ensemble():
    gauss = gen_measurement("gaussian", 8, 16, 1)
    with pytest.raises(DimensionError):
        delta2_coherence(gauss)
    one_col = MeasurementMatrix(
        "iid-bernoulli", 1, 1, 0, scale=1.0, signs=np.ones((1, 1), dtype=np.int8)
    )
    with pytest.raises(DimensionError):
        delta2_coherence(one_col)


def pair_deviation(matrix, pair):
    # eigenvalues m +- r of the 2x2 Gram [[p, g], [g, q]] in closed form
    (p, g), (_, q) = gram_on_support(matrix, np.array(pair))
    m, r = (p + q) / 2.0, math.hypot((p - q) / 2.0, g)
    return max(m + r - 1.0, 1.0 - (m - r))


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_order_two_scan_is_within_ulps_of_the_exact_pair_value(ensemble):
    # the reference is the exact coherence on sign ensembles, else the worst
    # pair by closed-form 2x2 eigenvalues; LAPACK's may be an ulp or two off
    for rows, dim, seed in ((12, 24, 0), (16, 30, 3), (9, 20, 7)):
        mat = gen_measurement(ensemble, rows, dim, seed)
        if mat.signs is not None:
            exact = delta2_coherence(mat)
        else:
            exact = max(pair_deviation(mat, p) for p in combinations(range(dim), 2))
        delta = delta_k_bruteforce(mat, 2).delta
        assert abs(delta - exact) <= 4 * np.spacing(max(1.0, exact))


def test_constants_monotone_in_order():
    for seed in (0, 1):
        mat = gen_measurement("partial-symmetric-bernoulli", 8, 10, seed)
        deltas = [delta_k_bruteforce(mat, k).delta for k in range(1, 5)]
        assert deltas == sorted(deltas)


def test_worst_support_attains_the_constant():
    mat = gen_measurement("partial-symmetric-bernoulli", 12, 24, 2)
    est = delta_k_bruteforce(mat, 2)
    assert isinstance(est, RipEstimate)
    assert len(est.worst_support) == 2
    g = mat.signs[:, list(est.worst_support)].astype(np.int64)
    dots = g.T @ g
    off = abs(dots[0, 1]) / 12
    assert est.delta == pytest.approx(off, abs=1e-10)


def jacobi_deviation(matrix, support):
    lo, hi = sym_eigen_extremes(gram_on_support(matrix, np.array(support)))
    return max(hi - 1.0, 1.0 - lo)


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_stacked_eigvalsh_matches_per_support_jacobi(ensemble):
    # the in-package Jacobi solver, one support at a time, is the witness
    for rows, dim, seed in ((5, 9, 0), (7, 11, 1)):
        mat = gen_measurement(ensemble, rows, dim, seed)
        for order in range(1, 5):
            est = delta_k_bruteforce(mat, order)
            witness = max(
                jacobi_deviation(mat, s) for s in combinations(range(dim), order)
            )
            tol = 1e-12 * max(1.0, est.delta)
            assert abs(est.delta - max(witness, 0.0)) <= tol
            assert abs(jacobi_deviation(mat, est.worst_support) - est.delta) <= tol
            assert est.supports_checked == math.comb(dim, order)


def test_chunked_enumeration_keeps_the_first_worst_support(monkeypatch):
    cases = [(DROP8, 2), (DROP8, 4), (gen_measurement("iid-bernoulli", 5, 12, 101), 3)]
    whole = [delta_k_bruteforce(mat, order) for mat, order in cases]
    for (mat, order), est in zip(cases, whole):
        # seven supports per chunk, so ties straddle chunk boundaries
        rows = mat.entries.shape[0]
        monkeypatch.setattr(rip, "_CHUNK_BYTES", 8 * order * rows * 7)
        assert delta_k_bruteforce(mat, order) == est


def solve_every_support(matrix, order):
    """The scan without pruning: eigvalsh on every Gram, the first argmax."""
    dimension = shape(matrix)[1]
    supports = np.array(list(combinations(range(dimension), order)), dtype=np.int64)
    eig = np.linalg.eigvalsh(gram_on_support(matrix, supports))
    dev = np.maximum(eig[:, -1] - 1.0, 1.0 - eig[:, 0])
    best = int(np.argmax(dev))
    return max(float(dev[best]), 0.0), tuple(int(i) for i in supports[best]), len(supports)


def tie_rich_arrays():
    # Hadamard rows, repeated columns and all-ones: many supports attain
    # the constant, or come within rounding of it
    hadamard = sylvester(16).astype(np.float64)
    yield hadamard[:8] / math.sqrt(8)
    yield hadamard[1:6] / math.sqrt(5)
    yield np.repeat(Stream(3).normals(40).reshape(5, 8), 2, axis=1)
    yield np.ones((4, 10))
    yield np.ones((6, 12)) / math.sqrt(6)


def scan_cases():
    cases = [
        (gen_measurement(ensemble, rows, dim, seed), order)
        for ensemble in ENSEMBLES
        for rows, dim, seed in ((6, 12, 0), (8, 16, 5), (12, 24, 11))
        for order in range(1, 5)
    ]
    return cases + [(arr, order) for arr in tie_rich_arrays() for order in range(1, 5)]


@pytest.mark.parametrize("supports_per_chunk", [None, 7])
def test_pruned_scan_equals_solving_every_support(monkeypatch, supports_per_chunk):
    # None keeps the default chunk; 7 supports per chunk puts ties across
    # chunk boundaries
    for mat, order in scan_cases():
        if supports_per_chunk is not None:
            chunk_bytes = 8 * order * shape(mat)[0] * supports_per_chunk
            monkeypatch.setattr(rip, "_CHUNK_BYTES", chunk_bytes)
        delta, worst_support, count = solve_every_support(mat, order)
        est = delta_k_bruteforce(mat, order)
        assert est.delta.hex() == delta.hex()
        assert est.worst_support == worst_support
        assert est.supports_checked == count


@pytest.mark.parametrize("supports_per_chunk", [None, 7])
def test_only_greedy_seeds_are_solved_twice(monkeypatch, supports_per_chunk):
    # the distinct greedy seeds are solved once before the pass, and the pass
    # solves each support whose bound reaches the threshold once, so a seed
    # may come twice and nothing else more than once
    solved = []
    gram = rip.gram_on_support

    def recording(matrix, support):
        solved.extend(map(tuple, np.asarray(support).tolist()))
        return gram(matrix, support)

    monkeypatch.setattr(rip, "gram_on_support", recording)
    for mat, order in scan_cases():
        if supports_per_chunk is not None:
            chunk_bytes = 8 * order * shape(mat)[0] * supports_per_chunk
            monkeypatch.setattr(rip, "_CHUNK_BYTES", chunk_bytes)
        solved.clear()
        delta_k_bruteforce(mat, order)
        times = Counter(solved)
        assert solved and max(times.values()) <= 2
        seeds = set(map(tuple, rip._greedy_supports(rip._gram_offsets(mat), order).tolist()))
        assert {support for support, n in times.items() if n == 2} <= seeds


def test_prefix_chunks_are_the_lexicographic_subsets_in_full_chunks():
    cases = [(depth, top, size) for size in (1, 4, 1000) for top in range(8) for depth in range(top + 1)]
    # 1200 columns deep is past Python's recursion limit, as an order close to N gives
    for depth, top, size in cases + [(1200, 1201, 500), (60, 62, 100)]:
        chunks = list(rip._prefix_chunks(depth, top, size))
        assert [len(chunk) for chunk in chunks[:-1]] == [size] * (len(chunks) - 1)
        assert 1 <= len(chunks[-1]) <= size
        rows = [tuple(row) for chunk in chunks for row in chunk.tolist()]
        assert rows == list(combinations(range(top), depth))


def test_extend_appends_each_column_above_the_last_in_lexicographic_order():
    for top in range(8):
        for depth in range(top + 1):
            # every depth-subset: the empty prefix at depth 0, and from depth 1
            # prefixes ending at top - 1, which have no extension
            prefixes = list(combinations(range(top), depth))
            chunk = np.array(prefixes, dtype=np.int64).reshape(len(prefixes), depth)
            expected = [(*p, c) for p in prefixes for c in range((p[-1] + 1) if p else 0, top)]
            extended = rip._extend(chunk, top)
            assert extended.shape == (len(expected), depth + 1)
            assert [tuple(row) for row in extended.tolist()] == expected


def test_subtree_bounds_prune_most_order_four_prefixes(monkeypatch):
    # every exactness test passes with the subtree bound switched off; this
    # one does not: 151 of the 1771 (k-1)-prefixes are bounded on this draw
    bounded = []
    prefix_bounds = rip._prefix_bounds

    def counting(off, prefixes):
        bounded.append(len(prefixes))
        return prefix_bounds(off, prefixes)

    monkeypatch.setattr(rip, "_prefix_bounds", counting)
    mat = gen_measurement("partial-symmetric-bernoulli", 12, 24, 0)
    assert delta_k_bruteforce(mat, 4).supports_checked == 10626
    assert sum(bounded) < 2 * 151


def test_order_four_scan_solves_a_small_share_of_its_supports(monkeypatch):
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(grams):
        solved.append(len(grams))
        return eigvalsh(grams)

    monkeypatch.setattr(rip.np.linalg, "eigvalsh", counting)
    mat = gen_measurement("partial-symmetric-bernoulli", 12, 24, 0)
    est = delta_k_bruteforce(mat, 4)
    assert est.supports_checked == 10626
    assert sum(solved) < 0.02 * est.supports_checked


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_every_support_bound_covers_its_deviation(ensemble):
    # the float ensembles have g_ii != 1, so a bound that left out the new
    # column's own |g_cc - 1| would fall below some deviation here
    for rows, dim, seed in ((5, 9, 0), (6, 12, 3), (8, 10, 7)):
        mat = gen_measurement(ensemble, rows, dim, seed)
        off = rip._gram_offsets(mat)
        for order in range(2, 6):
            prefixes = np.array(list(combinations(range(dim - 1), order - 1)))
            bound = rip._prefix_bounds(off, prefixes)
            # the (prefix, column) entries above each prefix, in lexicographic order
            bound = bound[np.arange(dim) > prefixes[:, -1:]]
            supports = np.array(list(combinations(range(dim), order)))
            eig = np.linalg.eigvalsh(gram_on_support(mat, supports))
            dev = np.maximum(eig[:, -1] - 1.0, 1.0 - eig[:, 0])
            assert bound.shape == dev.shape
            assert np.all(bound >= dev - 1e-12)


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_every_subtree_bound_covers_its_completions(ensemble):
    # the float ensembles have g_ii != 1, so a bound that left out a
    # candidate's own |g_cc - 1| would fall below some completion here
    for rows, dim, seed in ((5, 9, 0), (6, 12, 3), (8, 10, 7)):
        mat = gen_measurement(ensemble, rows, dim, seed)
        off = rip._gram_offsets(mat)
        tables = rip._suffix_tables(off)
        for order in range(2, 6):
            subtrees = np.array(list(combinations(range(dim - 2), order - 2)), dtype=np.int64)
            subtrees = subtrees.reshape(math.comb(dim - 2, order - 2), order - 2)
            bound = rip._subtree_bounds(off, tables, subtrees)
            prefixes = np.array(list(combinations(range(dim - 1), order - 1)))
            support_bound = rip._prefix_bounds(off, prefixes)
            support_bound[np.arange(dim) <= prefixes[:, -1:]] = -np.inf
            worst = {}
            for prefix, row in zip(map(tuple, prefixes.tolist()), support_bound.max(axis=1)):
                worst[prefix[:-1]] = max(worst.get(prefix[:-1], -np.inf), row)
            assert bound.shape == (len(worst),)
            assert list(worst) == [tuple(p) for p in subtrees.tolist()]
            assert np.all(bound >= np.array(list(worst.values())) - 1e-12)


def test_scan_memory_stays_bounded():
    # 658008 supports; bounding every prefix in one chunk takes about 100 MiB
    mat = gen_measurement("partial-symmetric-bernoulli", 20, 40, 0)
    tracemalloc.start()
    try:
        est = delta_k_bruteforce(mat, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.supports_checked == 658008
    assert peak < 4 * 2**20


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_whole_gram_offsets_equal_the_support_gram_bitwise(ensemble):
    for rows, dim, seed in ((1, 5, 2), (6, 12, 0), (30, 60, 1)):
        mat = gen_measurement(ensemble, rows, dim, seed)
        for given in (mat, mat.entries):
            want = np.abs(gram_on_support(given, np.arange(dim)) - np.eye(dim))
            assert rip._gram_offsets(given).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "ensemble, limit_mib", [("partial-symmetric-bernoulli", 11), ("gaussian", 17)]
)
def test_whole_gram_memory_stays_bounded(ensemble, limit_mib):
    # a 1000 x 1000 Gram is 7.6 MiB; building it through int64 sign columns
    # and out-of-place steps peaked at 23.9 MiB on either ensemble
    mat = gen_measurement(ensemble, 1000, 1000, 0)
    tracemalloc.start()
    try:
        est = delta_k_bruteforce(mat, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.supports_checked == 499500
    assert peak < limit_mib * 2**20


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf, 1e200])
def test_a_gram_that_is_not_finite_is_refused(entry):
    # 1e200 squares past the float range: the Gram holds inf
    arr = Stream(4).normals(48).reshape(6, 8)
    arr[2, 5] = entry
    with np.errstate(over="ignore"):
        # a NaN subtree bound is never >= worst, so it must not prune
        with pytest.raises(DimensionError, match=r"support \(0, 1, 2, 5\)"):
            delta_k_bruteforce(arr, 4)
        with pytest.raises(DimensionError, match=r"support \(0, 1, 5\)"):
            delta_k_bruteforce(arr, 3)
        with pytest.raises(DimensionError, match=r"support \(0, 5\)"):
            delta_k_bruteforce(arr, 2)
        with pytest.raises(DimensionError, match=r"support \(5,\)"):
            delta_k_bruteforce(arr, 1)


def test_bruteforce_caps_and_argument_checks(monkeypatch):
    # 3,838,380 supports of size 6 from 40 columns: refused before any work
    wide = gen_measurement("partial-symmetric-bernoulli", 4, 40, 0)
    with pytest.raises(EnumerationTooLargeError, match="the cap is 1000000"):
        delta_k_bruteforce(wide, 6)
    mat = gen_measurement("partial-symmetric-bernoulli", 10, 20, 0)
    # 1140 supports of size 3 from 20 columns: the cap is inclusive
    monkeypatch.setattr(rip, "MAX_SUPPORTS", 1140)
    assert delta_k_bruteforce(mat, 3).supports_checked == 1140
    monkeypatch.setattr(rip, "MAX_SUPPORTS", 1139)
    with pytest.raises(EnumerationTooLargeError):
        delta_k_bruteforce(mat, 3)
    with pytest.raises(DimensionError):
        delta_k_bruteforce(mat, 0)
    with pytest.raises(DimensionError):
        delta_k_bruteforce(mat, 21)


def test_recovery_condition_threshold():
    assert recovery_condition(0.0)
    assert recovery_condition(1.0 / 7.0)
    assert recovery_condition(0.41)
    assert not recovery_condition(3.0 / 7.0)
    assert not recovery_condition(0.41421357)
    assert not recovery_condition(math.sqrt(2.0) - 1.0)
    with pytest.raises(ValueError):
        recovery_condition(-0.1)


def _random_symmetric(rng, dim):
    m = rng.normal(size=(dim, dim))
    return (m + m.T) / 2.0


def test_jacobi_two_by_two_exact():
    lo, hi = sym_eigen_extremes(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert lo == 0.5
    assert hi == 1.5


def test_jacobi_singleton_and_zero():
    assert sym_eigen_extremes(np.array([[3.5]])) == (3.5, 3.5)
    assert sym_eigen_extremes(np.zeros((3, 3))) == (0.0, 0.0)


def test_jacobi_diagonal_input():
    lo, hi = sym_eigen_extremes(np.diag([2.0, -1.0, 7.0]))
    assert (lo, hi) == (-1.0, 7.0)


def test_jacobi_rejects_asymmetric():
    with pytest.raises(DimensionError):
        sym_eigen_extremes(np.array([[1.0, 2.0], [0.0, 1.0]]))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2**32))
def test_jacobi_matches_library_eigensolver(dim, seed):
    m = _random_symmetric(np.random.default_rng(seed), dim)
    lo, hi = sym_eigen_extremes(m)
    w = np.linalg.eigvalsh(m)
    scale = max(1.0, float(np.abs(w).max()))
    assert abs(lo - w[0]) <= 1e-10 * scale
    assert abs(hi - w[-1]) <= 1e-10 * scale


def test_gram_sign_path_has_exact_unit_diagonal():
    matrix = gen_measurement("partial-symmetric-bernoulli", 100, 256, 1)
    g = gram_on_support(matrix, np.arange(8))
    assert np.all(np.diag(g) == 1.0)
    assert np.array_equal(g, g.T)
    # every entry is an integer dot over the row count
    dots = g * 100
    assert np.allclose(dots, np.rint(dots), atol=1e-9)


def test_gram_float_path_matches_sign_path():
    matrix = gen_measurement("partial-symmetric-bernoulli", 50, 64, 3)
    support = np.array([0, 5, 9, 33])
    exact = gram_on_support(matrix, support)
    plain = gram_on_support(matrix.entries, support)
    assert np.allclose(exact, plain, atol=1e-12)
    assert np.array_equal(plain, plain.T)


def test_stacked_gram_equals_per_support_grams_bitwise():
    matrix = gen_measurement("partial-symmetric-bernoulli", 12, 24, 4)
    supports = np.array([[0, 1, 2, 3], [5, 9, 17, 23], [23, 2, 11, 7], [4, 6, 8, 10]])
    stacked = gram_on_support(matrix, supports)
    assert stacked.shape == (4, 4, 4)
    for support, gram in zip(supports, stacked):
        assert gram.tobytes() == gram_on_support(matrix, support).tobytes()


def test_gram_rejects_a_support_array_of_three_dimensions():
    matrix = gen_measurement("gaussian", 4, 6, 0)
    with pytest.raises(DimensionError):
        gram_on_support(matrix, np.zeros((1, 1, 1), dtype=np.int64))


@pytest.mark.parametrize("name", ["partial-symmetric-bernoulli", "gaussian"])
def test_gram_of_a_repeated_index_is_singular(name):
    # a repeated column is well defined: its Gram has two equal rows
    matrix = gen_measurement(name, 4, 6, 0)
    g = gram_on_support(matrix, np.array([[0, 1], [2, 2]]))
    assert g[1].tobytes() == np.full((2, 2), g[1, 0, 0]).tobytes()
