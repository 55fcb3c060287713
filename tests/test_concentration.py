"""Exact enumeration and Monte Carlo checks for the concentration helpers.

Frozen constants were derived with independent hand-loop enumerations
(plain python loops over all sign patterns, no shared code paths) before
being pinned here.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcs import concentration
from symcs.concentration import (
    TailCheckReport,
    empirical_tails,
    jl_measurement_bound,
    jl_min_measurements,
    mgf_lhs_exact,
    mgf_rhs_exact,
    random_unit_vector,
    row_mgf_bound,
    tail_bound,
)
from symcs.ensembles import gen_measurement, gen_symmetric_sign_matrix
from symcs.errors import DimensionError, EnumerationTooLargeError
from symcs.rng import derive_seed
from projection_statistics import (
    DistortionReport,
    moment4_exact,
    pairwise_distortion,
    q_statistics,
)

# Hand-loop enumeration values for dimension 3, three rows, uniform unit
# alpha, h = 1: the coupled expectation exceeds the independent-rows product.
COUPLED_LHS = 3.5600493602332985
PRODUCT_RHS = 3.495957785425123


def uniform_alpha(dimension):
    return np.ones(dimension) / np.sqrt(float(dimension))


def test_three_row_coupling_pinned_gap():
    alpha = uniform_alpha(3)
    lhs = mgf_lhs_exact(3, 3, alpha, 1.0)
    rhs = mgf_rhs_exact(3, 3, alpha, 1.0)
    assert lhs == pytest.approx(COUPLED_LHS, rel=1e-13)
    assert rhs == pytest.approx(PRODUCT_RHS, rel=1e-13)
    gap = (lhs - rhs) / rhs
    assert gap > 0.018


def test_factorization_exact_up_to_two_rows():
    for dimension in (2, 3, 4):
        for seed in (1, 2):
            alpha = random_unit_vector(dimension, seed)
            for rows in (1, 2):
                if rows > dimension:
                    continue
                for h in (0.5, 1.0, 2.0):
                    lhs = mgf_lhs_exact(dimension, rows, alpha, h)
                    rhs = mgf_rhs_exact(dimension, rows, alpha, h)
                    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_factorization_exact_for_axis_direction_all_rows():
    for dimension in (2, 3, 4, 5):
        alpha = np.zeros(dimension)
        alpha[0] = 1.0
        for rows in range(1, dimension + 1):
            lhs = mgf_lhs_exact(dimension, rows, alpha, 1.0)
            rhs = mgf_rhs_exact(dimension, rows, alpha, 1.0)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_row_transform_dominated_by_analytic_bound():
    for dimension in (2, 3, 4, 5, 6):
        alphas = [
            np.eye(dimension)[0],
            uniform_alpha(dimension),
            random_unit_vector(dimension, dimension),
        ]
        for h in (0.5, 1.0, 2.0):
            if not h < dimension / 2.0:
                continue
            bound = row_mgf_bound(h, dimension)
            for alpha in alphas:
                value = mgf_rhs_exact(dimension, 1, alpha, h)
                assert value <= bound + 1e-12


def test_both_transforms_overflow_to_infinity():
    # E exp(hS) at h = 1000 and an axis alpha is exp(1000) on either route
    alpha = np.eye(3)[0]
    with np.errstate(over="ignore"):
        assert mgf_lhs_exact(3, 3, alpha, 1000.0) == math.inf
        assert mgf_rhs_exact(3, 3, alpha, 1000.0) == math.inf


def test_row_mgf_bound_domain():
    assert row_mgf_bound(0.5, 4) == pytest.approx((1.0 - 0.25) ** -0.5, rel=1e-15)
    with pytest.raises(ValueError):
        row_mgf_bound(2.0, 4)
    with pytest.raises(DimensionError):
        row_mgf_bound(0.1, 0)


def test_fourth_moment_enumeration_values():
    assert moment4_exact(2, uniform_alpha(2)) == pytest.approx(0.5, abs=1e-15)
    axis = np.zeros(5)
    axis[0] = 1.0
    assert moment4_exact(5, axis) == pytest.approx(1.0 / 25.0, rel=1e-15)


def test_fourth_moment_bounded_by_three_over_dim_squared():
    for dimension in (2, 3, 4, 5, 6):
        for seed in range(5):
            alpha = random_unit_vector(dimension, 10 * dimension + seed)
            assert moment4_exact(dimension, alpha) <= 3.0 / dimension**2 + 1e-14


def test_tail_bound_frozen_values():
    assert tail_bound(0.3, 100) == pytest.approx(0.16529888822158656, rel=1e-14)
    assert tail_bound(0.5, 100) == pytest.approx(0.015503853599009314, rel=1e-14)
    assert tail_bound(0.5, 16) == pytest.approx(0.513417119032592, rel=1e-14)


def test_tail_bound_shape():
    assert tail_bound(0.4, 20) > tail_bound(0.4, 200)
    assert tail_bound(0.2, 50) > tail_bound(0.6, 50)
    assert tail_bound(1.5, 10) == pytest.approx(1.0, rel=1e-15)
    assert tail_bound(1.6, 10) > 1.0
    with pytest.raises(ValueError):
        tail_bound(0.0, 10)
    with pytest.raises(DimensionError):
        tail_bound(0.3, 0)
    # an infinite eps, or one whose bound overflows, is a ValueError
    for eps in (math.inf, 1000.0, 1e300):
        with pytest.raises(ValueError):
            tail_bound(eps, 8)


def test_tail_bound_holds_per_tail_not_for_both_tails_together():
    # N=2, one row, alpha=(1,1)/sqrt(2): T = (N/n) S is 2 or 0 with equal
    # odds, so |T - 1| = 1 on every symmetric sign matrix.  Each tail at
    # eps=0.75 has probability 1/2, under the bound 0.932; both tails
    # together have probability 1, above it.
    alpha = np.array([1.0, 1.0]) / math.sqrt(2.0)
    eps, bound = 0.75, tail_bound(0.75, 1)
    assert bound == pytest.approx(math.exp(-0.0703125), rel=1e-15)
    energies = []
    for m11, m12, m22 in itertools.product((-1, 1), repeat=3):
        _, total = q_statistics(np.array([[m11, m12]]), alpha)
        energies.append(2.0 * total)
    upper = sum(t >= 1.0 + eps for t in energies) / len(energies)
    lower = sum(t <= 1.0 - eps for t in energies) / len(energies)
    either = sum(abs(t - 1.0) >= eps for t in energies) / len(energies)
    assert (upper, lower, either) == (0.5, 0.5, 1.0)
    assert upper <= bound and lower <= bound < either


def test_empirical_tails_frozen_counts():
    reports = empirical_tails(64, 16, [0.3, 0.5], 200, 11)
    assert [r.eps for r in reports] == [0.3, 0.5]
    first, second = reports
    assert (first.upper_count, first.lower_count) == (45, 39)
    assert (second.upper_count, second.lower_count) == (23, 12)
    assert first.mean_energy == pytest.approx(0.2557428275315344, rel=1e-13)
    assert first.mean_energy == second.mean_energy
    assert first.bound == pytest.approx(tail_bound(0.3, 16), rel=1e-15)
    assert first.trials == 200 and first.dimension == 64 and first.rows == 16


def test_empirical_tails_draws_each_trial_from_its_derived_seeds(monkeypatch):
    seeds = []
    draw_signs = concentration.gen_symmetric_sign_matrix
    draw_alpha = concentration.random_unit_vector

    def signs(rows, dimension, seed):
        seeds.append(("signs", seed))
        return draw_signs(rows, dimension, seed)

    def alpha(dimension, seed):
        seeds.append(("alpha", seed))
        return draw_alpha(dimension, seed)

    monkeypatch.setattr(concentration, "gen_symmetric_sign_matrix", signs)
    monkeypatch.setattr(concentration, "random_unit_vector", alpha)
    for master in (0, 7, 2**64 - 1, -3):
        seeds.clear()
        empirical_tails(8, 2, [0.5], 40, master)
        assert seeds == [
            (kind, derive_seed(master, [t, label]))
            for t in range(40)
            for kind, label in (("signs", 0), ("alpha", 1))
        ]


def test_empirical_tails_counts_match_direct_recount():
    dimension, rows, trials, master = 32, 8, 60, 5
    eps_values = (0.25, 0.6)
    reports = empirical_tails(dimension, rows, eps_values, trials, master)
    energies = []
    for t in range(trials):
        # the first rows of the full matrix, drawn independently of the prefix
        full = gen_symmetric_sign_matrix(dimension, dimension, derive_seed(master, [t, 0]))
        alpha = random_unit_vector(dimension, derive_seed(master, [t, 1]))
        _, energy = q_statistics(full[:rows], alpha)
        energies.append(energy)
    target = rows / dimension
    for rep, eps in zip(reports, eps_values):
        assert rep.upper_count == sum(e >= (1 + eps) * target for e in energies)
        assert rep.lower_count == sum(e <= (1 - eps) * target for e in energies)
        assert rep.mean_energy == pytest.approx(np.mean(energies), rel=1e-13)


def test_empirical_tail_singleton_matches_batch():
    (single,) = empirical_tails(32, 8, [0.25], 60, 5)
    batch = empirical_tails(32, 8, [0.25, 0.6], 60, 5)[0]
    assert single == batch


def test_empirical_tails_rejects_bad_arguments():
    with pytest.raises(DimensionError):
        empirical_tails(16, 4, [], 10, 0)
    with pytest.raises(DimensionError):
        empirical_tails(16, 4, [0.3], 0, 0)


def test_tail_report_derived_fields():
    rep = TailCheckReport(
        dimension=64,
        rows=16,
        eps=0.5,
        trials=400,
        upper_count=18,
        lower_count=6,
        bound=0.25,
        mean_energy=0.25,
    )
    assert rep.upper_freq == pytest.approx(0.045)
    assert rep.lower_freq == pytest.approx(0.015)
    assert rep.slack_3se == pytest.approx(3.0 * math.sqrt(0.25 * 0.75 / 400), rel=1e-15)


def test_jl_sizes_frozen():
    assert jl_min_measurements(0.5, 1.0, 100) == 332
    assert jl_min_measurements(0.5, 1.0, 50) == 282
    assert jl_min_measurements(0.3, 2.0, 1000) == 1536
    assert jl_measurement_bound(0.5, 1.0, 100) == pytest.approx(
        331.57225339114257, rel=1e-13
    )


def test_jl_bound_linear_in_log_points():
    for points in (10, 100, 5000):
        ratio = jl_measurement_bound(0.4, 1.5, points) / math.log(points)
        base = jl_measurement_bound(0.4, 1.5, 2) / math.log(2)
        assert ratio == pytest.approx(base, rel=1e-12)


def test_jl_bound_rejects_bad_arguments():
    with pytest.raises(ValueError):
        jl_measurement_bound(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        jl_measurement_bound(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        jl_measurement_bound(0.5, 0.0, 10)
    with pytest.raises(DimensionError):
        jl_measurement_bound(0.5, 1.0, 1)
    # counts beyond the float range: eps**2/2 - eps**3/3 underflows, or beta is infinite
    for eps, beta in ((1e-200, 1.0), (0.5, math.inf)):
        with pytest.raises(ValueError, match="overflows a float"):
            jl_measurement_bound(eps, beta, 100)


def test_pairwise_distortion_frozen_report():
    mat = gen_measurement("partial-symmetric-bernoulli", 40, 128, 5)
    pts = np.vstack(
        [random_unit_vector(128, 100 + i) for i in range(6)]
        + [np.zeros(128)]
    )
    pts = np.vstack([pts, pts[0]])
    rep = pairwise_distortion(mat, pts, 0.9)
    assert rep.pairs == 28
    assert rep.degenerate_pairs == 1
    assert rep.min_ratio == pytest.approx(0.7685043115306192, rel=1e-12)
    assert rep.max_ratio == pytest.approx(1.5520624746276095, rel=1e-12)
    assert rep.within
    plain = pairwise_distortion(mat.entries, pts, 0.9)
    assert plain == rep


def test_pairwise_distortion_all_pairs_coincident():
    mat = gen_measurement("gaussian", 4, 8, 1)
    pts = np.ones((2, 8))
    rep = pairwise_distortion(mat, pts, 0.5)
    assert rep.pairs == 1
    assert rep.degenerate_pairs == 1
    assert math.isnan(rep.min_ratio) and math.isnan(rep.max_ratio)
    assert rep.within


def test_pairwise_distortion_rejects_bad_arguments():
    mat = gen_measurement("gaussian", 4, 8, 1)
    with pytest.raises(ValueError):
        pairwise_distortion(mat, np.ones((3, 8)), 0.0)
    with pytest.raises(DimensionError):
        pairwise_distortion(mat, np.ones((3, 7)), 0.5)
    with pytest.raises(DimensionError):
        pairwise_distortion(mat, np.ones((1, 8)), 0.5)


def test_distortion_within_edges():
    rep = DistortionReport(
        eps=0.5, pairs=3, degenerate_pairs=0, min_ratio=0.5, max_ratio=1.5
    )
    assert rep.within
    rep = DistortionReport(
        eps=0.5, pairs=3, degenerate_pairs=0, min_ratio=0.49, max_ratio=1.0
    )
    assert not rep.within


def test_q_statistics_axis_direction_exact():
    signs = gen_symmetric_sign_matrix(3, 4, 9)
    alpha = np.zeros(4)
    alpha[0] = 1.0
    values, total = q_statistics(signs, alpha)
    np.testing.assert_array_equal(values, signs[:, 0] / 2.0)
    assert total == 0.75


def test_q_statistics_rejects_bad_arguments():
    full = gen_symmetric_sign_matrix(4, 4, 9)
    with pytest.raises(DimensionError):
        q_statistics(full[:2], np.ones(3))
    with pytest.raises(DimensionError):
        q_statistics(full[:0], np.ones(4))
    with pytest.raises(DimensionError):
        q_statistics(np.vstack([full, full[:1]]), np.ones(4))
    with pytest.raises(DimensionError):
        q_statistics(full[0], np.ones(4))


def test_random_unit_vector_frozen():
    u = random_unit_vector(5, 42)
    np.testing.assert_allclose(
        u,
        [
            0.16729336935118685,
            0.26328440025447003,
            -0.35977705330022264,
            0.5352300127024175,
            0.6976987591897739,
        ],
        rtol=1e-15,
    )
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DimensionError):
        random_unit_vector(0, 1)


def test_enumeration_caps():
    alpha6 = uniform_alpha(6)
    with pytest.raises(EnumerationTooLargeError):
        mgf_lhs_exact(6, 2, alpha6, 0.5)
    alpha17 = uniform_alpha(17)
    with pytest.raises(EnumerationTooLargeError):
        mgf_rhs_exact(17, 1, alpha17, 0.5)
    with pytest.raises(EnumerationTooLargeError):
        moment4_exact(17, alpha17)


@given(
    dimension=st.integers(min_value=2, max_value=4),
    rows=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=2**32),
    h=st.floats(min_value=0.05, max_value=2.0),
)
@settings(max_examples=30, deadline=None)
def test_two_row_factorization_property(dimension, rows, seed, h):
    alpha = random_unit_vector(dimension, seed)
    lhs = mgf_lhs_exact(dimension, rows, alpha, h)
    rhs = mgf_rhs_exact(dimension, rows, alpha, h)
    assert lhs == pytest.approx(rhs, rel=1e-10)


@given(
    dimension=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=25, deadline=None)
def test_fourth_moment_bound_property(dimension, seed):
    alpha = random_unit_vector(dimension, seed)
    assert moment4_exact(dimension, alpha) <= 3.0 / dimension**2 + 1e-13
