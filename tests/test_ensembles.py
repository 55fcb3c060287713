import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcs import ensembles as ens
from symcs.errors import DimensionError
from symcs.rip import delta2_coherence, delta_k_bruteforce, gram_on_support
from symcs.rng import Stream
from symcs.solver import basis_pursuit, bpdn, l0_oracle_small, l1_oracle_small, verify_solution
from projection_statistics import pairwise_distortion


def test_symmetric_matrix_mirrors_upper_triangle():
    full = ens.gen_symmetric_sign_matrix(6, 6, 42)
    assert full.dtype == np.int8
    assert np.array_equal(full, full.T)
    draws = Stream(42).signs(21)
    assert np.array_equal(full[np.triu_indices(6)], draws)


def test_partial_rows_takes_prefix_and_scales():
    full = ens.gen_symmetric_sign_matrix(6, 6, 42)
    matrix = ens.gen_measurement("partial-symmetric-bernoulli", 3, 6, 42)
    assert matrix.entries.shape == (3, 6)
    assert matrix.scale == 3 ** -0.5
    assert np.array_equal(matrix.signs, full[:3])
    assert np.array_equal(matrix.entries, matrix.signs.astype(np.float64) * matrix.scale)


@pytest.mark.parametrize("dimension", [1, 2, 3, 7, 16, 33])
def test_symmetric_rows_are_a_prefix_of_the_full_matrix(dimension):
    full = ens.gen_symmetric_sign_matrix(dimension, dimension, 5)
    assert np.array_equal(full, full.T)
    draws = Stream(5).signs(dimension * (dimension + 1) // 2)
    assert np.array_equal(full[np.triu_indices(dimension)], draws)
    for rows in range(1, dimension + 1):
        assert np.array_equal(ens.gen_symmetric_sign_matrix(rows, dimension, 5), full[:rows])


def symmetric_rows_by_row(rows, dimension, seed):
    """The symmetric fill one row at a time: the upper part from the stream, the rest mirrored."""
    draws = Stream(seed).signs(rows * dimension - rows * (rows - 1) // 2)
    signs = np.empty((rows, dimension), dtype=np.int8)
    start = 0
    for i in range(rows):
        stop = start + dimension - i
        signs[i, i:] = draws[start:stop]
        signs[i, :i] = signs[:i, i]
        start = stop
    return signs


@pytest.mark.parametrize(
    "rows, dimension",
    [(1, 1), (1, 2), (1, 9), (2, 2), (3, 3), (7, 7), (12, 24), (5, 300), (64, 64)],
)
def test_symmetric_fill_equals_the_row_by_row_fill(rows, dimension):
    got = ens.gen_symmetric_sign_matrix(rows, dimension, 11)
    assert got.dtype == np.int8 and got.flags.c_contiguous
    assert np.array_equal(got, symmetric_rows_by_row(rows, dimension, 11))


@settings(max_examples=40)
@given(st.integers(1, 80), st.integers(0, 2**64 - 1), st.data())
def test_symmetric_fill_equals_the_row_by_row_fill_on_any_shape(dimension, seed, data):
    rows = data.draw(st.integers(1, dimension))
    got = ens.gen_symmetric_sign_matrix(rows, dimension, seed)
    assert np.array_equal(got, symmetric_rows_by_row(rows, dimension, seed))


# sha256 of the int8 signs as the full N x N construction drew them (seed 0);
# drawing only the rows' stream prefix must reproduce them bit for bit
SYMMETRIC_DIGESTS = {
    (100, 256): "0ceec75150faf340485da346d17de6127daa604dbcda4cb39ac829f50275b2d3",
    (2400, 4096): "52692f2cdd1b8fd639062962a7d7b9a2c27bb84d68a20206af0cd463d2310cfe",
}


@pytest.mark.parametrize("rows, dimension", sorted(SYMMETRIC_DIGESTS))
def test_symmetric_signs_are_frozen(rows, dimension):
    signs = ens.gen_measurement("partial-symmetric-bernoulli", rows, dimension, 0).signs
    assert hashlib.sha256(signs.tobytes()).hexdigest() == SYMMETRIC_DIGESTS[rows, dimension]


def test_iid_bernoulli_consumes_row_major():
    matrix = ens.gen_measurement("iid-bernoulli", 3, 5, 9)
    draws = Stream(9).signs(15).reshape(3, 5)
    assert np.array_equal(matrix.signs, draws)


def test_gaussian_consumes_row_major():
    matrix = ens.gen_measurement("gaussian", 3, 5, 9)
    draws = Stream(9).normals(15).reshape(3, 5)
    assert np.array_equal(matrix.entries, draws * 3 ** -0.5)
    assert matrix.signs is None
    # a dense ensemble keeps its entries; only dense() copies them
    assert matrix.entries is matrix.entries
    fortran = np.empty((3, 5), order="F")
    ens.fill_dense(matrix, fortran)
    assert fortran.flags.f_contiguous and np.array_equal(fortran, matrix.entries)
    assert not np.shares_memory(fortran, matrix.entries)


def test_structured_share_first_row_with_gaussian():
    g = ens.gen_measurement("gaussian", 4, 8, 7)
    t = ens.gen_measurement("toeplitz", 4, 8, 7)
    c = ens.gen_measurement("circulant", 4, 8, 7)
    assert np.array_equal(t.entries[0], g.entries[0])
    assert np.array_equal(c.entries[0], g.entries[0])


# rows == 1, rows == N, and shapes tall enough for a lower band
STRUCTURED_SHAPES = ((1, 1), (1, 5), (5, 5), (4, 8), (37, 64))


def test_toeplitz_structure():
    g = ens.gen_measurement("gaussian", 4, 8, 7)
    t = ens.gen_measurement("toeplitz", 4, 8, 7)
    for i in range(1, 4):
        assert np.array_equal(t.entries[i, i:], t.entries[0, : 8 - i])
    # first column entries below the corner come from source row 1
    assert np.array_equal(t.entries[1:, 0], g.entries[1, 1:4])


@pytest.mark.parametrize("rows, dimension", STRUCTURED_SHAPES)
def test_toeplitz_structure_across_shapes(rows, dimension):
    g = ens.gen_measurement("gaussian", rows, dimension, 7)
    t = ens.gen_measurement("toeplitz", rows, dimension, 7).entries
    assert np.array_equal(t[0], g.entries[0])
    for i in range(1, rows):
        assert np.array_equal(t[i, i:], t[0, : dimension - i])
        for j in range(i):
            assert t[i, j] == t[i - j, 0]
    # first column entries below the corner come from source row 1
    if rows > 1:
        assert np.array_equal(t[1:, 0], g.entries[1, 1:rows])


def test_circulant_rows_are_cyclic_shifts():
    c = ens.gen_measurement("circulant", 4, 8, 7)
    for i in range(4):
        assert np.array_equal(c.entries[i], np.roll(c.entries[0], i))


@pytest.mark.parametrize("rows, dimension", STRUCTURED_SHAPES)
def test_circulant_rows_are_cyclic_shifts_across_shapes(rows, dimension):
    c = ens.gen_measurement("circulant", rows, dimension, 7)
    for i in range(rows):
        assert np.array_equal(c.entries[i], np.roll(c.entries[0], i))


def test_descriptor_json_round_trip_is_exact():
    for name in ens.ENSEMBLES:
        matrix = ens.gen_measurement(name, 4, 7, 13)
        text = matrix.descriptor_json()
        data = json.loads(text)
        assert set(data) == {"ensemble", "n", "N", "seed", "scale"}
        again = ens.descriptor_from_json(text)
        assert np.array_equal(matrix.entries, again.entries)


def test_numpy_integer_draw_stores_the_python_ints_it_holds():
    for name in ens.ENSEMBLES:
        plain = ens.gen_measurement(name, 2, 3, 5)
        shaped = ens.gen_measurement(name, np.int64(2), np.int64(3), np.int64(5))
        assert shaped.descriptor_json() == plain.descriptor_json()
        assert shaped.entries.tobytes() == plain.entries.tobytes()
        assert [type(v) for v in (shaped.rows, shaped.dimension, shaped.seed)] == [int] * 3


def test_descriptor_rejects_extra_or_missing_keys():
    matrix = ens.gen_measurement("gaussian", 2, 4, 0)
    data = json.loads(matrix.descriptor_json())
    data["extra"] = 1
    with pytest.raises(DimensionError):
        ens.descriptor_from_json(json.dumps(data))
    del data["extra"]
    del data["scale"]
    with pytest.raises(DimensionError):
        ens.descriptor_from_json(json.dumps(data))


def test_descriptor_rejects_wrong_scale():
    matrix = ens.gen_measurement("gaussian", 2, 4, 0)
    data = json.loads(matrix.descriptor_json())
    data["scale"] = 0.123
    with pytest.raises(DimensionError):
        ens.descriptor_from_json(json.dumps(data))


def test_entries_csv_parses_back_exactly():
    matrix = ens.gen_measurement("partial-symmetric-bernoulli", 3, 6, 5)
    handle = io.StringIO()
    ens.entries_csv(matrix, handle)
    text = handle.getvalue()
    parsed = np.array(
        [[float(v) for v in line.split(",")] for line in text.strip().split("\n")]
    )
    assert np.array_equal(parsed, matrix.entries)


@pytest.mark.parametrize("name", ens.ENSEMBLES)
def test_entries_csv_writes_each_row_as_it_is_formatted(name):
    matrix = ens.gen_measurement(name, 4, 7, 2)
    writes = []

    class Handle:
        def write(self, text):
            writes.append(text)

    ens.entries_csv(matrix, Handle())
    assert len(writes) == 4
    # the bytes of the whole-string form it replaced
    lines = [",".join(repr(float(v)) for v in row) for row in matrix.entries]
    assert "".join(writes) == "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", ens.ENSEMBLES)
def test_frozen_matrix_cannot_be_written_through_its_arrays(name):
    matrix = ens.gen_measurement(name, 2, 4, 0)
    # run_trial's product `entries @ x` rounds by the layout, so it stays C order
    assert matrix.entries.flags.c_contiguous
    before = matrix.entries.copy()
    if matrix.signs is None:
        with pytest.raises(ValueError):
            matrix.entries[0, 0] = 99.0
    else:
        # a sign ensemble's entries are a fresh copy, the caller's to write
        matrix.entries[0, 0] = 99.0
        with pytest.raises(ValueError):
            matrix.signs[0, 0] = 3
    again = ens.descriptor_from_json(matrix.descriptor_json())
    assert matrix.entries.tobytes() == before.tobytes() == again.entries.tobytes()


def test_frozen_matrix_leaves_the_callers_array_writable():
    entries = np.zeros((2, 3))
    signs = np.ones((2, 3), dtype=np.int8)
    ens.MeasurementMatrix("gaussian", 2, 3, 0, scale=1.0, entries=entries)
    ens.MeasurementMatrix("iid-bernoulli", 2, 3, 0, scale=1.0, signs=signs)
    assert entries.flags.writeable and signs.flags.writeable


@pytest.mark.parametrize("name", ["partial-symmetric-bernoulli", "iid-bernoulli"])
@pytest.mark.parametrize("rows, dimension", [(1, 1), (3, 5), (37, 64), (100, 256)])
def test_sign_matrix_builds_its_floats_from_the_signs(name, rows, dimension):
    matrix = ens.gen_measurement(name, rows, dimension, 4)
    expected = matrix.signs.astype(np.float64) * matrix.scale
    entries = matrix.entries
    assert entries.flags.c_contiguous
    assert entries.tobytes() == expected.tobytes()
    # every build is a fresh array the caller may overwrite
    assert not np.shares_memory(entries, matrix.entries)
    assert not np.shares_memory(ens.dense(matrix), ens.dense(matrix))
    # the entries written into a Fortran-ordered block of a wider array, the rest untouched
    wide = np.zeros((rows, dimension + 3), order="F")
    ens.fill_dense(matrix, wide[:, :dimension])
    assert wide[:, :dimension].tobytes(order="C") == expected.tobytes()
    assert not wide[:, dimension:].any()


def test_an_array_reads_as_a_fresh_float64_copy():
    a = np.arange(6, dtype=np.float32).reshape(2, 3)
    assert ens.shape(a) == (2, 3)
    out = ens.dense(a)
    assert out.dtype == np.float64 and out.flags.c_contiguous
    assert np.array_equal(out, a) and not np.shares_memory(out, a)
    # fill_dense casts it into a Fortran-ordered buffer
    fortran = np.empty((2, 3), order="F")
    ens.fill_dense(a, fortran)
    assert fortran.flags.f_contiguous
    assert np.array_equal(fortran, a) and not np.shares_memory(fortran, a)


# every routine that takes a matrix, called with otherwise valid arguments
MATRIX_READERS = {
    "shape": ens.shape,
    "dense": ens.dense,
    "basis_pursuit": lambda m: basis_pursuit(m, np.ones(2)),
    "bpdn": lambda m: bpdn(m, np.ones(2), 0.5),
    "verify_solution": lambda m: verify_solution(m, np.zeros(3), np.zeros(2)),
    "l1_oracle_small": lambda m: l1_oracle_small(m, np.ones(2)),
    "l0_oracle_small": lambda m: l0_oracle_small(m, np.ones(2)),
    "gram_on_support": lambda m: gram_on_support(m, np.array([0, 1])),
    "delta_k_bruteforce": lambda m: delta_k_bruteforce(m, 1),
    "delta2_coherence": delta2_coherence,
    "pairwise_distortion": lambda m: pairwise_distortion(m, np.eye(3), 0.5),
}


@pytest.mark.parametrize(
    "matrix", [np.ones(3), np.ones((2, 3, 4)), np.ones((2, 3), dtype=np.int64), [[1.0] * 3] * 2],
    ids=["1-d", "3-d", "int64", "list"],
)
@pytest.mark.parametrize("reader", sorted(MATRIX_READERS))
def test_matrix_readers_take_only_a_measurement_matrix_or_a_2d_float_array(reader, matrix):
    with pytest.raises(DimensionError):
        MATRIX_READERS[reader](matrix)


@pytest.mark.parametrize("rows, dimension", [(2.0, 4), (2, 4.0), (True, 4)])
def test_measurement_constructor_checks_its_shape_as_the_generators_do(rows, dimension):
    # signs of the matching shape: only the integer check can reject these
    signs = np.ones((int(rows), int(dimension)), dtype=np.int8)
    with pytest.raises(DimensionError, match="must be an integer"):
        ens.MeasurementMatrix("iid-bernoulli", rows, dimension, 0, scale=1.0, signs=signs)


def test_measurement_takes_exactly_one_representation():
    matrix = ens.gen_measurement("iid-bernoulli", 2, 3, 1)
    descriptor = dict(
        ensemble=matrix.ensemble,
        rows=matrix.rows,
        dimension=matrix.dimension,
        seed=matrix.seed,
        scale=matrix.scale,
    )
    with pytest.raises(DimensionError, match="exactly one"):
        ens.MeasurementMatrix(**descriptor, entries=matrix.entries, signs=matrix.signs)
    with pytest.raises(DimensionError, match="exactly one"):
        ens.MeasurementMatrix(**descriptor)
    with pytest.raises(DimensionError, match="signs must be int8"):
        ens.MeasurementMatrix(**descriptor, signs=matrix.signs.astype(np.int64))
    with pytest.raises(DimensionError, match="entries shape"):
        ens.MeasurementMatrix(**descriptor, entries=matrix.entries.T.copy())


def test_generators_reject_bad_shapes():
    with pytest.raises(DimensionError):
        ens.gen_measurement("gaussian", 5, 4, 0)
    with pytest.raises(DimensionError):
        ens.gen_measurement("unknown", 2, 4, 0)
    with pytest.raises(DimensionError):
        ens.gen_symmetric_sign_matrix(1, 0, 0)
    with pytest.raises(DimensionError):
        ens.gen_symmetric_sign_matrix(0, 4, 0)
    with pytest.raises(DimensionError):
        ens.gen_symmetric_sign_matrix(5, 4, 0)
    with pytest.raises(DimensionError):
        ens.gen_measurement("partial-symmetric-bernoulli", 5, 4, 0)


@pytest.mark.parametrize("name", ens.ENSEMBLES)
def test_every_ensemble_caps_its_size_before_allocating(name):
    # one entry over the cap: rejected by the shape check, nothing is drawn
    with pytest.raises(DimensionError, match="the cap is"):
        ens.gen_measurement(name, 1, ens.MAX_ENTRIES + 1, 0)
    with pytest.raises(DimensionError, match="the cap is"):
        ens.gen_measurement(name, 2**13 + 1, 2**13 + 1, 0)


@pytest.mark.parametrize("rows, dimension", [("2", 4), (2.0, 4), (2, 4.0), (True, 4)])
def test_generators_reject_non_integer_shapes(rows, dimension):
    with pytest.raises(DimensionError, match="must be an integer"):
        ens.gen_measurement("gaussian", rows, dimension, 0)


@settings(max_examples=25)
@given(
    st.sampled_from(ens.ENSEMBLES),
    st.integers(1, 10),
    st.integers(0, 2**32),
    st.data(),
)
def test_generation_is_deterministic_and_scaled(name, dimension, seed, data):
    rows = data.draw(st.integers(1, dimension))
    a = ens.gen_measurement(name, rows, dimension, seed)
    b = ens.gen_measurement(name, rows, dimension, seed)
    assert np.array_equal(a.entries, b.entries)
    assert a.scale == rows ** -0.5
    if a.signs is not None:
        assert np.array_equal(a.entries, a.signs.astype(np.float64) * a.scale)
