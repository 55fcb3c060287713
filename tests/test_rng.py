import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcs import rng
from symcs.rng import GAMMA, MASK64, Stream, derive_seed, mix64, rotl64

# Sequential splitmix64 with the standard increment produces output i as
# mix64(seed + i*GAMMA), which is exactly the counter construction here, so
# the published reference sequences pin the whole stream.
SPLITMIX_REF = {
    0: [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ],
    1234567: [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ],
}

DERIVE_VECTORS = [
    (0, [0], 5197578548964807871),
    (1, [0], 8485599785148389932),
    (0, [1], 4922461756044938104),
    (0, [0, 1], 12168968868368068840),
    (0, [1, 0], 6252869480131249692),
    (7, [3, 1, 4], 17861111730272243364),
]


def test_raw_matches_splitmix_reference():
    for seed, expected in SPLITMIX_REF.items():
        got = [int(v) for v in Stream(seed).raw(len(expected))]
        assert got == expected


def test_mix64_scalar_agrees_with_stream():
    seed = 987
    stream = Stream(seed)
    block = stream.raw(6)
    direct = [mix64((seed + (i + 1) * GAMMA) & MASK64) for i in range(6)]
    assert [int(v) for v in block] == direct


def reference_draws(seed, skip, count):
    """raw, signs and normals for outputs skip+1..skip+count, from scalar mix64."""
    pairs = (count + 1) // 2
    raw = np.array(
        [mix64((seed + i * GAMMA) & MASK64) for i in range(skip + 1, skip + 2 * pairs + 1)],
        dtype=np.uint64,
    )
    signs = np.where(raw < np.uint64(2**63), 1, -1).astype(np.int8)
    u = raw >> np.uint64(11)
    a = (u[0::2].astype(np.float64) + 1.0) * 2.0**-53
    b = u[1::2].astype(np.float64) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(a))
    angle = (2.0 * math.pi) * b
    normals = np.empty(2 * pairs)
    normals[0::2] = radius * np.cos(angle)
    normals[1::2] = radius * np.sin(angle)
    return raw[:count], signs[:count], normals[:count]


BLOCK, PIECE = rng._BLOCK, len(rng._STEPS)


@pytest.mark.parametrize("skip", [0, 3])
@pytest.mark.parametrize(
    "count", [PIECE - 1, PIECE + 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]
)
def test_block_boundary_draws_equal_the_scalar_reference(count, skip):
    # block and step-table boundaries, from position 0 and mid-stream after
    # raw(3), so blocks start off the table's alignment with the counter
    want = reference_draws(2024, skip, count)
    for kind, expected in zip(("raw", "signs", "normals"), want):
        stream = Stream(2024)
        stream.raw(skip)
        got = getattr(stream, kind)(count)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes(), kind
        assert stream.position == skip + (count + count % 2 if kind == "normals" else count)


def test_sign_draw_holds_its_output_and_two_blocks():
    # 4 MiB of int8 signs; a count-sized uint64 array would be 32 MiB
    tracemalloc.start()
    try:
        signs = Stream(1).signs(2**22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert signs.nbytes == 2**22
    assert peak < 2**22 + 4 * 8 * BLOCK


def test_frozen_uniforms_signs_normals():
    # uniforms by the module doc's top-53-bit mapping; normals build on it
    uniforms = (Stream(0).raw(3) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    assert uniforms.tolist() == [
        0.8833108082136426,
        0.43152799704850997,
        0.026433771592597743,
    ]
    assert Stream(0).signs(12).tolist() == [-1, 1, 1, -1, 1, 1, 1, -1, 1, -1, 1, -1]
    assert Stream(0).normals(4).tolist() == [
        -0.452757740217458,
        0.20776603893419193,
        2.650605812079669,
        -0.4904228253986477,
    ]


def test_frozen_bounded_and_subset():
    s = Stream(42)
    assert [s.below(10) for _ in range(6)] == [3, 1, 8, 4, 0, 2]
    assert Stream(42).sample_without_replacement(20, 5).tolist() == [2, 6, 8, 13, 16]


# (seed, bound) -> (value, position) after each of six calls.  Bound
# 2**63 + 1 accepts only draws below 2**63 + 1 and 3 * 2**62 three in four,
# so both walk the rejection branch; 2**64 accepts every draw.  Computed with
# the numpy-pipeline ``below`` that drew ``raw(1)`` per step.
BELOW_REJECTION_VECTORS = {
    (42, 2**63 + 1): [
        (2949826092126892291, 2), (5139283748462763858, 3),
        (6349198060258255764, 4), (701532786141963250, 5),
        (4028864712777624925, 7), (6270620877612482005, 9),
    ],
    (42, 3 * 2**62): [
        (13679457532755275413, 1), (2949826092126892291, 2),
        (5139283748462763858, 3), (6349198060258255764, 4),
        (701532786141963250, 5), (4028864712777624925, 7),
    ],
    (2024, 2**64): [
        (11487996472437173461, 1), (1793612131670815442, 2),
        (5507758030568793471, 3), (2143266886397966425, 4),
        (15321458573535757178, 5), (10190374291703683819, 6),
    ],
}


@pytest.mark.parametrize("seed, bound", sorted(BELOW_REJECTION_VECTORS))
def test_frozen_below_rejection_path(seed, bound):
    s = Stream(seed)
    got = []
    for _ in range(6):
        value = s.below(bound)
        got.append((value, s.position))
    assert got == BELOW_REJECTION_VECTORS[seed, bound]
    # the stream carries on from the last draw, rejected ones included
    position = s.position
    assert int(s.raw(1)[0]) == mix64(seed + (position + 1) * GAMMA)


def test_derive_seed_frozen_vectors():
    for master, labels, expected in DERIVE_VECTORS:
        assert derive_seed(master, labels) == expected


def test_derive_seed_rejects_non_integers():
    with pytest.raises(TypeError):
        derive_seed(0.5, [1])
    with pytest.raises(TypeError):
        derive_seed(0, [1.5])


def test_rotl64_known_values():
    assert rotl64(1, 1) == 2
    assert rotl64(1 << 63, 1) == 1
    assert rotl64(0x0123456789ABCDEF, 0) == 0x0123456789ABCDEF
    assert rotl64(0x0123456789ABCDEF, 64) == 0x0123456789ABCDEF


def test_signs_match_top_bit_of_raw():
    raw = Stream(9).raw(64)
    signs = Stream(9).signs(64)
    expected = np.where(raw >> np.uint64(63) == 0, 1, -1)
    assert np.array_equal(signs, expected.astype(np.int8))


def test_normals_pair_formula():
    raw = Stream(3).raw(2)
    a = (float(int(raw[0]) >> 11) + 1.0) * 2.0**-53
    b = float(int(raw[1]) >> 11) * 2.0**-53
    r = math.sqrt(-2.0 * math.log(a))
    pair = Stream(3).normals(2)
    assert pair[0] == r * np.cos(2.0 * math.pi * b)
    assert pair[1] == r * np.sin(2.0 * math.pi * b)


def test_odd_normal_count_consumes_full_pair():
    a, b = Stream(5), Stream(5)
    first = a.normals(3)
    second = b.normals(4)
    assert a.position == b.position == 4
    assert np.array_equal(first, second[:3])
    # pairs are consecutive outputs, so a shorter draw is a bitwise prefix of a longer one
    longer = Stream(5).normals(11)
    for count in range(11):
        assert Stream(5).normals(count).tobytes() == longer[:count].tobytes()


@given(st.integers(0, MASK64), st.lists(st.integers(0, 2**20), max_size=4))
def test_derive_seed_range_and_determinism(master, labels):
    seed = derive_seed(master, labels)
    assert 0 <= seed <= MASK64
    assert derive_seed(master, labels) == seed


@given(st.integers(0, MASK64))
def test_derive_seed_separates_label_order(master):
    assert derive_seed(master, [1, 2]) != derive_seed(master, [2, 1])
    assert derive_seed(master, [0]) != derive_seed(master, [0, 0])


@given(st.integers(0, MASK64), st.integers(0, 40), st.integers(1, 40))
def test_block_draws_equal_split_draws(seed, first, second):
    whole = Stream(seed).raw(first + second)
    s = Stream(seed)
    parts = np.concatenate([s.raw(first), s.raw(second)])
    assert np.array_equal(whole, parts)


@settings(max_examples=30)
@given(st.integers(0, MASK64), st.integers(1, 64), st.data())
def test_subset_sample_properties(seed, population, data):
    count = data.draw(st.integers(0, population))
    out = Stream(seed).sample_without_replacement(population, count)
    assert out.size == count
    assert len(set(out.tolist())) == count
    assert np.all(np.diff(out) > 0) if count > 1 else True
    assert np.all((out >= 0) & (out < population))


def test_below_covers_small_range_uniformly_enough():
    s = Stream(17)
    counts = np.zeros(4, dtype=int)
    for _ in range(2000):
        counts[s.below(4)] += 1
    assert counts.min() > 400


def test_below_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        Stream(0).below(0)


@pytest.mark.parametrize("bound", [-1, 2**64 + 1, 2**64 + 5, 2**70])
def test_below_rejects_out_of_range_bound_without_drawing(bound, monkeypatch):
    # above 2**64 no draw could be accepted, so a draw would loop for ever:
    # any draw fails the test instead
    s = Stream(0)
    s.raw(3)

    def no_draw(*args):
        raise AssertionError("below drew for an out-of-range bound")

    monkeypatch.setattr(rng, "mix64", no_draw)
    monkeypatch.setattr(Stream, "raw", no_draw)
    with pytest.raises(ValueError, match="bound"):
        s.below(bound)
    assert s.position == 3


def test_raw_rejects_negative_count():
    with pytest.raises(ValueError):
        Stream(0).raw(-1)


@pytest.mark.parametrize("kind", [int, np.int64, np.uint64])
def test_numpy_integer_arguments_draw_like_python_ints(kind):
    # int % np.int64 and np.uint64 - int once overflowed inside the draws;
    # a quarter of the draws below 2**62 + 1 are rejected
    want, got = Stream(3), Stream(3)
    for bound in (10, 2**62 + 1):
        assert got.below(kind(bound)) == want.below(bound)
    assert np.array_equal(got.sample_without_replacement(kind(20), kind(3)),
                          want.sample_without_replacement(20, 3))
    assert got.position == want.position
