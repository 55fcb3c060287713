"""PGM parsing strictness, canonical serialization, and image recovery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from importlib import resources

from symcs.ensembles import gen_measurement
from symcs.errors import DimensionError, PgmParseError
from symcs.experiments import EXACT_SNR, mse, rel_err
from symcs.imageio import (
    GrayImage,
    ImageRecovery,
    fixture_image,
    image_recover,
    parse_pgm,
    pgm_bytes,
    read_pgm,
    write_pgm,
)
from symcs.solver import basis_pursuit
from synthetic_images import synthetic_sparse_image


def gray(rows):
    return GrayImage(pixels=np.array(rows, dtype=np.uint8))


def test_one_by_one_zero_is_byte_exact():
    assert pgm_bytes(gray([[0]])) == b"P2\n1 1\n255\n0\n"


def test_ascii_roundtrip():
    img = gray([[0, 17, 255], [4, 5, 6]])
    data = pgm_bytes(img)
    assert data.startswith(b"P2\n3 2\n255\n")
    assert parse_pgm(data) == img


def p5_bytes(img):
    """Raw ``P5`` form of an image; the reader takes it, the writer emits P2 only."""
    return f"P5\n{img.width} {img.height}\n255\n".encode() + img.pixels.tobytes()


def test_raw_roundtrip():
    img = gray([[0, 17, 255], [4, 5, 6]])
    data = b"P5\n3 2\n255\n" + bytes([0, 17, 255, 4, 5, 6])
    assert parse_pgm(data) == img


def test_header_comments_are_skipped():
    img = parse_pgm(b"P2\n# hi\n2 1\n# another\n255\n0 7\n")
    assert img.pixels.tolist() == [[0, 7]]


def test_raw_raster_bytes_that_look_like_separators_stay_data():
    img = parse_pgm(b"P5\n3 1\n255\n#\n ")
    assert img.pixels.tolist() == [[35, 10, 32]]


def test_smaller_maxval_levels_kept_as_stored():
    img = parse_pgm(b"P2\n2 1\n10\n0 10\n")
    assert img.pixels.tolist() == [[0, 10]]


PARSE_ERRORS = [
    (b"P3\n1 1\n255\n0\n", "unknown magic", 0),
    (b"P2\nx 1\n255\n0\n", "width is not a decimal integer", 3),
    (b"P2\n0 1\n255\n0\n", "width 0 outside", 3),
    (b"P2\n1 1\n70000\n0\n", "maxval 70000 outside", 7),
    (b"P2\n1 1\n65535\n0\n", "above 255 is unsupported", 12),
    (b"P5\n1 1\n255", "missing separator after maxval", 10),
    (b"P5\n1 1\n255#c\n\x00", "maxval must be followed by one whitespace byte", 10),
    (b"P5\n1 1\n255\n\nA", "trailing bytes after raster", 12),
    (b"P5\n2 2\n255\nABC", "raster needs 4 bytes, found 3", 14),
    (b"P5\n1 2\n10\n" + bytes([3, 200]), "pixel 200 above maxval 10", 11),
    (b"P2\n1 1\n10\n11\n", "pixel 0 11 outside", 10),
    (b"P2\n1 1\n255\n0\n7\n", "trailing content after pixels", 13),
    (b"P2\n2 1\n255\n00", "expected whitespace", 13),
    (b"P2\n2 1\n255\n0\n", "unexpected end", 13),
    # a pixel missing after a comment: the last token does not end the file
    (b"P2\n2 1\n255\n0 #c\n", "unexpected end", 16),
    (b"P2\n2 1\n255\n0#c", "unexpected end", 14),
    # a P2 raster is sized against the bytes left before it is allocated
    (b"P2\n1048576 1048576\n255\n0\n",
     "raster needs at least 1099511627776 bytes, found 3", 25),
    (b"P2\n5 1\n255\n0 1", "raster needs at least 5 bytes, found 4", 14),
]


@pytest.mark.parametrize("data,fragment,offset", PARSE_ERRORS)
def test_parse_errors_carry_byte_offsets(data, fragment, offset):
    with pytest.raises(PgmParseError) as err:
        parse_pgm(data)
    assert fragment in str(err.value)
    assert err.value.offset == offset


def test_parse_rejects_non_bytes():
    with pytest.raises(PgmParseError) as err:
        parse_pgm("P2\n1 1\n255\n0\n")
    assert err.value.offset == 0


def test_gray_image_validation_and_identity():
    with pytest.raises(DimensionError):
        GrayImage(pixels=np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        GrayImage(pixels=np.zeros(4, dtype=np.uint8))
    with pytest.raises(DimensionError):
        GrayImage(pixels=np.zeros((0, 3), dtype=np.uint8))
    a = gray([[1, 2]])
    b = gray([[1, 2]])
    c = gray([[1, 3]])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert not (a == 5)
    assert a.width == 2 and a.height == 1


def test_file_roundtrip(tmp_path):
    img = gray([[9, 0], [255, 128]])
    ascii_path = tmp_path / "a.pgm"
    raw_path = tmp_path / "b.pgm"
    write_pgm(img, ascii_path)
    raw_path.write_bytes(p5_bytes(img))
    assert ascii_path.read_bytes() == pgm_bytes(img)
    assert read_pgm(ascii_path) == img
    assert read_pgm(raw_path) == img


@given(
    pixels=hnp.arrays(
        dtype=np.uint8,
        shape=st.tuples(
            st.integers(min_value=1, max_value=6),
            st.integers(min_value=1, max_value=6),
        ),
    ),
)
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(pixels):
    img = GrayImage(pixels=pixels)
    assert parse_pgm(pgm_bytes(img)) == img
    assert parse_pgm(p5_bytes(img)) == img


# a run of whitespace bytes and ``#...\n`` comments, which separates tokens
separator_runs = st.lists(
    st.one_of(
        st.binary(min_size=1, max_size=3).map(
            lambda b: bytes(b" \t\r\n\x0b\x0c"[v % 6] for v in b)
        ),
        st.binary(max_size=6).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n"),
    ),
    min_size=1,
    max_size=3,
).map(b"".join)


@given(
    pixels=hnp.arrays(
        dtype=np.uint8,
        shape=st.tuples(
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=1, max_value=4),
        ),
    ),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_tokens_rejoined_with_any_separators_parse_the_same(pixels, data):
    img = GrayImage(pixels=pixels)
    tokens = pgm_bytes(img).split()
    ends = [data.draw(st.just(b"") | separator_runs) for _ in range(2)]
    joined = ends[0] + tokens[0]
    for token in tokens[1:]:
        joined += data.draw(separator_runs) + token
    assert parse_pgm(joined + ends[1]) == img


def test_synthetic_sparse_image_contract():
    img = synthetic_sparse_image(8, 5, 7, 3)
    assert img.pixels.shape == (5, 8)
    assert np.count_nonzero(img.pixels) == 7
    nz = img.pixels[img.pixels > 0]
    assert nz.min() >= 1 and nz.max() <= 255
    again = synthetic_sparse_image(8, 5, 7, 3)
    assert img == again
    assert img != synthetic_sparse_image(8, 5, 7, 4)
    with pytest.raises(DimensionError):
        synthetic_sparse_image(0, 5, 1, 0)
    with pytest.raises(ValueError):
        synthetic_sparse_image(2, 2, 5, 0)


def test_fixtures_pin_their_generation():
    for name, side, nonzeros, seed in (
        ("sparse64", 64, 739, 64),
        ("sparse32", 32, 185, 32),
    ):
        img = fixture_image(name)
        assert img.pixels.shape == (side, side)
        assert np.count_nonzero(img.pixels) == nonzeros
        assert img == synthetic_sparse_image(side, side, nonzeros, seed)
        data = resources.files("symcs").joinpath("data", f"{name}.pgm").read_bytes()
        assert data == pgm_bytes(img)
    with pytest.raises(DimensionError):
        fixture_image("sparse128")


def test_tiny_image_recovery_is_exact():
    img = synthetic_sparse_image(8, 8, 3, 5)
    rec = image_recover(img, 24, 9)
    assert rec.status == "converged"
    assert rec.rel_err <= 1e-6
    assert rec.image == img
    assert rec.mse == mse(rec.estimate, img.pixels.astype(np.float64))
    assert rec.rel_err == rel_err(
        rec.estimate.reshape(-1), img.pixels.astype(np.float64).reshape(-1)
    )
    assert isinstance(rec.snr_db, float)


def test_image_recovery_solves_at_the_scale_of_its_pixels():
    # ADMM's penalty is fixed at 1, and pixels run to 255: image_recover
    # solves for x / 16 and multiplies back, both exact for a power of two
    img = fixture_image("sparse32")
    rec = image_recover(img, 600, 1)
    matrix = gen_measurement("partial-symmetric-bernoulli", 600, 1024, 1)
    y = matrix.entries @ img.pixels.astype(np.float64).reshape(-1)
    expected = 16 * basis_pursuit(matrix, y / 16).solution
    assert rec.estimate.reshape(-1).tobytes() == expected.tobytes()
    assert rec.status == "converged" and rec.image == img
    # solved at the scale of the pixels, this recovery took 432 iterations
    assert rec.iterations == 159


def test_all_zero_image_recovers_exactly():
    img = gray([[0] * 8] * 8)
    rec = image_recover(img, 16, 1)
    assert rec.status == "converged" and rec.image == img
    assert rec.rel_err == 0.0 and rec.snr_db == EXACT_SNR


def test_image_recovery_with_other_ensemble():
    img = synthetic_sparse_image(8, 8, 3, 5)
    rec = image_recover(img, 28, 9, ensemble="gaussian")
    assert rec.rel_err <= 1e-5


def test_recovery_exact_marker():
    img = gray([[1, 0]])
    rec = ImageRecovery(
        estimate=img.pixels.astype(np.float64),
        image=img,
        mse=0.0,
        rel_err=0.0,
        iterations=1,
        status="converged",
    )
    assert rec.snr_db == EXACT_SNR
