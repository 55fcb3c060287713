"""Grayscale PGM images and sparse image recovery.

The parser accepts the two portable graymap forms (ASCII ``P2`` and raw
``P5``) strictly: every malformed input raises PgmParseError carrying the
byte offset of the offending content, and no raster larger than the bytes
after its header is allocated.  It tokenizes with one regular expression,
read lazily and never past the maxval of a ``P5`` file, so it never scans a
raw raster.  The writer emits ``P2`` only, in one canonical form: maxval is
always 255, each pixel row is one line with single spaces, and the 1x1 zero
image is exactly ``P2\\n1 1\\n255\\n0\\n``.  Levels from files with a smaller
maxval are kept as stored, not resampled.

Recovery flattens an image row-major, measures it with a chosen ensemble,
and reconstructs by equality-constrained l1 minimization with the solver's
default iteration cap.  It solves at the scale of the pixels: for ``x / 16``
from ``y / 16``, then multiplies the estimate by 16 (``_PIXEL_SCALE``).  The
ADMM penalty is fixed at 1, which suits entries of order 1; pixels run to
255, and at that scale a 2400x4096 recovery of the ``sparse64`` fixture took
452 iterations where ``x / 16`` takes 185.  Multiplying or dividing by a
power of two only moves the exponent of a float, so both steps are exact
(short of underflow and overflow, which no measurement of pixels reaches):
the estimate is bitwise 16 times the solver's answer for ``y / 16``.  The
solver's stopping tolerances, being absolute, now apply to ``x / 16``.
Error metrics are computed on the unclamped real-valued estimate; only the
output image rounds and clamps to byte range.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .ensembles import gen_measurement
from .errors import DimensionError, PgmParseError
from .experiments import mse, rel_err, snr_db
from .solver import basis_pursuit

__all__ = [
    "GrayImage",
    "ImageRecovery",
    "fixture_image",
    "image_recover",
    "parse_pgm",
    "pgm_bytes",
    "read_pgm",
    "write_pgm",
]


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Byte-valued grayscale raster, shape (height, width)."""

    pixels: np.ndarray

    def __post_init__(self):
        p = self.pixels
        if p.ndim != 2 or p.size == 0:
            raise DimensionError(f"pixels must be a nonempty 2-d array, got {p.shape}")
        if p.dtype != np.uint8:
            raise DimensionError(f"pixels must be uint8, got {p.dtype}")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GrayImage):
            return NotImplemented
        return np.array_equal(self.pixels, other.pixels)

    def __hash__(self):
        return hash((self.pixels.shape, self.pixels.tobytes()))


# a comment, which runs to the end of its line, or a token, which runs to
# the next whitespace byte or ``#``
_TOKENS = re.compile(rb"#[^\n]*|[^ \t\r\n\x0b\x0c#]+")


def _integer(token: re.Match, label: str, low: int, high: int) -> int:
    text = token[0]
    if not text.isdigit():
        raise PgmParseError(f"{label} is not a decimal integer", token.start())
    value = int(text)
    if not low <= value <= high:
        raise PgmParseError(f"{label} {value} outside [{low}, {high}]", token.start())
    return value


def parse_pgm(data: bytes) -> GrayImage:
    """Parse PGM bytes strictly; errors carry the byte offset."""
    if not isinstance(data, (bytes, bytearray)):
        raise PgmParseError("input is not bytes", 0)
    data = bytes(data)
    # lazy, so nothing past the last token taken is read: the bytes of a P5
    # raster stay data even where they look like separators or comments
    tokens = (t for t in _TOKENS.finditer(data) if t[0][:1] != b"#")

    def header() -> re.Match:
        token = next(tokens, None)
        if token is None:
            raise PgmParseError("unexpected end of header", len(data))
        return token

    magic = header()[0]
    if magic not in (b"P2", b"P5"):
        raise PgmParseError(f"unknown magic {magic!r}", 0)
    width = _integer(header(), "width", 1, 1 << 20)
    height = _integer(header(), "height", 1, 1 << 20)
    token = header()
    maxval = _integer(token, "maxval", 1, 1 << 16)
    pos = token.end()
    if maxval > 255:
        raise PgmParseError(f"maxval {maxval} above 255 is unsupported", pos)
    count = width * height
    if magic == b"P5":
        if pos >= len(data):
            raise PgmParseError("missing separator after maxval", pos)
        if data[pos] not in b" \t\r\n\x0b\x0c":
            raise PgmParseError("maxval must be followed by one whitespace byte", pos)
        pos += 1
        body = data[pos:]
        if len(body) < count:
            raise PgmParseError(f"raster needs {count} bytes, found {len(body)}", len(data))
        if len(body) > count:
            raise PgmParseError("trailing bytes after raster", pos + count)
        flat = np.frombuffer(body, dtype=np.uint8)
        if int(flat.max()) > maxval:
            bad = int(np.argmax(flat > maxval))
            raise PgmParseError(f"pixel {int(flat[bad])} above maxval {maxval}", pos + bad)
        return GrayImage(pixels=flat.reshape(height, width).copy())
    # each pixel takes at least one digit, so no raster outgrows the file
    left = len(data) - pos
    if left < count:
        raise PgmParseError(f"raster needs at least {count} bytes, found {left}", len(data))
    values = []
    for token in itertools.islice(tokens, count):
        values.append(_integer(token, f"pixel {len(values)}", 0, maxval))
    if len(values) < count:
        # a token runs to a separator or to the end of the file
        cut = token.end() == len(data)
        raise PgmParseError("expected whitespace" if cut else "unexpected end of header", len(data))
    trailing = next(tokens, None)
    if trailing is not None:
        raise PgmParseError("trailing content after pixels", trailing.start())
    return GrayImage(pixels=np.array(values, dtype=np.uint8).reshape(height, width))


def read_pgm(path) -> GrayImage:
    return parse_pgm(Path(path).read_bytes())


def pgm_bytes(image: GrayImage) -> bytes:
    """Canonical ``P2`` serialization."""
    rows = "\n".join(" ".join(str(int(v)) for v in row) for row in image.pixels)
    return f"P2\n{image.width} {image.height}\n255\n{rows}\n".encode()


def write_pgm(image: GrayImage, path) -> None:
    Path(path).write_bytes(pgm_bytes(image))


@dataclass(frozen=True, eq=False)
class ImageRecovery:
    """Reconstruction output: real-valued estimate plus display image.

    ``mse`` and ``rel_err`` compare the unclamped estimate against the
    source pixels; ``image`` is the estimate rounded and clamped to bytes.
    ``snr_db`` is the error in decibels, or the exact marker when the
    estimate matches the source bit for bit.
    """

    estimate: np.ndarray
    image: GrayImage
    mse: float
    rel_err: float
    iterations: int
    status: str

    @property
    def snr_db(self):
        return snr_db(self.rel_err)


# image_recover solves for the pixels divided by this power of two (see the
# module docstring)
_PIXEL_SCALE = 16


def image_recover(
    image: GrayImage,
    rows: int,
    seed: int,
    ensemble: str = "partial-symmetric-bernoulli",
) -> ImageRecovery:
    """Measure a flattened image with ``rows`` projections and reconstruct.

    The estimate is ``_PIXEL_SCALE`` times the basis-pursuit solution for
    ``y / _PIXEL_SCALE``, and both scalings are exact.
    """
    source = image.pixels.astype(np.float64).reshape(-1)
    matrix = gen_measurement(ensemble, rows, source.size, seed)
    y = matrix.entries @ source
    result = basis_pursuit(matrix, y / _PIXEL_SCALE)
    estimate = result.solution * _PIXEL_SCALE
    shaped = estimate.reshape(image.pixels.shape)
    clamped = np.clip(np.rint(shaped), 0, 255).astype(np.uint8)
    return ImageRecovery(
        estimate=shaped,
        image=GrayImage(pixels=clamped),
        mse=mse(shaped, image.pixels.astype(np.float64)),
        rel_err=rel_err(estimate, source),
        iterations=result.iterations,
        status=result.status,
    )


def fixture_image(name: str) -> GrayImage:
    """Packaged test image: ``sparse64`` (64x64, 739 nonzeros, seed 64) or
    ``sparse32`` (32x32, 185 nonzeros, seed 32)."""
    if name not in ("sparse64", "sparse32"):
        raise DimensionError(f"unknown fixture {name!r}")
    data = resources.files("symcs").joinpath("data", f"{name}.pgm").read_bytes()
    return parse_pgm(data)
