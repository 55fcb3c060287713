"""Measurement matrix ensembles.

Five named ensembles, all scaled by ``n**-0.5`` where ``n`` is the number of
rows, so unit-variance entries give columns of expected unit norm:

``partial-symmetric-bernoulli``
    The first ``n`` rows of an ``N x N`` symmetric matrix of independent
    ``+-1`` entries on the upper triangle (diagonal included), mirrored
    below.  Only those rows are drawn.
``iid-bernoulli``
    Independent ``+-1`` entries throughout, no symmetry.
``gaussian``
    Independent standard normal entries.
``toeplitz``
    Constant along diagonals.  Entry values come from a gaussian source
    matrix drawn with the same seed: row 0 of the source supplies the whole
    first row (corner included), and entries ``1..n-1`` of source row 1
    supply the rest of the first column.
``circulant``
    Row ``i`` is row 0 of the matching toeplitz source row cyclically shifted
    right by ``i``.

Sign draws consume one stream output per upper-triangle entry in row-major
order (for the symmetric ensemble) or per entry in row-major order (for
``iid-bernoulli``).  The symmetric ensemble draws only its ``n`` rows: the
prefix of ``n*N - n(n-1)/2`` outputs fills their upper-triangle entries and
the ``n x n`` block is mirrored, so they equal the first ``n`` rows of the
full matrix at the same seed.  Each row is one window of that prefix,
gathered with the others in one indexing call, and the mirror is one masked
copy; no per-row loop runs.  The gaussian ensemble consumes ``n * N``
normal variates row-major.  Toeplitz and circulant draw only the prefix of
that source they read, its first ``N + n`` variates (a shorter normal draw
is a prefix of a longer one), so the three share first rows at equal seeds.
Every ensemble checks ``n * N <= MAX_ENTRIES`` before it allocates anything.

A sign ensemble's matrix is its int8 signs and its scale, one byte an entry.
Its float64 entries are never stored: each product that needs them builds a
copy (``entries``, or :func:`dense` in either memory order) and releases it,
so at 2400 x 4096 no 79 MB float copy lives beside the signs.  Every routine
that takes a matrix reads it through :func:`shape` and :func:`dense`: a
:class:`MeasurementMatrix` or a 2-D float array, nothing else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .rng import Stream

ENSEMBLES = (
    "partial-symmetric-bernoulli",
    "iid-bernoulli",
    "gaussian",
    "toeplitz",
    "circulant",
)

# 2**26 float64 entries are 512 MiB
MAX_ENTRIES = 2**26

__all__ = [
    "ENSEMBLES",
    "MAX_ENTRIES",
    "MeasurementMatrix",
    "checked_int",
    "dense",
    "descriptor_from_json",
    "entries_csv",
    "fill_dense",
    "gen_measurement",
    "gen_symmetric_sign_matrix",
    "shape",
]


@dataclass(frozen=True, eq=False, init=False)
class MeasurementMatrix:
    """An ``n x N`` measurement matrix with its generation descriptor.

    A sign ensemble's matrix is its unscaled int8 ``signs`` and its ``scale``;
    integer arithmetic on the signs stays exact, and no float copy is stored.
    Each read of ``entries`` builds a fresh float64 ``signs * scale``, for the
    product that needs it to use and then release.  A dense ensemble stores
    its float ``entries`` and has ``signs = None``.  The constructor takes
    exactly one of ``entries`` and ``signs`` and stores a read-only view of
    it, so the matrix stays the one its descriptor regenerates.
    """

    ensemble: str
    rows: int
    dimension: int
    seed: int
    scale: float
    signs: np.ndarray | None
    _stored: np.ndarray | None = field(repr=False)

    def __init__(self, ensemble, rows, dimension, seed, scale, entries=None, signs=None):
        if ensemble not in ENSEMBLES:
            raise DimensionError(f"unknown ensemble {ensemble!r}")
        rows, dimension = _check_shape(rows, dimension)
        seed = checked_int("seed", seed)
        if (entries is None) == (signs is None):
            raise DimensionError("give exactly one of entries and signs")
        if signs is None:
            name, given, dtype = "entries", entries, np.float64
        else:
            name, given, dtype = "signs", signs, np.int8
        if given.shape != (rows, dimension):
            raise DimensionError(
                f"{name} shape {given.shape} does not match ({rows}, {dimension})"
            )
        if given.dtype != dtype:
            raise DimensionError(f"{name} must be {np.dtype(dtype)}, got {given.dtype}")
        for key, value in (
            ("ensemble", ensemble), ("rows", rows), ("dimension", dimension),
            ("seed", seed), ("scale", scale), ("signs", signs), ("_stored", entries),
        ):
            if isinstance(value, np.ndarray):  # a view, so the caller's keeps its flags
                value = value.view()
                value.flags.writeable = False
            object.__setattr__(self, key, value)

    @property
    def entries(self) -> np.ndarray:
        """The scaled float matrix: built afresh for a sign ensemble, else the stored one."""
        return self._stored if self.signs is None else dense(self)

    def descriptor(self) -> dict:
        return {
            "ensemble": self.ensemble,
            "n": self.rows,
            "N": self.dimension,
            "seed": self.seed,
            "scale": self.scale,
        }

    def descriptor_json(self) -> str:
        return json.dumps(self.descriptor(), sort_keys=True)


def shape(matrix) -> tuple:
    """``(rows, columns)`` of a MeasurementMatrix or a 2-D float array, else DimensionError."""
    if isinstance(matrix, MeasurementMatrix):
        return matrix.rows, matrix.dimension
    if not isinstance(matrix, np.ndarray):
        got = type(matrix).__name__
    elif matrix.ndim == 2 and matrix.dtype.kind == "f":
        return matrix.shape
    else:
        got = f"a {matrix.dtype} array of shape {matrix.shape}"
    raise DimensionError(f"matrix must be a MeasurementMatrix or a 2-d float array, got {got}")


def dense(matrix) -> np.ndarray:
    """A fresh C-ordered float64 copy, the caller's to overwrite."""
    out = np.empty(shape(matrix))
    fill_dense(matrix, out)
    return out


def fill_dense(matrix, out: np.ndarray) -> None:
    """Write the float64 entries of ``matrix`` into ``out``, a float64 array or block of its shape.

    A sign ensemble's entries are its signs cast into ``out`` and then scaled
    there, so a block of a larger array takes them with no copy besides.
    """
    if not isinstance(matrix, MeasurementMatrix):
        out[...] = matrix
    elif matrix.signs is None:
        out[...] = matrix.entries
    else:
        out[...] = matrix.signs
        out *= matrix.scale


def gen_symmetric_sign_matrix(rows: int, dimension: int, seed: int) -> np.ndarray:
    """First ``rows`` rows of the symmetric sign matrix for ``seed``, as int8.

    The full matrix fills its upper triangle (diagonal included) in
    row-major order, one stream output each, and mirrors it below.  Its
    first ``rows`` rows read only the prefix of ``rows*N - rows*(rows-1)/2``
    outputs that fills their upper-triangle entries; the entries left of the
    diagonal mirror the ``rows x rows`` block.

    Row ``i``'s upper part is the ``N - i`` outputs from ``i*N -
    i*(i-1)/2`` on, so row ``i`` is gathered whole as the window of ``N``
    outputs that starts ``i`` places earlier; its first ``i`` entries are
    then overwritten by the mirror.
    """
    rows, dimension = _check_shape(rows, dimension)
    draws = Stream(seed).signs(rows * dimension - rows * (rows - 1) // 2)
    # windows[s] is the N outputs from s on, a view of draws
    windows = np.lib.stride_tricks.sliding_window_view(draws, dimension)
    i = np.arange(rows)
    signs = windows[i * (2 * dimension - 1 - i) // 2]
    block = signs[:, :rows]
    # the strictly lower mask, as windows of rows-1 Trues then rows Falses:
    # row r is the window that starts rows-1-r places in
    line = np.arange(2 * rows - 1) < rows - 1
    below = np.ndarray((rows, rows), bool, line, rows - 1, (-1, 1))
    np.copyto(block, block.T, where=below)
    return signs


def gen_measurement(ensemble: str, rows: int, dimension: int, seed: int) -> MeasurementMatrix:
    """Draw the named ensemble's ``rows x dimension`` measurement matrix."""
    if ensemble not in ENSEMBLES:
        raise DimensionError(f"unknown ensemble {ensemble!r}")
    rows, dimension = _check_shape(rows, dimension)
    stream = Stream(seed)
    scale = rows ** -0.5
    signs = None
    if ensemble == "partial-symmetric-bernoulli":
        signs = gen_symmetric_sign_matrix(rows, dimension, seed)
    elif ensemble == "iid-bernoulli":
        signs = stream.signs(rows * dimension).reshape(rows, dimension)
    if signs is not None:
        return MeasurementMatrix(
            ensemble=ensemble,
            rows=rows,
            dimension=dimension,
            seed=seed,
            scale=scale,
            signs=signs,
        )
    if ensemble == "gaussian":
        vals = stream.normals(rows * dimension).reshape(rows, dimension)
    else:
        # `line` is the first column's entries rows-1..1, then the first row;
        # row i is its window that starts i places before the first row
        source = stream.normals(dimension + rows)
        first_row = source[:dimension]
        if ensemble == "toeplitz":
            below = source[dimension + 1 : dimension + rows]  # source row 1, entries 1..rows-1
        else:
            # entry (i, j) of a circulant is first_row[(j - i) % N]
            below = first_row[-np.arange(1, rows) % dimension]
        line = np.concatenate((below[::-1], first_row))
        vals = np.lib.stride_tricks.sliding_window_view(line, dimension)[::-1]
    return MeasurementMatrix(
        ensemble=ensemble,
        rows=rows,
        dimension=dimension,
        seed=seed,
        scale=scale,
        entries=vals * scale,
    )


def descriptor_from_json(text: str) -> MeasurementMatrix:
    """Regenerate a measurement matrix from its JSON descriptor.

    The descriptor must carry exactly the keys ``ensemble, n, N, seed,
    scale``; the scale is recomputed and checked against the stored value.
    """
    data = json.loads(text)
    if not isinstance(data, dict):
        raise DimensionError("descriptor must be a JSON object")
    expected = {"ensemble", "n", "N", "seed", "scale"}
    if set(data) != expected:
        raise DimensionError(
            f"descriptor keys {sorted(data)} do not match {sorted(expected)}"
        )
    checked_int("seed", data["seed"])
    matrix = gen_measurement(data["ensemble"], data["n"], data["N"], data["seed"])
    if matrix.scale != data["scale"]:
        raise DimensionError(
            f"descriptor scale {data['scale']!r} does not match recomputed {matrix.scale!r}"
        )
    return matrix


def entries_csv(matrix: MeasurementMatrix, handle) -> None:
    """Write the entries to text ``handle`` as CSV, one row per line as it is
    formatted, values via repr for exact round-trip."""
    for row in matrix.entries:
        handle.write(",".join(map(repr, row.tolist())) + "\n")


def checked_int(name: str, value) -> int:
    """``value`` as the Python int it holds if it is an integer (numpy's too), never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DimensionError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_shape(rows: int, dimension: int) -> tuple:
    rows = checked_int("rows", rows)
    dimension = checked_int("dimension", dimension)
    if not 1 <= rows <= dimension:
        raise DimensionError(
            f"need 1 <= rows <= dimension, got {rows}, {dimension}"
        )
    if rows * dimension > MAX_ENTRIES:
        raise DimensionError(
            f"{rows} x {dimension} is {rows * dimension} entries; the cap is {MAX_ENTRIES}"
        )
    return rows, dimension
