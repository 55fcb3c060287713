"""Sparse test images, and the generator of the packaged PGM fixtures.

``sparse64`` is ``synthetic_sparse_image(64, 64, 739, 64)`` and ``sparse32``
is ``synthetic_sparse_image(32, 32, 185, 32)``; ``test_imageio.py`` checks
the committed files against both.
"""

import numpy as np

from symcs.errors import DimensionError
from symcs.imageio import GrayImage
from symcs.rng import Stream


def synthetic_sparse_image(width: int, height: int, sparsity: int, seed: int) -> GrayImage:
    """Image that is exactly ``sparsity``-sparse: random pixels in 1..255.

    The support is a uniform subset of flat indices; each chosen pixel then
    takes an independent uniform level in 1..255, in support order.
    """
    if width < 1 or height < 1:
        raise DimensionError(f"image must be nonempty, got {width}x{height}")
    stream = Stream(seed)
    support = stream.sample_without_replacement(width * height, sparsity)
    flat = np.zeros(width * height, dtype=np.uint8)
    for idx in support:
        flat[idx] = 1 + stream.below(255)
    return GrayImage(pixels=flat.reshape(height, width))
