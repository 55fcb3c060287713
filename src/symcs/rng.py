"""Deterministic counter-based random streams.

Every random draw in the package comes from one fixed 64-bit construction, so
any result is reproducible from integer seeds alone and identical streams can
be produced in any language:

* stream output ``i`` (1-based) is ``mix64((seed + i * GAMMA) mod 2**64)``
  with ``GAMMA = 0x9E3779B97F4A7C15``; outputs are a pure function of
  ``(seed, i)``, so blocks may be generated in bulk
* ``mix64`` is the splitmix-style finalizer
  ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
  z *= 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2**64)
* a uniform double in ``[0, 1)`` takes the top 53 bits: ``(u >> 11) * 2**-53``
  (the normal variates below build on it)
* a sign is ``+1`` when the top bit of the draw is 0, else ``-1``
* normal variates apply the Box-Muller transform to consecutive output pairs
  ``(u, u')``: with ``a = ((u >> 11) + 1) * 2**-53`` in ``(0, 1]`` and
  ``b = (u' >> 11) * 2**-53``, the pair is ``r*cos(2*pi*b), r*sin(2*pi*b)``
  where ``r = sqrt(-2*ln(a))``; a request for an odd count consumes a full
  pair and discards the trailing variate
* bounded integers, for ``1 <= bound <= 2**64``, use unbiased rejection:
  draws are taken in stream order and accepted when
  ``u < 2**64 - (2**64 mod bound)``; the value is ``u mod bound``
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB

__all__ = ["GAMMA", "MASK64", "Stream", "derive_seed", "mix64", "rotl64"]


def mix64(value: int) -> int:
    """Splitmix-style finalizer on a 64-bit integer (exact int arithmetic)."""
    z = value & MASK64
    z = ((z ^ (z >> 30)) * _MULT1) & MASK64
    z = ((z ^ (z >> 27)) * _MULT2) & MASK64
    return z ^ (z >> 31)


def rotl64(value: int, count: int) -> int:
    """Rotate a 64-bit integer left by ``count`` bits."""
    v = value & MASK64
    count &= 63
    return ((v << count) | (v >> (64 - count))) & MASK64


def derive_seed(master: int, labels: Sequence[int]) -> int:
    """Derive a child seed from ``master`` by absorbing integer labels in order.

    The rule is fixed bit-exactly so independent implementations agree:
    ``state = mix64(master)``, then for each label
    ``state = mix64(rotl64(state, 23) ^ mix64((label mod 2**64) ^ GAMMA))``.
    Distinct label sequences give avalanche-separated seeds; the absorption is
    order sensitive, so ``[1, 2]`` and ``[2, 1]`` differ.

    Frozen test vectors (master, labels -> seed):

    ====== ========= ====================
    0      [0]       5197578548964807871
    1      [0]       8485599785148389932
    0      [1]       4922461756044938104
    0      [0, 1]    12168968868368068840
    0      [1, 0]    6252869480131249692
    7      [3, 1, 4] 17861111730272243364
    ====== ========= ====================
    """
    if not isinstance(master, (int, np.integer)):
        raise TypeError(f"master seed must be an integer, got {type(master).__name__}")
    state = mix64(int(master))
    for label in labels:
        if not isinstance(label, (int, np.integer)):
            raise TypeError(f"labels must be integers, got {type(label).__name__}")
        state = mix64(rotl64(state, 23) ^ mix64((int(label) & MASK64) ^ GAMMA))
    return state


class Stream:
    """Sequential reader of the counter-based stream for one seed.

    The position counts 64-bit outputs consumed so far; block requests are
    equivalent to the same sequence of single draws.
    """

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
        self._seed = int(seed) & MASK64
        self._pos = 0

    @property
    def position(self) -> int:
        return self._pos

    def raw(self, count: int) -> np.ndarray:
        """Next ``count`` outputs as a uint64 array."""
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        # mix64 of seed + GAMMA*i, in place on one count-sized array (each
        # shift makes one temporary)
        z = np.arange(self._pos + 1, self._pos + count + 1, dtype=np.uint64)
        self._pos += count
        z *= np.uint64(GAMMA)
        z += np.uint64(self._seed)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MULT1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MULT2)
        z ^= z >> np.uint64(31)
        return z

    def signs(self, count: int) -> np.ndarray:
        """Values in {+1, -1} as int8, one per output."""
        top = self.raw(count)
        top >>= np.uint64(63)
        return 1 - 2 * top.astype(np.int8)

    def normals(self, count: int) -> np.ndarray:
        """Standard normal variates via pairwise Box-Muller (see module doc)."""
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        pairs = (count + 1) // 2
        r = self.raw(2 * pairs)
        a = ((r[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        b = (r[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        radius = np.sqrt(-2.0 * np.log(a))
        angle = (2.0 * math.pi) * b
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:count]

    def below(self, bound: int) -> int:
        """One unbiased integer in [0, bound) by rejection, for
        ``1 <= bound <= 2**64``.

        Each draw, rejected ones included, advances the position by one, as
        ``raw(1)`` would; the arithmetic is on Python ints, since a numpy
        round trip per draw costs far more than ``mix64``.  A numpy integer
        bound is taken as the Python int it holds.
        """
        bound = operator.index(bound)
        if not 0 < bound <= 1 << 64:
            # above 2**64 the limit below is 0 and no draw would be accepted
            raise ValueError(f"bound must be in [1, 2**64], got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            self._pos += 1
            u = mix64(self._seed + self._pos * GAMMA)
            if u < limit:
                return u % bound

    def sample_without_replacement(self, population: int, count: int) -> np.ndarray:
        """Sorted array of ``count`` distinct indices from ``range(population)``.

        Uses a partial Fisher-Yates shuffle driven by ``below``, then sorts the
        selected prefix, so the result is a uniformly random subset in
        canonical ascending order.
        """
        population, count = operator.index(population), operator.index(count)
        if population < 0 or not 0 <= count <= population:
            raise ValueError(f"need 0 <= count <= population, got {count}, {population}")
        arr = np.arange(population, dtype=np.int64)
        for i in range(count):
            j = i + self.below(population - i)
            arr[i], arr[j] = arr[j], arr[i]
        return np.sort(arr[:count])
