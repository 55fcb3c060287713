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

Array draws mix their outputs in blocks of ``_BLOCK``, in place: each
quarter of a block's counter states is one add of the stream's offset to a
fixed table of ``GAMMA * (1.._BLOCK/4)``, and each mixing step writes over
them with one block-sized scratch array.  A sign draw stops before the last
step, which leaves bit 63 as it is, and writes each block's signs straight
into its int8 result, so no count-sized uint64 array is ever held.
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

# a draw mixes its outputs in blocks of this many, in place, so what it holds
# beyond its result is two block-sized arrays
_BLOCK = 32768
# GAMMA * (1..B/4) mod 2**64, 64 KiB: each quarter of a block's counter
# states is these plus one offset
_STEPS = np.arange(1, _BLOCK // 4 + 1, dtype=np.uint64)
_STEPS *= np.uint64(GAMMA)
_STEPS.flags.writeable = False
# numpy scalars, since numpy 1.24 casts uint64 with a Python int to float64
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)
_M1, _M2 = np.uint64(_MULT1), np.uint64(_MULT2)


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


def _absorb(state: int, label: int) -> int:
    """One step of ``derive_seed``: the state after absorbing an integer label."""
    return mix64(rotl64(state, 23) ^ mix64((label & MASK64) ^ GAMMA))


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
        state = _absorb(state, int(label))
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
        out = np.empty(_checked_count(count), dtype=np.uint64)
        for _, z, scratch in self._blocks(len(out), out):
            np.right_shift(z, _S31, out=scratch)
            z ^= scratch
        return out

    def signs(self, count: int) -> np.ndarray:
        """Values in {+1, -1} as int8, one per output."""
        out = np.empty(_checked_count(count), dtype=np.int8)
        for start, z, _ in self._blocks(len(out)):
            # shifting the int64 view right by 63 gives 0 or -1 from bit 63,
            # and | 1 then +1 or -1
            top = z.view(np.int64)
            np.right_shift(top, 63, out=top)
            top |= 1
            out[start:start + len(top)] = top
        return out

    def normals(self, count: int) -> np.ndarray:
        """Standard normal variates via pairwise Box-Muller (see module doc)."""
        pairs = (_checked_count(count) + 1) // 2
        r = self.raw(2 * pairs)
        r >>= np.uint64(11)
        u = r.astype(np.float64).reshape(pairs, 2)
        # the module doc's a = (u + 1) * 2**-53 and 2*pi*b = (2*pi) * (u' *
        # 2**-53): a scaling by a power of 2 is exact, so u' * (2*pi * 2**-53)
        # rounds as the latter
        radius = u[:, 0] + 1.0
        radius *= 2.0**-53
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle = u[:, 1] * (2.0 * math.pi * 2.0**-53)
        out = np.empty(2 * pairs, dtype=np.float64)
        np.multiply(radius, np.cos(angle), out=out[0::2])
        np.multiply(radius, np.sin(angle), out=out[1::2])
        return out[:count]

    def _blocks(self, count: int, out: np.ndarray | None = None):
        """Mix the next ``count`` outputs block by block, advancing the position.

        Yields ``(start, z, scratch)`` per block of at most ``_BLOCK``
        outputs from ``start`` on.  ``z`` holds their ``mix64`` states
        before its last step, ``z ^= z >> 31``, which leaves bit 63 as it
        is; it is ``out[start:]``'s block when ``out`` is given, else one
        reused block-sized array.  ``scratch`` is free for the caller.
        """
        first = self._pos
        self._pos += count
        size = min(count, _BLOCK)
        scratch = np.empty(size, dtype=np.uint64)
        states = np.empty(size, dtype=np.uint64) if out is None else None
        for start in range(0, count, _BLOCK):
            m = min(count - start, _BLOCK)
            z = states[:m] if out is None else out[start:start + m]
            t = scratch[:m]
            for piece in range(0, m, len(_STEPS)):
                k = min(m - piece, len(_STEPS))
                offset = (self._seed + (first + start + piece) * GAMMA) & MASK64
                np.add(_STEPS[:k], np.uint64(offset), out=z[piece:piece + k])
            np.right_shift(z, _S30, out=t)
            z ^= t
            z *= _M1
            np.right_shift(z, _S27, out=t)
            z ^= t
            z *= _M2
            yield start, z, t

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


def _checked_count(count: int) -> int:
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    return count
