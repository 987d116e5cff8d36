"""numpy's ``default_rng`` stream for the draws the package makes, in Python integers.

``Generator(seed)`` returns the values that ``np.random.default_rng(seed)``
returns for ``random()``, ``integers(n)`` and ``choice(n, p=p)``, made the
same way, so the package needs no ``numpy.random`` (ten extension modules)
and its draws no longer depend on how a numpy release implements
``Generator`` methods.  numpy keeps the PCG64 bit stream stable across
releases (NEP 19); this module pins the methods on top of it too.

* The seed goes through numpy's ``SeedSequence`` (a 4-word pool of 32-bit
  hash mixes) into four 64-bit words: a 128-bit LCG state and increment.
* PCG64 steps the LCG, then outputs the XOR of the state's halves rotated
  by its top 6 bits (XSL-RR).  A 32-bit draw takes the low half of a
  64-bit output and keeps the high half for the next 32-bit draw.
* ``random()`` is the top 53 bits of a 64-bit output, times 2^-53.
* ``integers(n)`` is Lemire's multiply-and-reject on 32-bit draws.
* ``choice(n, p)`` validates p as numpy does, then searches one
  ``random()`` in p's normalized cumulative sum.  numpy sums p with a
  Kahan loop for its checks; this module uses ``p.sum()``, which for a
  finite p differs only in the last bits, far inside the 2^-26 tolerance.
"""

from __future__ import annotations

import math
import operator

import numpy as np

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
_SUM_ATOL = 2.0**-26  # sqrt(float64 eps), numpy's tolerance on sum(p)


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)``."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _M32]
    while seed := seed >> 32:
        entropy.append(seed & _M32)

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_L * x - _MIX_R * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    halves = []
    for i in range(8):
        value = pool[i % _POOL_WORDS] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        halves.append(value ^ value >> 16)
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


class Generator:
    """The draws of ``np.random.default_rng(seed)`` that k-means++ and ``bench`` make."""

    __slots__ = ("_state", "_inc", "_upper")

    def __init__(self, seed: int):
        words = _seed_words(seed)
        self._inc = ((words[2] << 64 | words[3]) << 1 | 1) & _M128
        # pcg64_srandom: state 0, step, add the seed, step.
        self._state = ((self._inc + (words[0] << 64 | words[1])) * _PCG_MULT + self._inc) & _M128
        self._upper: int | None = None  # the kept high half of a 64-bit output

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        value = ((state >> 64) ^ state) & _M64
        rot = state >> 122
        return ((value >> rot) | (value << (64 - rot))) & _M64

    def _next32(self) -> int:
        if self._upper is not None:
            value, self._upper = self._upper, None
            return value
        value = self._next64()
        self._upper = value >> 32
        return value & _M32

    def random(self) -> float:
        """A float in [0, 1) on the 2^-53 grid."""
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, n: int) -> int:
        """A uniform draw from range(n), 1 <= n < 2^32."""
        if not 1 <= n <= _M32:
            raise ValueError(f"n must be in [1, 2**32), got {n}")
        if n == 1:
            return 0  # numpy draws nothing for a one-value range
        m = self._next32() * n
        if m & _M32 < n:
            threshold = (1 << 32) % n
            while m & _M32 < threshold:
                m = self._next32() * n
        return m >> 32

    def choice(self, n: int, p: np.ndarray) -> int:
        """A draw from range(n) with the float64 probabilities p."""
        p = np.asarray(p, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError("p must be 1-dimensional")
        if p.size != n:
            raise ValueError("a and p must have same size")
        total = float(p.sum())
        if math.isnan(total):
            raise ValueError("Probabilities contain NaN")
        if (p < 0).any():
            raise ValueError("Probabilities are not non-negative")
        if abs(total - 1.0) > _SUM_ATOL:
            raise ValueError(
                "Probabilities do not sum to 1. See Notes section of docstring for more information."
            )
        cdf = p.cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted(self.random(), side="right"))
