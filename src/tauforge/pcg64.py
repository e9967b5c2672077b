"""numpy's `default_rng(seed).integers(lo, hi)` stream, in pure Python.

numpy's SeedSequence (a pool of four uint32 words), PCG64 (XSL-RR
128/64; M. E. O'Neill, "PCG", HMC-CS-2014-0905), numpy's `next_uint32`
(the low half of a 64-bit draw, then its high half) and Lemire's bounded
draw without a mask (ACM TOMACS 29(1), 2019).  `invariance` draws its
parameters here, so its reports keep numpy's bits without loading numpy.
"""

from __future__ import annotations

from fractions import Fraction

from .operator import WP_PARAM_NAMES

M32, M64, M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value: int, const: list[int], mult: int) -> int:
    value ^= const[0]
    const[0] = const[0] * mult & M32
    value = value * const[0] & M32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & M32
    return r ^ r >> 16


def _seed_state(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, uint64) for an int seed >= 0."""
    words = [seed >> s & M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const, mult = [0x43B0D7E5], 0x931E8875
    pool = [_hashmix(words[i] if i < len(words) else 0, const, mult) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], const, mult))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, const, mult))
    const = [0x8B51F9DD]
    out = [_hashmix(pool[i % 4], const, 0x58F38DED) for i in range(8)]
    return [lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])]


class Generator:
    """The integer draws of np.random.default_rng(seed), for spans below 2^32."""

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _seed_state(seed)
        self.inc = ((i0 << 64 | i1) << 1 | 1) & M128
        self.state = ((self.inc + (s0 << 64 | s1)) * PCG_MULT + self.inc) & M128
        self.half = None

    def next_uint64(self) -> int:
        self.state = (self.state * PCG_MULT + self.inc) & M128
        x, rot = (self.state >> 64 ^ self.state) & M64, self.state >> 122
        return (x >> rot | x << (64 - rot)) & M64

    def next_uint32(self) -> int:
        if self.half is None:
            word = self.next_uint64()
            self.half = word >> 32
            return word & M32
        word, self.half = self.half, None
        return word

    def integers(self, lo: int, hi: int) -> int:
        """One draw from [lo, hi), as numpy's int64 `integers(lo, hi)`."""
        span = hi - lo
        if not 0 < span <= M32:
            raise ValueError(f"span {span} is outside 1..2^32 - 1")
        if span == 1:
            return lo
        m = self.next_uint32() * span
        if m & M32 < span:
            while m & M32 < (1 << 32) % span:
                m = self.next_uint32() * span
        return lo + (m >> 32)


def wp_param_sets(seed: int, count: int) -> list[dict[str, Fraction]]:
    """`count` sets of the 31 weighted-projective parameters in WP_PARAM_NAMES
    order, each a/b with a drawn from -3..3 and then b from 1..4."""
    rng = Generator(seed)
    return [
        {name: Fraction(rng.integers(-3, 4), rng.integers(1, 5)) for name in WP_PARAM_NAMES}
        for _ in range(count)
    ]
