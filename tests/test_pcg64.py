from fractions import Fraction

import numpy as np
import pytest

from tauforge.operator import WP_PARAM_NAMES
from tauforge.pcg64 import M128, PCG_MULT, Generator, wp_param_sets

# the ranges of a parameter's numerator and denominator
RANGES = ((-3, 4), (1, 5))

# seeds of 1, 2, 3, 5 and 7 32-bit words: SeedSequence's pool holds four,
# and each word past it is mixed into the whole pool
WIDE_SEEDS = [2**32 - 1, 2**64 - 1, 2**70, 2**128, 2**128 + 12345, 3**100, 2**223 - 1]


def _numpy_stream(seed, draws):
    rng = np.random.default_rng(seed)
    return [int(rng.integers(*RANGES[k % 2])) for k in range(draws)]


def _port_stream(seed, draws):
    rng = Generator(seed)
    return [rng.integers(*RANGES[k % 2]) for k in range(draws)]


def test_the_port_draws_numpys_stream():
    # 300 draws use 150 64-bit outputs, each split into its low and high
    # halves; the seeds that the golden reports and the demo use lie in 0..499
    for seed in [*range(500), *WIDE_SEEDS]:
        assert _port_stream(seed, 300) == _numpy_stream(seed, 300), seed


@pytest.mark.parametrize("lo, hi", [(0, 7), (-3, 4), (1, 5), (0, 1000), (0, 2**32 - 1)])
def test_the_port_matches_numpy_over_a_range(lo, hi):
    for seed in (0, 3, 5, 7, 9, 2**70):
        rng, port = np.random.default_rng(seed), Generator(seed)
        assert [port.integers(lo, hi) for _ in range(301)] == [
            int(rng.integers(lo, hi)) for _ in range(301)
        ]


def test_the_rejection_loop_follows_numpy():
    # a state whose next 64-bit output is 0: both halves give m = 0, below
    # 2^32 mod 7 = 4, so a draw from 7 values rejects them and draws again
    hi = 0x0123456789ABCDEF
    port = Generator(11)
    before = ((hi << 64 | hi) - port.inc) * pow(PCG_MULT, -1, 1 << 128) & M128
    port.state = before
    bits = np.random.PCG64(11)
    state = bits.state
    state["state"]["state"] = before
    bits.state = state
    rng = np.random.Generator(bits)
    got = [port.integers(-3, 4) for _ in range(8)]
    assert got == [int(rng.integers(-3, 4)) for _ in range(8)]
    assert got[0] != -3
    probe = Generator(11)
    probe.state = before
    assert probe.next_uint64() == 0


def test_a_one_value_span_consumes_no_draw():
    port, rng = Generator(4), np.random.default_rng(4)
    assert port.integers(6, 7) == int(rng.integers(6, 7)) == 6
    assert port.integers(-3, 4) == int(rng.integers(-3, 4))


@pytest.mark.parametrize("lo, hi", [(0, 0), (3, 1), (0, 2**32)])
def test_spans_outside_the_32_bit_draw_raise(lo, hi):
    with pytest.raises(ValueError, match="span"):
        Generator(0).integers(lo, hi)


@pytest.mark.parametrize("seed", [0, 3, 5, 7, 9, 2**70])
def test_parameter_sets_are_numpys_draws(seed):
    rng = np.random.default_rng(seed)
    want = [
        {name: Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 5)))
         for name in WP_PARAM_NAMES}
        for _ in range(3)
    ]
    got = wp_param_sets(seed, 3)
    assert got == want
    assert all(list(params) == list(WP_PARAM_NAMES) for params in got)
