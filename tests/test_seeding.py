"""`child_rng`, the one definition of a stream, and `Draws`, a cursor that
reads one ahead."""

import numpy as np
import pytest

from shatterlab.concepts import Distribution
from shatterlab.errors import OutOfRange
from shatterlab.seeding import CHUNK, Draws, child_rng
from tests.oracles import crafted_rng, in_step

TWO_WORD_SEED = 2**40 + 3


def draws(rng):
    """The first 100 draws of each method the library's learners use."""
    return (
        rng.random(100).tolist(),
        rng.integers(0, 1000, size=100).tolist(),
        rng.normal(size=100).tolist(),
        rng.choice(7, size=100, p=[0.3, 0.1, 0.1, 0.2, 0.05, 0.05, 0.2]).tolist(),
    )


@pytest.mark.parametrize("seed", [0, TWO_WORD_SEED])
@pytest.mark.parametrize("prefix", [(), (5,), (1, 2**33)])
def test_streams_equal_child_rng(seed, prefix):
    # the stream of a path is numpy's SeedSequence over (seed, *path) feeding
    # PCG64, for one- and two-word seeds and path elements alike
    ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *prefix])))
    assert draws(child_rng(seed, *prefix)) == draws(ref)


@pytest.mark.parametrize("seed, path", [(-1, ()), (0, (-1,)), (3, (1, -2))])
def test_negative_seed_or_path_is_out_of_range(seed, path):
    with pytest.raises(OutOfRange, match="nonnegative"):
        child_rng(seed, *path)


P = (0.3, 0.1, 0.1, 0.2, 0.05, 0.05, 0.2)
Q = (0.5, 0.25, 0.25)
CDFS = {p: Distribution(p).cdf for p in (P, Q)}
#: 2^32 mod (2^31 + 1) = 2^31 - 1: about half of all halves are rejected
BOUNDS = (1, 2, 3, 32, 2**31 + 1)


def run_ops(make, ops):
    """`ops` on a cursor over make() and, call by call, on numpy's own draws
    from make(); the two are in step after the last op.  Returns both draw lists."""
    draws, ref = Draws(make()), make()
    got, want = [], []
    for op, arg in ops:
        if op == "block":
            got.append(draws.block(CDFS[arg[0]], arg[1]))
            want.append(ref.choice(len(arg[0]), size=arg[1], p=np.array(arg[0])).tolist())
        else:
            got.append(draws.below(arg))
            want.append(int(ref.integers(arg)))
    assert in_step(draws, ref)
    return got, want


def random_ops(gen, n):
    return [("block", ((P, Q)[int(gen.integers(2))], int(gen.integers(0, 41))))
            if gen.random() < 0.5 else ("below", BOUNDS[int(gen.integers(len(BOUNDS)))])
            for _ in range(n)]


class TestDraws:
    """A cursor's blocks and bounded ints are numpy's per-call draws on the
    stream it takes over."""

    def test_interleavings_match_numpy(self):
        # 60 ops read about 600 words, so every sequence crosses chunk edges;
        # every tenth also draws a block longer than a chunk
        gen = np.random.default_rng(99)
        for seed in range(80):
            ops = random_ops(gen, 60)
            if seed % 10 == 0:
                ops.insert(30, ("block", (P, 2 * CHUNK + 3)))
            got, want = run_ops(lambda: child_rng(seed, 7), ops)
            assert got == want

    @pytest.mark.parametrize("word", [5 << 32, 5, 0], ids=["low", "high", "both"])
    def test_a_rejected_half_matches_numpy(self, word):
        # word 2 holds a half 0, which integers(3) rejects (0 < 2^32 mod 3 = 1):
        # its low half, read fresh; its high half, read from the buffer; or
        # both, and then word 3's low half
        assert crafted_rng(word, 2).bit_generator.random_raw(3)[-1] == word
        ops = [("block", (P, 2)), ("below", 3), ("below", 3),
               ("block", (Q, 3)), ("below", 3), ("below", 32), ("block", (P, 1))]
        got, want = run_ops(lambda: crafted_rng(word, 2), ops)
        assert got == want
