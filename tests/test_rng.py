"""Counter-based streams: node addressing, determinism, family separation."""

import math
import sys
import threading
from decimal import Decimal, localcontext

import numpy as np
from numpy.random import Philox

from treepolymer.rng import (
    BatchStream,
    TreeStream,
    _raw_blocks,
    node_offset,
    normal_pair,
    to_uniform,
)


def _fresh(key, counter, count):
    return Philox(key=key, counter=counter).random_raw(4 * count).reshape(count, 4)


def test_reused_generator_gives_the_words_of_a_fresh_one():
    rs = np.random.default_rng(2024)
    for trial in range(300):
        key = int(rs.integers(0, 1 << 62)) << 66 | int(rs.integers(0, 1 << 62))
        counter = int(rs.integers(0, 1 << 62)) << int(rs.integers(0, 190))
        if trial % 3 == 0:   # the sequential region, at and above 2^64
            counter = (1 << 64) + int(rs.integers(0, 1 << 20))
        count = int(rs.integers(1, 40))
        assert np.array_equal(_raw_blocks(key, counter, count),
                              _fresh(key, counter, count))
    assert np.array_equal(TreeStream(3, 1).seq_block(5),
                          _fresh(3 << 64 | 1, 1 << 64, 5))
    # BatchStream packs (node << 64) | replica into the counter
    stream = BatchStream(9)
    for g, i, r0 in [(1, 0, 0), (3, 5, 17), (7, 100, (1 << 64) - 3)]:
        counter = ((node_offset(2, g) + i) << 64) | r0
        assert np.array_equal(stream.node_block(2, g, i, r0, 6),
                              _fresh(9 << 64 | 1 << 63, counter, 6))


def test_threads_drawing_interleaved_blocks_get_their_own_words():
    seeds, rounds = (1, 2, 3, 4), 300
    barrier = threading.Barrier(len(seeds), timeout=30)
    got = {}

    def draw(seed):
        stream = TreeStream(seed, 0)
        out = []
        for k in range(rounds):
            barrier.wait()          # every thread draws its block k together
            out.append(stream.node_block(2, 8, k, 3))
        got[seed] = out

    threads = [threading.Thread(target=draw, args=(seed,)) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for seed in seeds:
        assert len(got[seed]) == rounds
        for k, block in enumerate(got[seed]):
            assert np.array_equal(block,
                                  _fresh(seed << 64, node_offset(2, 8) + k, 3))


def test_node_offset_counts_nodes_above_each_generation():
    assert [node_offset(2, g) for g in range(5)] == [0, 1, 3, 7, 15]
    assert [node_offset(3, g) for g in range(4)] == [0, 1, 4, 13]


def test_same_address_gives_identical_words():
    a = TreeStream(7, 3).node_block(2, 4, 2, 5)
    b = TreeStream(7, 3).node_block(2, 4, 2, 5)
    assert a.dtype == np.uint64
    assert a.shape == (5, 4)
    assert np.array_equal(a, b)


def test_block_draw_equals_per_node_draws():
    block = TreeStream(1, 0).node_block(2, 3, 0, 8)
    singles = np.vstack([TreeStream(1, 0).node_block(2, 3, i, 1) for i in range(8)])
    assert np.array_equal(block, singles)


def test_replica_and_seed_both_change_the_words():
    base = TreeStream(1, 0).node_block(2, 2, 0, 4)
    assert not np.array_equal(base, TreeStream(1, 1).node_block(2, 2, 0, 4))
    assert not np.array_equal(base, TreeStream(2, 0).node_block(2, 2, 0, 4))


def test_traversal_order_is_irrelevant():
    forward = TreeStream(5, 9)
    left_first = [forward.node_block(2, 2, i, 1) for i in range(4)]
    backward = TreeStream(5, 9)
    right_first = [backward.node_block(2, 2, i, 1) for i in reversed(range(4))]
    for i in range(4):
        assert np.array_equal(left_first[i], right_first[3 - i])


def test_seq_blocks_advance_and_replay_from_a_fresh_stream():
    s = TreeStream(3, 0)
    a = s.seq_block(6)
    b = s.seq_block(6)
    assert not np.array_equal(a, b)
    replay = TreeStream(3, 0).seq_block(12)
    assert np.array_equal(np.vstack([a, b]), replay)


def test_seq_region_disjoint_from_node_region():
    seq = TreeStream(3, 0).seq_block(4)
    nodes = TreeStream(3, 0).node_block(2, 10, 0, 1024)
    node_rows = {tuple(r) for r in nodes.tolist()}
    assert all(tuple(r) not in node_rows for r in seq.tolist())


def test_batch_family_is_distinct_from_tree_family():
    tree = TreeStream(11, 0).node_block(2, 1, 0, 2)
    batch = np.vstack([BatchStream(11).node_block(2, 1, i, 0, 1) for i in range(2)])
    assert not np.array_equal(tree, batch)


def test_batch_replica_slices_are_consistent():
    whole = BatchStream(4).node_block(2, 3, 5, 0, 8)
    part = BatchStream(4).node_block(2, 3, 5, 3, 2)
    assert whole.shape == (8, 4)
    assert np.array_equal(whole[3:5], part)


def test_to_uniform_range_and_endpoints():
    raw = TreeStream(0, 0).node_block(2, 5, 0, 32)
    u = to_uniform(raw)
    assert u.shape == raw.shape
    assert np.all((u >= 0.0) & (u < 1.0))
    assert to_uniform(np.zeros(1, dtype=np.uint64))[0] == 0.0
    top = np.full(1, (1 << 64) - 1, dtype=np.uint64)
    assert to_uniform(top)[0] == 1.0 - 2.0**-53


def test_normal_pair_first_three_moments():
    raw = TreeStream(42, 0).seq_block(200_000)
    z1, z2 = normal_pair(raw[:, 0], raw[:, 1])
    z = np.concatenate([z1, z2])
    count = z.size
    assert abs(z.mean()) < 5.0 / np.sqrt(count)
    assert abs(z.var() - 1.0) < 5.0 * np.sqrt(2.0 / count)
    assert abs((z**3).mean()) < 5.0 * np.sqrt(15.0 / count)


def test_normal_pair_is_finite_even_at_word_extremes():
    zeros = np.zeros(1, dtype=np.uint64)
    tops = np.full(1, (1 << 64) - 1, dtype=np.uint64)
    for a in (zeros, tops):
        for b in (zeros, tops):
            z1, z2 = normal_pair(a, b)
            assert np.isfinite(z1).all()
            assert np.isfinite(z2).all()


# 45 digits of pi, for the 40-digit Box-Muller reference below
_PI = Decimal("3.14159265358979323846264338327950288419716940")


def _reference_normals(w0: int, w1: int) -> tuple[Decimal, Decimal]:
    """The Box-Muller pair of two words to 40 digits: u0 and u are the
    words' top 53 bits over 2^53, the angle 2 pi u is reduced exactly (u is
    dyadic) to the nearest quarter turn and its cos and sin summed as
    Taylor series."""
    with localcontext() as ctx:
        ctx.prec = 40
        u0 = Decimal(w0 >> 11) / 2**53
        rho = (-2 * (1 - u0).ln()).sqrt()
        k = w1 >> 11                           # u = k / 2^53
        quarter = (k + (1 << 50)) >> 51        # rint(4u)
        x = 2 * _PI * (k - (quarter << 51)) / 2**53
        cos, sin, term, i = Decimal(0), Decimal(0), Decimal(1), 0
        while abs(term) > Decimal("1e-45"):
            if i % 2 == 0:
                cos += term if i % 4 == 0 else -term
            else:
                sin += term if i % 4 == 1 else -term
            i += 1
            term = term * x / i
        for _ in range(quarter % 4):
            cos, sin = -sin, cos
        return rho * cos, rho * sin


def test_normals_match_a_40_digit_reference():
    # a few thousand stream draws, and every pairing of the word extremes
    raw = TreeStream(2024, 0).seq_block(3000)
    ends = np.array([0, 1 << 11, (1 << 63) - 1, 1 << 63, (1 << 64) - 1],
                    dtype=np.uint64)
    w0 = np.concatenate([raw[:, 0], np.repeat(ends, len(ends))])
    w1 = np.concatenate([raw[:, 1], np.tile(ends, len(ends))])
    z1, z2 = normal_pair(w0, w1)
    worst = 0.0
    for i in range(len(w0)):
        ref1, ref2 = _reference_normals(int(w0[i]), int(w1[i]))
        worst = max(worst, abs(float(Decimal(float(z1[i])) - ref1)),
                    abs(float(Decimal(float(z2[i])) - ref2)))
    assert worst < 1e-15, worst


def test_quarter_turns_give_exact_zeros():
    # u = 1/4, 1/2 and 3/4: cos, sin and cos of the angle are exactly 0
    rho = np.full(3, 1 << 63, dtype=np.uint64)
    z1, z2 = normal_pair(rho, np.array([1 << 62, 1 << 63, 3 << 62],
                                       dtype=np.uint64))
    assert z1[0] == 0.0 and z2[1] == 0.0 and z1[2] == 0.0
    assert np.array_equal(np.abs([z2[0], z1[1], z2[2]]), np.full(3, z2[0]))
    assert z2[0] == math.sqrt(2.0 * math.log(2.0))
