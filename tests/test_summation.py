import gc
import math
import weakref

import numpy as np

from gausslab.summation import BLOCK, CHUNK, _BlockSum, _StreamedSum, block_compensated_sum, block_partials, neumaier_sum


def test_matches_fsum_on_hard_cancellation():
    rng = np.random.default_rng(17)
    values = np.concatenate([rng.uniform(-1.0, 1.0, 4096) * 1e16, rng.uniform(-1.0, 1.0, 4096)])
    want = math.fsum(values.tolist())
    got = block_compensated_sum(values)
    assert abs(got - want) <= 1e-12 * float(np.sum(np.abs(values)))


def test_block_boundaries():
    for n in (0, 1, 1023, 1024, 1025, 4096, 5000):
        values = np.arange(n, dtype=np.float64)
        assert block_compensated_sum(values) == float(n * (n - 1) // 2)


def test_neumaier_exactish():
    assert neumaier_sum([1e16, 1.0, -1e16]) == 1.0


def test_deterministic():
    rng = np.random.default_rng(3)
    values = rng.normal(size=100_000)
    assert block_compensated_sum(values) == block_compensated_sum(values.copy())


def test_partials_of_whole_block_pieces_concatenate():
    values = np.random.default_rng(5).normal(size=5 * BLOCK + 17)
    for cuts in ([BLOCK], [2 * BLOCK, 3 * BLOCK], [4 * BLOCK, 5 * BLOCK]):
        pieces = np.split(values, cuts)
        got = np.concatenate([block_partials(piece) for piece in pieces])
        assert np.array_equal(got, block_partials(values))
    assert block_partials(values[:0]).shape == (0,)


def test_streamed_sums_of_prefixes():
    # a pass feeds every prefix the same chunks, also past the prefix's end
    rng = np.random.default_rng(21)
    values = 10.0 ** rng.uniform(-5.0, 5.0, 3 * CHUNK + 100)
    sizes = [0, 1, BLOCK + 1, CHUNK, CHUNK + 129, 3 * CHUNK + 100]
    blocks = {n: _BlockSum(n) for n in sizes}
    pairwise = {n: _StreamedSum(n) for n in sizes}
    for lo in range(0, values.shape[0], CHUNK):
        for acc in (*blocks.values(), *pairwise.values()):
            acc.feed(lo, values[lo : lo + CHUNK])
    for n in sizes:
        assert blocks[n].total() == block_compensated_sum(values[:n]), n
        assert pairwise[n].total() == float(np.sum(values[:n])), n


def test_fed_streamed_sum_freed_without_the_cyclic_collector():
    values = np.arange(1.0, 2 * CHUNK + 100)
    total = _StreamedSum(values.shape[0])
    gc.disable()
    try:
        for lo in range(0, values.shape[0], CHUNK):
            total.feed(lo, values[lo : lo + CHUNK])
        assert total.total() == float(np.sum(values))
        ref = weakref.ref(total)
        del total
        assert ref() is None
    finally:
        gc.enable()
