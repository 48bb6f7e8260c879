import numpy as np
import pytest

from gausslab import convolve
from gausslab.convolve import (
    ConvolutionCapacityError,
    ConvolutionOverflowError,
    exact_convolve,
)


def naive_convolve(a, b, n_out: int) -> list[int]:
    """Reference quadratic convolution over Python integers (oracle scale)."""
    a = [int(x) for x in a[:n_out]]
    b = [int(x) for x in b[:n_out]]
    out = [0] * min(n_out, len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j >= n_out:
                break
            out[i + j] += ai * bj
    return out


def test_small_known_product():
    a = np.array([1, 2, 3], dtype=np.uint64)
    b = np.array([4, 5], dtype=np.uint64)
    got = exact_convolve(a, b, 4).tolist()
    assert got == [4, 13, 22, 15]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_naive_on_random_inputs(seed):
    rng = np.random.default_rng(seed)
    la, lb = int(rng.integers(1, 80)), int(rng.integers(1, 80))
    a = rng.integers(0, 2**27, la).astype(np.uint64)
    b = rng.integers(0, 2**27, lb).astype(np.uint64)
    n_out = la + lb - 1
    got = [int(x) for x in exact_convolve(a, b, n_out)]
    assert got == naive_convolve(a, b, n_out)


def test_matches_naive_at_every_transform_size():
    # lengths 2^(j-1) and 2^(j-1) + 1 need exactly 2^j points
    rng = np.random.default_rng(3)
    for j in range(1, 11):
        a = rng.integers(0, 2**27, 1 << (j - 1), endpoint=True).astype(np.uint64)
        b = rng.integers(0, 2**27, (1 << (j - 1)) + 1, endpoint=True).astype(np.uint64)
        n_out = 1 << j
        got = [int(x) for x in exact_convolve(a, b, n_out)]
        assert got == naive_convolve(a, b, n_out), j


@pytest.mark.parametrize("p, g", list(zip(convolve._PRIMES, convolve._GENERATORS)))
def test_inverse_ntt_undoes_forward(p, g):
    rng = np.random.default_rng(p)
    for j in range(1, 17):
        n = 1 << j
        values = rng.integers(0, p, n).astype(np.uint64)
        bitrev = convolve._bitrev_indices(n)
        forward = convolve._ntt(values, p, convolve._root_table(p, g, n, False), bitrev, invert=False)
        back = convolve._ntt(forward, p, convolve._root_table(p, g, n, True), bitrev, invert=True)
        assert np.array_equal(back, values), n


def test_truncation_only_keeps_prefix():
    rng = np.random.default_rng(7)
    a = rng.integers(0, 2**20, 200).astype(np.uint64)
    full = exact_convolve(a, a, 399)
    part = exact_convolve(a, a, 50)
    assert np.array_equal(full[:50], part)


def test_squaring_same_object():
    a = np.array([3, 0, 1, 7], dtype=np.uint64)
    got = [int(x) for x in exact_convolve(a, a, 7)]
    assert got == naive_convolve(a, a, 7)


def test_values_near_u64_limit_exact():
    # single-term product just below 2^64 reconstructs exactly
    a = np.array([2**32 - 1], dtype=np.uint64)
    got = exact_convolve(a, a, 1)
    assert int(got[0]) == (2**32 - 1) ** 2


def test_overflow_detected():
    a = np.full(4, 2**33, dtype=np.uint64)  # coefficient 2 * 2^66 overflows
    with pytest.raises(ConvolutionOverflowError):
        exact_convolve(a, a, 7)


def test_capacity_error(monkeypatch):
    monkeypatch.setattr(convolve, "MAX_RESULT_LEN", 8)
    a = np.ones(6, dtype=np.uint64)
    with pytest.raises(ConvolutionCapacityError):
        exact_convolve(a, a, 11)


def test_empty_output():
    assert exact_convolve(np.ones(3, dtype=np.uint64), np.ones(3, dtype=np.uint64), 0).shape == (0,)
