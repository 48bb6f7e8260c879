import hashlib
import math
import os
import struct

import numpy as np
import pytest

from gausslab import convolve, rk
from gausslab.convolve import ConvolutionOverflowError
from gausslab.rk import (
    CacheChecksumError,
    CacheFormatError,
    CacheTruncatedError,
    build_rk_table,
    convolve_tables,
    divisor_sums,
    load_table,
    rk_bruteforce,
    rk_enumeration_tables,
    save_table,
)

from conftest import assert_close, sigma


class TestBuild:
    def test_r3_first_values(self):
        got = build_rk_table(3, 5).counts.tolist()
        assert got == [rk_bruteforce(3, n) for n in range(6)]
        assert got == [1, 6, 12, 8, 6, 24]

    def test_r4_first_values(self):
        got = build_rk_table(4, 4).counts.tolist()
        assert got == [rk_bruteforce(4, n) for n in range(5)]
        assert got == [1, 8, 24, 32, 24]

    def test_r1_squares(self):
        assert build_rk_table(1, 9).counts.tolist() == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2]

    @pytest.mark.parametrize("k", list(range(1, 9)))
    def test_unit_vector_count(self, k):
        table = build_rk_table(k, 10)
        assert int(table.counts[0]) == 1
        assert int(table.counts[1]) == 2 * k

    def test_bruteforce_spot_checks(self, tables_small):
        for k, n in ((3, 101), (4, 97), (5, 64), (6, 40), (2, 325), (1, 289)):
            assert rk_bruteforce(k, n) == int(tables_small[k].counts[n]), (k, n)

    def test_lattice_count_is_ball_count(self):
        # prefix of counts equals a direct ball census at small radius
        table = build_rk_table(3, 30)
        census = [0] * 31
        r = math.isqrt(30)
        for x in range(-r, r + 1):
            for y in range(-r, r + 1):
                for z in range(-r, r + 1):
                    q = x * x + y * y + z * z
                    if q <= 30:
                        census[q] += 1
        assert table.counts.tolist() == census

    def test_range_validation(self):
        with pytest.raises(ValueError):
            build_rk_table(0, 10)
        with pytest.raises(ValueError):
            build_rk_table(9, 10)
        with pytest.raises(ValueError):
            build_rk_table(3, -1)
        for k, n_max in ((True, 10), (3, True), (3.0, 10), (3, 10.0)):
            with pytest.raises(ValueError, match="outside"):
                build_rk_table(k, n_max)
        for n_max in (-1, rk.MAX_N + 1):
            with pytest.raises(ValueError, match=f"n_max = {n_max} outside"):
                rk.r6_closed_form(n_max)
        # past 17 digits, and past float range, n_max shows 17 significant digits
        with pytest.raises(ValueError, match=r"^n_max = 1\.0000000000000000e\+400 outside"):
            build_rk_table(3, 10**400)
        # a table is made only of uint64 counts of length n_max + 1
        for counts in (np.zeros(11, dtype=np.int64), np.zeros(10, dtype=np.uint64)):
            with pytest.raises(ValueError, match="uint64 of length"):
                rk.RkTable(3, 10, counts)

    def test_numpy_integers_accepted(self):
        table = build_rk_table(np.int64(3), np.int64(100))
        assert table == build_rk_table(3, 100)
        assert type(table.k) is int and type(table.n_max) is int

    def test_counts_read_only(self):
        table = build_rk_table(2, 10)
        with pytest.raises(ValueError):
            table.counts[0] = 5


def _ntt_chain(k_max, n_max):
    """r_3..r_{k_max} as chained NTT products r_{k-1} * r_1, from r_2."""
    r1 = build_rk_table(1, n_max)
    chain = {2: build_rk_table(2, n_max)}
    for k in range(3, k_max + 1):
        chain[k] = convolve_tables(chain[k - 1], r1)
    return chain


class TestSquareStep:
    def test_matches_ntt_chain(self):
        chain = _ntt_chain(8, 2000)
        for k in range(3, 9):
            assert build_rk_table(k, 2000) == chain[k], f"k={k}"

    def test_matches_ntt_chain_1e5(self):
        chain = _ntt_chain(6, 10**5)
        for k in range(3, 7):
            assert build_rk_table(k, 10**5) == chain[k], f"k={k}"

    def test_build_never_calls_the_ntt(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("exact_convolve called")

        monkeypatch.setattr(rk, "exact_convolve", refuse)
        monkeypatch.setattr(convolve, "exact_convolve", refuse)
        for k in range(1, 9):
            build_rk_table(k, 3000)
        build_rk_table(4, 10**5)

    def test_wrap_in_doubling_raises(self):
        base = np.zeros(10, dtype=np.uint64)
        base[3] = 2**63
        with pytest.raises(ConvolutionOverflowError, match="doubling"):
            rk._square_step(base)

    def test_last_entry_is_never_doubled(self):
        # out[n_max] = base[n_max]: no square reaches past the table
        base = np.zeros(10, dtype=np.uint64)
        base[9] = 2**64 - 1
        assert rk._square_step(base).tolist() == base.tolist()

    def test_wrap_in_slice_add_raises(self):
        # doubled values 2^63 fit; out[4] = 2^62 + 2 * 2^63 does not
        base = np.full(8, 2**62, dtype=np.uint64)
        with pytest.raises(ConvolutionOverflowError, match="j = 2"):
            rk._square_step(base)

    def test_sum_of_exactly_u64_max_fits(self):
        base = np.array([2**62, 2**63 - 1], dtype=np.uint64)
        assert rk._square_step(base).tolist() == [2**62, 2**64 - 1]
        base[1] += np.uint64(1)
        with pytest.raises(ConvolutionOverflowError):
            rk._square_step(base)

    def test_checked_equals_unchecked(self):
        # scale r_4 so the u32 step must check its adds while the u64 step
        # needs none; by linearity both must give the scaled r_5
        n_max = 10**4
        r4 = build_rk_table(4, n_max).counts
        top = int(r4.max())
        scale = -(-(2**32) // (top * (2 * math.isqrt(n_max) + 1)))
        base = r4 * np.uint64(scale)
        want = build_rk_table(5, n_max).counts * np.uint64(scale)
        assert int(want.max()) < 2**32 <= int(base.max()) * (2 * math.isqrt(n_max) + 1)
        checked = rk._square_step(base.astype(np.uint32))
        assert checked.dtype == np.uint32
        assert np.array_equal(checked, want)
        assert np.array_equal(rk._square_step(base), want)

    def test_r3_step_raises_instead_of_wrapping_u32(self):
        base = rk._r2_u32(1000) * np.uint32(2**24)
        exact = rk._square_step(base.astype(np.uint64))
        assert int(exact.max()) >= 2**32
        with pytest.raises(ConvolutionOverflowError):
            rk._square_step(base)


_BLOCK_LENGTHS = [rk._BLOCK - 1, rk._BLOCK, rk._BLOCK + 1, 2 * rk._BLOCK + 3]


class TestBlockedStep:
    """The step walks its output in blocks of rk._BLOCK entries, each with its
    own bound on when an add must be checked; each case is checked against
    the unblocked sum out[j^2:] += 2 base[:n_max + 1 - j^2] in u64 over every
    j, which shares neither the blocks nor the bounds.  The NTT product is
    the different-algorithm oracle of the whole step in TestSquareStep."""

    @staticmethod
    def _unblocked_step(base):
        n_max = base.shape[0] - 1
        out = base.astype(np.uint64)
        doubled = out * np.uint64(2)
        for j in range(1, math.isqrt(n_max) + 1):
            out[j * j :] += doubled[: n_max + 1 - j * j]
        return out

    @pytest.mark.parametrize("length", _BLOCK_LENGTHS)
    def test_u64_unchecked_matches_ntt(self, length):
        # every sum stays below top * (2j + 1) < 2^64, so no add is checked
        top = 2**64 // (2 * math.isqrt(length - 1) + 1) - 1
        base = np.random.default_rng(length).integers(0, top, size=length, dtype=np.uint64, endpoint=True)
        assert np.array_equal(rk._square_step(base), self._unblocked_step(base))

    @pytest.mark.parametrize("length", _BLOCK_LENGTHS)
    def test_u32_checked_matches_ntt(self, length):
        # spikes of 2^30 put the adds past j = 1 in the checked regime; their
        # doubled images never meet, so every true sum still fits in u32
        base = np.random.default_rng(length).integers(0, 2**12, size=length, dtype=np.uint32)
        base[[3, rk._BLOCK - 5]] = 2**30
        want = self._unblocked_step(base)
        assert int(want.max()) < 2**32
        got = rk._square_step(base)
        assert got.dtype == np.uint32
        assert np.array_equal(got, want)

    def test_wrap_in_last_block_only(self):
        # out[n_max] = base[n_max] + 2 sum base[n_max - j^2]: one more than
        # 2^64 - 1 must raise at the last add, although every earlier block fits
        length = _BLOCK_LENGTHS[-1]
        n_max = length - 1
        base = np.random.default_rng(0).integers(0, 2**20, size=length, dtype=np.uint64)
        rest = 2 * sum(int(base[n_max - j * j]) for j in range(1, math.isqrt(n_max) + 1))
        base[n_max] = 2**64 - 1 - rest
        assert int(rk._square_step(base)[n_max]) == 2**64 - 1
        base[n_max] += np.uint64(1)
        with pytest.raises(ConvolutionOverflowError, match=f"step j = {math.isqrt(n_max)}$"):
            rk._square_step(base)

    def test_big_value_in_first_block_bounds_later_blocks(self):
        # base[3] = 2^63 - 1 doubles to 2^64 - 2, which wraps out[3 + 300^2] = 2
        # in block 1 at j = 300; that block's own entries bound its sums far
        # below 2^64, so only a bound that reaches back to block 0 checks the add
        base = np.zeros(2 * rk._BLOCK + 3, dtype=np.uint64)
        base[3] = 2**63 - 1
        base[3 + 300**2] = 2
        assert _first_wrap_global_bound(base) == 300
        with pytest.raises(ConvolutionOverflowError, match="step j = 300$"):
            rk._square_step(base)

    def test_walk_is_top_down(self):
        # doubled 2^64 - 2 wraps out[28] = 2 at j = 5 in block 0, and out[n_max] = 2
        # at j = 10 in block 2; the walk meets block 2 first
        base = np.zeros(2 * rk._BLOCK + 3, dtype=np.uint64)
        n_max = base.shape[0] - 1
        base[[3, n_max - 10**2]] = 2**63 - 1
        base[[3 + 5**2, n_max]] = 2
        assert _first_wrap_global_bound(base) == 5
        with pytest.raises(ConvolutionOverflowError, match="step j = 10$"):
            rk._square_step(base)


def _first_wrap_global_bound(base: np.ndarray) -> int | None:
    """The j at which the blocked square step first wraps, checking every add
    once max(base) * (2j + 1) passes the width, in every block alike: the
    reference for rk._square_step's per-block bound."""
    n_max = base.shape[0] - 1
    limit = 1 << (8 * base.dtype.itemsize)
    top = int(base.max())
    out = base.copy()
    doubled = base * base.dtype.type(2)
    for lo in range(0, n_max + 1, rk._BLOCK):
        hi = min(lo + rk._BLOCK, n_max + 1)
        for j in range(1, math.isqrt(hi - 1) + 1):
            start = max(lo, j * j)
            seg = out[start:hi]
            add = doubled[start - j * j : hi - j * j]
            seg += add
            if top * (2 * j + 1) >= limit and np.any(seg < add):
                return j
    return None


def _recorded_steps(monkeypatch) -> list:
    """Wrap rk._square_step; the returned list receives (input dtype name,
    output) for every step taken."""
    steps = []
    real = rk._square_step

    def record(base):
        out = real(base)
        steps.append((base.dtype.name, out))
        return out

    monkeypatch.setattr(rk, "_square_step", record)
    return steps


@pytest.fixture(scope="module")
def chain_1m():
    """The r_4 -> r_8 chain, stepped once for the module: the recorded steps
    of build_rk_table(7, 10**6), r_4 to r_7 to 1e6, then r_8 to
    R8_FIRST_OVERFLOW - 1 by one step from r_7, the last step of
    build_rk_table(8, 987_839)."""
    with pytest.MonkeyPatch.context() as mp:
        steps = _recorded_steps(mp)
        build_rk_table(7, 10**6)
        rk._square_step(steps[-1][1][: rk.R8_FIRST_OVERFLOW])
    return steps


def _sha256(counts: np.ndarray) -> str:
    return hashlib.sha256(counts.astype(np.uint64).tobytes()).hexdigest()


# sha256 of the uint64 counts, from the build that took every step by
# rk._square_step, those past r_3 in u64; so they are the full-size oracle of
# the r_3 route too
_TABLE_DIGESTS = {
    "r3@1e6": "519e81b342b3b199497e27b690a7e2ddba35c6f8146bcf05884006f40b9d3986",
    "r4@1e6": "c8026e039b6a77623fc28ba394ca669b56b0e3e7151b67372b831062bb6ec3b8",
    "r5@1e6": "e486bdecd75c5b81c39b1904c9b508065b984012ead43503e7dc01d64f7b7399",
    "r6@1e6": "01084998efe11fba87857519828d8d1b968bee84ea3380d618243a05d7da5d53",
    "r7@1e6": "1b7b6321c89767b97479bdaacea34a08cd841d2d12c01011a9f4f7a03411f7d8",
    "r8@987839": "19183298c6a93a56634de5ad9a4bf8dd7eac7778d1bf5255be3ae4e91d288460",
    "r3@4e6": "1a554c975f488854ed8caee5878df6ab5016e4dfb23b51f9142b69e11e3084bd",
    "r4@4e6": "22166fd80d6e2ea49feab3331605a4d4c9ec4ae80cd78e89c1cae9695522319d",
}


_R3_ROUTE_SIZES = sorted(
    {*range(18)}
    | {4**a + d for a in range(1, 10) for d in (-1, 0, 1)}
    | {8 * rk._BLOCK * m + d for m in (1, 2) for d in (-1, 0, 1)}
)


class TestR3Route:
    """build_rk_table takes r_3 from r_2 by rk._r3_step, which sums only the
    classes of n mod 8 where r_3 can be nonzero and copies r_3(4n) from r_3(n);
    the plain step rk._square_step is its oracle.  The sizes put the edges of
    the power-of-4 ranges and of the class blocks at n_max."""

    @pytest.mark.parametrize("n_max", _R3_ROUTE_SIZES)
    def test_equals_square_step(self, n_max):
        base = rk._widened(rk._r2_u32(n_max))
        got = rk._r3_step(base)
        want = rk._square_step(base)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("wide", [False, True])
    def test_width_from_widened(self, monkeypatch, wide):
        # the route runs in the dtype that _widened picks for r_2, as every step does
        want = build_rk_table(3, 2000)
        seen = {}
        real_widened, real_route = rk._widened, rk._r3_step

        def widened(base):
            seen["widened"] = base.astype(np.uint64) if wide else real_widened(base)
            return seen["widened"]

        def route(base):
            seen["base"], seen["out"] = base, real_route(base)
            return seen["out"]

        monkeypatch.setattr(rk, "_widened", widened)
        monkeypatch.setattr(rk, "_r3_step", route)
        assert build_rk_table(3, 2000) == want
        assert seen["base"] is seen["widened"]
        assert seen["out"].dtype == seen["base"].dtype == (np.uint64 if wide else np.uint32)


class TestStepDtype:
    """A step runs in u32 while max(base) * (2 isqrt(n_max) + 1) < 2^32 proves
    that no sum wraps, and in u64 from the first step where it does not."""

    def test_bound_picks_the_width(self):
        # n_max = 3: every output is at most 3 max(base)
        fits = np.array([0, 0, 0, (2**32 - 1) // 3], dtype=np.uint32)
        assert rk._widened(fits) is fits
        assert rk._widened(fits + np.uint32(1)).dtype == np.uint64
        wide = fits.astype(np.uint64)
        assert rk._widened(wide) is wide

    def test_widths_at_2000(self, monkeypatch):
        steps = _recorded_steps(monkeypatch)
        build_rk_table(7, 2000)
        assert [dtype for dtype, _ in steps] == ["uint32"] * 3 + ["uint64"]

    def test_tables_unchanged(self, chain_1m, series3_big):
        got = {"r3@1e6": _sha256(build_rk_table(3, 10**6).counts)}
        got.update({f"r{k}@1e6": _sha256(out) for k, (_, out) in zip(range(4, 8), chain_1m)})
        got["r8@987839"] = _sha256(chain_1m[-1][1])
        r3 = np.diff(series3_big.prefix, prepend=np.uint64(0))
        got["r3@4e6"] = _sha256(r3)
        # the last step of build_rk_table(4, 4 * 10**6), from its r_3, in u32
        base = rk._widened(r3.astype(np.uint32))
        assert base.dtype == np.uint32
        got["r4@4e6"] = _sha256(rk._square_step(base))
        # build_rk_table(4, 10**6) takes its one square step in u32
        assert [dtype for dtype, _ in chain_1m] == ["uint32"] + ["uint64"] * 4
        assert got == _TABLE_DIGESTS


def _r8_jacobi(n: np.ndarray) -> list[int]:
    """r_8(n) = 16 sum_{d | n} (-1)^(n+d) d^3 (Jacobi), exact in Python ints;
    the signed divisor sum fits int64 for n below 2^20."""
    acc = np.zeros(n.shape, dtype=np.int64)
    for d in range(1, math.isqrt(int(n.max())) + 1):
        q = n // d
        hit = (n % d == 0) & (d <= q)
        acc += np.where(hit, (-1) ** ((n + d) % 2) * d**3, 0)
        acc += np.where(hit & (q != d), (-1) ** ((n + q) % 2) * q**3, 0)
    return [16 * int(v) for v in acc]


class TestR8Limit:
    def test_jacobi_oracle_matches_build(self):
        n = np.arange(1, 3001, dtype=np.int64)
        assert _r8_jacobi(n) == build_rk_table(8, 3000).counts[1:].tolist()

    def test_first_overflow_index(self):
        # |r_8(n)| <= 16 sigma_3(n) < 16 zeta(3) n^3, below 2^64 for n < 980,000
        lo = 980_000
        assert 16 * 1.2020569031595942 * lo**3 < 0.99 * 2**64
        r8 = _r8_jacobi(np.arange(lo, rk.R8_FIRST_OVERFLOW + 1, dtype=np.int64))
        assert max(r8[:-1]) < 2**64 <= r8[-1] == 18_503_996_770_242_547_200

    def test_doomed_request_refused_before_any_step(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("_square_step called")

        monkeypatch.setattr(rk, "_square_step", refuse)
        for n_max in (rk.R8_FIRST_OVERFLOW, rk.MAX_N):
            with pytest.raises(ConvolutionOverflowError, match=f"from n = {rk.R8_FIRST_OVERFLOW};"):
                build_rk_table(8, n_max)


def _chi4(x: np.ndarray) -> np.ndarray:
    """The nontrivial character mod 4."""
    return np.where(x % 2 == 0, 0, np.where(x % 4 == 1, 1, -1))


def _r6_closed(m: np.ndarray) -> np.ndarray:
    """r_6(m) = sum_{d | m} (16 chi(m/d) - 4 chi(d)) d^2, chi the character
    mod 4, and r_6(0) = 1; exact in int64, since r_6(m) < 3.3e17 below 1e8."""
    acc = np.zeros(m.shape, dtype=np.int64)
    for d in range(1, math.isqrt(int(m.max())) + 1):
        q = m // d
        hit = (m % d == 0) & (d <= q)
        acc += np.where(hit, (16 * _chi4(q) - 4 * _chi4(d)) * d * d, 0)
        acc += np.where(hit & (q != d), (16 * _chi4(d) - 4 * _chi4(q)) * q * q, 0)
    return np.where(m == 0, 1, acc)


def _r7_from_r6(ns: list[int]) -> list[int]:
    """r_7(n) = sum_j r_6(n - j^2) over all integers j, in Python ints, for
    each n in ns (one r_6 evaluation over all of them)."""
    parts = [n - np.arange(math.isqrt(n) + 1, dtype=np.int64) ** 2 for n in ns]
    r6 = np.split(_r6_closed(np.concatenate(parts)), np.cumsum([p.shape[0] for p in parts])[:-1])
    return [int(v[0]) + 2 * sum(int(x) for x in v[1:]) for v in r6]


class TestR7Limit:
    def test_closed_form_matches_build(self):
        n_max = 3000
        assert _r6_closed(np.arange(n_max + 1, dtype=np.int64)).tolist() == build_rk_table(6, n_max).counts.tolist()
        ns = [0, 1, 2, 7, 1000, 2999, 3000]
        r7 = build_rk_table(7, n_max).counts
        assert _r7_from_r6(ns) == [int(r7[n]) for n in ns]

    def test_first_overflow_index(self):
        below, at = _r7_from_r6([rk.R7_FIRST_OVERFLOW - 1, rk.R7_FIRST_OVERFLOW])
        assert below == 12_768_538_204_747_100_720 < 2**64
        assert at == 18_446_915_276_634_761_280 >= 2**64

    def test_doomed_request_refused_before_any_step(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("_square_step called")

        monkeypatch.setattr(rk, "_square_step", refuse)
        for n_max in (rk.R7_FIRST_OVERFLOW, rk.MAX_N):
            with pytest.raises(ConvolutionOverflowError, match=f"r_7\\(n\\) exceeds 64 bits from n = {rk.R7_FIRST_OVERFLOW};"):
                build_rk_table(7, n_max)


class TestBruteforce:
    def test_examples(self):
        assert rk_bruteforce(2, 5) == 8
        assert rk_bruteforce(3, 7) == 0  # 7 = 7 mod 8 is not a sum of three squares
        assert rk_bruteforce(4, 2) == 24

    def test_range(self):
        with pytest.raises(ValueError):
            rk_bruteforce(7, 1)
        with pytest.raises(ValueError):
            rk_bruteforce(3, 10**4 + 1)
        with pytest.raises(ValueError, match="k_max"):
            rk_enumeration_tables(0, 10)

    def test_matches_enumeration_tables(self):
        tables = rk_enumeration_tables(4, 60)
        for k in (1, 2, 3, 4):
            for n in range(61):
                assert rk_bruteforce(k, n) == tables[k - 1][n], (k, n)


class TestIdentities:
    def test_convolve_tables_dimension_cap(self):
        with pytest.raises(ValueError):
            convolve_tables(build_rk_table(5, 10), build_rk_table(4, 10))


class TestR3AtFullSize:
    """Two O(n) identities check r_3 at 4e6, the size the README pipeline reads,
    where the other oracles stop at 1e5 or below.

    rk._r3_step builds r_3 from both: it sets n = 7 (mod 8) to 0 and copies
    r_3(4n) from r_3(n), so test_four_n and the 7 (mod 8) half of
    test_legendre_zeros restate that construction.  The nonzero half still
    checks the summed classes 1, 2, 3, 5 and 6, and the r3@4e6 digest of
    TestStepDtype checks every entry."""

    @pytest.fixture(scope="class")
    def r3(self, series3_big):
        return np.diff(series3_big.prefix, prepend=np.uint64(0))

    def test_legendre_zeros(self, r3):
        # Legendre: for n not divisible by 4, r_3(n) = 0 exactly when n = 7 (mod 8)
        bad = []
        for residue in (1, 2, 3, 5, 6, 7):
            wrong = (r3[residue::8] == 0) != (residue == 7)
            if wrong.any():
                bad.append(residue + 8 * int(np.argmax(wrong)))
        if bad:
            n = min(bad)
            pytest.fail(f"r_3({n}) = {int(r3[n])} breaks Legendre's theorem (n = {n % 8} mod 8)")

    def test_four_n(self, r3):
        quarter = r3[::4]
        wrong = quarter != r3[: quarter.shape[0]]
        if wrong.any():
            n = int(np.argmax(wrong))
            pytest.fail(
                f"r_3(4n) != r_3(n) first at n = {n}: r_3({4 * n}) = {int(quarter[n])}, r_3({n}) = {int(r3[n])}"
            )


class TestR4AtFullSize:
    """Jacobi's four-square theorem checks r_4 at 1e6, the largest r_4 table
    the tests build, where verify's jacobi-and-two-squares stops at 1e5."""

    def test_jacobi(self, series4_1m):
        n_max = series4_1m.n_max
        r4 = np.diff(series4_1m.prefix, prepend=np.uint64(0)).astype(np.int64)
        sig = divisor_sums(np.arange(n_max + 1, dtype=np.int64))
        want = 8 * sig
        want[4::4] -= 32 * sig[1 : n_max // 4 + 1]
        wrong = r4[1:] != want[1:]
        if wrong.any():
            n = 1 + int(np.argmax(wrong))
            pytest.fail(f"r_4({n}) = {int(r4[n])}, but 8 sigma(n) - 32 sigma(n/4) = {int(want[n])}")


def _r8_closed_form(n_max: int) -> np.ndarray:
    """r_8(0..n_max) as uint64, _r8_jacobi's formula from two divisor sums: the
    signed sum is sigma_3(n) for odd n and sigma_3(n) - 2 sigma_3^odd(n) for
    even n.  sigma_3 < 1.2e18 fits int64 below 2^20 and the signed sum is
    positive for n >= 1; 16 times it passes int64 from n = 784,080, so the
    product is taken in uint64."""
    cubes = np.arange(n_max + 1, dtype=np.int64) ** 3
    acc = divisor_sums(cubes)
    cubes[::2] = 0
    acc[::2] -= 2 * divisor_sums(cubes)[::2]
    out = acc.astype(np.uint64) * np.uint64(16)
    out[0] = 1
    return out


def _fail_at_first_difference(name: str, got: np.ndarray, want: np.ndarray, formula: str) -> None:
    wrong = got != want
    if wrong.any():
        n = int(np.argmax(wrong))
        pytest.fail(f"{name}({n}) = {int(got[n])}, but {formula} = {int(want[n])}")


class TestR6R8AtFullSize:
    """r_6 to 1e6 and r_8 to R8_FIRST_OVERFLOW - 1, from the r_4 -> r_8 chain
    of chain_1m, against their closed forms by divisor sums (rk.r6_closed_form
    and _r8_closed_form); TestR7Limit and TestR8Limit check the builds only
    to 3000."""

    def test_sieves_match_closed_forms(self):
        # every n_max to 40 runs the sieve's loops empty or short
        n = np.arange(3001, dtype=np.int64)
        r6 = _r6_closed(n).tolist()
        for n_max in (*range(41), 3000):
            got = rk.r6_closed_form(n_max)
            assert got.dtype == np.uint64 and got.tolist() == r6[: n_max + 1], n_max
        r8 = [1] + _r8_jacobi(n[1:])
        for n_max in (0, 1, 2, 3, 40, 3000):
            got = _r8_closed_form(n_max)
            assert got.dtype == np.uint64 and got.tolist() == r8[: n_max + 1], n_max

    def test_r6_closed_form_at_powers_of_two(self):
        # the factor loop runs over every a with 2^a <= n_max: these sizes end
        # one short of, at and one past 2^16, where a = 16 enters the loop, and
        # just past 2^17, where a = 17 does
        r6 = build_rk_table(6, 131_075).counts
        for n_max in (65_535, 65_536, 65_537, 131_075):
            assert np.array_equal(rk.r6_closed_form(n_max), r6[: n_max + 1]), n_max

    def test_r6(self, chain_1m):
        r6 = chain_1m[2][1]
        formula = "sum_{d | n} (16 chi(n/d) - 4 chi(d)) d^2"
        _fail_at_first_difference("r_6", r6, rk.r6_closed_form(r6.shape[0] - 1), formula)

    def test_r8(self, chain_1m):
        r8 = chain_1m[-1][1]
        assert r8.shape[0] - 1 == 987_839
        _fail_at_first_difference("r_8", r8, _r8_closed_form(r8.shape[0] - 1), "16 sum_{d | n} (-1)^(n+d) d^3")


class TestDivisorSums:
    def test_sigma_examples(self):
        assert sigma(1.0, 6) == 12.0
        assert sigma(0.0, 12) == 6.0
        assert sigma(-3.0, 4) == 1.0 + 1.0 / 8.0 + 1.0 / 64.0

    def test_sigma_odd_examples(self):
        assert sigma(1.0, 12, odd_only=True) == 4.0
        assert sigma(0.0, 8, odd_only=True) == 1.0
        assert_close(sigma(-1.0, 15, odd_only=True), 1.6, rel=1e-15)

    def test_sigma_table_consistency(self):
        for nu in (1.0, 0.0, -3.0):
            powers = np.zeros(301)
            powers[1:] = np.arange(1.0, 301.0) ** nu
            tab = divisor_sums(powers)
            powers[2::2] = 0.0
            odd = divisor_sums(powers)
            for h in (1, 2, 17, 60, 128, 255, 300):
                assert_close(tab[h], sigma(nu, h), rel=1e-14, label=f"sigma_{nu}({h})")
                assert_close(odd[h], sigma(nu, h, odd_only=True), rel=1e-14, label=f"sigma2_{nu}({h})")
        # the empty table, and sizes at and next to a square (the sieve's split)
        for n_max in (0, 1, 3, 4, 288, 289):
            want = [0.0] + [sigma(1.0, h) for h in range(1, n_max + 1)]
            assert divisor_sums(np.arange(n_max + 1.0)).tolist() == want, n_max

    def test_divisor_sieve(self):
        # the sieve with the integer weights verify's jacobi-and-two-squares
        # gives it, d and chi_4(d), against a sum over every divisor
        n_max = 5000
        chi = (0, 1, 0, -1)
        want_sig, want_chi = [0] * (n_max + 1), [0] * (n_max + 1)
        for d in range(1, n_max + 1):
            for n in range(d, n_max + 1, d):
                want_sig[n] += d
                want_chi[n] += chi[d % 4]
        assert divisor_sums(np.arange(n_max + 1, dtype=np.int64)).tolist() == want_sig
        assert divisor_sums(np.array([chi[d % 4] for d in range(n_max + 1)])).tolist() == want_chi


class TestCache:
    def test_trailer_is_blake2b_of_the_rest(self, tmp_path):
        path = tmp_path / "r3.rktb"
        save_table(build_rk_table(3, 1000), path)
        data = path.read_bytes()
        assert data[:8] == b"RKTB" + struct.pack("<I", 2)
        assert data[-8:] == hashlib.blake2b(data[:-8], digest_size=8).digest()

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            save_table(build_rk_table(2, 10), tmp_path / "r2.rktb")
        assert list(tmp_path.iterdir()) == []

    def test_header_checked_before_payload_read(self, tmp_path, monkeypatch):
        def no_read(*args, **kwargs):
            raise AssertionError("payload buffer allocated before the header was validated")

        # the payload is read into buffers from np.empty: none may exist yet
        monkeypatch.setattr(np, "empty", no_read)
        path = tmp_path / "bad.rktb"
        # n_max out of range, then in range but far beyond the file's size
        for n_max, error in ((2**40, CacheFormatError), (10**8, CacheTruncatedError)):
            path.write_bytes(b"RKTB" + struct.pack("<IIQ", 2, 3, n_max) + bytes(64))
            with pytest.raises(error):
                load_table(path)

    def test_header_k_zero(self, tmp_path):
        path = tmp_path / "bad.rktb"
        save_table(build_rk_table(2, 10), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 8, 0)
        path.write_bytes(bytes(data))
        with pytest.raises(CacheFormatError):
            load_table(path)

    def test_every_byte_change_caught(self, tmp_path):
        path = tmp_path / "r2.rktb"
        save_table(build_rk_table(2, 10), path)
        good = path.read_bytes()
        for i in range(len(good)):
            data = bytearray(good)
            data[i] ^= 10
            path.write_bytes(bytes(data))
            with pytest.raises((CacheFormatError, CacheTruncatedError, CacheChecksumError)):
                load_table(path)
