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
    fnv1a,
    load_table,
    rk_bruteforce,
    rk_enumeration_tables,
    save_table,
    sigma,
    sigma_table,
)

from conftest import assert_close


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

    def test_oracle_equivalence_small(self, tables_small):
        reference = rk_enumeration_tables(6, 512)
        for k in range(1, 7):
            assert tables_small[k].counts.tolist() == reference[k - 1], f"k={k}"

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
        chain = _ntt_chain(5, 10**5)
        for k in (4, 5):
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

    def test_matches_enumeration_tables(self):
        tables = rk_enumeration_tables(4, 60)
        for k in (1, 2, 3, 4):
            for n in range(61):
                assert rk_bruteforce(k, n) == tables[k - 1][n], (k, n)


class TestIdentities:
    def test_jacobi_r4(self):
        n_max = 20000
        table = build_rk_table(4, n_max)
        sig1 = sigma_table(1.0, n_max)
        want = 8.0 * sig1
        want[4::4] -= 32.0 * sig1[1 : n_max // 4 + 1]
        assert np.array_equal(table.counts[1:].astype(np.float64), want[1:])

    def test_two_squares(self):
        n_max = 20000
        table = build_rk_table(2, n_max)
        diff = np.zeros(n_max + 1)
        for d in range(1, n_max + 1):
            if d % 4 == 1:
                diff[d::d] += 1.0
            elif d % 4 == 3:
                diff[d::d] -= 1.0
        assert np.array_equal(table.counts[1:].astype(np.float64), 4.0 * diff[1:])

    def test_r4_multiplicativity_sample(self):
        table = build_rk_table(4, 10**4)
        counts = table.counts
        for m in range(2, 101):
            for n in range(2, 101):
                if math.gcd(m, n) != 1:
                    continue
                assert int(counts[m * n]) // 8 == (int(counts[m]) // 8) * (int(counts[n]) // 8)

    def test_r5_two_routes(self):
        n_max = 2000
        a = convolve_tables(build_rk_table(2, n_max), build_rk_table(3, n_max))
        b = convolve_tables(build_rk_table(4, n_max), build_rk_table(1, n_max))
        direct = build_rk_table(5, n_max)
        assert a == b == direct
        assert a.k == 5

    def test_convolve_tables_dimension_cap(self):
        with pytest.raises(ValueError):
            convolve_tables(build_rk_table(5, 10), build_rk_table(4, 10))


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
            tab = sigma_table(nu, 300)
            odd = sigma_table(nu, 300, odd_only=True)
            for h in (1, 2, 17, 60, 128, 255, 300):
                assert_close(tab[h], sigma(nu, h), rel=1e-14, label=f"sigma_{nu}({h})")
                assert_close(odd[h], sigma(nu, h, odd_only=True), rel=1e-14, label=f"sigma2_{nu}({h})")

    def test_validation(self):
        with pytest.raises(ValueError):
            sigma(1.0, 0)
        with pytest.raises(ValueError):
            sigma(1.0, -3, odd_only=True)


class TestCache:
    def test_fnv1a_known_vectors(self):
        assert fnv1a((b"",)) == 0xCBF29CE484222325
        assert fnv1a((b"a",)) == 0xAF63DC4C8601EC8C
        assert fnv1a((b"foobar",)) == 0x85944171F73967E8
        assert fnv1a((b"foo", b"bar")) == fnv1a((b"foobar",))

    def test_roundtrip(self, tmp_path):
        table = build_rk_table(3, 1000)
        path = tmp_path / "r3.rktb"
        save_table(table, path)
        assert load_table(path) == table

    def test_file_size(self, tmp_path):
        table = build_rk_table(2, 999)
        path = tmp_path / "r2.rktb"
        save_table(table, path)
        assert os.path.getsize(path) == 4 + 4 + 4 + 8 + 8 * 1000 + 8

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.rktb"
        save_table(build_rk_table(2, 10), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XKTB"
        path.write_bytes(bytes(data))
        with pytest.raises(CacheFormatError):
            load_table(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.rktb"
        save_table(build_rk_table(2, 10), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 4, 99)
        path.write_bytes(bytes(data))
        with pytest.raises(CacheFormatError):
            load_table(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "bad.rktb"
        save_table(build_rk_table(2, 10), path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(CacheTruncatedError):
            load_table(path)

    def test_checksum_mismatch(self, tmp_path):
        path = tmp_path / "bad.rktb"
        save_table(build_rk_table(2, 10), path)
        data = bytearray(path.read_bytes())
        data[30] ^= 0xFF  # flip a payload byte
        path.write_bytes(bytes(data))
        with pytest.raises(CacheChecksumError):
            load_table(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "bad.rktb"
        save_table(build_rk_table(2, 10), path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(CacheFormatError):
            load_table(path)
