"""Exact representation numbers r_k(n) and their persistent tables.

r_k(n) counts ordered integer k-tuples (n_1, ..., n_k) with
n_1^2 + ... + n_k^2 = n, signs and zeros included, so r_k(0) = 1 and
r_k(1) = 2k.

Construction routes:
  k = 1   squares get count 2 (two signed roots), r_1(0) = 1
  k = 2   direct enumeration of pairs a^2 + b^2 <= n_max, cost O(n_max)
  k >= 3  k - 2 sparse-square steps from the k=2 table,
          r_{j+1}(n) = r_j(n) + 2 sum_{i>=1} r_j(n - i^2), O(n_max^{3/2}) each;
          the step to r_3 runs in u32, every later step in u64

Exact NTT convolution (convolve) builds no table; it is the independent
oracle behind convolve_tables.  Measured on a 2-core box, the steps beat
binary powering under the NTT at every size measured, with bit-identical
output: r_4 at 1e6 / 4e6 / 1.6e7 took 0.9 / 11 / 92 s against
6.0 / 32 / 136 s, and r_6 at 1.6e7 took 201 s against 297 s.  The steps
peak at about 25 B per n, the transform at 180 B per n (2.9 GB at 1.6e7):
above n ~ 3.4e7, where it needs 2^27 points, it does not fit in 7 GB, and
above ~6.7e7 it cannot run at all.

Every step is exact; an add that could wrap is checked, so any value that
would exceed the integer width aborts with ConvolutionOverflowError instead
of wrapping.

Cache file format v2 (little-endian; a v1 file raises CacheFormatError):
  magic "RKTB" (4 bytes) | format version u32 = 2 | k u32 | n_max u64 |
  (n_max + 1) u64 count values | 8-byte blake2b digest of all preceding bytes
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .convolve import ConvolutionOverflowError, exact_convolve

__all__ = [
    "RkTable",
    "build_rk_table",
    "convolve_tables",
    "rk_bruteforce",
    "rk_enumeration_tables",
    "sigma",
    "sigma_table",
    "save_table",
    "load_table",
    "CacheError",
    "CacheFormatError",
    "CacheTruncatedError",
    "CacheChecksumError",
    "MAX_K",
    "MAX_N",
]

MAX_K = 8
MAX_N = 10**8

BRUTEFORCE_MAX_K = 6
BRUTEFORCE_MAX_N = 10**4

_MAGIC = b"RKTB"
_VERSION = 2
_HEADER = struct.Struct("<4sIIQ")  # magic, version, k, n_max
_DIGEST_SIZE = 8


class CacheError(ValueError):
    """A cache file that cannot be used: rebuild it."""


class CacheFormatError(CacheError):
    """Bad magic bytes, unsupported format version or an invalid header."""


class CacheTruncatedError(CacheError):
    """File shorter than the header-declared payload."""


class CacheChecksumError(CacheError):
    """Stored digest does not match the header and payload."""


@dataclass(frozen=True, eq=False)
class RkTable:
    """Exact counts r_k(0..n_max) for one dimension k.

    The counts array is read-only after construction and safe to share.
    """

    k: int
    n_max: int
    counts: np.ndarray

    def __post_init__(self):
        if self.counts.dtype != np.uint64 or self.counts.shape != (self.n_max + 1,):
            raise ValueError("RkTable: counts must be uint64 of length n_max + 1")
        self.counts.flags.writeable = False

    def __eq__(self, other):
        return (
            isinstance(other, RkTable)
            and self.k == other.k
            and self.n_max == other.n_max
            and np.array_equal(self.counts, other.counts)
        )


def _check_range(k: int, n_max: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or not (1 <= k <= MAX_K):
        raise ValueError(f"k = {k} outside [1, {MAX_K}]")
    if not isinstance(n_max, int) or n_max < 0 or n_max > MAX_N:
        raise ValueError(f"n_max = {n_max} outside [0, {MAX_N}]")


def _r1_u32(n_max: int) -> np.ndarray:
    counts = np.zeros(n_max + 1, dtype=np.uint32)
    counts[0] = 1
    roots = np.arange(1, math.isqrt(n_max) + 1, dtype=np.int64)
    counts[roots * roots] = 2
    return counts


def _r2_u32(n_max: int) -> np.ndarray:
    counts = np.zeros(n_max + 1, dtype=np.uint32)
    for a in range(math.isqrt(n_max) + 1):
        rem = n_max - a * a
        b = np.arange(math.isqrt(rem) + 1, dtype=np.int64)
        idx = a * a + b * b
        if a == 0:
            mult = np.where(b == 0, 1, 2)
        else:
            mult = np.where(b == 0, 2, 4)
        counts[idx] += mult.astype(np.uint32)
    return counts


def _square_step(base: np.ndarray) -> np.ndarray:
    """One more squared coordinate: out[n] = base[n] + 2 sum_{j>=1} base[n - j^2].

    Exact in base's dtype.  After j slices every output is at most
    max(base) * (2j + 1); while that bound fits, the adds run unchecked.
    Past it each add is checked: all terms are nonnegative, so an add wrapped
    exactly when the sum is smaller than the addend.  A doubled value or a
    sum that does not fit raises ConvolutionOverflowError, never wraps.
    """
    n_max = base.shape[0] - 1
    bits = 8 * base.dtype.itemsize
    limit = 1 << bits
    top = int(base.max(initial=0))
    if top >= limit // 2 and np.any(base[:n_max] >= base.dtype.type(limit // 2)):
        raise ConvolutionOverflowError(f"r_k coefficient beyond {bits} bits in the doubling")
    out = base.copy()
    doubled = base * base.dtype.type(2)
    for j in range(1, math.isqrt(n_max) + 1):
        jj = j * j
        seg = out[jj:]
        add = doubled[: n_max + 1 - jj]
        seg += add
        if top * (2 * j + 1) >= limit and np.any(seg < add):
            raise ConvolutionOverflowError(f"r_k coefficient beyond {bits} bits at step j = {j}")
    return out


def build_rk_table(k: int, n_max: int) -> RkTable:
    """Exact r_k(0..n_max); see the module docstring for the routes."""
    _check_range(k, n_max)
    if k == 1:
        counts = _r1_u32(n_max).astype(np.uint64)
    else:
        counts = _r2_u32(n_max)
        if k >= 3:
            counts = _square_step(counts)  # r_3 stays in u32; the step checks that
        counts = counts.astype(np.uint64)
        for _ in range(k - 3):
            counts = _square_step(counts)
    return RkTable(k=k, n_max=n_max, counts=counts)


def convolve_tables(a: RkTable, b: RkTable) -> RkTable:
    """Exact product table: dimension a.k + b.k, truncated to min(n_max)."""
    k = a.k + b.k
    if k > MAX_K:
        raise ValueError(f"combined dimension {k} exceeds {MAX_K}")
    n_max = min(a.n_max, b.n_max)
    counts = exact_convolve(a.counts, b.counts, n_max + 1)
    return RkTable(k=k, n_max=n_max, counts=counts)


def rk_bruteforce(k: int, n: int) -> int:
    """r_k(n) by nested enumeration over coordinates in [-sqrt(n), sqrt(n)].

    Exponential-cost oracle; keep k <= 6 and n <= 10^4.  The recursion prunes
    on the remaining budget and resolves the final coordinate by a perfect
    square test.
    """
    if not (1 <= k <= BRUTEFORCE_MAX_K):
        raise ValueError(f"rk_bruteforce: k = {k} outside [1, {BRUTEFORCE_MAX_K}]")
    if not (0 <= n <= BRUTEFORCE_MAX_N):
        raise ValueError(f"rk_bruteforce: n = {n} outside [0, {BRUTEFORCE_MAX_N}]")

    def count(dims: int, budget: int) -> int:
        if dims == 1:
            if budget == 0:
                return 1
            r = math.isqrt(budget)
            return 2 if r * r == budget else 0
        total = 0
        r = math.isqrt(budget)
        for t in range(-r, r + 1):
            total += count(dims - 1, budget - t * t)
        return total

    return count(k, n)


def rk_enumeration_tables(k_max: int, n_max: int) -> list[list[int]]:
    """r_1..r_{k_max} tables by adding one signed coordinate at a time.

    Pure-Python integer enumeration, independent of the production build
    path; the batch analogue of rk_bruteforce for full-range cross-checks.
    Returns tables[j] = r_{j+1}(0..n_max).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    root = math.isqrt(n_max)
    current = [1] + [0] * n_max  # zero coordinates: the empty sum
    tables = []
    for _ in range(k_max):
        nxt = [0] * (n_max + 1)
        for t in range(-root, root + 1):
            tt = t * t
            for m in range(n_max + 1 - tt):
                nxt[m + tt] += current[m]
        tables.append(nxt)
        current = nxt
    return tables


def sigma(nu: float, h: int, odd_only: bool = False) -> float:
    """Divisor power sum sigma_nu(h) = sum over d | h of d^nu (odd d only if
    odd_only), by trial division."""
    if not isinstance(h, int) or h < 1:
        raise ValueError("sigma: h must be a positive integer")
    if h > 10**9:
        raise ValueError("sigma: h above trial-division range")
    total = []
    d = 1
    while d * d <= h:
        if h % d == 0:
            for q in {d, h // d}:
                if not odd_only or q % 2:
                    total.append(float(q) ** nu)
        d += 1
    return math.fsum(total)


def sigma_table(nu: float, n_max: int, odd_only: bool = False) -> np.ndarray:
    """sigma_nu(h) for all h <= n_max by sieve accumulation (index 0 unused)."""
    out = np.zeros(n_max + 1, dtype=np.float64)
    for d in range(1, n_max + 1, 2 if odd_only else 1):
        out[d::d] += float(d) ** nu
    return out


def _digest(header: bytes, counts: np.ndarray) -> bytes:
    h = hashlib.blake2b(header, digest_size=_DIGEST_SIZE)
    h.update(counts)
    return h.digest()


def save_table(table: RkTable, path) -> None:
    """Write the cache file atomically (temp file + rename)."""
    header = _HEADER.pack(_MAGIC, _VERSION, table.k, table.n_max)
    payload = np.ascontiguousarray(table.counts, dtype="<u8")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".rktb.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(payload)
            fh.write(_digest(header, payload))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_table(path) -> RkTable:
    """Read and validate a cache file; the round trip is bit-exact."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if header[:4] != _MAGIC:
            raise CacheFormatError(f"{path}: bad magic bytes")
        if len(header) < _HEADER.size:
            raise CacheTruncatedError(f"{path}: shorter than a table header")
        _, version, k, n_max = _HEADER.unpack(header)
        try:
            if version != _VERSION:
                raise ValueError(f"unsupported format version {version}")
            _check_range(k, n_max)
        except ValueError as exc:
            raise CacheFormatError(f"{path}: {exc}") from None
        size = os.fstat(fh.fileno()).st_size
        need = _HEADER.size + 8 * (n_max + 1) + _DIGEST_SIZE
        if size < need:
            raise CacheTruncatedError(f"{path}: truncated ({size} bytes, need {need})")
        if size > need:
            raise CacheFormatError(f"{path}: trailing bytes after checksum")
        counts = np.fromfile(fh, dtype="<u8", count=n_max + 1)
        stored = fh.read(_DIGEST_SIZE)
    if _digest(header, counts) != stored:
        raise CacheChecksumError(f"{path}: checksum mismatch")
    return RkTable(k=k, n_max=n_max, counts=counts.astype(np.uint64, copy=False))
