"""Exact representation numbers r_k(n) and their persistent tables.

r_k(n) counts ordered integer k-tuples (n_1, ..., n_k) with
n_1^2 + ... + n_k^2 = n, signs and zeros included, so r_k(0) = 1 and
r_k(1) = 2k.

Construction routes:
  k = 1   squares get count 2 (two signed roots), r_1(0) = 1
  k = 2   direct enumeration of pairs a^2 + b^2 <= n_max, cost O(n_max)
  k = 3   the square step below from r_2, over the classes of n mod 8 that
          need it, in half its adds.  Squares are 0, 1 or 4 mod 8, so r_2 is
          0 on n = 3, 6, 7 and r_3 on n = 7 (mod 8).  Squares are 0 or 1 mod
          4, so a sum of three that is 0 mod 4 has all three even, and halving
          them gives r_3(4n) = r_3(n).  Classes 1, 2, 3, 5 and 6 are summed
          from the classes where r_2 is nonzero, class 7 is set to 0, and the
          multiples of 4 are copied from r_3(n/4)
  k >= 4  k - 3 sparse-square steps from r_3,
          r_{j+1}(n) = r_j(n) + 2 sum_{i>=1} r_j(n - i^2), O(n_max^{3/2}) each,
          walked in cache-sized output blocks
Each step, the k = 3 route included, runs in u32 while
max(r_j) * (2 isqrt(n_max) + 1) < 2^32 proves that no sum can wrap, and in
u64 from the first step where it does not.  So r_3 is built in u32 up to MAX_N
(r_2 <= 4 d(n) <= 3072 there), the step to r_4 runs in u32 at 1e6 and 4e6,
and at n_max = 2000 r_3 and the steps to r_4..r_6 do.

Exact NTT convolution (convolve) builds no table; it is the independent
oracle behind convolve_tables, kept because it reaches the same counts by a
different algorithm.  The steps peak at about 25 B per n, the transform at
about 200 B per n (the peak RSS rise of r_2 * r_2 at 1e6; 3.2 GB at 1.6e7):
above n ~ 3.4e7, where it needs 2^27 points, it does not fit in 7 GB, and
above ~6.7e7 it cannot run at all.
r6_closed_form is an oracle too, not a route: r_6 from the divisor sum of
Jacobi and Glaisher by divisor_sums' sieve, with no square step.  verify's
overflow check starts from it, two steps below the r_8 that wraps.

Every step is exact; an add that could wrap is checked, so any value that
would exceed the integer width aborts with ConvolutionOverflowError instead
of wrapping.  The k = 3 route checks none: its sums are at most
max(r_2) * (2 isqrt(n_max) + 1), below 2^32 in u32 by the bound above and
below 2^64 because r_2 fits in u32.  r_8 first passes 2^64 at n = R8_FIRST_OVERFLOW (987,840) and
r_7 at n = R7_FIRST_OVERFLOW (15,321,071), so a k = 8 or k = 7 request that
reaches its limit raises before any step; no smaller k passes 2^64 below
MAX_N.

Cache file format v2 (little-endian; a v1 file raises CacheFormatError):
  magic "RKTB" (4 bytes) | format version u32 = 2 | k u32 | n_max u64 |
  (n_max + 1) u64 count values | 8-byte blake2b digest of all preceding bytes

load_table checks a file's header and size before any payload is read, then
reads the payload PIECE values at a time through one buffer into the new
table, hashing each piece as it goes, and raises CacheChecksumError if the
digest differs.  check_table makes the same checks and keeps no payload.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import struct
import tempfile
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .convolve import ConvolutionOverflowError, exact_convolve
from .specfun import as_int

try:
    # the very object hashlib.blake2b re-exports, without loading OpenSSL's _hashlib
    from _blake2 import blake2b
except ImportError:  # a CPython built without its own blake2
    from hashlib import blake2b

__all__ = [
    "RkTable",
    "build_rk_table",
    "convolve_tables",
    "rk_bruteforce",
    "rk_enumeration_tables",
    "divisor_sums",
    "r6_closed_form",
    "save_table",
    "load_table",
    "check_table",
    "CacheError",
    "CacheFormatError",
    "CacheTruncatedError",
    "CacheChecksumError",
    "MAX_K",
    "MAX_N",
    "R7_FIRST_OVERFLOW",
    "R8_FIRST_OVERFLOW",
]

MAX_K = 8
MAX_N = 10**8

# Entries per block of the square step, chosen by measurement on a Xeon with
# 2 MiB of L2 per core, which holds a u64 block and its doubled window (1 MiB):
# the r_4 step at n = 1.5e6 took 0.40 s, against 0.47 s with 2^15, 0.53 s
# with 2^17 and 0.94 s unblocked
_BLOCK = 1 << 16

# r_8(n) = 16 sum_{d | n} (-1)^(n+d) d^3 first reaches 2^64 at this n
R8_FIRST_OVERFLOW = 987_840
# r_7(n) first reaches 2^64 at this n (r_7(15,321,071) = 18,446,915,276,634,761,280);
# r_k for k <= 6 stays below 2^64 up to MAX_N
R7_FIRST_OVERFLOW = 15_321_071
_FIRST_OVERFLOW = {7: R7_FIRST_OVERFLOW, 8: R8_FIRST_OVERFLOW}

BRUTEFORCE_MAX_K = 6
BRUTEFORCE_MAX_N = 10**4

_MAGIC = b"RKTB"
_VERSION = 2
_HEADER = struct.Struct("<4sIIQ")  # magic, version, k, n_max
_DIGEST_SIZE = 8

# count values per piece of a payload read (512 KiB).  Freeing a buffer
# above glibc's 128 KiB mmap threshold raises that threshold to its size and
# the heap's trim threshold to twice it, so the moments passes' 128 KiB chunk
# temporaries that follow are reused from the heap instead of being mapped
# afresh.  A warm c3 smooth moments run took 2.4k minor faults with 2^16,
# 3.1k with 2^17 and 19k with 2^14 and 2^15 (the heap top was trimmed between
# chunks); reading 1.5e6 values and summing them in place took 27-33 ms
PIECE = 1 << 16


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


def _check_range(k: int, n_max: int) -> tuple[int, int]:
    """k and n_max as Python ints, or a ValueError if either is out of range."""
    k_int, n_int = as_int(k), as_int(n_max)
    if k_int is None or not (1 <= k_int <= MAX_K):
        raise ValueError(f"k = {k} outside [1, {MAX_K}]")
    if n_int is None or not (0 <= n_int <= MAX_N):
        # past 17 digits, 17 significant ones, exact even past float range
        shown = n_max if n_int is None or abs(n_int) < 10**17 else format(Decimal(n_int), ".17g")
        raise ValueError(f"n_max = {shown} outside [0, {MAX_N}]")
    return k_int, n_int


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


def _widened(base: np.ndarray) -> np.ndarray:
    """base, widened to u64 unless the next step is proved to fit in u32:
    every output of the step is at most max(base) * (2 isqrt(n_max) + 1)."""
    n_max = base.shape[0] - 1
    if base.dtype == np.uint32 and int(base.max(initial=0)) * (2 * math.isqrt(n_max) + 1) < 1 << 32:
        return base
    return base.astype(np.uint64, copy=False)


def _square_step(base: np.ndarray) -> np.ndarray:
    """One more squared coordinate: out[n] = base[n] + 2 sum_{j>=1} base[n - j^2].

    Exact in base's dtype.  The output is walked in blocks of _BLOCK entries
    with j innermost, so a block and the doubled window added to it stay in
    cache; every out[n] still receives its adds in increasing j.  Every add
    into a block [lo, hi) reads base below hi, so after j adds each of its
    outputs is at most max(base[:hi]) * (2j + 1), taken from one running
    maximum over the blocks; while that per-block bound fits, the adds run
    unchecked.  Past it each add is checked: all terms are nonnegative, so an
    add wrapped exactly when the sum is smaller than the addend.  A doubled
    value or a sum that does not fit raises ConvolutionOverflowError, never
    wraps.  The blocks are walked from the top down: r_k grows with n, so the
    top block holds the largest sums, and a step that wraps raises after one
    block instead of after all of them.
    """
    n_max = base.shape[0] - 1
    bits = 8 * base.dtype.itemsize
    limit = 1 << bits
    los = range(0, n_max + 1, _BLOCK)
    tops = list(itertools.accumulate((int(base[lo : lo + _BLOCK].max()) for lo in los), max))
    if tops[-1] >= limit // 2 and np.any(base[:n_max] >= base.dtype.type(limit // 2)):
        raise ConvolutionOverflowError(f"r_k coefficient beyond {bits} bits in the doubling")
    out = base.copy()
    doubled = base * base.dtype.type(2)
    for lo, top in zip(reversed(los), reversed(tops)):
        hi = min(lo + _BLOCK, n_max + 1)
        for j in range(1, math.isqrt(hi - 1) + 1):
            start = max(lo, j * j)
            seg = out[start:hi]
            add = doubled[start - j * j : hi - j * j]
            seg += add
            if top * (2 * j + 1) >= limit and np.any(seg < add):
                raise ConvolutionOverflowError(f"r_k coefficient beyond {bits} bits at step j = {j}")
    return out


# n mod 8 where r_2 can be nonzero: squares are 0, 1 or 4 mod 8
_R2_CLASSES = (0, 1, 2, 4, 5)


def _r3_step(base: np.ndarray) -> np.ndarray:
    """r_3 from base = r_2, equal to _square_step(base) bit for bit, in half
    its adds; base comes from _widened, whose bound proves that no sum wraps.

    The output is built one residue class c of n mod 8 at a time.  Classes
    1, 2, 3, 5 and 6 are square steps into one contiguous accumulator, walked
    in blocks of _BLOCK entries: r_2(n - j^2) lies in class (c - j^2) mod 8,
    read as a contiguous slice of that class's doubled values, and j is
    skipped where that class is not one of _R2_CLASSES.  Class 7 is 0, and
    each multiple of 4 is copied from r_3(n/4), one range [4^a, 4^(a+1)) of
    n/4 at a time, whose own multiples of 4 the range before filled.
    """
    n_max = base.shape[0] - 1
    out = np.empty_like(base)
    doubled = {c: base[c::8] * base.dtype.type(2) for c in _R2_CLASSES}
    for c in (1, 2, 3, 5, 6):
        acc = base[c::8].copy()  # acc[m] = r_3(8m + c)
        for lo in range(0, acc.shape[0], _BLOCK):
            hi = min(lo + _BLOCK, acc.shape[0])
            for j in range(1, math.isqrt(8 * (hi - 1) + c) + 1):
                src = (c - j * j) % 8
                if src not in doubled:
                    continue
                shift = (j * j - c + src) // 8  # 8m + c - j^2 = 8 (m - shift) + src
                start = max(lo, shift)
                acc[start:hi] += doubled[src][start - shift : hi - shift]
        out[c::8] = acc
    out[7::8] = 0
    out[0] = base[0]
    lo = 1
    while 4 * lo <= n_max:
        hi = min(4 * lo, n_max // 4 + 1)
        out[4 * lo : 4 * hi : 4] = out[lo:hi]
        lo *= 4
    return out


def build_rk_table(k: int, n_max: int) -> RkTable:
    """Exact r_k(0..n_max); see the module docstring for the routes."""
    k, n_max = _check_range(k, n_max)
    first_overflow = _FIRST_OVERFLOW.get(k)
    if first_overflow is not None and n_max >= first_overflow:
        raise ConvolutionOverflowError(
            f"r_{k}(n) exceeds 64 bits from n = {first_overflow}; n_max = {n_max} cannot be built"
        )
    counts = _r1_u32(n_max) if k == 1 else _r2_u32(n_max)
    for dim in range(3, k + 1):
        counts = _widened(counts)  # rebinds first, so a narrow base is freed before the step
        counts = _r3_step(counts) if dim == 3 else _square_step(counts)
    return RkTable(k=k, n_max=n_max, counts=counts.astype(np.uint64, copy=False))


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
            nxt[tt:] = map(operator.add, nxt[tt:], current)
        tables.append(nxt)
        current = nxt
    return tables


def divisor_sums(weights: np.ndarray) -> np.ndarray:
    """sum over d | n of weights[d] for n = 0..len(weights) - 1 (entry 0 is 0),
    in the weights' dtype, by the hyperbola sieve: each d <= sqrt(n_max)
    reaches its multiples by one slice, and each larger d is reached through
    its cofactor q = n/d < sqrt(n_max)."""
    n_max = weights.shape[0] - 1
    out = np.zeros_like(weights)
    root = math.isqrt(n_max)
    for d in range(1, root + 1):
        out[d::d] += weights[d]
    for q in range(1, n_max // (root + 1) + 1):
        # n = q d for root < d <= n_max // q
        out[q * (root + 1) :: q] += weights[root + 1 : n_max // q + 1]
    return out


def r6_closed_form(n_max: int) -> np.ndarray:
    """r_6(0..n_max) as u64 from r_6(n) = sum_{d | n} (16 chi(n/d) - 4 chi(d)) d^2
    (Jacobi and Glaisher), chi the nontrivial character mod 4, and r_6(0) = 1.

    divisor_sums' hyperbola sieve: each d <= sqrt(n_max) reaches every
    n = d q by slices over q, and each larger d is reached through its
    cofactor q = n/d.  Exact in int64, then viewed as u64: every term is at
    most 20 d^2 in size, so every partial sum is below
    20 sigma_2(n) < 20 zeta(2) n^2 ~ 32.9 n^2, 3.3e17 at MAX_N.  chi is int8
    and the size-n temporaries are taken PIECE values at a time, so the peak
    is the output and chi, 9 B per n.
    """
    _, n_max = _check_range(6, n_max)
    chi = np.zeros(n_max + 1, dtype=np.int8)
    chi[1::4] = 1
    chi[3::4] = -1
    acc = np.zeros(n_max + 1, dtype=np.int64)
    root = math.isqrt(n_max)
    for d in range(1, root + 1):
        # n = d q for q <= n_max // d; every product's dtype is pinned, since
        # numpy 1.x and 2.x promote an int8 array times a Python int differently
        for lo in range(1, n_max // d + 1, PIECE):
            hi = min(lo + PIECE, n_max // d + 1)
            term = np.multiply(chi[lo:hi], 16 * d * d, dtype=np.int64)
            term -= 4 * int(chi[d]) * d * d
            acc[d * lo : d * hi : d] += term
    for q in range(1, n_max // (root + 1) + 1):
        # n = q d for root < d <= n_max // q
        for lo in range(root + 1, n_max // q + 1, PIECE):
            hi = min(lo + PIECE, n_max // q + 1)
            term = np.multiply(chi[lo:hi], -4, dtype=np.int64)
            term += 16 * int(chi[q])
            d = np.arange(lo, hi, dtype=np.int64)
            d *= d
            term *= d
            acc[q * lo : q * hi : q] += term
    acc[0] = 1
    return acc.view(np.uint64)


def _digest(header: bytes, counts: np.ndarray) -> bytes:
    h = blake2b(header, digest_size=_DIGEST_SIZE)
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


def _read(path, keep: bool) -> tuple[int, int, np.ndarray | None]:
    """(k, n_max, counts) of a valid cache file.  The header and size are
    checked before any payload is read; the payload is then read PIECE
    values at a time through one buffer and hashed, each piece copied into
    a new counts array if `keep` (else counts is None)."""
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
        counts = np.empty(n_max + 1, dtype=np.uint64) if keep else None
        digest = blake2b(header, digest_size=_DIGEST_SIZE)
        buf = np.empty(min(PIECE, n_max + 1), dtype="<u8")  # freed on return: see PIECE
        for lo in range(0, n_max + 1, PIECE):
            piece = buf[: min(PIECE, n_max + 1 - lo)]
            fh.readinto(piece)  # a short read fails the checksum
            digest.update(piece)
            if keep:
                counts[lo : lo + piece.shape[0]] = piece
        stored = fh.read(_DIGEST_SIZE)
    if digest.digest() != stored:
        raise CacheChecksumError(f"{path}: checksum mismatch")
    return k, n_max, counts


def load_table(path) -> RkTable:
    """Read and validate a cache file; the round trip is bit-exact."""
    k, n_max, counts = _read(path, keep=True)
    return RkTable(k=k, n_max=n_max, counts=counts)


def check_table(path) -> tuple[int, int]:
    """(k, n_max) of a valid cache file, with load_table's checks, error
    classes and texts; the payload is hashed and not kept."""
    k, n_max, _ = _read(path, keep=False)
    return k, n_max
