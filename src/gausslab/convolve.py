"""Exact integer convolution via number-theoretic transforms.

Floating-point FFTs cannot be trusted at the magnitudes representation
counts reach, so products are computed modulo three NTT-friendly primes

    2013265921 = 15 * 2^27 + 1   (generator 31)
    2281701377 = 17 * 2^27 + 1   (generator 3)
    3221225473 =  3 * 2^30 + 1   (generator 5)

and reconstructed by the Chinese remainder theorem.  The primes fit in 32
bits, so every butterfly product fits a uint64 exactly and the whole
transform vectorizes in numpy.  The CRT modulus is ~2^93, comfortably above
any true coefficient that arises here; any reconstructed value that does not
fit in 64 bits aborts with ConvolutionOverflowError rather than wrapping.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "exact_convolve",
    "ConvolutionOverflowError",
    "ConvolutionCapacityError",
    "MAX_RESULT_LEN",
]

_PRIMES = (2013265921, 2281701377, 3221225473)
_GENERATORS = (31, 3, 5)
_MAX_LOG2 = 27  # limited by the 2-adic valuation of p-1 for the first two primes

MAX_RESULT_LEN = 1 << _MAX_LOG2

_U64_MAX = np.uint64(2**64 - 1)


class ConvolutionOverflowError(OverflowError):
    """A convolution coefficient does not fit in an unsigned 64-bit integer."""


class ConvolutionCapacityError(ValueError):
    """Requested transform size exceeds what the fixed primes support."""


def _bitrev_indices(n: int) -> np.ndarray:
    """The bit-reversal permutation of 0 .. n-1 (n a power of two), by
    doubling: that of 2m points is 2r, then 2r + 1, for r that of m points."""
    rev = np.zeros(1, dtype=np.int64)
    while rev.shape[0] < n:
        rev *= 2
        rev = np.concatenate([rev, rev + 1])
    return rev


def _root_table(p: int, g: int, n: int, invert: bool) -> np.ndarray:
    """The n/2 twiddle factors w^0 .. w^(n/2-1) of a length-n transform, w the
    primitive n-th root g^((p-1)/n) mod p or, to invert, its inverse; built
    by doubling."""
    w = pow(g, (p - 1) // n, p)
    if invert:
        w = pow(w, p - 2, p)
    table = np.ones(1, dtype=np.uint64)
    while table.shape[0] < n // 2:
        table = np.concatenate([table, table * np.uint64(w) % np.uint64(p)])
        w = w * w % p
    return table


def _ntt(values: np.ndarray, p: int, roots: np.ndarray, bitrev: np.ndarray, invert: bool) -> np.ndarray:
    """Transform of values (length n, a power of two); bitrev is
    _bitrev_indices(n) and roots is _root_table(p, g, n, invert), both built
    once per convolution.  The stage of half-length h reads every n/(2h)-th
    root, the powers of its primitive 2h-th root."""
    n = values.shape[0]
    pn = np.uint64(p)
    a = values[bitrev]
    half = 1
    while half < n:
        ws = roots[:: n // (2 * half)]
        blk = a.reshape(-1, 2 * half)
        u = blk[:, :half]
        v = blk[:, half:] * ws
        v %= pn
        s = u + v
        d = u + pn
        d -= v
        # s and d lie in [0, 2p): the wrapped s - p of an s below p is the larger
        np.minimum(s, s - pn, out=blk[:, :half])
        np.minimum(d, d - pn, out=blk[:, half:])
        half *= 2
    if invert:
        a *= np.uint64(pow(n, p - 2, p))
        a %= pn
    return a


def exact_convolve(a: np.ndarray, b: np.ndarray, n_out: int) -> np.ndarray:
    """First n_out coefficients of the product of integer sequences a and b.

    Inputs are uint64 arrays (values < 2^64); the result is exact uint64.
    Raises ConvolutionOverflowError if any true coefficient is >= 2^64 and
    ConvolutionCapacityError if the required transform exceeds 2^27 points.
    """
    if n_out <= 0:
        return np.zeros(0, dtype=np.uint64)
    a = np.ascontiguousarray(np.asarray(a, dtype=np.uint64)[:n_out])
    b = np.ascontiguousarray(np.asarray(b, dtype=np.uint64)[:n_out])
    need = a.shape[0] + b.shape[0] - 1
    if need > MAX_RESULT_LEN:
        raise ConvolutionCapacityError(
            f"convolution needs {need} points; transform capacity is {MAX_RESULT_LEN}"
        )
    size = 1 << max(1, (need - 1).bit_length())
    bitrev = _bitrev_indices(size)
    residues = []
    for p, g in zip(_PRIMES, _GENERATORS):
        pa = np.zeros(size, dtype=np.uint64)
        pa[: a.shape[0]] = a % np.uint64(p)
        pb = np.zeros(size, dtype=np.uint64)
        pb[: b.shape[0]] = b % np.uint64(p)
        roots = _root_table(p, g, size, invert=False)
        fa = _ntt(pa, p, roots, bitrev, invert=False)
        fb = _ntt(pb, p, roots, bitrev, invert=False)
        inverse = _root_table(p, g, size, invert=True)
        residues.append(_ntt(fa * fb % np.uint64(p), p, inverse, bitrev, invert=True)[:n_out])
    return _crt3(residues)


def _crt3(residues: list[np.ndarray]) -> np.ndarray:
    p0, p1, p2 = _PRIMES
    r0, r1, r2 = residues
    inv0 = np.uint64(pow(p0, -1, p1))
    t1 = (r1 + np.uint64(p1) - r0 % np.uint64(p1)) % np.uint64(p1) * inv0 % np.uint64(p1)
    x01 = r0 + np.uint64(p0) * t1  # < p0 * p1 < 2^63, exact
    p01 = p0 * p1
    inv01 = np.uint64(pow(p01 % p2, -1, p2))
    t2 = (r2 + np.uint64(p2) - x01 % np.uint64(p2)) % np.uint64(p2) * inv01 % np.uint64(p2)
    # value = x01 + p01 * t2; reject coefficients that would exceed 2^64
    headroom = (_U64_MAX - x01) // np.uint64(p01)
    if np.any(t2 > headroom):
        bad = int(np.argmax(t2 > headroom))
        raise ConvolutionOverflowError(
            f"convolution coefficient at index {bad} exceeds 64 bits"
        )
    return x01 + np.uint64(p01) * t2

