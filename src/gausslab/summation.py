"""Deterministic compensated summation.

The reduction is pairwise within fixed blocks of 1024 elements and
Neumaier-compensated across blocks.  The block structure depends only on the
input length, so a sum is bit-identical across runs.  Accumulation error stays
below ~1e-13 relative even at 1e8 terms.

A pass fed CHUNK elements at a time keeps, per prefix it sums, a _BlockSum
(block_compensated_sum) or a _StreamedSum (np.sum, from chunk-local pieces of
numpy's pairwise tree: Higham, SIAM J. Sci. Comput. 14, 1993) instead of the
prefix itself; neither changes a bit (TestStreamedSum checks it against numpy).
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["block_compensated_sum", "block_partials", "neumaier_sum"]

BLOCK = 1024

# elements per step of a streamed pass: 2^14 doubles (128 KB) per temporary,
# faster than 2^12 and 2^16 for the Laplace pass; a whole number of blocks, so
# that the block partials of the chunks of a prefix are those of the prefix
CHUNK = 2**14


def neumaier_sum(values) -> float:
    """Sequential Neumaier (improved Kahan) sum of an iterable of floats."""
    total = 0.0
    comp = 0.0
    for v in values:
        v = float(v)
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp


def block_partials(values: np.ndarray) -> np.ndarray:
    """The per-block sums that block_compensated_sum adds: numpy's pairwise
    sum of each full block of BLOCK elements from index 0, then of the
    remainder.  The partials of consecutive pieces, all but the last a whole
    number of blocks long, concatenate to the partials of the whole."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    nfull = arr.shape[0] // BLOCK
    rows = np.add.reduce(arr[: nfull * BLOCK].reshape(nfull, BLOCK), axis=1)
    if arr.shape[0] % BLOCK:
        rows = np.append(rows, np.add.reduce(arr[nfull * BLOCK :]))
    return rows


def block_compensated_sum(values: np.ndarray) -> float:
    """Sum a float64 array: numpy pairwise within blocks, Neumaier across.

    Empty input sums to 0.0.
    """
    return neumaier_sum(block_partials(values))


class _BlockSum:
    """block_compensated_sum of the first n elements of an array fed as
    _StreamedSum.feed takes it, keeping only their block partials."""

    def __init__(self, n: int):
        self.n, self.partials = n, []

    def feed(self, lo: int, values: np.ndarray) -> None:
        if lo < self.n:
            self.partials.append(block_partials(values[: self.n - lo]))

    def total(self) -> float:
        return neumaier_sum(itertools.chain.from_iterable(self.partials))


# numpy's pairwise summation (np.add.reduce of contiguous float64) sums runs
# of at most this many elements directly, eight lanes at a time
_PAIRWISE_LEAF = 128


def _pairwise_fold(n: int, piece, lo: int = 0) -> float:
    """numpy's pairwise summation tree over the n elements from lo, each node
    split at n//2 rounded down to a multiple of 8, with each leaf and each
    node inside one CHUNK (counted from element 0) taken as piece(lo, hi)
    instead of being split further.  A module-level recursion: a nested
    closure that called itself would be a reference cycle, keeping piece (and
    the _StreamedSum behind it) alive until the cyclic collector runs."""
    if n <= _PAIRWISE_LEAF or lo // CHUNK == (lo + n - 1) // CHUNK:
        return piece(lo, lo + n)
    half = n // 2
    half -= half % 8
    return _pairwise_fold(half, piece, lo) + _pairwise_fold(n - half, piece, lo + half)


class _StreamedSum:
    """np.sum of the first n elements of an array fed CHUNK elements at a
    time from element 0, bit for bit, keeping only one number per piece of
    _pairwise_fold: each piece inside a chunk is summed by np.add.reduce as
    its chunk arrives (the same tree numpy builds under that node), a leaf
    that straddles a chunk boundary is carried into the next chunk (at most
    _PAIRWISE_LEAF elements), and total() folds the piece sums in tree order.
    Exact for data without -0.0 (np.sum adds its 0.0 identity once)."""

    def __init__(self, n: int):
        self.n = n
        self.spans = []
        _pairwise_fold(n, lambda lo, hi: self.spans.append((lo, hi)) or 0.0)
        self.sums = []
        self.carry = None

    def feed(self, lo: int, values: np.ndarray) -> None:
        """Elements lo .. lo + len(values) - 1 (those below n count): lo is a
        multiple of CHUNK, values a full chunk unless it ends the array."""
        spans, hi = self.spans, min(lo + values.shape[0], self.n)
        i = len(self.sums)
        while i < len(spans) and spans[i][0] < hi:
            a, b = spans[i]
            if b > hi:
                self.carry = values[a - lo :].copy()
                break
            seg = values[a - lo : b - lo] if a >= lo else np.concatenate((self.carry, values[: b - lo]))
            self.sums.append(np.add.reduce(seg))
            i += 1

    def total(self) -> float:
        sums = iter(self.sums)
        return float(_pairwise_fold(self.n, lambda lo, hi: next(sums))) if self.n else 0.0
