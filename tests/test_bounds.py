"""Property tests: each truncation_bound covers the error it stands for, over
log-uniform X in [1, X_MAX[k]] (hypothesis, derandomized, so every run draws
the same X)."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausslab.discrepancy import prefix_counts
from gausslab.moments import (
    exp_cutoff,
    laplace_second_moment,
    smooth_second_moment,
    smooth_weighted_first_moment,
)
from gausslab.rk import build_rk_table

# S_7 and S_8 pass 2^64 near n = 2e5 and 5e4, below 3 exp_cutoff(k, 1e3)
X_MAX = {k: 1e3 if k <= 6 else 1e2 for k in range(1, 9)}

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=10)

# X = X_MAX[k] ** u is log-uniform on [1, X_MAX[k]]
unit = st.floats(0.0, 1.0)


@functools.cache
def series_for(k):
    """r_k to three times the largest cutoff, shared by every example."""
    return prefix_counts(build_rk_table(k, 3 * exp_cutoff(k, X_MAX[k])))


def omitted_tail(series, x, weight):
    """sum over n_cut < n <= 3 n_cut of |weight(P_k(n), n)| e^{-n/X}."""
    n_cut = exp_cutoff(series.k, x)
    n = np.arange(n_cut + 1, 3 * n_cut + 1, dtype=np.float64)
    p = series.p_values()[n_cut + 1 : 3 * n_cut + 1]
    return math.fsum(np.abs(weight(p, n)) * np.exp(-n / x))


@pytest.mark.parametrize("k", range(1, 9))
@PROPERTY
@given(u=unit)
def test_laplace_bound_covers_refinement(k, u):
    series, x = series_for(k), X_MAX[k] ** u
    coarse = laplace_second_moment(series, x)
    fine = laplace_second_moment(series, x, subdivide=4)
    assert abs(fine.value - coarse.value) <= coarse.truncation_bound


@pytest.mark.parametrize("k", range(1, 9))
@PROPERTY
@given(u=unit)
def test_smooth_second_bound_covers_tail(k, u):
    series, x = series_for(k), X_MAX[k] ** u
    tail = omitted_tail(series, x, lambda p, n: p * p)
    assert tail <= smooth_second_moment(series, x).truncation_bound


@pytest.mark.parametrize("k", range(1, 9))
@PROPERTY
@given(u=unit)
def test_smooth_weighted_first_bound_covers_tail(k, u):
    series, x = series_for(k), X_MAX[k] ** u
    tail = omitted_tail(series, x, lambda p, n: p * n ** (k / 2.0 - 1.0))
    assert tail <= smooth_weighted_first_moment(series, x).truncation_bound
