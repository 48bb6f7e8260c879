"""Property tests: each truncation_bound covers the error it stands for, over
log-uniform X in [1, X_MAX[k]] (hypothesis, derandomized, so every run draws
the same X)."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss

from gausslab.discrepancy import half_power, prefix_counts
from gausslab.moments import (
    exp_cutoff,
    laplace_second_moment,
    sharp_integral_second_moment,
    smooth_second_moment,
    smooth_weighted_first_moment,
)
from gausslab.rk import build_rk_table

from conftest import laplace_refined

# k = 7 and 8 stop at 1e2: at 1e3 their tables, 3 exp_cutoff(k, X_MAX[k]),
# would reach about 3e5 and add about 0.5 s to the suite
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
    p = series.p_values(n_cut + 1, 3 * n_cut + 1)
    return math.fsum(np.abs(weight(p, n)) * np.exp(-n / x))


@pytest.mark.parametrize("k", range(1, 9))
@PROPERTY
@given(u=unit)
def test_laplace_bound_covers_refinement(k, u):
    series, x = series_for(k), X_MAX[k] ** u
    coarse = laplace_second_moment(series, x)
    fine = laplace_refined(series, x, 4)
    assert abs(fine - coarse.value) <= coarse.truncation_bound


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


def refined_sharp_integral(series, X, pieces=4):
    """int_0^X P_k(t)^2 dt in the kernel's centered form, each unit interval
    split into `pieces` 8-point Gauss-Legendre pieces, summed by fsum."""
    k, vk = series.k, series.v_k
    cell0 = 1.0 - 2.0 * vk / (k / 2.0 + 1.0) + vk * vk / (k + 1.0)
    n = np.arange(1, X, dtype=np.float64)
    p = series.p_values(1, X)
    nk2 = half_power(n, k)
    nodes, weights = leggauss(8)
    i1, i2 = np.zeros_like(n), np.zeros_like(n)
    for piece in range(pieces):
        for xi, wi in zip((piece + (nodes + 1.0) / 2.0) / pieces, weights / (2.0 * pieces)):
            delta = nk2 * np.expm1((k / 2.0) * np.log1p(xi / n))
            i1 += wi * delta
            i2 += wi * delta * delta
    return math.fsum([cell0, *(p * p - 2.0 * vk * p * i1 + vk * vk * i2)])


@pytest.mark.parametrize("k", range(1, 9))
@PROPERTY
@given(u=unit)
def test_sharp_integral_bound_covers_refinement(k, u):
    # even k: the 8-point rule is exact on each cell, so only rounding is left
    series, x = series_for(k), max(1, round(X_MAX[k] ** u))
    got = sharp_integral_second_moment(series, x)
    assert abs(refined_sharp_integral(series, x) - got.value) <= got.truncation_bound
