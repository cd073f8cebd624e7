"""Log-log rate fitting and contraction-factor summaries."""

import math

import numpy as np
import pytest

from pdhglab.rates import contraction_factors, default_window, fit_rate


def test_fit_rate_recovers_exact_power_law():
    k = np.arange(1, 2000)
    fit = fit_rate(k, 7.0 * k**-2.5, window=(10, 1500))
    assert abs(fit.slope + 2.5) <= 1e-9
    assert abs(fit.intercept - math.log(7.0)) <= 1e-9
    assert fit.residual <= 1e-10


def test_fit_rate_window_filters_points():
    # values outside the window would destroy the fit if included
    k = np.arange(1, 1100)
    fit = fit_rate(k, np.where(k <= 1000, k**-2.0, 1e6), window=(1, 1000))
    assert abs(fit.slope + 2.0) <= 1e-9


def test_fit_rate_rejects_degenerate_input():
    with pytest.raises(ValueError):
        fit_rate(range(5), np.ones(5), window=(1, 10))  # too few points
    with pytest.raises(ValueError):
        fit_rate(range(1, 100), -np.ones(99), window=(1, 99))  # nonpositive
    with pytest.raises(ValueError):
        fit_rate(range(1, 100), np.arange(1.0, 100.0), window=(50, 50))  # empty window


def test_fit_rate_uses_strictly_positive_k_only():
    k = np.arange(200)
    fit = fit_rate(k, np.where(k > 0, 1.0 / np.maximum(k, 1), 123.0), window=(0, 199))
    assert abs(fit.slope + 1.0) <= 1e-9


def test_default_window_scales_with_threshold():
    assert default_window() == (100, 10_000)
    assert default_window(K0=50) == (500, 10_000)


def test_contraction_factors_geometric_series():
    k = np.arange(60)
    summ = contraction_factors(k, 2.0 * 0.8**k)
    assert len(summ.ratios) == 59
    assert all(abs(r - 0.8) <= 1e-12 for r in summ.ratios)
    assert abs(summ.max_ratio - 0.8) <= 1e-12
    assert abs(summ.geomean_ratio - 0.8) <= 1e-12


def test_contraction_factors_normalizes_record_gaps():
    # recorded every 7 iterations: per-iteration ratio is still recovered
    k = np.arange(0, 700, 7)
    summ = contraction_factors(k, 0.9**k)
    assert all(abs(r - 0.9) <= 1e-12 for r in summ.ratios)
    assert abs(summ.geomean_ratio - 0.9) <= 1e-12


def test_contraction_factors_truncates_at_floor():
    # entries at the floating-point floor are dropped, not ratioed
    k = np.arange(11)
    summ = contraction_factors(k, np.where(k < 10, 0.5**k, 0.0))
    assert len(summ.ratios) == 9
    assert all(abs(r - 0.5) <= 1e-12 for r in summ.ratios)
    # truncation leaving fewer than two entries is an error, not a tiny fit
    with pytest.raises(ValueError):
        contraction_factors([0, 1, 2], [1.0, 1e-30, 1e-30])


def test_contraction_factors_validates_input():
    with pytest.raises(ValueError):
        contraction_factors([0], [1.0])
    with pytest.raises(ValueError):
        contraction_factors([3, 3], [1.0, 0.5])  # non-increasing indices
