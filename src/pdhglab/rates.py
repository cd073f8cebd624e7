"""Empirical rate fitting: power-law slopes and linear contraction factors.

A sublinear guarantee like O(1/k^2) shows up as slope -2 in a log-log
regression of the measured series against k; a linear guarantee shows up as
per-step Lyapunov ratios below the theorem's contraction factor.  Fits are
windowed to exclude the pre-asymptotic head of a run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: E-values below this are dominated by double-precision rounding; series
#: are truncated at the first entry under the floor.
TRUNCATION_FLOOR = 1e-24


@dataclass(frozen=True)
class RateFit:
    """Least-squares power-law fit ln v = slope * ln k + intercept."""

    slope: float
    intercept: float
    residual: float


@dataclass(frozen=True, eq=False)
class ContractionSummary:
    """Per-gap contraction ratios of a positive series, normalized per step
    (consecutive entries give plain ratios E_{k+1}/E_k)."""

    ratios: np.ndarray
    max_ratio: float
    geomean_ratio: float


def default_window(K0: int = 1) -> tuple[int, int]:
    """Fit window [max(100, 10*K0), 10^4], skipping the pre-asymptotic head."""
    return (max(100, 10 * K0), 10_000)


def fit_rate(ks, vs, window: tuple[int, int]) -> RateFit:
    """OLS of ln v against ln k over the window [k_lo, k_hi]; the slope is
    the empirical order (slope -2 means O(1/k^2)).

    ``ks`` and ``vs`` are the k and v columns of the series.  Requires at
    least 10 points with k inside the window, all with v > 0.
    """
    k_lo, k_hi = window
    if k_lo >= k_hi:
        raise ValueError("window must satisfy k_lo < k_hi")
    ks, vs = np.asarray(ks, dtype=float), np.asarray(vs, dtype=float)
    inside = (k_lo <= ks) & (ks <= k_hi) & (ks > 0)
    ks, vs = ks[inside], vs[inside]
    if len(ks) < 10:
        raise ValueError(f"need at least 10 points in window {window}, got {len(ks)}")
    if np.any(vs <= 0):
        raise ValueError("rate fitting needs strictly positive series values")
    ln_k = np.log(ks)
    ln_v = np.log(vs)
    slope, intercept = np.polyfit(ln_k, ln_v, 1)
    pred = slope * ln_k + intercept
    residual = float(np.sqrt(np.mean((ln_v - pred) ** 2)))
    return RateFit(slope=float(slope), intercept=float(intercept), residual=residual)


def contraction_factors(ks, Es) -> ContractionSummary:
    """Contraction ratios of a positive, indexed series, given as its k
    and E columns.

    The series is truncated at the first E below TRUNCATION_FLOOR.  Ratios
    between non-consecutive indices are normalized per step,
    (E_j/E_i)^(1/(j-i)); the geometric mean telescopes to
    (E_last/E_first)^(1/(k_last-k_first)).
    """
    ks, Es = np.asarray(ks, dtype=float), np.asarray(Es, dtype=float)
    below = np.flatnonzero(Es < TRUNCATION_FLOOR)
    if below.size:
        ks, Es = ks[: below[0]], Es[: below[0]]
    if len(ks) < 2:
        raise ValueError("contraction_factors needs at least two positive entries")
    if np.any(Es <= 0):
        raise ValueError("contraction_factors needs strictly positive E values")
    gaps = np.diff(ks)
    if np.any(gaps <= 0):
        raise ValueError("series indices must be strictly increasing")
    with np.errstate(invalid="ignore"):  # inf / inf: an overflowed E gives a nan ratio
        ratios = (Es[1:] / Es[:-1]) ** (1.0 / gaps)
        geomean = (Es[-1] / Es[0]) ** (1.0 / (ks[-1] - ks[0]))
    return ContractionSummary(
        ratios=ratios,
        max_ratio=float(ratios.max()),
        geomean_ratio=float(geomean),
    )
