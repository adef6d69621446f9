"""Quantile point estimates and their Monte Carlo confidence intervals.

The point estimate is a pure order statistic (no interpolation between
order statistics). Its Monte Carlo error combines the batch-means
variance of the indicator series I(V_t <= y) with a kernel density
estimate of the target density at the quantile, following the CLT
    sigma^2(phi_q) = sigma^2(y) / f(phi_q)^2.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .chain import ChainMatrix
from .errors import (
    DataError,
    DegenerateDataError,
    DimensionError,
    NumericsError,
    ParameterError,
)
from .mcse import _TINY, batch_means_sigma

__all__ = [
    "QuantileEstimate",
    "empirical_quantile",
    "indicator_sigma2",
    "kde_at",
    "kde_bandwidth",
    "quantile_ci",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
KDE_BANDWIDTH_RULE = "0.9 * min(sd, iqr/1.34) * n^(-1/5)"


@dataclass(frozen=True)
class QuantileEstimate:
    """Point estimate of one quantile plus its Monte Carlo interval.

    ``ci`` is the (lo, hi) interval for the quantile of the target
    distribution at confidence level 1 - alpha; it quantifies simulation
    error around ``point``, not posterior spread.
    """

    q: float
    point: float
    indicator_sigma2: float
    density_at: float
    ci: tuple
    alpha: float


def _as_series(v):
    if isinstance(v, ChainMatrix):
        if v.cols != 1:
            raise DimensionError(
                f"quantile operations take one column, got {v.cols}"
            )
        return v.column(0)
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise DimensionError(f"series must be 1-dimensional, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise DataError("series values must all be finite")
    return arr


def empirical_quantile(v, q):
    """Order statistic V_(ceil(n q)): the smallest j+1 with j < n q <= j+1."""
    arr = _as_series(v)
    n = arr.size
    if n < 1:
        raise DataError("series is empty")
    if not 0.0 < q < 1.0:
        raise ParameterError(f"quantile level must be inside (0, 1), got {q}")
    k = math.ceil(n * q)
    k = min(max(k, 1), n)
    return float(np.partition(arr, k - 1)[k - 1])


def indicator_sigma2(v, y, b):
    """Batch-means variance of the indicator series I(V_t <= y)."""
    arr = _as_series(v)
    ind = (arr <= y).astype(float)
    if ind.min() == ind.max():
        raise DegenerateDataError(
            f"indicator series for threshold {y} is constant"
        )
    est = batch_means_sigma(ChainMatrix._adopt(ind), b)
    return float(est.matrix[0, 0])


def kde_bandwidth(arr):
    """Bandwidth of :func:`kde_at` for a 1-D array: ``KDE_BANDWIDTH_RULE``,
    with the standard deviation alone when the interquartile range is zero."""
    n = arr.size
    with np.errstate(over="ignore"):
        sd = float(arr.std())
    if not math.isfinite(sd):
        raise NumericsError(
            "KDE bandwidth: standard deviation overflows; rescale the chain"
        )
    if sd * sd < _TINY and arr.min() < arr.max():
        raise NumericsError("KDE bandwidth: variance underflows; rescale the chain")
    q75, q25 = np.percentile(arr, [75.0, 25.0])
    iqr = float(q75 - q25)
    scale = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    return 0.9 * scale * n ** (-0.2)


def kde_at(v, x):
    """Gaussian kernel density estimate at ``x``.

    The bandwidth comes from :func:`kde_bandwidth`. Accepts a scalar or a
    1-D grid of evaluation points.
    """
    arr = _as_series(v)
    if arr.size < 2:
        raise DegenerateDataError("density estimation needs at least two points")
    if arr.min() == arr.max():
        raise DegenerateDataError("density estimation needs a non-constant series")
    h = kde_bandwidth(arr)
    scalar = np.ndim(x) == 0
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty(pts.size)
    # far points overflow z * z to inf, and their kernel weight is exactly 0
    with np.errstate(over="ignore"):
        for idx, p in enumerate(pts):
            z = (p - arr) / h
            out[idx] = float(np.exp(-0.5 * z * z).mean()) / (h * _SQRT_2PI)
    return float(out[0]) if scalar else out


def quantile_ci(v, q, alpha, b):
    """Quantile point estimate with a CLT-based Monte Carlo interval.

    half-width = z_{1-alpha/2} * sqrt(sigma^2(y)) / (f_hat(y) * sqrt(n))
    with y the empirical quantile, sigma^2(y) from the indicator series,
    and f_hat the Gaussian KDE at y.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be inside (0, 1), got {alpha}")
    arr = _as_series(v)
    point = empirical_quantile(arr, q)
    sig2 = indicator_sigma2(arr, point, b)
    dens = kde_at(arr, point)
    return QuantileEstimate(
        q=float(q),
        point=point,
        indicator_sigma2=sig2,
        density_at=dens,
        ci=normal_interval(
            point, alpha, math.sqrt(sig2), dens * math.sqrt(arr.size)
        ),
        alpha=float(alpha),
    )


def normal_interval(center, alpha, sd, scale=1.0):
    """Two-sided CLT interval center -/+ z_{1-alpha/2} * sd / scale."""
    half = float(ndtri(1.0 - alpha / 2.0)) * sd / scale
    return (center - half, center + half)
