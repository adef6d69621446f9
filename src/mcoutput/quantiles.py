"""Quantile point estimates and their Monte Carlo confidence intervals.

The point estimate is a pure order statistic (no interpolation between
order statistics). Its Monte Carlo error combines the batch-means
variance of the indicator series I(V_t <= y) with a kernel density
estimate of the target density at the quantile, following the CLT
    sigma^2(phi_q) = sigma^2(y) / f(phi_q)^2.

The intervals are computed one column at a time: one contiguous copy of
the column, one partition for the order statistics of every level, and
one KDE call, so one bandwidth, for the densities at every level.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .chain import ChainMatrix, _float_array
from .errors import (
    DataError,
    DegenerateDataError,
    DimensionError,
    NumericsError,
    OutputAnalysisError,
    ParameterError,
    _require_alpha,
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
# np.exp(w) is exactly 0.0 for every w <= _EXP_ZERO (0.0 from about -745.13)
_EXP_ZERO = -746.0
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
    """The series as a contiguous 1-D float array; a copy only if strided."""
    if isinstance(v, ChainMatrix):
        if v.cols != 1:
            raise DimensionError(
                f"quantile operations take one column, got {v.cols}"
            )
        return np.ascontiguousarray(v.column(0))
    arr = _float_array(v, copy=False, what="series")
    if arr.ndim != 1:
        raise DimensionError(f"series must be 1-dimensional, got ndim={arr.ndim}")
    arr = np.ascontiguousarray(arr)
    if arr.size and not np.isfinite(arr).all():
        raise DataError("series values must all be finite")
    return arr


def _rank(n, q):
    """0-based rank of the order statistic V_(ceil(n q)) of n values."""
    if not 0.0 < q < 1.0:
        raise ParameterError(f"quantile level must be inside (0, 1), got {q}")
    return min(max(math.ceil(n * q), 1), n) - 1


def empirical_quantile(v, q):
    """Order statistic V_(ceil(n q)): the smallest j+1 with j < n q <= j+1."""
    arr = _as_series(v)
    if arr.size < 1:
        raise DataError("series is empty")
    k = _rank(arr.size, q)
    return float(np.partition(arr, k)[k])


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
    with the standard deviation alone when the interquartile range is zero.
    Only a constant array's is below ``_TINY``; others raise NumericsError."""
    n = arr.size
    with np.errstate(over="ignore", invalid="ignore"):
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
    h = 0.9 * scale * n ** (-0.2)
    if h < _TINY and arr.min() < arr.max():
        raise NumericsError("KDE bandwidth underflows; rescale the chain")
    return h


def _kde_sums(arr, h, pts, out, buf, zero):
    """``out[i]`` = mean of exp(w), w = -0.5 (z z) and z = (pts[i] - arr) / h,
    for every point, in the float buffer ``buf`` and the bool buffer ``zero``.

    w is -z z / 2 rounded once, as (-0.5 z) z is, except where z z is below
    2**-1021, where both give weight 1.0, or overflows, where both give 0.
    A w <= ``_EXP_ZERO`` (-inf included) has weight exactly 0, so exp is
    never asked for it: its underflow path costs ten times a normal result.
    The array that is averaged holds the bits exp would give.
    """
    with np.errstate(over="ignore"):  # per thread: each caller enters it
        for idx, p in enumerate(pts):
            np.subtract(p, arr, out=buf)
            np.divide(buf, h, out=buf)
            np.multiply(buf, buf, out=buf)
            np.multiply(buf, -0.5, out=buf)
            np.less_equal(buf, _EXP_ZERO, out=zero)
            np.putmask(buf, zero, 0.0)
            np.exp(buf, out=buf)
            np.putmask(buf, zero, 0.0)
            out[idx] = buf.mean()


def kde_at(v, x):
    """Gaussian kernel density estimate at ``x``.

    The bandwidth comes from :func:`kde_bandwidth`, once per call. Accepts a
    scalar or a 1-D grid of evaluation points; every point must be finite
    (a point at +-inf is refused, not given density 0). A worker thread
    takes the later half of the points; each point's arithmetic is the
    same on either thread, and no BLAS is involved.
    """
    arr = _as_series(v)
    pts = _float_array(x, copy=False, what="evaluation point")
    if pts.ndim > 1:
        raise DimensionError(
            f"evaluation points must be a scalar or 1-D, got ndim={pts.ndim}"
        )
    if not np.isfinite(pts).all():
        raise DataError("evaluation points must all be finite")
    if arr.size < 2:
        raise DegenerateDataError("density estimation needs at least two points")
    if arr.min() == arr.max():
        raise DegenerateDataError("density estimation needs a non-constant series")
    h = kde_bandwidth(arr)
    flat = pts.reshape(-1)
    out = np.empty(flat.size)
    half = (flat.size + 1) // 2
    # the worker's buffers are made here: a worker's own stay in glibc's
    # per-thread arena (see mcse._CoMoments)
    with ThreadPoolExecutor(max_workers=1) as pool:
        later = None
        if half < flat.size:
            later = pool.submit(
                _kde_sums, arr, h, flat[half:], out[half:],
                np.empty_like(arr), np.empty(arr.size, dtype=bool),
            )
        _kde_sums(
            arr, h, flat[:half], out[:half],
            np.empty_like(arr), np.empty(arr.size, dtype=bool),
        )
        if later is not None:
            later.result()
    out /= h * _SQRT_2PI
    return float(out[0]) if pts.ndim == 0 else out


def _quantile_cis(v, levels, alpha, b):
    """:func:`quantile_ci` of one series at every level in ``levels``.

    Returns one entry per level: its :class:`QuantileEstimate`, or the
    :class:`OutputAnalysisError` its estimation raised. The series is made
    contiguous once, one partition places every level's order statistic,
    and one :func:`kde_at` call gives the densities of the levels whose
    indicator variance exists. A KDE error does not depend on the point,
    so every such level gets the same one.
    """
    try:
        _require_alpha(alpha)
        arr = _as_series(v)
        if arr.size < 1:
            raise DataError("series is empty")
    except OutputAnalysisError as exc:
        return (exc,) * len(levels)
    entries = [None] * len(levels)
    ranks = {}
    for j, q in enumerate(levels):
        try:
            ranks[j] = _rank(arr.size, q)
        except ParameterError as exc:
            entries[j] = exc
    ordered = np.partition(arr, list(ranks.values())) if ranks else arr
    found = {}  # level index -> (point, indicator variance)
    for j, k in ranks.items():
        point = float(ordered[k])
        try:
            found[j] = (point, indicator_sigma2(arr, point, b))
        except OutputAnalysisError as exc:
            entries[j] = exc
    if not found:
        return tuple(entries)
    try:
        dens = kde_at(arr, [point for point, _ in found.values()]).tolist()
    except OutputAnalysisError as exc:
        return tuple(exc if j in found else e for j, e in enumerate(entries))
    for (j, (point, s2)), d in zip(found.items(), dens):
        entries[j] = QuantileEstimate(
            q=float(levels[j]),
            point=point,
            indicator_sigma2=s2,
            density_at=d,
            ci=normal_interval(point, alpha, math.sqrt(s2), d * math.sqrt(arr.size)),
            alpha=float(alpha),
        )
    return tuple(entries)


def quantile_ci(v, q, alpha, b):
    """Quantile point estimate with a CLT-based Monte Carlo interval.

    half-width = z_{1-alpha/2} * sqrt(sigma^2(y)) / (f_hat(y) * sqrt(n))
    with y the empirical quantile, sigma^2(y) from the indicator series,
    and f_hat the Gaussian KDE at y.
    """
    (entry,) = _quantile_cis(v, (q,), alpha, b)
    if isinstance(entry, OutputAnalysisError):
        raise entry
    return entry


def normal_interval(center, alpha, sd, scale=1.0):
    """Two-sided CLT interval center -/+ z_{1-alpha/2} * sd / scale."""
    _require_alpha(alpha)
    half = float(ndtri(1.0 - alpha / 2.0)) * sd / scale
    return (center - half, center + half)
