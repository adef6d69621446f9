"""Monte Carlo standard error machinery: batch means and friends.

Everything here estimates one of the two matrices that drive the rest of
the toolkit: the asymptotic covariance Sigma of the Monte Carlo average
(batch means or its flat-top bias correction) and the target covariance
Lambda of the functional itself (plain sample covariance with divisor n).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    NumericsError,
    ParameterError,
    _require_int,
)

__all__ = [
    "CovarianceEstimate",
    "CorrelogramSeries",
    "batch_means_sigma",
    "flat_top_sigma",
    "sample_cov_lambda",
    "default_batch_size",
    "sqrt_batch_size",
    "correlogram",
]

# pivot^2 / diagonal entry at or below which a Cholesky factor marks the
# estimate numerically singular; duplicated columns give about 1e-16
_MIN_RELATIVE_PIVOT = 1e-12


@dataclass(frozen=True)
class CovarianceEstimate:
    """A p-by-p covariance estimate, factored once, plus its metadata.

    Attributes
    ----------
    matrix : ndarray
        Symmetrized p-by-p estimate; construction marks it read-only, and
        raises :class:`NumericsError` if it overflowed to a non-finite value.
    kind : str
        One of ``"batch-means"``, ``"flat-top"``, ``"sample-cov"``.
    batch_size : int
        Batch length b that produced the estimate; 0 for sample-cov.
    n_used : int
        Rows actually consumed (trailing rows beyond the last complete
        batch are dropped from the end).
    chol, log_det : ndarray, float, or None
        Lower Cholesky factor (read-only) and log det of ``matrix``; both
        None when the matrix is not positive definite or is numerically
        singular (some relative Cholesky pivot at or below 1e-12).
    is_psd : bool
        Whether the matrix is positive semidefinite. Batch means and
        sample covariance are PSD by construction; the flat-top
        combination can fail, and a PSD matrix can still be singular, so
        consumers that need an inverse check ``chol`` instead.
    """

    matrix: np.ndarray
    kind: str
    batch_size: int
    n_used: int
    chol: np.ndarray | None = field(default=None, init=False, repr=False)
    log_det: float | None = field(default=None, init=False)
    is_psd: bool = field(default=True, init=False)

    def __post_init__(self):
        if not np.isfinite(self.matrix).all():
            raise NumericsError(f"{self.kind} covariance overflows; rescale the chain")
        self.matrix.setflags(write=False)
        try:
            chol = np.linalg.cholesky(self.matrix)
        except np.linalg.LinAlgError:
            eigs = np.linalg.eigvalsh(self.matrix)
            tol = 1e-12 * max(1.0, float(np.abs(eigs).max()))
            object.__setattr__(self, "is_psd", bool(eigs.min() >= -tol))
            return
        if (np.diag(chol) ** 2 <= _MIN_RELATIVE_PIVOT * np.diag(self.matrix)).any():
            return
        chol.setflags(write=False)
        object.__setattr__(self, "chol", chol)
        object.__setattr__(self, "log_det", 2.0 * float(np.log(np.diag(chol)).sum()))

    @property
    def dim(self):
        return self.matrix.shape[0]


@dataclass(frozen=True)
class CorrelogramSeries:
    """Auto- or cross-correlation values at lags 0..L for one column pair."""

    lags: np.ndarray
    values: np.ndarray
    pair: tuple
    n_used: int


def _batch_means_matrix(chain, b):
    """Symmetrized batch-means matrix and the number of rows it used."""
    n = chain.rows
    a = n // b
    if a < 2:
        raise InsufficientDataError(
            f"need at least two complete batches: n={n}, b={b}"
        )
    used = a * b
    data = chain.values[:used]
    # no overflow warning: CovarianceEstimate rejects a non-finite matrix
    with np.errstate(over="ignore", invalid="ignore"):
        batch_means = data.reshape(a, b, chain.cols).mean(axis=1)
        centered = batch_means - data.mean(axis=0)
        mat = (b / (a - 1.0)) * (centered.T @ centered)
        return 0.5 * (mat + mat.T), used


def batch_means_sigma(chain, b):
    """Non-overlapping batch means estimate of the asymptotic covariance.

    The chain is cut into a = floor(n / b) consecutive batches of length
    b (rows beyond a*b are dropped from the end); with batch means Y_k and
    grand mean over the first a*b rows,

        Sigma_hat = b / (a - 1) * sum_k (Y_k - mean)(Y_k - mean)^T.

    Parameters
    ----------
    chain : ChainMatrix
    b : int
        Batch length, 1 <= b, with floor(n / b) >= 2.

    Returns
    -------
    CovarianceEstimate
    """
    _require_int(b, "batch length", 1)
    mat, used = _batch_means_matrix(chain, b)
    return CovarianceEstimate(mat, "batch-means", int(b), int(used))


def flat_top_sigma(chain, b):
    """Flat-top (lugsail style) combination 2*Sigma_hat(b) - Sigma_hat(b/2).

    Cancels the leading-order bias of plain batch means at the price of a
    matrix that is not guaranteed positive definite; check ``chol``
    before inverting and fall back to :func:`batch_means_sigma` when it
    is None.
    """
    _require_int(b, "batch length")
    if b < 2 or b % 2 != 0:
        raise ParameterError(f"flat-top batch length must be even and >= 2, got {b}")
    coarse, used = _batch_means_matrix(chain, b)
    fine, _ = _batch_means_matrix(chain, b // 2)
    with np.errstate(over="ignore", invalid="ignore"):
        return CovarianceEstimate(2.0 * coarse - fine, "flat-top", int(b), int(used))


def sample_cov_lambda(chain):
    """Target covariance of the functional: divisor n, not n - 1."""
    n = chain.rows
    if n < 2:
        raise InsufficientDataError(f"need at least two rows, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        centered = chain.values - chain.values.mean(axis=0)
        mat = (centered.T @ centered) / n
        return CovarianceEstimate(0.5 * (mat + mat.T), "sample-cov", 0, n)


def default_batch_size(n):
    """Cube-root batch length floored to the nearest even integer (min 2)."""
    _require_int(n, "n")
    if n < 8:
        raise InsufficientDataError(f"need n >= 8 to pick a batch length, got {n}")
    # integer cube root; round-then-correct avoids float cbrt edge cases
    b = int(round(n ** (1.0 / 3.0)))
    while (b + 1) ** 3 <= n:
        b += 1
    while b**3 > n:
        b -= 1
    if b % 2 != 0:
        b -= 1
    return max(b, 2)


def sqrt_batch_size(n):
    """Square-root batch length floored to the nearest even integer (min 2).

    Larger batches than the cube-root default. The cube-root rate is
    mean-squared optimal only up to an unknown constant, and for chains
    whose correlation length is tens of steps the cube-root choice leaves
    enough downward bias in the batch-means matrix to inflate the
    effective sample size near a stopping boundary. Square-root batches
    trade variance for much smaller bias, which is the safer direction
    when the estimate gates a termination decision.
    """
    _require_int(n, "n")
    if n < 8:
        raise InsufficientDataError(f"need n >= 8 to pick a batch length, got {n}")
    b = math.isqrt(int(n))
    if b % 2 != 0:
        b -= 1
    return max(b, 2)


def correlogram(chain, max_lag, pair=(0, 0)):
    """Correlation of one column pair at lags 0..max_lag.

    Uses the common 1/n normalization with global means and standard
    deviations, so the lag-0 autocorrelation is exactly 1 and the lag-0
    cross-correlation is the ordinary sample correlation.
    """
    _require_int(max_lag, "max_lag")
    n = chain.rows
    if not 0 <= max_lag < n:
        raise ParameterError(f"max_lag must satisfy 0 <= L < n={n}, got {max_lag}")
    i, j = pair
    x = chain.column(i)
    y = chain.column(j)
    with np.errstate(over="ignore", invalid="ignore"):
        xc = x - x.mean()
        yc = y - y.mean()
        var_x = float(xc @ xc) / n
        var_y = float(yc @ yc) / n
    if var_x == 0.0 or var_y == 0.0:
        raise DegenerateDataError(
            f"column pair {pair} includes a constant column"
        )
    # acf divides by var_x, ccf by sqrt(var_x var_y); a finite scale bounds
    # every lagged sum by Cauchy-Schwarz, so the loop cannot overflow
    scale = var_x if i == j else np.sqrt(var_x * var_y)
    if not math.isfinite(scale):
        raise NumericsError(
            f"correlogram of column pair {pair} overflows; rescale the chain"
        )
    values = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        values[k] = float(xc[: n - k] @ yc[k:]) / n / scale
    return CorrelogramSeries(
        lags=np.arange(max_lag + 1),
        values=values,
        pair=(int(i), int(j)),
        n_used=n,
    )
