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
# smallest normal double: a variance below it has lost precision to underflow
_TINY = np.finfo(float).tiny
# doubles (4 MiB) per block of rows centred at a time by sample_cov_lambda;
# a chain of at most this many values is centred in one block
_GRAM_VALUES = 2**19


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


def _check_underflow(kind, mat, centered, data):
    """Raise NumericsError if a diagonal entry of ``mat``, the covariance of
    ``centered``, fell below ``_TINY`` although the centered terms and the
    data column are not constant: their squares underflowed."""
    for j in np.flatnonzero(np.diag(mat) < _TINY):
        col = data[:, j]
        if centered[:, j].any() and col.min() < col.max():
            raise NumericsError(f"{kind} covariance underflows; rescale the chain")


def _complete_batches(chain, b):
    """Number a = n // b of complete batches of length b; at least two."""
    a = chain.rows // b
    if a < 2:
        raise InsufficientDataError(
            f"need at least two complete batches: n={chain.rows}, b={b}"
        )
    return a


def _batch_means_matrix(means, centre, b, kind, data):
    """Symmetrized b / (a - 1) * sum_k (Y_k - centre)(Y_k - centre)^T over
    the a rows Y_k of ``means``, the batch means of the rows ``data``.
    Centres ``means`` in place."""
    # no overflow warning: CovarianceEstimate rejects a non-finite matrix
    with np.errstate(over="ignore", invalid="ignore"):
        centered = np.subtract(means, centre, out=means)
        mat = (b / (means.shape[0] - 1.0)) * (centered.T @ centered)
    _check_underflow(kind, mat, centered, data)
    return 0.5 * (mat + mat.T)


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
    a = _complete_batches(chain, b)
    data = chain.values[: a * b]
    with np.errstate(over="ignore", invalid="ignore"):
        means = data.reshape(a, b, chain.cols).mean(axis=1)
        centre = data.mean(axis=0)
    mat = _batch_means_matrix(means, centre, b, "batch-means", data)
    return CovarianceEstimate(mat, "batch-means", int(b), int(a * b))


def flat_top_sigma(chain, b):
    """Flat-top combination 2*Sigma_hat(b) - Sigma_hat(b/2).

    This is the lugsail estimator with r = 2 and c = 1/2 (Vats & Flegal,
    "Lugsail lag windows"): it cancels the leading-order bias of plain
    batch means at the price of a matrix that is not guaranteed positive
    definite; check ``chol`` before inverting and fall back to
    :func:`batch_means_sigma` when it is None.

    One pass over the chain: Sigma_hat(b/2) uses all a_f = n // (b/2)
    half-batch means, so the (2a+1)-th half-batch counts when n mod b >=
    b/2, while the a = n // b batch means of Sigma_hat(b) are the averages
    of aligned pairs of the first 2a half-batch means. Each set is centred
    at the mean of its own batch means; ``n_used`` is a*b.
    """
    _require_int(b, "batch length")
    if b < 2 or b % 2 != 0:
        raise ParameterError(f"flat-top batch length must be even and >= 2, got {b}")
    a = _complete_batches(chain, b)
    half, p = b // 2, chain.cols
    a_fine = chain.rows // half
    data = chain.values[: a_fine * half]
    with np.errstate(over="ignore", invalid="ignore"):
        fine = data.reshape(a_fine, half, p).mean(axis=1)
        coarse = fine[: 2 * a].reshape(a, 2, p).mean(axis=1)
        coarse_mat = _batch_means_matrix(
            coarse, coarse.mean(axis=0), b, "flat-top", data[: a * b]
        )
        fine_mat = _batch_means_matrix(fine, fine.mean(axis=0), half, "flat-top", data)
        return CovarianceEstimate(
            2.0 * coarse_mat - fine_mat, "flat-top", int(b), int(a * b)
        )


class _CoMoments:
    """Row count, column mean and centred Gram M2 of a growing chain.

    :meth:`update` takes all rows so far. Up to ``_GRAM_VALUES`` values it
    starts over from all of them, :func:`sample_cov_lambda`'s arithmetic;
    past that it merges only the rows the last call did not have, by the
    pairwise update M2 = M2_a + M2_b + (n_a n_b / n) d d^T, d the difference
    of the means (Chan, Golub & LeVeque 1983; Pebay, SAND2008-6212). The
    mean is ``centre``, the first rows' mean, plus an ``offset`` summed from
    centred rows, so d keeps its digits when the mean is large next to the
    spread. Rows are centred in one buffer of at most ``rows`` (the most any
    call takes) by ``_GRAM_VALUES // p`` rows, made here on the caller's
    thread: a worker that made its own at each merge left the memory in
    glibc's per-thread arena, and the peak grew from merge to merge.
    """

    def __init__(self, p, rows):
        self.count = 0
        self.centre = self.offset = self.m2 = None
        self._buf = np.empty((min(rows, max(1, _GRAM_VALUES // p)), p))

    def update(self, values):
        """Take ``values``, the last call's rows followed by new ones."""
        if values.size <= _GRAM_VALUES:
            self.count = 0
        data, buf = values[self.count :], self._buf
        n, rows = len(data), len(buf)
        with np.errstate(over="ignore", invalid="ignore"):
            mean = data.mean(axis=0)
            centered = np.subtract(data[:rows], mean, out=buf[: min(n, rows)])
            m2 = centered.T @ centered
            offset = centered.sum(axis=0)
            for start in range(rows, n, rows):
                block = data[start : start + rows]
                centered = np.subtract(block, mean, out=buf[: len(block)])
                m2 += centered.T @ centered
                offset += centered.sum(axis=0)
            offset /= n
            if not self.count:
                self.count, self.centre, self.offset, self.m2 = n, mean, offset, m2
                return
            delta = (mean - self.centre) + (offset - self.offset)
            total = self.count + n
            m2 += self.m2
            m2 += (self.count * n / total) * np.outer(delta, delta)
            self.offset = self.offset + delta * (n / total)
        self.count, self.m2 = total, m2

    def estimate(self, chain):
        """Lambda with divisor n for ``chain``, the rows of the last update.

        Raises DegenerateDataError naming the first constant column. Only
        columns whose variance could be the rounding noise of their mean,
        at most (n * eps * |centre|)^2 or below the smallest normal double,
        are scanned for min == max; a constant column's centre is its value.
        """
        n = self.count
        with np.errstate(over="ignore", invalid="ignore"):
            mat = self.m2 / n
            noise = (n * np.finfo(float).eps * np.abs(self.centre)) ** 2
        diag = np.diag(mat)
        for j in np.flatnonzero((diag <= noise) | (diag < _TINY)):
            col = chain.column(j)
            if col.min() == col.max():
                raise DegenerateDataError(f"column '{chain.label(j)}' is constant")
        # every column left varies, so a centred entry is non-zero: a variance
        # below _TINY is a sum of squares that underflowed
        if (diag < _TINY).any():
            raise NumericsError("sample-cov covariance underflows; rescale the chain")
        return CovarianceEstimate(0.5 * (mat + mat.T), "sample-cov", 0, n)


def sample_cov_lambda(chain):
    """Target covariance of the functional: divisor n, not n - 1.

    Raises DegenerateDataError naming the first constant column. The chain
    is one :meth:`_CoMoments.update`, so no second n-by-p array is made.
    """
    n = chain.rows
    if n < 2:
        raise InsufficientDataError(f"need at least two rows, got {n}")
    moments = _CoMoments(chain.cols, n)
    moments.update(chain.values)
    return moments.estimate(chain)


def _require_batch_n(n):
    """A batch-length rule's chain length: an integer of at least 8."""
    _require_int(n, "n")
    if n < 8:
        raise InsufficientDataError(f"need n >= 8 to pick a batch length, got {n}")


def default_batch_size(n):
    """Cube-root batch length floored to the nearest even integer (min 2)."""
    _require_batch_n(n)
    # integer cube root; round-then-correct avoids float cbrt edge cases
    b = int(round(n ** (1.0 / 3.0)))
    while (b + 1) ** 3 <= n:
        b += 1
    while b**3 > n:
        b -= 1
    return max(b - b % 2, 2)


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
    _require_batch_n(n)
    b = math.isqrt(int(n))
    return max(b - b % 2, 2)


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
    if x.min() == x.max() or y.min() == y.max():
        raise DegenerateDataError(
            f"column pair {pair} includes a constant column"
        )
    # acf divides by var_x, ccf by sqrt(var_x var_y); a finite scale bounds
    # every lagged sum by Cauchy-Schwarz, so the loop cannot overflow
    scale = var_x if i == j else np.sqrt(var_x * var_y)
    if min(var_x, var_y, scale) < _TINY:
        raise NumericsError(
            f"correlogram of column pair {pair} underflows; rescale the chain"
        )
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
