"""Reference implementations the test modules check the library against.

Not collected by pytest (the file name has no ``test_`` prefix); test
modules import it as ``oracles``, since pytest's default import mode puts
this directory on ``sys.path``.

- :class:`Ar1Spec` and :func:`generate_ar1` simulate synthetic AR(1)
  chains whose asymptotic covariance is known in closed form.
- :func:`log_unnormalized_posterior` is the lamp study's log posterior
  density, written out term by term, which the sampler kernel in
  ``mcoutput.lcd_demo`` is checked against.
- :func:`quantile_ci_per_level` is one quantile CI computed on its own,
  with a sorted copy, its own KDE bandwidth and a one-expression kernel,
  which the one-pass quantile CIs are checked against.
- :func:`flat_top_two_pass` is the flat-top matrix from two full
  batch-means passes, which the one-pass ``flat_top_sigma`` is checked
  against.
- :func:`sample_cov_centred_copy` is the target covariance from one
  centred n-by-p copy of the chain, which the row-block
  ``sample_cov_lambda`` is checked against.
- :func:`stopping_replay` is the stopping controller's checks replayed on
  one thread, each on its own copy of the chain's head, which the
  controller and its merge worker are checked against.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from mcoutput import (
    ChainMatrix,
    DegenerateDataError,
    DimensionError,
    ParameterError,
    QuantileEstimate,
    batch_means_sigma,
    indicator_sigma2,
    kde_bandwidth,
)
from mcoutput.errors import DataError
from mcoutput.inference import evaluate_verdict
from mcoutput.lcd_demo import (
    BETA_PRIOR_RATE,
    LAMBDA_PRIOR_RATE,
    LCD_FAILURE_HOURS,
    POSTERIOR_LAMBDA_SHAPE,
    sum_t_pow,
)
from mcoutput.mcse import _CoMoments

_N_FAILURES = len(LCD_FAILURE_HOURS)
_SUM_LOG_TIMES = float(np.log(LCD_FAILURE_HOURS).sum())


@dataclass(frozen=True)
class Ar1Spec:
    """First-order autoregression used for synthetic test chains.

    X_t = rho * X_{t-1} + e_t with e_t ~ N(0, innovation_sd^2 * C) where C
    is the optional innovation correlation across the ``dim`` components
    (identity when omitted). The first draw comes from the stationary law,
    so the generated chain is stationary from row one.
    """

    rho: float
    innovation_sd: float = 1.0
    dim: int = 1
    cross_correlation: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if not abs(self.rho) < 1.0:
            raise ParameterError(f"|rho| must be < 1, got {self.rho}")
        if not self.innovation_sd > 0.0:
            raise ParameterError("innovation_sd must be positive")
        if self.dim < 1:
            raise ParameterError("dim must be >= 1")
        if self.cross_correlation is not None:
            c = np.asarray(self.cross_correlation, dtype=float)
            if c.shape != (self.dim, self.dim):
                raise DimensionError(
                    f"cross_correlation must be {self.dim}x{self.dim}"
                )
            if not np.allclose(c, c.T, atol=1e-12):
                raise ParameterError("cross_correlation must be symmetric")
            object.__setattr__(self, "cross_correlation", c)

    @property
    def stationary_variance(self):
        """Per-component variance of the stationary law."""
        return self.innovation_sd**2 / (1.0 - self.rho**2)


def generate_ar1(spec, n, rng):
    """Simulate ``n`` rows of the AR(1) chain described by ``spec``.

    Consumes exactly n * dim normals from ``rng`` in row-major order.
    """
    from scipy.signal import lfilter

    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    z = rng.normal(size=(int(n), spec.dim))
    if spec.cross_correlation is not None:
        try:
            chol = np.linalg.cholesky(spec.cross_correlation)
        except np.linalg.LinAlgError:
            raise ParameterError(
                "cross_correlation must be positive definite"
            ) from None
        eps = (z @ chol.T) * spec.innovation_sd
    else:
        eps = z * spec.innovation_sd
    # stationary start: var(X_1) = innovation variance / (1 - rho^2)
    eps[0] *= 1.0 / np.sqrt(1.0 - spec.rho**2)
    x = lfilter([1.0], [1.0, -spec.rho], eps, axis=0)
    return ChainMatrix(x)


def log_unnormalized_posterior(lam, beta):
    """Log of the unnormalized posterior density at (lambda, beta).

    log f = 32.5 ln(lambda) + 31 ln(beta) + (beta - 1) sum ln(t_i)
            - lambda sum t_i^beta - beta - 2350 lambda

    Returns -inf off the support (either coordinate <= 0), which is a
    Metropolis rejection rather than an error.
    """
    if not (math.isfinite(lam) and math.isfinite(beta)):
        return -math.inf
    if lam <= 0.0 or beta <= 0.0:
        return -math.inf
    s = sum_t_pow(beta)
    return (
        (POSTERIOR_LAMBDA_SHAPE - 1.0) * math.log(lam)
        + _N_FAILURES * math.log(beta)
        + (beta - 1.0) * _SUM_LOG_TIMES
        - lam * s
        - BETA_PRIOR_RATE * beta
        - LAMBDA_PRIOR_RATE * lam
    )


def kde_per_point(arr, x):
    """Gaussian KDE of ``arr`` at the one point ``x``, in one expression."""
    if arr.size < 2:
        raise DegenerateDataError("density estimation needs at least two points")
    if arr.min() == arr.max():
        raise DegenerateDataError("density estimation needs a non-constant series")
    h = kde_bandwidth(arr)
    with np.errstate(over="ignore"):
        z = (x - arr) / h
        return float(np.exp(-0.5 * z * z).mean()) / (h * math.sqrt(2.0 * math.pi))


def quantile_ci_per_level(v, q, alpha, b):
    """One quantile CI from its own order statistic, indicator variance and
    KDE, with the library's error types and messages."""
    from scipy.special import ndtri

    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be inside (0, 1), got {alpha}")
    arr = np.array(v, dtype=float)
    if arr.size < 1:
        raise DataError("series is empty")
    if not 0.0 < q < 1.0:
        raise ParameterError(f"quantile level must be inside (0, 1), got {q}")
    k = min(max(math.ceil(arr.size * q), 1), arr.size)
    point = float(np.sort(arr)[k - 1])
    sig2 = indicator_sigma2(arr, point, b)
    dens = kde_per_point(arr, point)
    half = float(ndtri(1.0 - alpha / 2.0)) * math.sqrt(sig2)
    half /= dens * math.sqrt(arr.size)
    return QuantileEstimate(
        q=float(q),
        point=point,
        indicator_sigma2=sig2,
        density_at=dens,
        ci=(point - half, point + half),
        alpha=float(alpha),
    )


def flat_top_two_pass(chain, b):
    """2 * Sigma_hat(b) - Sigma_hat(b/2), each from its own batch-means pass
    centred at the grand mean of the rows that pass uses."""
    coarse = batch_means_sigma(chain, b).matrix
    fine = batch_means_sigma(chain, b // 2).matrix
    return 2.0 * coarse - fine


def sample_cov_centred_copy(x):
    """(x - mean)^T (x - mean) / n from one centred copy, symmetrized."""
    centered = x - x.mean(axis=0)
    mat = (centered.T @ centered) / x.shape[0]
    return 0.5 * (mat + mat.T)


def stopping_replay(path, config):
    """``stopping_controller`` over the rows of ``path``, serially.

    The same check schedule and the same co-moments, each check's head
    handed to them in line before ``evaluate_verdict(head, config,
    lam=...)``. Returns (chain, verdicts) as the controller does.
    """
    moments, verdicts = _CoMoments(config.p, config.max_n), []
    n = min(config.n_star, config.max_n)
    while True:
        head = ChainMatrix(path[:n])
        moments.update(head.values)
        verdict, _, _ = evaluate_verdict(
            head, config, lam=lambda: moments.estimate(head)
        )
        verdicts.append(verdict)
        if verdict.terminate or n >= config.max_n:
            return head, verdicts
        n = min(config.max_n, max(int(config.next_check_fn(n)), n + 1))
