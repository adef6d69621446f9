"""Effective sample size, stopping rules, Hotelling regions and chain summaries.

The workflow: estimate the target covariance Lambda and the asymptotic
covariance Sigma, turn the pair into a multivariate effective sample size

    ESS = n * (det Lambda / det Sigma)^(1/p),

and stop the simulation once ESS clears the cutoff M(alpha, epsilon, p)
that makes a (1 - alpha) confidence region's volume small relative to the
target spread (relative precision epsilon). The equivalent scale-free
diagnostic rhat = sqrt(1 + 1/ESS) crosses sqrt(1 + 1/M) at exactly the
same moment, so either rule may drive termination.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import fdtri, gammaincinv

from .chain import ChainMatrix, _float_array
from .errors import (
    DataError,
    DegreesOfFreedomError,
    DimensionError,
    InsufficientDataError,
    NumericsError,
    OutputAnalysisError,
    ParameterError,
    SingularEstimateError,
    _require_alpha,
    _require_int,
)
from .mcse import (
    CovarianceEstimate,
    _CoMoments,
    batch_means_sigma,
    default_batch_size,
    flat_top_sigma,
    sample_cov_lambda,
)
from .quantiles import _quantile_cis

__all__ = [
    "CHECK_GROWTH",
    "EssCutoff",
    "StoppingConfig",
    "StoppingVerdict",
    "ConfidenceRegion",
    "chi2_quantile",
    "f_quantile",
    "min_ess_cutoff",
    "ess",
    "rhat_from_ess",
    "hotelling_region",
    "default_hotelling_df",
    "evaluate_verdict",
    "stopping_controller",
    "Summary",
    "summarize",
]

BOUNDARY_POINTS = 128
# after a failed check, the next waits for the chain to grow by this factor
CHECK_GROWTH = 1.5


def chi2_quantile(prob, dof):
    """Chi-square quantile via the inverse regularized incomplete gamma."""
    if not 0.0 < prob < 1.0:
        raise ParameterError(f"prob must be inside (0, 1), got {prob}")
    if not dof >= 1:
        raise ParameterError(f"dof must be >= 1, got {dof}")
    x = 2.0 * float(gammaincinv(dof / 2.0, prob))
    if not math.isfinite(x):
        raise NumericsError(f"chi-square quantile failed for prob={prob}, dof={dof}")
    return x


def f_quantile(prob, d1, d2):
    """F quantile via the inverse regularized incomplete beta."""
    if not 0.0 < prob < 1.0:
        raise ParameterError(f"prob must be inside (0, 1), got {prob}")
    if not (d1 >= 1 and d2 >= 1):
        raise ParameterError(f"degrees of freedom must be >= 1, got ({d1}, {d2})")
    x = float(fdtri(d1, d2, prob))
    if not math.isfinite(x):
        raise NumericsError(f"F quantile failed for prob={prob}, dof=({d1}, {d2})")
    return x


class EssCutoff(NamedTuple):
    """Minimum effective sample size: exact value and nearest integer."""

    value: float
    rounded: int


def min_ess_cutoff(alpha=0.05, epsilon=0.05, p=1):
    """Minimum ESS for relative precision epsilon at confidence 1 - alpha.

        M = (2^(2/p) * pi / (p * Gamma(p/2))^(2/p)) * chi2_{1-alpha, p} / epsilon^2

    For p = 1 this reduces to 4 * chi2_{1-alpha, 1} / epsilon^2. Computed
    in log space so large p stays finite. An M beyond the largest double
    raises ParameterError.
    """
    _require_alpha(alpha)
    if not 0.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon must be inside (0, 1), got {epsilon}")
    try:
        _require_int(p, "p", 1)
    except ParameterError:
        raise ParameterError(f"p must be an integer >= 1, got {p}") from None
    chi2 = chi2_quantile(1.0 - alpha, p)
    log_m = (
        (2.0 / p) * math.log(2.0)
        + math.log(math.pi)
        - (2.0 / p) * (math.log(p) + math.lgamma(p / 2.0))
        + math.log(chi2)
        - 2.0 * math.log(epsilon)
    )
    try:
        value = math.exp(log_m)
    except OverflowError:
        raise ParameterError(
            f"epsilon={epsilon}, alpha={alpha}, p={p} give a minimum ESS that "
            "exceeds the largest double; raise epsilon"
        ) from None
    return EssCutoff(value=value, rounded=int(round(value)))


def ess(n, lambda_est, sigma_est):
    """Multivariate effective sample size n * (det Lambda / det Sigma)^(1/p).

    Determinants come from each estimate's Cholesky factor in log space,
    which makes the estimate exactly invariant under rescaling the
    functional; :class:`SingularEstimateError` is raised instead of
    returning junk when either matrix is not positive definite.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    p = lambda_est.dim
    if sigma_est.dim != p:
        raise DimensionError(
            f"matrix sizes differ: lambda is {p}, sigma is {sigma_est.dim}"
        )
    for est, what in ((lambda_est, "target"), (sigma_est, "asymptotic")):
        if est.chol is None:
            hint = "; retry with plain batch means" if est.kind == "flat-top" else ""
            raise SingularEstimateError(
                f"{what} covariance ({est.kind}) is not positive definite{hint}"
            )
    return float(n) * math.exp((lambda_est.log_det - sigma_est.log_det) / p)


def rhat_from_ess(ess_value):
    """Scale-free convergence diagnostic sqrt(1 + 1 / ESS)."""
    if not (math.isfinite(ess_value) and ess_value > 0.0):
        raise ParameterError(f"ess must be positive and finite, got {ess_value}")
    return math.sqrt(1.0 + 1.0 / ess_value)


@dataclass(frozen=True)
class ConfidenceRegion:
    """Hotelling-style ellipsoidal confidence region for the mean.

    The region is {x : (x - center)^T shape^(-1) (x - center) < hotelling_q2}
    with shape = Sigma_hat / n. ``log_volume`` is the natural log of its
    volume, kept in log space so it neither overflows nor underflows for
    a chain on any scale. ``boundary`` is a 128-point polyline of the
    ellipse for p = 2 and None otherwise.
    """

    center: np.ndarray
    shape: np.ndarray
    hotelling_q2: float
    df: float
    log_volume: float
    boundary: np.ndarray | None

    @property
    def dim(self):
        return self.center.size

    def mahalanobis2(self, x):
        """Quadratic form (x - center)^T shape^(-1) (x - center)."""
        r = _float_array(x, copy=False, what="point") - self.center
        return float(r @ np.linalg.solve(self.shape, r))

    def contains(self, x):
        return self.mahalanobis2(x) < self.hotelling_q2

    def interval(self):
        """(lo, hi) endpoints for a univariate region."""
        if self.dim != 1:
            raise DimensionError("interval() is only defined for p = 1")
        half = math.sqrt(self.hotelling_q2 * float(self.shape[0, 0]))
        c = float(self.center[0])
        return (c - half, c + half)


def hotelling_region(mean, sigma_est, n, alpha, q):
    """Confidence region for the mean from an asymptotic covariance estimate.

    Parameters
    ----------
    mean : array_like, shape (p,)
    sigma_est : CovarianceEstimate
        Asymptotic covariance; must be positive definite.
    n : int
        Chain length the estimate was scaled by.
    alpha : float
        Miss probability; the region has confidence 1 - alpha.
    q : float
        Degrees of freedom attributed to sigma_est. With a batches of
        batch means the convention here is q = a - p.

    Notes
    -----
    The squared radius is T^2 = q * p / (q - p + 1) * F_{1-alpha; p, q-p+1}
    and the region is returned with the log of the ellipsoid volume,
    log 2 + (p/2) log pi - log p - log Gamma(p/2) + (p/2) log(T^2 / n)
    + (1/2) log det(Sigma).
    """
    center = np.atleast_1d(_float_array(mean, copy=True, what="mean"))
    if center.ndim != 1:
        raise DimensionError("mean must be a vector")
    if not np.isfinite(center).all():
        raise DataError(f"mean must be finite, got {center.tolist()}")
    p = center.size
    if sigma_est.dim != p:
        raise DimensionError(
            f"mean has {p} components but sigma is {sigma_est.dim}x{sigma_est.dim}"
        )
    _require_alpha(alpha)
    _require_int(n, "n", 1)
    if not q > p:
        raise DegreesOfFreedomError(f"too few batches for a region: q={q} <= p={p}")
    if sigma_est.chol is None:
        raise SingularEstimateError(
            f"asymptotic covariance ({sigma_est.kind}) is not positive definite"
        )
    t2 = q * p / (q - p + 1.0) * f_quantile(1.0 - alpha, p, q - p + 1.0)
    log_volume = (
        math.log(2.0)
        + (p / 2.0) * math.log(math.pi)
        - math.log(p)
        - math.lgamma(p / 2.0)
        + (p / 2.0) * math.log(t2 / n)
        + 0.5 * sigma_est.log_det
    )
    boundary = None
    if p == 2:
        theta = np.linspace(0.0, 2.0 * math.pi, BOUNDARY_POINTS, endpoint=False)
        circle = np.column_stack([np.cos(theta), np.sin(theta)])
        boundary = center + math.sqrt(t2 / n) * (circle @ sigma_est.chol.T)
        boundary.setflags(write=False)
    shape = sigma_est.matrix / n
    shape.setflags(write=False)
    center.setflags(write=False)
    return ConfidenceRegion(
        center=center,
        shape=shape,
        hotelling_q2=float(t2),
        df=float(q),
        log_volume=log_volume,
        boundary=boundary,
    )


def default_hotelling_df(sigma_est, p):
    """q = (number of batches) - p for batch-style estimates."""
    if sigma_est.batch_size < 1:
        raise ParameterError(
            "degrees of freedom are only defined for batch-style estimates"
        )
    return sigma_est.n_used // sigma_est.batch_size - p


def _geometric_next_check(n):
    """The default check schedule: the chain grows by ``CHECK_GROWTH``."""
    return math.ceil(n * CHECK_GROWTH)


@dataclass(frozen=True)
class StoppingConfig:
    """The sequential stopping rule: when to check, and how each check runs.

    ``n_star`` defaults to the rounded cutoff M(alpha, epsilon, p): the
    first check never happens before the minimum ESS could possibly be
    reached. ``use_flat_top`` switches Sigma to the flat-top estimator with
    automatic fallback to plain batch means when the combination is not
    usable. ``batch_size_fn(n)`` is Sigma's batch length at a check of n
    rows, :func:`default_batch_size` by default; :func:`evaluate_verdict`
    calls it at every check. ``next_check_fn(n)`` is the length to
    check at after a failed check at n, by default n grown by
    ``CHECK_GROWTH``, so estimation cost stays proportional to the final
    length; :func:`stopping_controller` refuses one that is not an integer
    with :class:`ParameterError`, caps it at ``max_n`` and insists that it
    grows the chain.
    """

    p: int
    alpha: float = 0.05
    epsilon: float = 0.05
    n_star: int | None = None
    max_n: int = 1_000_000
    use_flat_top: bool = False
    batch_size_fn: Callable[[int], int] = default_batch_size
    next_check_fn: Callable[[int], int] = _geometric_next_check
    cutoff: EssCutoff = field(init=False, repr=False)

    def __post_init__(self):
        cutoff = min_ess_cutoff(self.alpha, self.epsilon, self.p)
        object.__setattr__(self, "cutoff", cutoff)
        if self.n_star is None:
            if cutoff.rounded < 8:
                raise ParameterError(
                    f"alpha={self.alpha}, epsilon={self.epsilon}, p={self.p} give "
                    f"a minimum ESS of {cutoff.rounded}, below the 8 rows the "
                    "first check needs; lower alpha or epsilon"
                )
            object.__setattr__(self, "n_star", cutoff.rounded)
        _require_int(self.n_star, "n_star", 8)
        _require_int(self.max_n, "max_n", 1)
        for name in ("batch_size_fn", "next_check_fn"):
            rule = getattr(self, name)
            if not callable(rule):
                raise ParameterError(f"{name} must be callable, got {rule!r}")


@dataclass(frozen=True)
class StoppingVerdict:
    """Outcome of one convergence check.

    ``terminate`` is true exactly when ess >= cutoff and n >= n_star held
    at the check; ``fallback_used`` records that a requested flat-top
    estimate was replaced by plain batch means. Sigma used ``batches``
    = n // ``batch_size`` batches.
    """

    n: int
    ess: float
    cutoff: float
    rhat: float
    terminate: bool
    fallback_used: bool
    batch_size: int
    batches: int


def _own_lambda(lam, chain):
    """``lam``, unless it is not an estimate or not the sample covariance of
    ``chain``'s n rows and p columns: then ParameterError."""
    if not isinstance(lam, CovarianceEstimate):
        raise ParameterError(
            f"lam must be a CovarianceEstimate, got {type(lam).__name__}"
        )
    n = chain.rows
    if lam.kind != "sample-cov" or lam.n_used != n or lam.dim != chain.cols:
        raise ParameterError(
            f"lam is a {lam.kind} estimate of {lam.n_used} rows and "
            f"{lam.dim} columns, not the sample covariance of this "
            f"{n} by {chain.cols} chain"
        )
    return lam


def evaluate_verdict(chain, config, lam=None):
    """Run one convergence check on a chain.

    Returns (verdict, lambda_estimate, sigma_estimate). Sigma's batch
    length is b = ``config.batch_size_fn(n)``. Lambda is ``lam()``, or
    ``sample_cov_lambda(chain)`` when ``lam`` is None, computed once, after
    Sigma, so Sigma's errors come first: :func:`stopping_controller` passes
    a ``lam`` that waits for the update its worker thread runs meanwhile. A
    ``lam`` that is not callable, or returns anything but the sample
    covariance of n rows and p columns, raises :class:`ParameterError`. A
    batch-means Sigma has rank at most a - 1, so a = n // b <= p batches
    raise :class:`InsufficientDataError`.
    """
    n = chain.rows
    if chain.cols != config.p:
        raise DimensionError(
            f"chain has {chain.cols} columns, config expects p={config.p}"
        )
    if lam is not None and not callable(lam):
        raise ParameterError(f"lam must be callable, got {type(lam).__name__}")
    b = config.batch_size_fn(n)
    _require_int(b, "batch length")
    b = int(b)
    if b >= 1 and n // b <= config.p:
        raise InsufficientDataError(
            f"too few batches for Sigma: a={n // b} batches of length b={b} "
            f"for p={config.p} components; a must exceed p: use a shorter "
            "batch or a longer chain"
        )
    sig = flat_top_sigma(chain, b) if config.use_flat_top else None
    fallback = sig is not None and sig.chol is None
    if sig is None or fallback:
        sig = batch_means_sigma(chain, b)
    lam = sample_cov_lambda(chain) if lam is None else _own_lambda(lam(), chain)
    value = ess(n, lam, sig)
    verdict = StoppingVerdict(
        n=n,
        ess=value,
        cutoff=config.cutoff.value,
        rhat=rhat_from_ess(value),
        terminate=bool(value >= config.cutoff.value and n >= config.n_star),
        fallback_used=fallback,
        batch_size=b,
        batches=n // b,
    )
    return verdict, lam, sig


def stopping_controller(
    sampler: Callable[[int, object], np.ndarray],
    config: StoppingConfig,
    rng,
    labels=None,
):
    """Grow a chain until its effective sample size clears the cutoff.

    ``sampler(k, rng)`` must return the next k rows (shape (k, p)) of the
    functional's evaluations, continuing from wherever it left off. The
    controller runs n_star steps, checks with ``evaluate_verdict(chain,
    config, lam=lam)``, then re-checks at ``config.next_check_fn(n)``,
    stopping early at ``config.max_n``. It never raises just because the
    budget ran out: the last verdict simply has ``terminate=False``.

    Lambda comes from one co-moment accumulator, handed all n rows at each
    check: it rebuilds from them (``sample_cov_lambda``'s bits) or merges
    in only the new ones, equal to rounding, as :class:`_CoMoments` rules.
    The update runs on one worker thread, kept for the whole run, while
    ``evaluate_verdict`` computes Sigma; ``lam`` is a function that waits
    for it, re-raising its error with its type, and then factors Lambda on
    the calling thread. The worker is joined when the controller returns
    or raises, after any update still running.

    Memory: one buffer of ``config.max_n`` by p doubles is reserved before
    the first draw, and each block is written into it once; the accumulator
    centres rows in one buffer of at most 2**19 doubles. The reservation
    is address space; resident memory grows only with the rows drawn. Each
    check sees the rows drawn so far as a read-only view of the buffer, and
    the returned chain is such a view, with the buffer itself read-only. A
    reservation the machine refuses raises :class:`ParameterError` before
    the sampler is called. Each block is checked once, as it is copied in:
    complex or non-finite values raise :class:`DataError`.

    Returns (chain, verdicts), one verdict per check in order.
    """
    try:
        buf = np.empty((config.max_n, config.p))
    except (MemoryError, ValueError):
        # ValueError: the byte count overflows the platform's array size
        raise ParameterError(
            f"max_n={config.max_n} rows of p={config.p} doubles need "
            f"{8 * config.max_n * config.p} bytes, more than can be reserved; "
            "lower max_n"
        ) from None
    # the checks and the caller read a read-only alias of the buffer; its
    # base, a read-only memoryview, cannot be made writable again
    values = np.asarray(memoryview(buf).toreadonly())
    n = 0
    verdicts = []
    moments = _CoMoments(config.p, config.max_n)
    target = min(config.n_star, config.max_n)
    # leaving the block, by a return or a raise, joins the worker after
    # its last update, so no worker outlives the run
    with ThreadPoolExecutor(max_workers=1) as pool:
        while True:
            k = target - n
            returned = _float_array(sampler(k, rng), copy=False)
            block = returned[:, None] if returned.ndim == 1 else returned
            if block.shape != (k, config.p):
                raise DimensionError(
                    f"sampler returned shape {returned.shape}, "
                    f"expected ({k}, {config.p})"
                )
            if not np.isfinite(block).all():
                raise DataError("chain values must all be finite")
            buf[n:target] = block  # a copy: no block is kept
            n = target
            # rows below n are never written again, so every check's chain
            # stays immutable, and all of them were found finite on the way in
            chain = ChainMatrix._adopt(values[:n], labels)
            merge = pool.submit(moments.update, values[:n])

            def lam():
                merge.result()  # done before the next block is written
                return moments.estimate(chain)

            verdict, _, _ = evaluate_verdict(chain, config, lam=lam)
            verdicts.append(verdict)
            if verdict.terminate or n >= config.max_n:
                buf.setflags(write=False)
                return chain, verdicts
            step = config.next_check_fn(n)
            _require_int(step, "next_check_fn(n)")
            target = min(config.max_n, max(int(step), n + 1))


@dataclass(frozen=True)
class Summary:
    """Output analysis of a finished chain, as every report gives it.

    ``quantiles[i][j]`` is column ``labels[i]`` at ``levels[j]``: a
    :class:`QuantileEstimate`, or the :class:`OutputAnalysisError` its
    estimation raised. ``region`` is None when :func:`hotelling_region`
    failed for too few batches or a singular Sigma; ``region_reason`` is
    then that error.
    """

    mean: np.ndarray
    mcse: np.ndarray
    quantiles: tuple
    region: ConfidenceRegion | None
    region_reason: OutputAnalysisError | None
    labels: tuple
    levels: tuple

    def raise_failures(self, region=True):
        """Raise the first failed quantile entry, naming its column and level,
        then, if ``region``, the reason there is no region."""
        for label, entries in zip(self.labels, self.quantiles):
            for q, entry in zip(self.levels, entries):
                if isinstance(entry, OutputAnalysisError):
                    raise type(entry)(f"column {label!r}, q={q}: {entry}") from entry
        if region and self.region is None:
            raise self.region_reason


def summarize(chain, sigma_est, alpha, levels):
    """Mean, MCSE sqrt(diag(Sigma) / n), quantile CIs and Hotelling region.

    ``sigma_est`` is the chain's asymptotic covariance, batch-style: its
    batch length b also sets the region's degrees of freedom and the
    quantile CIs' indicator variances. Every interval has confidence
    1 - alpha. The quantile CIs are computed one column at a time, every
    level in one pass.
    """
    n, p = chain.rows, chain.cols
    mean = chain.values.mean(axis=0)
    q_df = default_hotelling_df(sigma_est, p)
    region = reason = None
    try:
        # before the quantiles, so that a bad alpha raises once, here
        region = hotelling_region(mean, sigma_est, n, alpha, q_df)
    except (DegreesOfFreedomError, SingularEstimateError) as exc:
        reason = exc
    b = sigma_est.batch_size
    quantiles = [_quantile_cis(chain.column(i), levels, alpha, b) for i in range(p)]
    mcse = np.sqrt(np.diag(sigma_est.matrix) / n)
    labels = tuple(chain.label(i) for i in range(p))
    return Summary(mean, mcse, tuple(quantiles), region, reason, labels, tuple(levels))
