"""Bayesian Weibull reliability study of LCD projector lamp failures.

Thirty-one failure times (hours) are modeled as Weibull with density
f(t | lambda, beta) = lambda * beta * t^(beta-1) * exp(-lambda * t^beta),
with priors lambda ~ Gamma(2.5, rate 2350) and beta ~ Gamma(1, 1). The
posterior is sampled with a Metropolis-within-Gibbs scan: lambda has a
conjugate Gamma(33.5, 2350 + sum t_i^beta) full conditional drawn exactly,
then beta moves by a Gaussian random walk accepted by Metropolis-Hastings.
Each scan updates lambda first, so the beta step always sees the fresh
lambda.

The functional pushed through the output-analysis machinery is
    h = (MTTF, R(1500)) = (lambda^(-1/beta) Gamma(1 + 1/beta),
                           exp(-lambda * 1500^beta)),
the mean time to failure and the probability a lamp survives 1500 hours.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .chain import RngStream
from .errors import DataError, NumericsError, ParameterError
from .inference import (
    StoppingConfig,
    _geometric_next_check,
    evaluate_verdict,
    stopping_controller,
    summarize,
)
from .mcse import sqrt_batch_size

__all__ = [
    "LCD_FAILURE_HOURS",
    "LAMBDA_PRIOR_SHAPE",
    "LAMBDA_PRIOR_RATE",
    "POSTERIOR_LAMBDA_SHAPE",
    "RELIABILITY_HOURS",
    "STREAM_ID",
    "PROPOSAL_SD",
    "BETA_START",
    "LONG_RUN_N",
    "ACF_LAGS",
    "CREDIBLE_LEVELS",
    "DemoReport",
    "sum_t_pow",
    "gibbs_lambda",
    "mh_beta",
    "functional_h",
    "weibull_mle_beta",
    "run_demo",
]

# Lamp failure times in hours, row-major from the study's data table.
LCD_FAILURE_HOURS = (
    387.0, 182.0, 244.0, 600.0, 627.0, 332.0, 418.0,
    300.0, 798.0, 584.0, 660.0, 39.0, 274.0, 174.0,
    50.0, 34.0, 1895.0, 158.0, 974.0, 345.0, 1755.0,
    1752.0, 473.0, 81.0, 954.0, 1407.0, 230.0, 464.0,
    380.0, 131.0, 1205.0,
)

LAMBDA_PRIOR_SHAPE = 2.5
LAMBDA_PRIOR_RATE = 2350.0
BETA_PRIOR_RATE = 1.0
POSTERIOR_LAMBDA_SHAPE = LAMBDA_PRIOR_SHAPE + len(LCD_FAILURE_HOURS)  # 33.5
RELIABILITY_HOURS = 1500.0

_LOG_REL_HOURS = math.log(RELIABILITY_HOURS)

# Fixed settings of the demo run; every report echoes them.
STREAM_ID = 0
PROPOSAL_SD = 0.1
# weibull_mle_beta(LCD_FAILURE_HOURS), 0x1.1ee67a1761be4p+0
BETA_START = 1.1207042986950393
LONG_RUN_N = 100_000
ACF_LAGS = 50
CREDIBLE_LEVELS = (0.025, 0.975)


_LOG_TIMES = np.log(LCD_FAILURE_HOURS)
_LOG_TIMES.setflags(write=False)
_SUM_LOG_TIMES = float(_LOG_TIMES.sum())
_N_FAILURES = len(LCD_FAILURE_HOURS)
# at or below this beta no t_i^beta, nor their sum, can overflow
_NO_OVERFLOW_BETA = (
    math.log(sys.float_info.max) - math.log(_N_FAILURES)
) / float(_LOG_TIMES.max())


# The sampler kernel: one scan of the chain is gibbs_lambda, then mh_beta,
# then functional_h, with the power sum s = sum_t_pow(beta) carried along.
def sum_t_pow(beta):
    """sum_i t_i^beta, computed as exp(beta * log t_i); inf on overflow."""
    if beta > _NO_OVERFLOW_BETA:
        with np.errstate(over="ignore"):
            return _power_sum(beta)
    return _power_sum(beta)


def _power_sum(beta):
    # the reduction ndarray.sum runs, without its Python wrapper
    return float(np.add.reduce(np.exp(beta * _LOG_TIMES)))


def _standard_gamma(shape, rng):
    """Marsaglia-Tsang squeeze/rejection draw of Gamma(shape, 1), shape > 1.

    d = shape - 1/3, c = 1/sqrt(9 d); cube a squeezed normal and accept by
    the fast quartic squeeze, falling through to the exact log test. The
    method is fixed here (not delegated) so demo output is reproducible
    from the (seed, stream_id) pair alone.
    """
    if shape <= 1.0:
        raise ParameterError(f"gamma sampler requires shape > 1, got {shape}")
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.normal()
        t = 1.0 + c * x
        if t <= 0.0:
            continue
        v = t * t * t
        u = rng.uniform()
        x2 = x * x
        if u < 1.0 - 0.0331 * x2 * x2:
            return d * v
        if math.log(u) < 0.5 * x2 + d * (1.0 - v + math.log(v)):
            return d * v


def gibbs_lambda(s, rng):
    """Exact draw from the lambda full conditional Gamma(33.5, 2350 + s).

    ``s`` is sum t_i^beta at the current beta (see :func:`sum_t_pow`).
    """
    if not (math.isfinite(s) and s >= 0.0):
        raise ParameterError(f"power sum must be finite and >= 0, got {s}")
    return _standard_gamma(POSTERIOR_LAMBDA_SHAPE, rng) / (LAMBDA_PRIOR_RATE + s)


def mh_beta(lam, beta, s, proposal_sd, rng):
    """One random-walk Metropolis update of beta given lambda.

    Proposes N(beta, proposal_sd^2) and returns (beta, sum t_i^beta,
    accepted). ``s`` must equal sum t_i^beta for the incoming beta; it is
    carried so the scan only pays for one power sum per proposal.
    Nonpositive proposals are rejected outright since the posterior has
    no mass there; a zero move has log-ratio exactly 0 and is always
    accepted.
    """
    if not proposal_sd >= 0.0:
        raise ParameterError(f"proposal_sd must be >= 0, got {proposal_sd}")
    prop = beta + proposal_sd * rng.normal()
    if prop <= 0.0:
        # off the support: reject outright, no accept draw needed
        return beta, s, False
    s_prop = sum_t_pow(prop)
    delta = (
        _N_FAILURES * math.log(prop / beta)
        + (prop - beta) * (_SUM_LOG_TIMES - BETA_PRIOR_RATE)
        - lam * (s_prop - s)
    )
    if math.log(rng.uniform()) < delta:
        return prop, s_prop, True
    return beta, s, False


def functional_h(lam, beta):
    """(MTTF, R(1500)) at (lambda, beta).

    MTTF = lambda^(-1/beta) * Gamma(1 + 1/beta) via log-gamma, and
    R(1500) = exp(-lambda * 1500^beta), clamped to 0 when t^beta
    overflows (log-reliability -inf).
    """
    inv_beta = 1.0 / beta
    mttf = math.exp(-math.log(lam) * inv_beta + math.lgamma(1.0 + inv_beta))
    try:
        t_pow = math.exp(beta * _LOG_REL_HOURS)
    except OverflowError:
        return mttf, 0.0
    return mttf, math.exp(-lam * t_pow)


def weibull_mle_beta(times):
    """Maximum likelihood beta for a Weibull sample (profile likelihood root).

    Solves sum(t^b ln t)/sum(t^b) - 1/b - mean(ln t) = 0, which is
    strictly increasing in b, by doubling a bracket and calling scipy's
    ``brentq`` on it; ``scipy.optimize`` is imported on first use. ``times``
    is any flat sample of at least two positive failure times.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise DataError("need a flat sample of at least two failure times")
    if not (np.isfinite(times).all() and (times > 0.0).all()):
        raise DataError("failure times must be positive and finite")
    log_t = np.log(times)
    mean_log = float(log_t.mean())

    def score(b):
        with np.errstate(over="ignore"):
            w = np.exp(b * log_t)
        total = w.sum()
        if not np.isfinite(total):
            # overflow region: sign is that of the largest observation's term
            return float(log_t.max()) - 1.0 / b - mean_log
        return float((w * log_t).sum()) / float(total) - 1.0 / b - mean_log

    lo = 1e-8
    hi = 1.0
    cap = 1e6
    while score(hi) <= 0.0:
        hi *= 2.0
        if hi > cap:
            raise NumericsError(
                "no finite Weibull MLE: the profile score never changes sign "
                "(degenerate sample, e.g. all failure times equal)"
            )
    # imported here: at module level every CLI run would load
    # scipy.optimize, which raised demo peak RSS from 61.5 to 84.6 MB
    from scipy.optimize import brentq

    return brentq(score, lo, hi, xtol=1e-10)


class _WeibullGibbsSampler:
    """Stateful scan usable as a stopping-controller sampler."""

    def __init__(self):
        self._beta = BETA_START
        self._s_cur = sum_t_pow(BETA_START)
        self._param_blocks = []
        self.steps = 0
        self.accepted = 0

    def __call__(self, k, rng):
        beta = self._beta
        s_cur = self._s_cur
        h = np.empty((k, 2))
        pr = np.empty((k, 2))
        for i in range(k):
            lam = gibbs_lambda(s_cur, rng)
            beta, s_cur, accepted = mh_beta(lam, beta, s_cur, PROPOSAL_SD, rng)
            if accepted:
                self.accepted += 1
            h[i, 0], h[i, 1] = functional_h(lam, beta)
            pr[i, 0] = lam
            pr[i, 1] = beta
        # whoever reads the generator next sees exactly the draws used
        rng._sync()
        self._beta = beta
        self._s_cur = s_cur
        self.steps += k
        self._param_blocks.append(pr)
        return h

    @property
    def accept_rate(self):
        return self.accepted / self.steps

    @property
    def params(self):
        return np.vstack(self._param_blocks)


@dataclass
class DemoReport:
    """What :func:`run_demo` ran with and produced; ``summary`` has CREDIBLE_LEVELS."""

    config: StoppingConfig
    chain: object
    params: np.ndarray
    verdicts: list
    accept_rate: float
    lambda_est: object
    sigma_est: object
    summary: object

    @property
    def final(self):
        return self.verdicts[-1]

    @property
    def terminated(self):
        return self.final.terminate


def _next_check(n):
    """The demo's check schedule: the pilot, then ``LONG_RUN_N``, then geometric."""
    return LONG_RUN_N if n < LONG_RUN_N else _geometric_next_check(n)


def run_demo(*, seed=0, alpha=0.05, epsilon=0.05, max_n=200_000):
    """Run the lamp-reliability workflow end to end.

    Starts beta at its MLE ``BETA_START``, runs the Metropolis-within-Gibbs
    scan under the sequential stopping rule for p = 2 (first check at the
    rounded ESS cutoff, 7529 with default alpha and epsilon), then summarizes
    the terminated chain: posterior means with Monte Carlo standard errors,
    equal-tailed credible intervals with Monte Carlo CIs on each endpoint,
    and the Hotelling confidence region for the posterior-mean pair.

    The run is two-staged. The first check happens at the cutoff length
    itself (the pilot, meant for catching gross mixing problems early);
    this chain's ESS there is around a sixth of the cutoff, so the run
    continues. Rather than creeping upward in small increments, the
    production run then goes straight to ``LONG_RUN_N`` draws, an order
    of magnitude past the pilot, and re-checks there; only if that still
    falls short does the schedule continue geometrically. Checking a
    noisy ESS estimate often, just below its own crossing point, would
    otherwise terminate runs early at whatever check first catches an
    upward noise excursion.

    All batch-means computations here use the square-root batch rule
    rather than the cube-root default. This chain's functions decorrelate
    over tens of scans, so cube-root batches understate the asymptotic
    covariance badly enough to let the ESS check fire tens of thousands
    of draws early; square-root batches keep the estimate close to its
    long-run value at every check.

    :class:`StoppingConfig` validates alpha, epsilon and max_n, and
    :class:`RngStream` the seed, before any work; max_n must also exceed
    ``ACF_LAGS``. The other run settings are the module constants above.
    """
    config = StoppingConfig(
        p=2, alpha=alpha, epsilon=epsilon, max_n=max_n,
        batch_size_fn=sqrt_batch_size, next_check_fn=_next_check,
    )
    if max_n <= ACF_LAGS:
        raise ParameterError(
            f"max_n must be >= {ACF_LAGS + 1} for correlograms to lag "
            f"{ACF_LAGS}, got {max_n}"
        )
    rng = RngStream(seed, STREAM_ID)
    sampler = _WeibullGibbsSampler()
    chain, verdicts = stopping_controller(
        sampler, config, rng, labels=("MTTF", "R1500")
    )
    # the last check's call again, for its estimates
    _, lambda_est, sigma_est = evaluate_verdict(chain, config)
    summary = summarize(chain, sigma_est, alpha, CREDIBLE_LEVELS)
    summary.raise_failures()

    return DemoReport(
        config=config,
        chain=chain,
        params=sampler.params,
        verdicts=verdicts,
        accept_rate=sampler.accept_rate,
        lambda_est=lambda_est,
        sigma_est=sigma_est,
        summary=summary,
    )
