"""The lamp-failure Weibull study: data, samplers, functionals, full runs."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import digamma

from mcoutput import (
    ChainMatrix,
    RngStream,
    StoppingConfig,
    evaluate_verdict,
    lcd_demo,
    sqrt_batch_size,
)
from mcoutput.errors import DataError, NumericsError, ParameterError
from mcoutput.lcd_demo import (
    BETA_START,
    LAMBDA_PRIOR_RATE,
    LCD_FAILURE_HOURS,
    LONG_RUN_N,
    POSTERIOR_LAMBDA_SHAPE,
    PROPOSAL_SD,
    _LOG_TIMES,
    _NO_OVERFLOW_BETA,
    _WeibullGibbsSampler,
    functional_h,
    gibbs_lambda,
    mh_beta,
    run_demo,
    sum_t_pow,
    weibull_mle_beta,
)
from oracles import log_unnormalized_posterior

TOTAL_HOURS = 17907.0
TIMES = np.array(LCD_FAILURE_HOURS)


def test_data_table_checksums():
    assert len(LCD_FAILURE_HOURS) == 31
    assert sum(LCD_FAILURE_HOURS) == TOTAL_HOURS
    assert TIMES.min() == 34.0
    assert TIMES.max() == 1895.0


def test_log_posterior_lambda_difference_identity():
    """Holding beta fixed, the lambda terms are Gamma(33.5, 2350 + sum t^b);
    the difference of two log densities isolates exactly those terms."""
    for beta in (0.8, 1.0, 1.3):
        s = float((TIMES**beta).sum())
        lp1 = log_unnormalized_posterior(0.002, beta)
        lp2 = log_unnormalized_posterior(0.0005, beta)
        expected = (POSTERIOR_LAMBDA_SHAPE - 1.0) * math.log(
            0.002 / 0.0005
        ) - (0.002 - 0.0005) * (LAMBDA_PRIOR_RATE + s)
        assert lp1 - lp2 == pytest.approx(expected, rel=1e-12)


def test_log_posterior_exponential_closed_form():
    lam = 0.0017
    expected = 32.5 * math.log(lam) - lam * (2350.0 + TOTAL_HOURS) - 1.0
    assert log_unnormalized_posterior(lam, 1.0) == pytest.approx(
        expected, rel=1e-12
    )


def test_log_posterior_off_support():
    assert log_unnormalized_posterior(-0.1, 1.0) == -math.inf
    assert log_unnormalized_posterior(0.001, 0.0) == -math.inf
    assert log_unnormalized_posterior(math.nan, 1.0) == -math.inf


def test_gibbs_lambda_exponential_moments():
    """At beta = 1 the full conditional is Gamma(33.5, 2350 + 17907)."""
    rng = RngStream(71)
    s = sum_t_pow(1.0)
    draws = np.array([gibbs_lambda(s, rng) for _ in range(100_000)])
    rate = LAMBDA_PRIOR_RATE + TOTAL_HOURS
    assert draws.mean() == pytest.approx(33.5 / rate, rel=0.01)
    assert draws.var() == pytest.approx(33.5 / rate**2, rel=0.03)
    assert draws.min() > 0.0


def test_gibbs_lambda_deterministic():
    s = sum_t_pow(1.1)
    assert gibbs_lambda(s, RngStream(9)) == gibbs_lambda(s, RngStream(9))


@pytest.mark.parametrize("s", [-1.0, math.nan, math.inf])
def test_gibbs_lambda_rejects_bad_power_sum(s):
    with pytest.raises(ParameterError, match="power sum"):
        gibbs_lambda(s, RngStream(9))


def test_mh_beta_zero_proposal_always_accepts():
    s = sum_t_pow(1.1)
    beta_new, s_new, accepted = mh_beta(0.0017, 1.1, s, 0.0, RngStream(5))
    assert accepted
    assert beta_new == 1.1
    assert s_new == s


def test_mh_beta_rejects_nonpositive_proposal():
    """Seed 0's first normal is negative, so a huge step width pushes the
    proposal below zero; it must be rejected with beta unchanged."""
    assert RngStream(0).normal() < 0.0
    s = sum_t_pow(1.1)
    beta_new, s_new, accepted = mh_beta(0.0017, 1.1, s, 1e6, RngStream(0))
    assert not accepted
    assert beta_new == 1.1
    assert s_new == s


def test_mh_beta_validation():
    with pytest.raises(ParameterError):
        mh_beta(0.0017, 1.1, sum_t_pow(1.1), -0.1, RngStream(1))


def test_sampler_accept_rate_is_moderate():
    """The kernel scan at the demo's proposal width, started at the MLE."""
    rng = RngStream(73)
    beta = weibull_mle_beta(LCD_FAILURE_HOURS)
    s = sum_t_pow(beta)
    accepted = 0
    for _ in range(20_000):
        lam = gibbs_lambda(s, rng)
        beta, s, ok = mh_beta(lam, beta, s, PROPOSAL_SD, rng)
        accepted += ok
    assert 0.2 < accepted / 20_000 < 0.6


def test_functional_h_closed_forms():
    mttf, r = functional_h(1.0, 1.0)
    assert mttf == pytest.approx(1.0, rel=1e-12)
    assert r == 0.0  # exp(-1500) underflows cleanly
    mttf, r = functional_h(1.0 / 1500.0, 1.0)
    assert mttf == pytest.approx(1500.0, rel=1e-12)
    assert r == pytest.approx(math.exp(-1.0), rel=1e-12)
    mttf, _ = functional_h(1.0, 2.0)
    assert mttf == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)


def test_functional_h_overflow_clamps_reliability():
    mttf, r = functional_h(1.0, 200.0)
    assert r == 0.0
    assert math.isfinite(mttf)


def test_functional_h_partial_derivatives():
    """Central finite differences against the analytic MTTF gradient."""
    lam, beta = 0.0017, 1.15
    mttf, _ = functional_h(lam, beta)
    d_lam = -mttf / (beta * lam)
    d_beta = mttf * (math.log(lam) - digamma(1.0 + 1.0 / beta)) / beta**2
    h = 1e-6
    fd_lam = (
        functional_h(lam * (1 + h), beta)[0] - functional_h(lam * (1 - h), beta)[0]
    ) / (2 * h * lam)
    fd_beta = (
        functional_h(lam, beta * (1 + h))[0] - functional_h(lam, beta * (1 - h))[0]
    ) / (2 * h * beta)
    assert fd_lam == pytest.approx(d_lam, rel=1e-5)
    assert fd_beta == pytest.approx(d_beta, rel=1e-5)


def test_weibull_mle_on_the_study_data():
    bhat = weibull_mle_beta(LCD_FAILURE_HOURS)
    assert bhat == pytest.approx(1.1207, abs=1e-3)
    w = TIMES**bhat
    score = (
        float((w * np.log(TIMES)).sum()) / float(w.sum())
        - 1.0 / bhat
        - float(np.log(TIMES).mean())
    )
    assert abs(score) < 1e-8


def test_weibull_mle_recovers_exponential():
    rng = RngStream(77)
    t = -np.log(rng.uniform(size=10_000))
    assert weibull_mle_beta(t) == pytest.approx(1.0, abs=0.05)


def test_weibull_mle_degenerate_sample():
    with pytest.raises(NumericsError):
        weibull_mle_beta(np.full(31, 500.0))
    with pytest.raises(DataError):
        weibull_mle_beta([500.0])
    with pytest.raises(DataError):
        weibull_mle_beta([1.0, -2.0, 3.0])


def test_weibull_mle_near_overflow_is_scale_free():
    """t^b ln t overflowed for t near the largest double and escaped as a
    RuntimeWarning; beta is the same for the times scaled by any factor."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        beta = weibull_mle_beta([1e308, 1e307])
        assert beta == pytest.approx(weibull_mle_beta([10.0, 1.0]), rel=1e-9)
        beta = weibull_mle_beta(TIMES * (1e300 / TIMES.max()))
        assert beta == pytest.approx(BETA_START, rel=1e-9)


@pytest.mark.parametrize(
    "times, message",
    [
        (TIMES + 1j, "be real, got complex128 values"),
        (TIMES.astype("datetime64[D]"), "be numbers, got datetime64[D] values"),
        (["a", "b"], "be numbers: could not convert string to float"),
        ({"a": 1.0}, "be numbers: float() argument must be"),
        ([1.0, np.nan, 3.0], "all be finite"),
        ([1.0, np.inf, 3.0], "all be finite"),
    ],
    ids=["complex", "datetime64", "text", "dict", "nan", "inf"],
)
def test_weibull_mle_takes_the_chain_s_intake(times, message):
    """Complex times used to lose their imaginary parts with a ComplexWarning,
    datetimes became day counts, and text and a dict raised untyped errors."""
    with pytest.raises(DataError) as info:
        weibull_mle_beta(times)
    assert str(info.value).startswith(f"failure time values must {message}")


def test_run_demo_two_stage_schedule():
    """With a loose epsilon the pilot check fails; the jump to LONG_RUN_N
    is capped at max_n, where the check succeeds, so exactly two verdicts
    appear."""
    report = run_demo(epsilon=0.3, max_n=4_000)
    assert [v.n for v in report.verdicts] == [209, 4_000]
    assert [v.terminate for v in report.verdicts] == [False, True]
    assert report.terminated
    assert report.chain.rows == 4_000
    assert report.params.shape == (4_000, 2)
    assert (report.params > 0.0).all()
    assert report.final is report.verdicts[-1]


def test_run_demo_settings_are_keyword_only():
    """alpha and epsilon are both floats; by position they could swap."""
    with pytest.raises(TypeError):
        run_demo(0.05)


def test_run_demo_report_carries_its_stopping_config():
    report = run_demo(epsilon=0.3, max_n=4_000)
    config = report.config
    assert isinstance(config, StoppingConfig)
    assert (config.p, config.alpha, config.epsilon) == (2, 0.05, 0.3)
    assert (config.max_n, config.n_star) == (4_000, report.verdicts[0].n)
    assert report.final.cutoff == config.cutoff.value


def test_every_demo_verdict_records_the_batches_that_reproduce_it():
    """The run's config is all evaluate_verdict needs to give the same
    verdict again on the chain's first n rows, square-root batches included."""
    for max_n in (4_000, 2_000):
        report = run_demo(epsilon=0.3, max_n=max_n)
        chain = report.chain
        for v in report.verdicts:
            assert v.batch_size == sqrt_batch_size(v.n)
            assert v.batches == v.n // v.batch_size
            head = ChainMatrix(chain.values[: v.n], chain.labels)
            assert evaluate_verdict(head, report.config)[0] == v


def test_demo_config_holds_its_batch_rule_and_check_schedule():
    """The demo's square-root batches and pilot-then-long-run schedule live
    in its config, and the summary's estimates come from the last check's
    call."""
    report = run_demo(epsilon=0.3, max_n=2_000)
    config = report.config
    assert config.batch_size_fn is sqrt_batch_size
    steps = [config.next_check_fn(n) for n in (8, LONG_RUN_N - 1, LONG_RUN_N)]
    assert steps == [LONG_RUN_N, LONG_RUN_N, 150_000]
    assert report.sigma_est.batch_size == report.final.batch_size
    last, lam, sig = evaluate_verdict(report.chain, config)
    assert last == report.final
    assert lam.matrix.tobytes() == report.lambda_est.matrix.tobytes()
    assert sig.matrix.tobytes() == report.sigma_est.matrix.tobytes()


def test_run_demo_config_validation():
    with pytest.raises(ParameterError):
        run_demo(max_n=0)
    # correlograms to lag ACF_LAGS need more draws than lags
    with pytest.raises(ParameterError, match="max_n must be >= 51"):
        run_demo(max_n=50)


@pytest.mark.parametrize(
    "setting, name",
    [
        ({"max_n": 60.5}, "max_n"),
        ({"max_n": True}, "max_n"),
        ({"max_n": "1000"}, "max_n"),
        ({"seed": 1.5, "max_n": 2_000}, "seed"),
    ],
    ids=["max_n=60.5", "max_n=True", "max_n='1000'", "seed=1.5"],
)
def test_run_demo_rejects_non_integer_settings_before_any_work(
    monkeypatch, setting, name
):
    def no_sampler():
        raise AssertionError("the sampler was built before the settings were checked")

    monkeypatch.setattr(lcd_demo, "_WeibullGibbsSampler", no_sampler)
    with pytest.raises(ParameterError, match=f"^{name} must be an integer$"):
        run_demo(**setting)


def test_run_demo_defaults():
    report = run_demo()
    assert report.terminated
    assert [v.n for v in report.verdicts] == [7_529, 100_000]
    assert BETA_START == pytest.approx(1.1207, abs=1e-3)
    assert 7_529 < report.final.ess < 20_000
    assert 0.2 < report.accept_rate < 0.45
    summary = report.summary
    mttf_mean, r_mean = summary.mean
    assert 560.0 < mttf_mean < 630.0
    assert 0.05 < r_mean < 0.09
    assert summary.mcse.shape == (2,) and (summary.mcse > 0.0).all()
    for mean, (lo, hi) in zip(summary.mean, summary.quantiles):
        assert (lo.q, hi.q) == (0.025, 0.975)
        assert lo.point < mean < hi.point
    assert summary.region.df == 100_000 // 316 - 2
    assert summary.region.contains(summary.mean)


def test_sampler_matches_a_scan_on_the_unbuffered_stream(
    unbuffered_stream, philox_position
):
    """Two calls on the block-buffered stream give the draws, rows and
    generator position of one call on one-draw-at-a-time uniforms."""
    fast, rng = _WeibullGibbsSampler(), RngStream(0)
    h = np.vstack([fast(7_529, rng), fast(52_471, rng)])
    slow, ref = _WeibullGibbsSampler(), unbuffered_stream(0)
    assert h.tobytes() == slow(60_000, ref).tobytes()
    assert fast.params.tobytes() == slow.params.tobytes()
    assert fast.accepted == slow.accepted
    assert philox_position(rng) == philox_position(ref)


def test_power_sum_is_the_plain_numpy_sum():
    betas = np.random.default_rng(5).uniform(0.0, 10.0, 10_000)
    assert all(
        sum_t_pow(b) == float(np.exp(b * _LOG_TIMES).sum()) for b in betas
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(sum_t_pow(math.nextafter(_NO_OVERFLOW_BETA, 0.0)))
        assert sum_t_pow(100.0) == math.inf
        assert sum_t_pow(1e3) == math.inf


def test_mh_beta_overflowing_proposal_is_rejected_without_warning():
    """A proposal past beta ~ 94 overflows t^beta; it is a rejection."""
    s = sum_t_pow(90.0)
    seeds = [k for k in range(20) if 90.0 + 50.0 * RngStream(k).normal() > 100.0]
    assert seeds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in seeds:
            assert mh_beta(1e-9, 90.0, s, 50.0, RngStream(seed)) == (90.0, s, False)


def test_demo_start_is_the_pinned_mle():
    """The sampler's start is the study data's MLE, bit for bit."""
    bhat = weibull_mle_beta(LCD_FAILURE_HOURS)
    assert bhat == BETA_START == float.fromhex("0x1.1ee67a1761be4p+0")
    assert _WeibullGibbsSampler()._beta == BETA_START


def test_run_demo_does_not_import_scipy_optimize(fresh_python, tmp_path):
    code = (
        "import sys\n"
        "from mcoutput.cli import main\n"
        "from mcoutput.lcd_demo import run_demo\n"
        "run_demo(max_n=8000)\n"
        "assert main(['demo', '--epsilon', '0.3', '--max-n', '2000',\n"
        "             '--out-dir', sys.argv[1]]) == 0\n"
        "print('scipy.optimize' in sys.modules)"
    )
    done = fresh_python("-c", code, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_on_draws_runs_concatenate_to_the_chain_and_params():
    """Runs of at most 8,192 rows, in order, bit for bit, and the same run
    as without the hook: the first check's 7,529 rows, then 12,471 rows in
    two runs."""
    runs = []

    def keep(functionals, params):
        assert functionals.shape == params.shape == (len(functionals), 2)
        runs.append((functionals.copy(), params.copy()))

    report = run_demo(max_n=20_000, on_draws=keep)
    assert [len(f) for f, _ in runs] == [7_529, 8_192, 4_279]
    chain = np.vstack([f for f, _ in runs])
    params = np.vstack([p for _, p in runs])
    assert chain.tobytes() == report.chain.values.tobytes()
    assert params.tobytes() == report.params.tobytes()
    plain = run_demo(max_n=20_000)
    assert plain.chain.values.tobytes() == report.chain.values.tobytes()
    assert plain.params.tobytes() == report.params.tobytes()
    assert plain.verdicts == report.verdicts


def test_on_draws_views_are_read_only():
    def change(functionals, params):
        for view in (functionals, params):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view.flags.writeable = True
            with pytest.raises(ValueError):
                view[0, 0] = 1.0

    report = run_demo(epsilon=0.3, max_n=2_000, on_draws=change)
    assert report.chain.values.tobytes() == run_demo(
        epsilon=0.3, max_n=2_000
    ).chain.values.tobytes()


def test_on_draws_exception_propagates_with_its_type():
    class Refused(Exception):
        pass

    def refuse(functionals, params):
        raise Refused("no more rows")

    with pytest.raises(Refused, match="no more rows"):
        run_demo(epsilon=0.3, max_n=2_000, on_draws=refuse)
