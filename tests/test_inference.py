"""Cutoffs, effective sample size, Hotelling regions, and the stopping rule."""

import dataclasses
import hashlib
import inspect
import json
import math
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from scipy.signal import lfilter
from scipy.special import betainc, gammainc
from scipy.stats import t as student_t

from mcoutput import (
    ChainMatrix,
    CovarianceEstimate,
    RngStream,
    StoppingConfig,
    Summary,
    batch_means_sigma,
    chi2_quantile,
    default_batch_size,
    default_hotelling_df,
    ess,
    evaluate_verdict,
    f_quantile,
    flat_top_sigma,
    hotelling_region,
    min_ess_cutoff,
    quantile_ci,
    rhat_from_ess,
    sample_cov_lambda,
    stopping_controller,
    summarize,
)
from mcoutput import inference
from mcoutput.inference import CHECK_GROWTH
from mcoutput.mcse import _GRAM_VALUES, _CoMoments
from mcoutput.quantiles import normal_interval
from mcoutput.errors import (
    DataError,
    DegenerateDataError,
    DegreesOfFreedomError,
    DimensionError,
    InsufficientDataError,
    ParameterError,
    SingularEstimateError,
)
import oracles
from oracles import Ar1Spec, generate_ar1, stopping_replay

M1 = 6146.334113110594  # 4 * chi2_{.95,1} / .05^2
M2 = 7529.096402175241  # the p = 2 default cutoff


def _bisect_cdf(cdf, prob, hi0=1.0):
    """Plain bisection on a monotone CDF, independent of any inverse."""
    lo, hi = 0.0, hi0
    while cdf(hi) < prob:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_chi2_closed_forms():
    assert chi2_quantile(0.95, 2) == pytest.approx(-2.0 * math.log(0.05), rel=1e-10)
    assert chi2_quantile(0.5, 2) == pytest.approx(2.0 * math.log(2.0), rel=1e-10)


@pytest.mark.parametrize("dof", [1, 2, 5, 10, 100])
@pytest.mark.parametrize("prob", [0.01, 0.5, 0.95, 0.99])
def test_chi2_against_bisection(dof, prob):
    oracle = _bisect_cdf(lambda x: gammainc(dof / 2.0, x / 2.0), prob, hi0=float(dof))
    assert chi2_quantile(prob, dof) == pytest.approx(oracle, rel=1e-9)


def test_f_quantile_pinned_value():
    assert f_quantile(0.95, 1, 10) == pytest.approx(4.9646, abs=1e-3)


@pytest.mark.parametrize("d2", [3, 10, 40])
def test_f_quantile_is_squared_student_t(d2):
    expected = student_t.ppf(1.0 - 0.05 / 2.0, d2) ** 2
    assert f_quantile(0.95, 1, d2) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("d1,d2", [(2, 7), (3, 29), (5, 100)])
def test_f_quantile_against_bisection(d1, d2):
    def cdf(x):
        return betainc(d1 / 2.0, d2 / 2.0, d1 * x / (d1 * x + d2))

    oracle = _bisect_cdf(cdf, 0.95)
    assert f_quantile(0.95, d1, d2) == pytest.approx(oracle, rel=1e-9)


def test_quantile_input_validation():
    with pytest.raises(ParameterError):
        chi2_quantile(0.0, 2)
    with pytest.raises(ParameterError):
        chi2_quantile(0.5, 0)
    with pytest.raises(ParameterError):
        f_quantile(1.0, 2, 2)


def test_min_ess_cutoff_default_bivariate():
    cutoff = min_ess_cutoff(0.05, 0.05, 2)
    # p = 2 collapses to pi * chi2_{.95,2} / eps^2
    closed = math.pi * (-2.0 * math.log(0.05)) / 0.05**2
    assert cutoff.value == pytest.approx(closed, rel=1e-12)
    assert cutoff.rounded == 7529
    assert 7529.0 < cutoff.value < 7529.5


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
@pytest.mark.parametrize("epsilon", [0.01, 0.05, 0.1])
def test_min_ess_cutoff_univariate_closed_form(alpha, epsilon):
    closed = 4.0 * chi2_quantile(1.0 - alpha, 1) / epsilon**2
    assert min_ess_cutoff(alpha, epsilon, 1).value == pytest.approx(closed, rel=1e-9)


def test_min_ess_cutoff_epsilon_scaling():
    base = min_ess_cutoff(0.05, 0.05, 3).value
    halved = min_ess_cutoff(0.05, 0.025, 3).value
    assert halved == pytest.approx(4.0 * base, rel=1e-12)


def test_min_ess_cutoff_monotonicity():
    eps_grid = [0.2, 0.1, 0.05, 0.02]
    values = [min_ess_cutoff(0.05, e, 2).value for e in eps_grid]
    assert all(a < b for a, b in zip(values, values[1:]))
    alpha_grid = [0.2, 0.1, 0.05, 0.01]
    values = [min_ess_cutoff(a, 0.05, 2).value for a in alpha_grid]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_min_ess_cutoff_validation():
    with pytest.raises(ParameterError):
        min_ess_cutoff(0.0, 0.05, 1)
    with pytest.raises(ParameterError):
        min_ess_cutoff(0.05, 1.0, 1)
    with pytest.raises(ParameterError):
        min_ess_cutoff(0.05, 0.05, 0)


def test_min_ess_cutoff_beyond_the_largest_double_is_a_parameter_error():
    """This was an OverflowError from math.exp; an epsilon just above the
    limit keeps its value."""
    cutoff = min_ess_cutoff(0.05, 1e-153, 2)
    assert cutoff.value == pytest.approx(M2 * (0.05 / 1e-153) ** 2, rel=1e-12)
    with pytest.raises(
        ParameterError,
        match=r"^epsilon=1e-160, alpha=0\.05, p=2 give a minimum ESS that "
        "exceeds the largest double; raise epsilon$",
    ):
        min_ess_cutoff(0.05, 1e-160, 2)


SMALLEST_ALPHA = math.nextafter(2.0**-53, 1.0)


def _alpha_entry_points():
    """Each public path through the alpha check, as a function of alpha."""
    x = RngStream(31).normal(size=(400, 2))
    chain = ChainMatrix(x)
    sig = batch_means_sigma(chain, 10)
    return {
        "min_ess_cutoff": lambda a: min_ess_cutoff(a, 0.05, 2),
        "hotelling_region": lambda a: hotelling_region(x.mean(axis=0), sig, 400, a, 38),
        "quantile_ci": lambda a: quantile_ci(x[:, 0], 0.5, a, 10),
        "normal_interval": lambda a: normal_interval(0.0, a, 1.0),
        "summarize": lambda a: summarize(chain, sig, a, (0.5,)),
    }


@pytest.mark.parametrize("entry", sorted(_alpha_entry_points()))
def test_alpha_whose_level_rounds_to_one_is_refused(entry):
    """1 - alpha/2 rounds to 1 at alpha <= 2**-53: that gave "prob must be
    inside (0, 1), got 1.0", or an infinite interval. Just above, it works;
    outside (0, 1) the message is as before."""
    fn = _alpha_entry_points()[entry]
    for alpha in (2.0**-53, 5e-17, 1e-300):
        with pytest.raises(ParameterError, match=r"^alpha must exceed 2\*\*-53, got "):
            fn(alpha)
    assert fn(SMALLEST_ALPHA) is not None
    for alpha in (0.0, 1.0, -0.5, math.nan):
        with pytest.raises(ParameterError, match=r"^alpha must be inside \(0, 1\)"):
            fn(alpha)


def _estimate_pair(chain, b):
    return sample_cov_lambda(chain), batch_means_sigma(chain, b)


def test_ess_equals_n_when_sigma_is_lambda():
    chain = generate_ar1(Ar1Spec(rho=0.4, dim=2), 2_000, RngStream(1))
    lam = sample_cov_lambda(chain)
    assert ess(chain.rows, lam, lam) == float(chain.rows)


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
def test_ess_scale_invariance(c):
    chain = generate_ar1(Ar1Spec(rho=0.5, dim=2), 20_000, RngStream(3))
    lam, sig = _estimate_pair(chain, 26)
    base = ess(chain.rows, lam, sig)
    scaled = ChainMatrix(c * chain.values)
    lam_c, sig_c = _estimate_pair(scaled, 26)
    assert ess(scaled.rows, lam_c, sig_c) == pytest.approx(base, rel=1e-10)


def test_ess_rejects_singular_sigma():
    chain = generate_ar1(Ar1Spec(rho=0.2, dim=2), 1_000, RngStream(5))
    lam = sample_cov_lambda(chain)
    singular = CovarianceEstimate(
        matrix=np.zeros((2, 2)), kind="batch-means", batch_size=10,
        n_used=1_000,
    )
    with pytest.raises(SingularEstimateError):
        ess(chain.rows, lam, singular)


def _duplicate_column_chain():
    """+1/-1 in equal numbers, twice: Lambda is exactly the all-ones matrix."""
    x = np.tile([1.0, -1.0], 250)[np.argsort(RngStream(19).uniform(500))]
    return ChainMatrix(np.column_stack([x, x]))


@pytest.mark.parametrize("use_flat_top", [False, True])
def test_singular_lambda_error_names_the_target_covariance(use_flat_top):
    chain = _duplicate_column_chain()
    cfg = StoppingConfig(
        p=2, n_star=8, use_flat_top=use_flat_top, batch_size_fn=lambda n: 10
    )
    with pytest.raises(SingularEstimateError) as info:
        evaluate_verdict(chain, cfg)
    message = str(info.value)
    assert "target covariance" in message
    assert "flat-top" not in message and "batch means" not in message


def test_duplicated_column_is_singular_on_every_seed():
    """Rounding lets Cholesky succeed on about a quarter of these chains;
    the relative-pivot test must still mark Lambda singular every time."""
    for seed in range(40):
        rng = RngStream(seed)
        x = rng.normal(2000)
        chain = ChainMatrix(np.column_stack([x, rng.normal(2000), x]))
        lam = sample_cov_lambda(chain)
        assert lam.chol is None and lam.log_det is None and lam.is_psd
        with pytest.raises(SingularEstimateError) as info:
            evaluate_verdict(chain, StoppingConfig(p=3, n_star=8))
        assert str(info.value) == (
            "target covariance (sample-cov) is not positive definite"
        )


def test_singular_flat_top_error_suggests_batch_means():
    x = (-1.0) ** np.arange(512) + 0.01 * RngStream(17).normal(512)
    chain = ChainMatrix(x)
    flat = flat_top_sigma(chain, 2)
    assert flat.chol is None and flat.log_det is None
    with pytest.raises(SingularEstimateError, match="retry with plain batch means"):
        ess(chain.rows, sample_cov_lambda(chain), flat)


def _count_factorizations(monkeypatch):
    calls = []
    for name in ("cholesky", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("use_flat_top", [False, True])
def test_each_estimate_is_factored_once(monkeypatch, use_flat_top):
    chain = generate_ar1(Ar1Spec(rho=0.5, dim=2), 4_000, RngStream(29))
    cfg = StoppingConfig(p=2, use_flat_top=use_flat_top)
    calls = _count_factorizations(monkeypatch)
    verdict, _, sig = evaluate_verdict(chain, cfg)
    assert not verdict.fallback_used
    assert len(calls) <= 2
    calls.clear()
    hotelling_region(chain.values.mean(axis=0), sig, chain.rows, 0.05, 50)
    assert calls == []


def test_verdict_records_its_batch_length_and_count():
    chain = generate_ar1(Ar1Spec(rho=0.5, dim=2), 1_000, RngStream(31))
    verdict, _, sig = evaluate_verdict(chain, StoppingConfig(p=2))
    assert (verdict.batch_size, verdict.batches) == (10, 100) == (
        default_batch_size(1_000), sig.n_used // sig.batch_size
    )
    cfg = StoppingConfig(p=2, batch_size_fn=lambda n: 7)
    verdict, _, sig = evaluate_verdict(chain, cfg)
    assert (verdict.batch_size, verdict.batches) == (7, 142)
    assert sig.batch_size == 7


def test_verdicts_hold_python_ints():
    """A rule may return a numpy integer; the verdict stores a Python int,
    so ``json.dumps(dataclasses.asdict(verdict))`` works."""
    chain = generate_ar1(Ar1Spec(rho=0.5, dim=2), 1_000, RngStream(31))
    cfg = StoppingConfig(p=2, batch_size_fn=lambda n: np.int64(10))
    verdict, _, sig = evaluate_verdict(chain, cfg)
    assert type(verdict.batch_size) is int and type(verdict.batches) is int
    assert type(sig.batch_size) is int
    assert json.loads(json.dumps(dataclasses.asdict(verdict)))["batch_size"] == 10
    plain = dataclasses.replace(cfg, batch_size_fn=lambda n: 10)
    assert evaluate_verdict(chain, plain)[0] == verdict


def test_rhat_formula_and_stopping_equivalence():
    assert rhat_from_ess(100.0) == pytest.approx(math.sqrt(1.01), rel=1e-15)
    threshold = math.sqrt(1.0 + 1.0 / M2)
    for e in np.linspace(0.9 * M2, 1.1 * M2, 1001):
        assert (e >= M2) == (rhat_from_ess(float(e)) <= threshold)
    assert rhat_from_ess(M2) == threshold
    with pytest.raises(ParameterError):
        rhat_from_ess(0.0)


def test_hotelling_univariate_halfwidth_identity():
    chain = generate_ar1(Ar1Spec(rho=0.3), 1_000, RngStream(7))
    sig = batch_means_sigma(chain, 10)
    q = default_hotelling_df(sig, 1)
    assert q == 99
    region = hotelling_region(chain.values.mean(axis=0), sig, 1_000, 0.05, q)
    lo, hi = region.interval()
    half = 0.5 * (hi - lo)
    identity = half**2 * 1_000 / sig.matrix[0, 0]
    assert identity == pytest.approx(f_quantile(0.95, 1, q), rel=1e-10)
    # interval length doubles as the p = 1 volume
    assert math.exp(region.log_volume) == pytest.approx(hi - lo, rel=1e-12)


def test_hotelling_boundary_sits_on_the_ellipse():
    chain = generate_ar1(Ar1Spec(rho=0.5, dim=2), 4_000, RngStream(9))
    sig = batch_means_sigma(chain, 14)
    region = hotelling_region(chain.values.mean(axis=0), sig, 4_000, 0.05, 100)
    assert region.boundary.shape == (128, 2)
    for pt in region.boundary[::17]:
        assert region.mahalanobis2(pt) == pytest.approx(region.hotelling_q2, rel=1e-8)


def test_hotelling_volume_matches_polygon_area():
    """Shoelace area of the 128-gon equals the ellipse area times the
    exact inscribed-polygon deficit (k/2pi) sin(2pi/k)."""
    chain = generate_ar1(Ar1Spec(rho=0.4, dim=2), 4_000, RngStream(11))
    sig = batch_means_sigma(chain, 14)
    region = hotelling_region(chain.values.mean(axis=0), sig, 4_000, 0.05, 50)
    x, y = region.boundary[:, 0], region.boundary[:, 1]
    area = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))
    k = region.boundary.shape[0]
    deficit = k * math.sin(2.0 * math.pi / k) / (2.0 * math.pi)
    assert area == pytest.approx(math.exp(region.log_volume) * deficit, rel=1e-10)


@pytest.mark.parametrize("power", [300, -300])
def test_hotelling_log_volume_shifts_by_p_log_scale(power):
    """Scaling by 2^power is exact: log det(Sigma) moves by 2 p power ln 2
    and log_volume by half that. The volume itself, 2^(+-3000) times the
    unit one, is no double."""
    x = RngStream(37).normal(size=(20_000, 10))

    def log_volume(values):
        sig = batch_means_sigma(ChainMatrix(values), 24)
        q = default_hotelling_df(sig, 10)
        return hotelling_region(values.mean(axis=0), sig, 20_000, 0.05, q).log_volume

    unit, scaled = log_volume(x), log_volume(x * 2.0**power)
    assert math.isfinite(unit) and math.isfinite(scaled)
    assert scaled - unit == pytest.approx(10 * power * math.log(2.0), abs=1e-9)


def test_hotelling_contains():
    sig = CovarianceEstimate(
        matrix=np.eye(2), kind="batch-means", batch_size=10,
        n_used=1_000,
    )
    region = hotelling_region([0.0, 0.0], sig, 1_000, 0.05, 98)
    assert region.contains([0.0, 0.0])
    assert not region.contains([1.0, 1.0])
    # identity shape: boundary radius is sqrt(T^2 / n) in every direction
    radii = np.linalg.norm(region.boundary, axis=1)
    expected = math.sqrt(region.hotelling_q2 / 1_000)
    np.testing.assert_allclose(radii, expected, rtol=1e-12)


def test_hotelling_validation():
    sig = CovarianceEstimate(
        matrix=np.eye(2), kind="batch-means", batch_size=10,
        n_used=100,
    )
    with pytest.raises(DegreesOfFreedomError):
        hotelling_region([0.0, 0.0], sig, 100, 0.05, 2)
    with pytest.raises(ParameterError):
        hotelling_region([0.0, 0.0], sig, 100, 1.5, 8)
    with pytest.raises(DimensionError):
        hotelling_region([0.0], sig, 100, 0.05, 8)
    for n in (100.5, 100.0, True, "100"):
        with pytest.raises(ParameterError, match="^n must be an integer$"):
            hotelling_region([0.0, 0.0], sig, n, 0.05, 8)
    with pytest.raises(ParameterError) as info:
        hotelling_region([0.0, 0.0], sig, 0, 0.05, 8)
    assert str(info.value) == "n must be >= 1, got 0"
    hotelling_region([0.0, 0.0], sig, np.int64(100), 0.05, 8)
    region = hotelling_region([0.0, 0.0], sig, 100, 0.05, 8)
    with pytest.raises(DimensionError):
        region.interval()
    indefinite = CovarianceEstimate(
        matrix=np.array([[1.0, 2.0], [2.0, 1.0]]), kind="flat-top",
        batch_size=10, n_used=100,
    )
    assert indefinite.chol is None and not indefinite.is_psd
    with pytest.raises(SingularEstimateError):
        hotelling_region([0.0, 0.0], indefinite, 100, 0.05, 8)


@pytest.mark.parametrize(
    "mean",
    [[math.nan, 0.0], [0.0, math.inf], [-math.inf, 1.0]],
    ids=["nan", "inf", "-inf"],
)
def test_hotelling_rejects_non_finite_mean(mean):
    sig = CovarianceEstimate(
        matrix=np.eye(2), kind="batch-means", batch_size=10,
        n_used=2_000,
    )
    with pytest.raises(DataError, match=r"^mean must be finite, got \["):
        hotelling_region(mean, sig, 2_000, 0.05, 198)


@pytest.mark.parametrize(
    "values, message",
    [
        (["a", "b"], "numbers: could not convert string to float"),
        ([1 + 1j, 0.0], "real, got complex128 values"),
        (np.arange(2).astype("datetime64[D]"), "numbers, got datetime64[D] values"),
    ],
    ids=["text", "complex", "datetime64"],
)
def test_hotelling_refuses_a_non_numeric_mean_or_point(values, message):
    """Both used to raise an untyped ValueError or TypeError, or take a
    datetime as a count of days."""
    sig = CovarianceEstimate(
        matrix=np.eye(2), kind="batch-means", batch_size=10, n_used=2_000,
    )
    with pytest.raises(DataError) as info:
        hotelling_region(values, sig, 2_000, 0.05, 198)
    assert str(info.value).startswith(f"mean values must be {message}")
    region = hotelling_region([0.0, 0.0], sig, 2_000, 0.05, 198)
    with pytest.raises(DataError) as info:
        region.contains(values)
    assert str(info.value).startswith(f"point values must be {message}")


def test_default_hotelling_df_rule():
    chain = generate_ar1(Ar1Spec(rho=0.2, dim=2), 1_000, RngStream(13))
    sig = batch_means_sigma(chain, 30)
    assert default_hotelling_df(sig, 2) == 1_000 // 30 - 2
    lam = sample_cov_lambda(chain)
    with pytest.raises(ParameterError):
        default_hotelling_df(lam, 2)


def test_summarize_matches_its_parts_and_keeps_failed_entries_in_place():
    """With the top 10% of column 1 tied, its 0.975 entry fails; every
    other entry is exactly what quantile_ci gives."""
    x = RngStream(23).normal(size=(2000, 2))
    tail = x[:, 1] >= np.quantile(x[:, 1], 0.9)
    x[tail, 1] = x[:, 1].max()
    chain = ChainMatrix(x)
    sig = batch_means_sigma(chain, 12)
    levels = (0.025, 0.5, 0.975)
    summary = summarize(chain, sig, 0.05, levels)
    assert isinstance(summary, Summary)
    np.testing.assert_array_equal(summary.mean, x.mean(axis=0))
    np.testing.assert_array_equal(summary.mcse, np.sqrt(np.diag(sig.matrix) / 2000))
    assert [len(entries) for entries in summary.quantiles] == [3, 3]
    for i in range(2):
        for j, q in enumerate(levels):
            if (i, j) != (1, 2):
                want = quantile_ci(chain.column(i), q, 0.05, 12)
                assert summary.quantiles[i][j] == want
    failed = summary.quantiles[1][2]
    assert isinstance(failed, DegenerateDataError)
    assert "is constant" in str(failed)
    with pytest.raises(DegenerateDataError, match="^column 'col1', q=0.975: indicator"):
        summary.raise_failures()
    assert summary.region_reason is None
    want = hotelling_region(x.mean(axis=0), sig, 2000, 0.05, 2000 // 12 - 2)
    np.testing.assert_array_equal(summary.region.boundary, want.boundary)
    assert summary.region.log_volume == want.log_volume


def test_summarize_takes_the_batch_length_from_sigma():
    """A flat-top Sigma at even b sets both the region's degrees of freedom
    and every quantile CI's batch length; a sample covariance has none."""
    x = RngStream(29).normal(size=(3000, 2))
    x[1:] += 0.5 * x[:-1]
    chain = ChainMatrix(x)
    sig = flat_top_sigma(chain, 16)
    levels = (0.1, 0.5, 0.9)
    summary = summarize(chain, sig, 0.05, levels)
    for i in range(2):
        for q, entry in zip(levels, summary.quantiles[i], strict=True):
            assert entry == quantile_ci(chain.column(i), q, 0.05, 16)
    assert summary.region.df == 3000 // 16 - 2
    with pytest.raises(ParameterError, match="only defined for batch-style"):
        summarize(chain, sample_cov_lambda(chain), 0.05, levels)


def test_summarize_without_a_region_says_why():
    few = ChainMatrix(RngStream(21).normal(size=(40, 2)))
    summary = summarize(few, batch_means_sigma(few, 10), 0.05, (0.5,))
    assert summary.region is None
    assert isinstance(summary.region_reason, DegreesOfFreedomError)
    assert str(summary.region_reason) == "too few batches for a region: q=2 <= p=2"
    summary.raise_failures(region=False)
    with pytest.raises(DegreesOfFreedomError):
        summary.raise_failures()

    v = RngStream(3).normal(size=400)
    collinear = ChainMatrix(np.column_stack([v, -v]))
    sig = batch_means_sigma(collinear, 20)
    summary = summarize(collinear, sig, 0.05, (0.5,))
    assert summary.region is None
    assert isinstance(summary.region_reason, SingularEstimateError)
    assert str(summary.region_reason) == (
        "asymptotic covariance (batch-means) is not positive definite"
    )
    assert summary.quantiles[0][0] == quantile_ci(v, 0.5, 0.05, 20)

    with pytest.raises(ParameterError, match="alpha must be inside"):
        summarize(collinear, sig, 1.5, (0.5,))


def test_stopping_config_defaults_and_validation():
    cfg = StoppingConfig(p=2)
    assert cfg.cutoff.value == pytest.approx(M2, rel=1e-12)
    assert cfg.n_star == 7529
    assert CHECK_GROWTH == 1.5
    assert not cfg.use_flat_top
    explicit = StoppingConfig(p=1, n_star=500)
    assert explicit.n_star == 500
    with pytest.raises(ParameterError):
        StoppingConfig(p=1, n_star=7)
    # the check growth is a constant; the next_check_fn field overrides the schedule
    with pytest.raises(TypeError):
        StoppingConfig(p=1, check_growth=2.0)
    with pytest.raises(ParameterError):
        StoppingConfig(p=1, max_n=0)


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"n_star": 7}, "n_star must be >= 8, got 7"),
        ({"max_n": 0}, "max_n must be >= 1, got 0"),
        ({"max_n": 10.5}, "max_n must be an integer"),
        ({"max_n": True}, "max_n must be an integer"),
        ({"max_n": "1000"}, "max_n must be an integer"),
        ({"n_star": 8.5}, "n_star must be an integer"),
    ],
    ids=["n_star=7", "max_n=0", "max_n=10.5", "max_n=True", "max_n='1000'",
         "n_star=8.5"],
)
def test_stopping_config_count_checks(setting, message):
    with pytest.raises(ParameterError) as info:
        StoppingConfig(p=2, **setting)
    assert str(info.value) == message


def test_stopping_config_is_frozen():
    """A changed alpha would leave the cutoff computed from the old one."""
    cfg = StoppingConfig(p=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.alpha = 0.5
    assert cfg.alpha == 0.05
    assert cfg.cutoff.value == pytest.approx(M2, rel=1e-12)


@pytest.mark.parametrize("name", ["batch_size_fn", "next_check_fn"])
def test_stopping_rules_must_be_callable(name):
    """A rule that cannot be called is refused when the config is made, not
    as an untyped TypeError at the first check: the sampler never runs."""
    def sampler(k, rng):
        pytest.fail("the sampler was called")

    with pytest.raises(ParameterError) as info:
        stopping_controller(sampler, StoppingConfig(p=2, **{name: None}), RngStream(0))
    assert str(info.value) == f"{name} must be callable, got None"


def test_evaluate_verdict_dimension_check():
    chain = generate_ar1(Ar1Spec(rho=0.2, dim=2), 100, RngStream(15))
    with pytest.raises(DimensionError):
        evaluate_verdict(chain, StoppingConfig(p=3))


def test_evaluate_verdict_flat_top_fallback():
    """An alternating series makes the flat-top combination negative, so
    the verdict must fall back to plain batch means and say so."""
    t = np.arange(512)
    x = (-1.0) ** t + 0.01 * RngStream(17).normal(512)
    chain = ChainMatrix(x)
    assert not flat_top_sigma(chain, 2).is_psd
    cfg = StoppingConfig(
        p=1, n_star=8, use_flat_top=True, batch_size_fn=lambda n: 2
    )
    verdict, _, sig = evaluate_verdict(chain, cfg)
    assert verdict.fallback_used
    assert sig.kind == "batch-means"
    assert math.isfinite(verdict.ess)
    # same chain without the flat-top request: no fallback to report
    plain, _, _ = evaluate_verdict(chain, dataclasses.replace(cfg, use_flat_top=False))
    assert not plain.fallback_used


@pytest.mark.parametrize("mismatch", ["kind", "rows", "cols"])
def test_a_lambda_that_is_not_this_chains_is_refused(mismatch):
    x = RngStream(91).normal(size=(400, 3))
    chain = ChainMatrix(x)
    lam = {
        "kind": lambda: batch_means_sigma(chain, 10),
        "rows": lambda: sample_cov_lambda(ChainMatrix(x[:399])),
        "cols": lambda: sample_cov_lambda(ChainMatrix(x[:, :2])),
    }[mismatch]()
    cfg = StoppingConfig(p=3, n_star=8)
    message = "not the sample covariance of this 400 by 3"
    with pytest.raises(ParameterError, match=message):
        evaluate_verdict(chain, cfg, lam=lambda: lam)
    own = evaluate_verdict(chain, cfg, lam=lambda: sample_cov_lambda(chain))
    assert own[0] == evaluate_verdict(chain, cfg)[0]


@pytest.mark.parametrize(
    "lam, message",
    [
        (np.eye(3), "lam must be callable, got ndarray"),
        (lambda: np.eye(3), "lam must be a CovarianceEstimate, got ndarray"),
        (lambda: None, "lam must be a CovarianceEstimate, got NoneType"),
    ],
    ids=["array", "function of an array", "function of None"],
)
def test_a_lambda_that_is_not_an_estimate_is_refused(lam, message):
    """Anything but an estimate returned by a function, or anything but a
    function given, used to raise an untyped AttributeError."""
    chain = ChainMatrix(RngStream(93).normal(size=(400, 3)))
    with pytest.raises(ParameterError) as info:
        evaluate_verdict(chain, StoppingConfig(p=3, n_star=8), lam=lam)
    assert str(info.value) == message


def test_an_estimate_given_as_lambda_is_refused_before_any_work():
    """Lambda comes only from a function: an estimate passed in, even this
    chain's own, is refused before the batch rule or an estimator runs."""
    chain = ChainMatrix(RngStream(93).normal(size=(400, 3)))

    def rule(n):
        pytest.fail("the batch rule was called")

    cfg = StoppingConfig(p=3, n_star=8, batch_size_fn=rule)
    with pytest.raises(ParameterError) as info:
        evaluate_verdict(chain, cfg, lam=sample_cov_lambda(chain))
    assert str(info.value) == "lam must be callable, got CovarianceEstimate"


def test_evaluate_verdict_takes_b_and_lambda_from_one_place_each():
    """No ``batch_size`` argument: b comes from the config's rule."""
    params = inspect.signature(evaluate_verdict).parameters
    assert list(params) == ["chain", "config", "lam"]
    assert params["lam"].default is None


def _iid_sampler():
    return lambda k, rng: rng.normal(size=int(k))


def _ar1_sampler(rho):
    last = []

    def sample(k, rng):
        e = rng.normal(size=int(k))
        if not last:
            e[0] /= math.sqrt(1.0 - rho * rho)
            x = lfilter([1.0], [1.0, -rho], e)
        else:
            x, _ = lfilter([1.0], [1.0, -rho], e, zi=np.array([rho * last[0]]))
        last[:] = [x[-1]]
        return x

    return sample


def _iid_sampler_2():
    return lambda k, rng: rng.normal(size=(int(k), 2))


def test_controller_iid_stops_at_first_check():
    chain, verdicts = stopping_controller(
        _iid_sampler(), StoppingConfig(p=1), RngStream(3)
    )
    assert len(verdicts) == 1
    assert verdicts[0].n == 6146
    assert verdicts[0].terminate
    assert chain.rows == 6146


def test_controller_ar1_terminal_length():
    """rho = 0.9 needs roughly (1+rho)/(1-rho) = 19 times the iid length."""
    chain, verdicts = stopping_controller(
        _ar1_sampler(0.9), StoppingConfig(p=1), RngStream(1)
    )
    n = verdicts[-1].n
    assert verdicts[-1].terminate
    assert 0.75 * 19 * M1 <= n <= 1.25 * 19 * M1
    assert chain.rows == n


def test_controller_verdict_flag_equality():
    cfg = StoppingConfig(p=1)
    _, verdicts = stopping_controller(_ar1_sampler(0.8), cfg, RngStream(21))
    assert len(verdicts) > 1
    for v in verdicts:
        assert v.terminate == (v.ess >= v.cutoff and v.n >= cfg.n_star)
        assert v.cutoff == cfg.cutoff.value
        assert v.rhat == pytest.approx(math.sqrt(1.0 + 1.0 / v.ess), rel=1e-15)


def test_controller_budget_runs_out_quietly():
    cfg = StoppingConfig(p=1, max_n=2_000)
    chain, verdicts = stopping_controller(_iid_sampler(), cfg, RngStream(23))
    assert chain.rows == 2_000
    assert len(verdicts) == 1
    assert not verdicts[-1].terminate  # n never reached n_star


def test_controller_check_schedule_is_geometric():
    cfg = StoppingConfig(p=1, max_n=40_000)
    _, verdicts = stopping_controller(_ar1_sampler(0.95), cfg, RngStream(25))
    ns = [v.n for v in verdicts]
    assert ns[0] == cfg.n_star
    for prev, cur in zip(ns, ns[1:]):
        assert cur == min(cfg.max_n, math.ceil(prev * CHECK_GROWTH))
    assert ns[-1] == cfg.max_n
    assert not verdicts[-1].terminate


def test_controller_batch_size_hook():
    cfg = StoppingConfig(p=1, batch_size_fn=lambda n: 100)
    chain, verdicts = stopping_controller(_iid_sampler(), cfg, RngStream(3))
    direct, _, sig = evaluate_verdict(chain, cfg)
    assert direct == verdicts[-1]
    assert direct.batch_size == sig.batch_size == 100
    default_direct, _, _ = evaluate_verdict(chain, StoppingConfig(p=1))
    assert verdicts[-1].ess != default_direct.ess


def test_controller_next_check_hook():
    cfg = StoppingConfig(p=1, n_star=8, max_n=700, next_check_fn=lambda n: 3 * n)
    _, verdicts = stopping_controller(_ar1_sampler(0.9), cfg, RngStream(27))
    assert [v.n for v in verdicts] == [8, 24, 72, 216, 648, 700]


@pytest.mark.parametrize(
    "step", [math.nan, math.inf, None, "x", "200", 300.5],
    ids=["nan", "inf", "None", "'x'", "'200'", "300.5"],
)
def test_a_check_schedule_that_is_not_an_integer_is_refused(step):
    """The next length is checked as b is: NaN, inf, None and 'x' used to
    raise untyped errors, and '200' and 300.5 were silently truncated."""
    cfg = StoppingConfig(p=2, n_star=100, next_check_fn=lambda n: step)
    message = r"^next_check_fn\(n\) must be an integer$"
    with pytest.raises(ParameterError, match=message):
        stopping_controller(_iid_sampler_2(), cfg, RngStream(0))


def test_stopping_config_holds_the_check_rules():
    """The batch rule and the check schedule are config fields, not
    controller arguments."""
    cfg = StoppingConfig(p=2)
    assert cfg.batch_size_fn is default_batch_size
    assert [cfg.next_check_fn(n) for n in (8, 7529)] == [12, 11294]
    params = inspect.signature(stopping_controller).parameters
    assert list(params) == ["sampler", "config", "rng", "labels"]


def test_controller_chain_shares_no_sampler_block():
    blocks = []

    def sampler(k, rng):
        blocks.append(rng.normal(size=(int(k), 2)))
        return blocks[-1]

    cfg = StoppingConfig(p=2, n_star=8, max_n=2_000)
    chain, _ = stopping_controller(sampler, cfg, RngStream(29))
    assert len(blocks) > 1
    assert not any(np.shares_memory(chain.values, b) for b in blocks)
    assert all(b.flags.writeable for b in blocks)
    assert chain.values.tobytes() == np.vstack(blocks).tobytes()
    assert not chain.values.flags.writeable


def test_controller_keeps_no_sampler_block_past_the_next_call():
    """Each check copies the new block into the one reserved buffer, so a
    block is dead by the time the sampler is called twice more."""
    refs, data = [], []

    def sampler(k, rng):
        assert all(ref() is None for ref in refs[:-1])
        block = rng.normal(size=(int(k), 2))
        refs.append(weakref.ref(block))
        data.append(block.tobytes())
        return block

    cfg = StoppingConfig(p=2, n_star=8, max_n=2_000)
    chain, _ = stopping_controller(sampler, cfg, RngStream(29))
    assert len(refs) > 2
    assert chain.values.tobytes() == b"".join(data)


def test_controller_rejects_misshapen_sampler_output():
    bad = lambda k, rng: rng.normal(size=(int(k), 2))
    with pytest.raises(DimensionError):
        stopping_controller(bad, StoppingConfig(p=1, n_star=8, max_n=10), RngStream(0))


def test_a_one_dimensional_block_is_reported_as_returned():
    flat = lambda k, rng: rng.normal(size=int(k))
    with pytest.raises(DimensionError) as info:
        stopping_controller(flat, StoppingConfig(p=2, n_star=8), RngStream(0))
    assert str(info.value) == "sampler returned shape (8,), expected (8, 2)"


def test_controller_refuses_complex_blocks():
    """Casting a complex block to float would keep only its real parts."""
    calls = []

    def sampler(k, rng):
        calls.append(k)
        return rng.normal(size=(int(k), 2)) + 1j

    cfg = StoppingConfig(p=2, n_star=8, max_n=2_000)
    with pytest.raises(DataError, match="^chain values must be real, got complex"):
        stopping_controller(sampler, cfg, RngStream(0))
    assert calls == [8]


@pytest.mark.parametrize(
    "block",
    [
        lambda k: np.full((k, 1), "abc"),
        lambda k: [[1.0, 2.0]] + [[1.0]] * (k - 1),
        lambda k: {"a": 1.0},
        lambda k: np.zeros(k, dtype=[("a", float)]),
        lambda k: np.arange(k).astype("datetime64[D]"),
        lambda k: np.arange(k).astype("timedelta64[s]"),
    ],
    ids=["text", "ragged", "dict", "record", "datetime64", "timedelta64"],
)
def test_controller_refuses_non_numeric_blocks(block):
    """A block goes through the chain's intake: each used to raise an
    untyped error or, for datetimes and time spans, be taken as counts."""
    calls = []

    def sampler(k, rng):
        calls.append(k)
        return block(k)

    cfg = StoppingConfig(p=1, n_star=8, max_n=2_000)
    with pytest.raises(DataError, match="^chain values must be numbers"):
        stopping_controller(sampler, cfg, RngStream(0))
    assert calls == [8]


def test_controller_rejects_a_non_finite_block_after_the_first_check():
    calls = []

    def sampler(k, rng):
        block = rng.normal(size=(int(k), 2))
        if calls:
            block[-1, 1] = np.nan
        calls.append(k)
        return block

    cfg = StoppingConfig(p=2, n_star=8, max_n=20_000)
    with pytest.raises(DataError, match="finite"):
        stopping_controller(sampler, cfg, RngStream(0))
    assert len(calls) == 2


def _wide_config(**settings):
    """p = 50, checked at 400 rows and then every 1.5 times more up to
    40,000: the last four checks are past n * p = 2**19, so each merges only
    its new rows into Lambda. The cutoff is out of reach."""
    return StoppingConfig(p=50, epsilon=0.01, n_star=400, max_n=40_000, **settings)


def test_controller_rejects_a_non_finite_block_past_the_merge_threshold():
    """Only new rows are scanned for finiteness; a NaN in a block that
    starts past the threshold still raises."""
    drawn = []

    def sampler(k, rng):
        block = rng.normal(size=(int(k), 50))
        if sum(drawn) * 50 > _GRAM_VALUES:
            block[k // 2, 7] = np.nan
        drawn.append(k)
        return block

    with pytest.raises(DataError, match="finite"):
        stopping_controller(sampler, _wide_config(), RngStream(0))
    assert sum(drawn[:-2]) * 50 <= _GRAM_VALUES < sum(drawn[:-1]) * 50


@pytest.mark.parametrize("use_flat_top", [False, True])
def test_every_merged_verdict_is_given_again_by_its_head(use_flat_top):
    """Below the threshold a check is ``evaluate_verdict(head, config)``
    exactly; past it Lambda is merged, so ESS agrees to rounding."""
    cfg = _wide_config(use_flat_top=use_flat_top)
    sampler = lambda k, rng: rng.normal(size=(int(k), 50)) + 3.0
    chain, verdicts = stopping_controller(sampler, cfg, RngStream(41))
    assert sum(v.n * 50 > _GRAM_VALUES for v in verdicts) == 4
    assert verdicts[-1].n == 40_000 and not verdicts[-1].terminate
    fields = ("n", "terminate", "fallback_used", "batch_size", "batches")
    for v in verdicts:
        again, _, _ = evaluate_verdict(ChainMatrix(chain.values[: v.n]), cfg)
        if v.n * 50 <= _GRAM_VALUES:
            assert again == v
            continue
        assert [getattr(again, f) for f in fields] == [getattr(v, f) for f in fields]
        assert again.ess == pytest.approx(v.ess, rel=1e-14, abs=0)


def test_every_checked_chain_keeps_its_bytes(monkeypatch):
    """The checks see views of one buffer that later blocks extend: no
    write may reach rows an earlier check saw."""
    seen = []

    def record(chain, config, **kwargs):
        seen.append((chain, chain.values.tobytes()))
        return evaluate_verdict(chain, config, **kwargs)

    monkeypatch.setattr(inference, "evaluate_verdict", record)
    cfg = StoppingConfig(p=2, n_star=8, max_n=40_000)
    chain, verdicts = stopping_controller(_iid_sampler_2(), cfg, RngStream(31))
    assert len(seen) == len(verdicts) > 2
    for checked, data in seen:
        assert checked.values.tobytes() == data
    assert seen[-1][0] is chain


def test_controller_returns_a_read_only_buffer():
    cfg = StoppingConfig(p=2, n_star=8, max_n=2_000)
    chain, _ = stopping_controller(_iid_sampler_2(), cfg, RngStream(33))
    for arr in (chain.values, chain.values.base):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.setflags(write=True)
    # the buffer the controller wrote, under the read-only memoryview
    assert not chain.values.base.base.obj.flags.writeable


def test_a_budget_that_cannot_be_reserved_is_refused_before_sampling():
    """The max_n x p buffer is reserved up front: 1.6e16 bytes fail at once,
    as a ParameterError naming the budget, and the sampler is never called."""
    def sampler(k, rng):
        pytest.fail("the sampler was called")

    with pytest.raises(ParameterError) as info:
        stopping_controller(sampler, StoppingConfig(p=2, max_n=10**15), RngStream(0))
    assert str(info.value) == (
        "max_n=1000000000000000 rows of p=2 doubles need 16000000000000000 "
        "bytes, more than can be reserved; lower max_n"
    )


@pytest.mark.parametrize("use_flat_top", [False, True])
def test_verdict_needs_more_batches_than_components(use_flat_top):
    """A batch-means Sigma has rank at most a - 1. With a = n // b <= p the
    verdict used to fail as a singular estimate naming no batch count."""
    p = 6
    chain = ChainMatrix(RngStream(87).normal(size=(96, p)))
    for b in (2, 6, 8, 12, 14, 16, 32, 48):
        a = 96 // b
        cfg = StoppingConfig(
            p=p, n_star=8, use_flat_top=use_flat_top, batch_size_fn=lambda n, b=b: b
        )
        if a > p:
            verdict, _, _ = evaluate_verdict(chain, cfg)
            assert math.isfinite(verdict.ess)
            continue
        with pytest.raises(InsufficientDataError) as info:
            evaluate_verdict(chain, cfg)
        assert str(info.value) == (
            f"too few batches for Sigma: a={a} batches of length b={b} for "
            f"p={p} components; a must exceed p: use a shorter batch or a "
            "longer chain"
        )


def test_bad_batch_lengths_keep_their_estimator_errors():
    chain = ChainMatrix(RngStream(89).normal(size=(96, 2)))
    plain = StoppingConfig(p=2, n_star=8, batch_size_fn=lambda n: 0)
    with pytest.raises(ParameterError, match="^batch length must be >= 1, got 0$"):
        evaluate_verdict(chain, plain)
    flat = dataclasses.replace(plain, use_flat_top=True)
    with pytest.raises(ParameterError, match="even and >= 2, got 0$"):
        evaluate_verdict(chain, flat)
    flat = dataclasses.replace(flat, batch_size_fn=lambda n: 2.0)
    with pytest.raises(ParameterError, match="^batch length must be an integer$"):
        evaluate_verdict(chain, flat)


def _wide_sampler(k, rng):
    return rng.normal(size=(int(k), 50))


def test_no_merge_thread_outlives_a_run():
    before = threading.enumerate()
    _, verdicts = stopping_controller(_wide_sampler, _wide_config(), RngStream(43))
    assert sum(v.n * 50 > _GRAM_VALUES for v in verdicts) == 4
    assert threading.enumerate() == before


def test_no_merge_thread_outlives_a_check_that_raises(monkeypatch):
    """The batch rule raises at the first merged check while its merge,
    slowed down, still runs: the controller joins the worker before raising."""
    update = _CoMoments.update

    def slow_update(self, values):
        if values.size > _GRAM_VALUES:
            time.sleep(0.2)
        update(self, values)

    class RuleError(Exception):
        pass

    def rule(n):
        if n * 50 > _GRAM_VALUES:
            raise RuleError(n)
        return default_batch_size(n)

    monkeypatch.setattr(_CoMoments, "update", slow_update)
    before = threading.enumerate()
    with pytest.raises(RuleError):
        stopping_controller(
            _wide_sampler, _wide_config(batch_size_fn=rule), RngStream(45)
        )
    assert threading.enumerate() == before


def test_a_merge_error_on_the_worker_reaches_the_caller_with_its_type(monkeypatch):
    threads = []

    class MergeError(Exception):
        pass

    def failing_update(self, values):
        threads.append(threading.current_thread())
        raise MergeError("merge failed")

    monkeypatch.setattr(_CoMoments, "update", failing_update)
    cfg = StoppingConfig(p=2, n_star=8, max_n=2_000)
    with pytest.raises(MergeError, match="^merge failed$"):
        stopping_controller(_iid_sampler_2(), cfg, RngStream(47))
    assert len(threads) == 1 and threads[0] is not threading.current_thread()


@pytest.mark.parametrize("runs", [1, 2])
def test_the_lambda_function_is_called_once_per_check_after_sigma(monkeypatch, runs):
    """With ``runs`` runs in a row, each on its own worker, every run calls
    ``lam`` once per check, after Sigma."""
    events = []

    def sigma(chain, b, _original=inference.batch_means_sigma):
        events.append(("sigma", chain.rows))
        return _original(chain, b)

    def record(chain, config, lam=None):
        def counted():
            events.append(("lam", chain.rows))
            return lam()

        return evaluate_verdict(chain, config, counted)

    monkeypatch.setattr(inference, "batch_means_sigma", sigma)
    monkeypatch.setattr(inference, "evaluate_verdict", record)
    for _ in range(runs):
        events.clear()
        _, verdicts = stopping_controller(_wide_sampler, _wide_config(), RngStream(49))
        assert events == [(e, v.n) for v in verdicts for e in ("sigma", "lam")]


def test_one_worker_thread_serves_the_whole_run(monkeypatch):
    """The worker starts at the first update and is the only thread the run
    adds: the sampler never sees more than one thread beyond the caller's."""
    merged_on, live = set(), []
    update = _CoMoments.update

    def recording_update(self, values):
        merged_on.add(threading.current_thread())
        update(self, values)

    def sampler(k, rng):
        live.append(threading.active_count())
        return _wide_sampler(k, rng)

    monkeypatch.setattr(_CoMoments, "update", recording_update)
    start = threading.active_count()
    _, verdicts = stopping_controller(sampler, _wide_config(), RngStream(53))
    assert live == [start] + [start + 1] * (len(verdicts) - 1)
    assert len(merged_on) == 1 and threading.current_thread() not in merged_on
    assert threading.active_count() == start


def _path_sampler(path):
    """A sampler that hands out the rows of ``path`` in order."""
    drawn = 0

    def sampler(k, rng):
        nonlocal drawn
        drawn += k
        return path[drawn - k : drawn]

    return sampler


def _same_bits(monkeypatch, path, cfg):
    """The controller's verdicts over ``path``, once its chain bytes,
    ``repr(verdicts)`` and every check's Lambda bytes are found equal to
    those of its serial replay. Verdicts alone can match where a rebuilt
    Lambda stands in for a merged one."""
    lams = []

    def record(chain, config, lam=None):
        result = evaluate_verdict(chain, config, lam)
        lams.append(result[1].matrix.tobytes())
        return result

    monkeypatch.setattr(inference, "evaluate_verdict", record)
    monkeypatch.setattr(oracles, "evaluate_verdict", record)
    runs = (
        stopping_controller(_path_sampler(path), cfg, None),
        stopping_replay(path, cfg),
    )
    digests = [(hashlib.sha256(c.values).hexdigest(), repr(v)) for c, v in runs]
    assert digests[0] == digests[1]
    checks = len(runs[0][1])
    assert len(lams) == 2 * checks
    assert lams[:checks] == lams[checks:]
    return runs[0][1]


def test_the_merge_thread_changes_no_bit_under_fast_switching(monkeypatch):
    """Switching threads every microsecond while Sigma and the merge run
    at once gives the serial replay's chain, verdicts and Lambdas."""
    path = RngStream(51).normal(size=(40_000, 50))
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        verdicts = _same_bits(monkeypatch, path, _wide_config(use_flat_top=True))
    finally:
        sys.setswitchinterval(interval)
    assert sum(v.n * 50 > _GRAM_VALUES for v in verdicts) == 4


def _stopping_recipe(seed, n=400_000, p=50, rho=0.95, c=0.5):
    """The path of the benchmark's ``stopping`` workload: a stationary
    p-dimensional AR(1) with coefficient rho and standard normal
    innovations equicorrelated at c, from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    eps = math.sqrt(1.0 - c) * rng.standard_normal((n, p))
    eps += math.sqrt(c) * rng.standard_normal((n, 1))
    eps[0] /= math.sqrt(1.0 - rho * rho)
    return lfilter([1.0], [1.0, -rho], eps, axis=0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_merge_thread_changes_no_bit(monkeypatch, seed):
    """Flat-top Sigma at p = 50 on rho = 0.95: the run stops at its tenth
    check, all but the first merged, with the serial replay's chain,
    verdicts and Lambdas."""
    path = _stopping_recipe(seed)
    cfg = StoppingConfig(p=50, use_flat_top=True, max_n=len(path))
    verdicts = _same_bits(monkeypatch, path, cfg)
    assert verdicts[-1].terminate and len(verdicts) == 10
    assert [v.n * 50 > _GRAM_VALUES for v in verdicts] == [False] + [True] * 9
