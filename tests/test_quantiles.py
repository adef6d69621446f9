"""Order-statistic quantiles, indicator variances, and KDE-based intervals."""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from mcoutput import (
    ChainMatrix,
    RngStream,
    empirical_quantile,
    indicator_sigma2,
    kde_at,
    kde_bandwidth,
    quantile_ci,
)
from mcoutput.errors import (
    DataError,
    DegenerateDataError,
    DimensionError,
    NumericsError,
    ParameterError,
)

Z_975 = 1.959963984540054


@pytest.mark.parametrize(
    "q,expected",
    [(0.5, 2.0), (1.0 / 3.0, 1.0), (0.999, 3.0), (0.34, 2.0), (0.01, 1.0)],
)
def test_empirical_quantile_hand_cases(q, expected):
    assert empirical_quantile([3.0, 1.0, 2.0], q) == expected


@pytest.mark.parametrize("q", [0.01, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.75, 0.9, 0.99])
def test_empirical_quantile_matches_sorted_oracle(q):
    rng = RngStream(41)
    for n in range(1, 51):
        arr = rng.normal(size=n)
        k = min(max(math.ceil(n * q), 1), n)
        assert empirical_quantile(arr, q) == np.sort(arr)[k - 1]


def test_empirical_quantile_returns_a_sample_point():
    arr = RngStream(43).normal(size=257)
    for q in np.linspace(0.001, 0.999, 37):
        assert empirical_quantile(arr, float(q)) in arr


def test_empirical_quantile_monotone_in_q():
    arr = RngStream(45).normal(size=100)
    values = [empirical_quantile(arr, float(q)) for q in np.linspace(0.01, 0.99, 99)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_empirical_quantile_affine_equivariance():
    arr = RngStream(47).normal(size=83)
    for q in (0.1, 0.5, 0.9):
        base = empirical_quantile(arr, q)
        assert empirical_quantile(2.5 * arr - 1.0, q) == 2.5 * base - 1.0


def test_empirical_quantile_accepts_single_column():
    chain = ChainMatrix(np.array([5.0, 1.0, 9.0]))
    assert empirical_quantile(chain, 0.5) == 5.0


def test_empirical_quantile_validation():
    with pytest.raises(DataError):
        empirical_quantile([], 0.5)
    with pytest.raises(ParameterError):
        empirical_quantile([1.0, 2.0], 0.0)
    with pytest.raises(ParameterError):
        empirical_quantile([1.0, 2.0], 1.0)
    with pytest.raises(DimensionError):
        empirical_quantile(ChainMatrix(np.ones((4, 2))), 0.5)
    with pytest.raises(DimensionError):
        empirical_quantile(np.ones((4, 2)), 0.5)
    with pytest.raises(DataError):
        empirical_quantile([1.0, np.nan], 0.5)


def test_indicator_sigma2_iid_median():
    """For iid data and the true median the indicators are Bernoulli(1/2),
    so the asymptotic variance is 1/4."""
    arr = RngStream(49).normal(size=100_000)
    sig2 = indicator_sigma2(arr, 0.0, 316)
    assert sig2 == pytest.approx(0.25, rel=0.10)


def test_indicator_sigma2_grows_under_positive_correlation():
    """Positive lag covariances inflate the indicator variance over the
    iid value q(1-q) = 0.25."""
    from oracles import Ar1Spec, generate_ar1

    chain = generate_ar1(Ar1Spec(rho=0.5), 100_000, RngStream(65))
    assert indicator_sigma2(chain.values[:, 0], 0.0, 316) > 0.25


def test_indicator_sigma2_degenerate_threshold():
    arr = RngStream(51).normal(size=1_000)
    with pytest.raises(DegenerateDataError):
        indicator_sigma2(arr, arr.max() + 1.0, 10)
    with pytest.raises(DegenerateDataError):
        indicator_sigma2(arr, arr.min() - 1.0, 10)


def test_kde_at_standard_normal_peak():
    arr = RngStream(53).normal(size=100_000)
    assert kde_at(arr, 0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=0.05)


def test_kde_grid_agrees_with_scalar_calls():
    arr = RngStream(55).normal(size=300)
    grid = np.array([-1.0, -0.25, 0.0, 0.7, 2.0])
    out = kde_at(arr, grid)
    assert out.shape == (5,)
    for x, d in zip(grid, out):
        assert kde_at(arr, float(x)) == d


def test_kde_bandwidth_rule_with_collapsed_iqr():
    """80% ties make the IQR zero; the bandwidth must fall back to the
    standard deviation alone instead of collapsing to zero."""
    arr = np.concatenate([np.zeros(80), np.full(10, -5.0), np.full(10, 5.0)])
    h = 0.9 * arr.std() * arr.size ** (-0.2)
    z = (0.0 - arr) / h
    expected = np.exp(-0.5 * z * z).mean() / (h * math.sqrt(2.0 * math.pi))
    assert kde_at(arr, 0.0) == pytest.approx(expected, rel=1e-12)


def test_kde_far_outliers_weigh_zero_without_a_warning():
    """z * z overflows for the 1e150 spikes; those kernel terms are 0, so
    the estimate equals the one with the spikes' weight left out."""
    arr = RngStream(59).normal(size=3000) * 1e-10
    arr[::500] = 1e150
    h = kde_bandwidth(arr)
    bulk = np.delete(arr, np.s_[::500])
    z = (0.0 - bulk) / h
    expected = np.exp(-0.5 * z * z).sum() / arr.size / (h * math.sqrt(2.0 * math.pi))
    assert kde_at(arr, 0.0) == pytest.approx(expected, rel=1e-12)


def test_quantile_ci_overflowing_sd_is_a_numerics_error():
    """With 60% zeros the IQR is 0 and the bandwidth rule falls back to the
    sd, which overflows at 1e155: the density used to come out 0 and the
    interval raised ZeroDivisionError."""
    rng = RngStream(9)
    signs = np.sign(rng.normal(size=1000))
    arr = np.where(rng.uniform(size=1000) < 0.6, 0.0, signs * 1e155)
    with pytest.raises(NumericsError, match="standard deviation overflows"):
        quantile_ci(arr, 0.5, 0.05, 10)


def test_kde_validation():
    with pytest.raises(DegenerateDataError):
        kde_at([1.0], 0.0)
    with pytest.raises(DegenerateDataError):
        kde_at(np.full(10, 3.0), 0.0)


def test_quantile_ci_fields_and_ordering():
    arr = RngStream(57).normal(size=5_000)
    est = quantile_ci(arr, 0.9, 0.05, 16)
    lo, hi = est.ci
    assert lo < est.point < hi
    assert est.q == 0.9
    assert est.alpha == 0.05
    assert est.point == empirical_quantile(arr, 0.9)
    assert est.indicator_sigma2 == indicator_sigma2(arr, est.point, 16)
    assert est.density_at == kde_at(arr, est.point)


def test_quantile_ci_halfwidth_identity():
    """The half-width must equal z * sqrt(sigma^2) / (f_hat sqrt(n))
    recomputed from the estimate's own published fields."""
    arr = RngStream(59).normal(size=20_000)
    est = quantile_ci(arr, 0.975, 0.05, 26)
    half = 0.5 * (est.ci[1] - est.ci[0])
    rebuilt = (
        float(ndtri(0.975))
        * math.sqrt(est.indicator_sigma2)
        / (est.density_at * math.sqrt(arr.size))
    )
    assert half == pytest.approx(rebuilt, rel=1e-12)
    assert est.ci[0] + est.ci[1] == pytest.approx(2.0 * est.point, rel=1e-12)


def test_quantile_ci_normal_tail():
    arr = RngStream(61).normal(size=100_000)
    est = quantile_ci(arr, 0.975, 0.05, 316)
    assert est.point == pytest.approx(Z_975, abs=0.03)
    assert est.ci[0] < Z_975 < est.ci[1]


def test_quantile_uniform_upper_decile():
    arr = RngStream(67).uniform(size=100_000)
    assert empirical_quantile(arr, 0.9) == pytest.approx(0.9, abs=0.01)


def test_quantile_ci_median_halfwidth_plugin_value():
    """At the standard normal median the plug-in half-width is about
    1.96 sqrt(.25) / (.3989 sqrt(n))."""
    arr = RngStream(69).normal(size=100_000)
    est = quantile_ci(arr, 0.5, 0.05, 316)
    half = 0.5 * (est.ci[1] - est.ci[0])
    plug_in = 1.96 * 0.5 / (0.3989 * math.sqrt(100_000))
    assert half == pytest.approx(plug_in, rel=0.25)


def test_quantile_ci_alpha_validation():
    arr = RngStream(63).normal(size=100)
    with pytest.raises(ParameterError):
        quantile_ci(arr, 0.5, 0.0, 10)
    with pytest.raises(ParameterError):
        quantile_ci(arr, 0.5, 1.0, 10)
