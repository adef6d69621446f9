"""Order-statistic quantiles, indicator variances, and KDE-based intervals."""

import math
import threading
import warnings

import numpy as np
import pytest
from oracles import kde_per_point, quantile_ci_per_level
from scipy.special import ndtri

from mcoutput import (
    ChainMatrix,
    CovarianceEstimate,
    RngStream,
    empirical_quantile,
    indicator_sigma2,
    kde_at,
    kde_bandwidth,
    quantile_ci,
    quantiles,
    summarize,
)
from mcoutput.errors import (
    DataError,
    DegenerateDataError,
    DimensionError,
    NumericsError,
    OutputAnalysisError,
    ParameterError,
)
from mcoutput.quantiles import _quantile_cis

Z_975 = 1.959963984540054


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda v: empirical_quantile(v, 0.5), "series"),
        (lambda v: kde_at(v, 0.0), "series"),
        (lambda v: quantile_ci(v, 0.5, 0.05, 1), "series"),
        (lambda v: kde_at([1.0, 2.0, 3.0], v), "evaluation point"),
        (kde_bandwidth, "series"),
    ],
    ids=[
        "empirical_quantile", "kde_at", "quantile_ci", "kde_at points",
        "kde_bandwidth",
    ],
)
@pytest.mark.parametrize(
    "data, message",
    [
        (["a", "b", "c"], "be numbers: could not convert string to float"),
        ([[1.0], [2.0, 3.0]], "be numbers: setting an array element with a sequence"),
        ([1 + 1j, 2.0], "be real, got complex128 values"),
        (np.arange(3).astype("datetime64[D]"), "be numbers, got datetime64[D] values"),
        ([1.0, np.nan, 2.0], "all be finite"),
    ],
    ids=["text", "ragged", "complex", "datetime64", "nan"],
)
def test_non_numeric_series_are_refused(call, what, data, message):
    """The series, and kde_at's points, go through the chain's intake: each
    used to raise an untyped ValueError or TypeError, or cast silently.
    kde_bandwidth had no intake: a list raised AttributeError, and NaN was
    reported as an overflowing standard deviation."""
    with pytest.raises(DataError) as info:
        call(data)
    assert str(info.value).startswith(f"{what} values must {message}")


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
    with pytest.raises(ParameterError, match=r"^quantile level must be inside \("):
        empirical_quantile([1.0, 2.0], "0.5")


def test_kde_bandwidth_takes_one_non_empty_series():
    """A 2-D array used to get the bandwidth of its flattened values, and an
    empty one a RuntimeWarning; a single column of a chain is a series."""
    with pytest.raises(DimensionError, match="got ndim=2"):
        kde_bandwidth(np.ones((4, 2)))
    with pytest.raises(DataError, match="^series is empty$"):
        kde_bandwidth(np.empty(0))
    arr = RngStream(79).normal(size=50)
    assert kde_bandwidth(ChainMatrix(arr)) == kde_bandwidth(list(arr))


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


def test_kde_far_outliers_weigh_zero_on_both_threads_without_a_warning():
    """Both halves of a grid meet z * z overflow at the 1e150 spikes, the
    worker's half included, under warnings-as-errors."""
    arr = RngStream(59).normal(size=3000) * 1e-10
    arr[::500] = 1e150
    h = kde_bandwidth(arr)
    bulk = np.delete(arr, np.s_[::500])
    points = np.linspace(-3e-10, 3e-10, 7)
    expected = [
        np.exp(-0.5 * ((p - bulk) / h) ** 2).sum() / arr.size
        / (h * math.sqrt(2.0 * math.pi))
        for p in points
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kde_at(arr, points)
    assert got == pytest.approx(expected, rel=1e-12)


def test_kde_at_leaves_no_thread_behind():
    before = threading.active_count()
    kde_at(RngStream(81).normal(size=500), np.linspace(-2.0, 2.0, 9))
    assert threading.active_count() == before, threading.enumerate()


class _HalfFailed(Exception):
    pass


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_kde_at_raises_a_half_s_error_and_joins_the_worker(monkeypatch, failing):
    """A failure on either thread reaches the caller as it was raised, and
    the worker is joined before it does."""
    sums = quantiles._kde_sums

    def fail_on_one_thread(*args):
        on_worker = threading.current_thread() is not threading.main_thread()
        if on_worker == (failing == "worker"):
            raise _HalfFailed(failing)
        return sums(*args)

    monkeypatch.setattr(quantiles, "_kde_sums", fail_on_one_thread)
    before = threading.active_count()
    with pytest.raises(_HalfFailed, match=failing):
        kde_at(RngStream(81).normal(size=500), np.linspace(-2.0, 2.0, 9))
    assert threading.active_count() == before, threading.enumerate()


def test_quantile_ci_overflowing_sd_is_a_numerics_error():
    """With 60% zeros the IQR is 0 and the bandwidth rule falls back to the
    sd, which overflows at 1e155: the density used to come out 0 and the
    interval raised ZeroDivisionError."""
    rng = RngStream(9)
    signs = np.sign(rng.normal(size=1000))
    arr = np.where(rng.uniform(size=1000) < 0.6, 0.0, signs * 1e155)
    with pytest.raises(NumericsError, match="standard deviation overflows"):
        quantile_ci(arr, 0.5, 0.05, 10)


def test_kde_bandwidth_of_cancelling_extremes_is_a_numerics_error():
    """The sum of +-1e308 overflows to inf - inf in the deviations: numpy
    warned "invalid value" before the typed error."""
    arr = np.zeros(16)
    arr[[0, 8]] = 1e308
    arr[[1, 9]] = -1e308
    with pytest.raises(NumericsError, match="standard deviation overflows"):
        kde_at(arr, [0.0])


def test_kde_bandwidth_below_tiny_is_a_numerics_error():
    """A subnormal IQR gives a subnormal bandwidth, and z = (x - v) / h
    overflowed into an infinite density; a constant series keeps h = 0."""
    arr = np.random.default_rng(0).standard_normal(30) * 1e-320
    arr[3] = 1e-12
    with pytest.raises(NumericsError, match="^KDE bandwidth underflows; rescale"):
        kde_bandwidth(arr)
    with pytest.raises(NumericsError, match="^KDE bandwidth underflows; rescale"):
        kde_at(arr, [0.0])
    assert kde_bandwidth(np.full(10, 5e-324)) == 0.0


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


@pytest.mark.parametrize(
    "x", [float("nan"), [0.0, float("nan")], float("inf"), [-float("inf"), 1.0]]
)
def test_kde_at_refuses_non_finite_points(x):
    """A NaN point used to give a NaN density with no error, and a point at
    +-inf a density of exactly 0; both are refused now."""
    message = "^evaluation point values must all be finite$"
    with pytest.raises(DataError, match=message):
        kde_at(RngStream(71).normal(size=50), x)


def test_kde_at_refuses_a_two_dimensional_grid():
    """It used to escape as numpy's untyped broadcast ValueError."""
    with pytest.raises(DimensionError, match="got ndim=2"):
        kde_at(RngStream(73).normal(size=50), np.zeros((2, 2)))


def _assert_same_entry(got, expected):
    if isinstance(expected, OutputAnalysisError):
        assert type(got) is type(expected)
        assert str(got) == str(expected)
    else:
        assert got == expected


def _per_level(v, levels, alpha, b):
    entries = []
    for q in levels:
        try:
            entries.append(quantile_ci_per_level(v, q, alpha, b))
        except OutputAnalysisError as exc:
            entries.append(exc)
    return entries


def test_summarize_matches_the_per_level_arithmetic():
    """One pass per column gives every entry of a per-level loop, errors
    included: a level whose indicator is constant, a constant column, a
    column whose KDE bandwidth overflows, and an out-of-range level."""
    rng = RngStream(75)
    n = 3_000
    normal = rng.normal(size=n)
    ties = np.round(rng.normal(size=n), 1)
    values = np.column_stack([normal, np.full(n, 2.5), ties * 1e300, ties])
    levels = (0.025, 0.5, 1.0, 0.975, 0.9999, 0.0)
    p = values.shape[1]
    sigma = CovarianceEstimate(np.eye(p), "batch-means", 30, n)
    summary = summarize(ChainMatrix(values), sigma, 0.05, levels)
    kinds = set()
    for i in range(p):
        expected = _per_level(values[:, i], levels, 0.05, 30)
        for got, want in zip(summary.quantiles[i], expected, strict=True):
            _assert_same_entry(got, want)
            kinds.add(type(want).__name__)
    assert kinds == {
        "QuantileEstimate", "ParameterError", "DegenerateDataError", "NumericsError"
    }


@pytest.mark.parametrize(
    "v,levels",
    [
        ([4.0], (0.5, 0.9)),
        ([], (0.5,)),
        ([1.0, 2.0], (0.5, 0.75)),
        (RngStream(77).normal(size=400), (0.9, 0.1, 0.9, 0.5)),
    ],
)
@pytest.mark.parametrize("alpha", [0.05, 1.0])
def test_one_pass_helper_matches_the_per_level_arithmetic(v, levels, alpha):
    """Short and empty series, repeated levels and a bad alpha; quantile_ci
    is the helper's one-level case."""
    expected = _per_level(v, levels, alpha, 2)
    for got, want in zip(_quantile_cis(v, levels, alpha, 2), expected, strict=True):
        _assert_same_entry(got, want)
    for q, want in zip(levels, expected):
        if isinstance(want, OutputAnalysisError):
            with pytest.raises(type(want)) as info:
                quantile_ci(v, q, alpha, 2)
            assert str(info.value) == str(want)
        else:
            assert quantile_ci(v, q, alpha, 2) == want


def _kernel_arguments(arr, points):
    """How many kernel arguments w = -z z / 2 the points give of each kind:
    exp(w) exactly 0, exp(w) subnormal, z z below 2**-1021 but not 0, and
    z z overflowing; with the number of arguments."""
    h = kde_bandwidth(arr)
    with np.errstate(over="ignore", under="ignore"):
        zz = ((np.asarray(points, dtype=float)[:, None] - arr) / h) ** 2
    w = -0.5 * zz
    return {
        "zero weight": int((w <= -746.0).sum()),
        "subnormal weight": int(((w > -746.0) & (w < -708.4)).sum()),
        "tiny z z": int(((zz > 0.0) & (zz < 2.0**-1021)).sum()),
        "z z overflows": int(np.isinf(zz).sum()),
        "all": zz.size,
    }


def test_kde_skips_exp_only_where_its_result_is_exactly_zero():
    """exp is monotone, so every argument the kernel loop zeroes itself
    would give 0.0; the smallest positive result comes from about -745.13."""
    assert np.exp(quantiles._EXP_ZERO) == 0.0
    assert np.exp(-745.1332191019411) == 5e-324


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_kde_grid_equals_per_point_arithmetic(scale):
    """Bit for bit against one expression per point, on points that meet
    every kind of kernel argument: weight exactly 0, a subnormal weight, z z
    too small to halve exactly (a datum at 0), and z z overflowing."""
    arr = RngStream(79).normal(size=2_000) * scale
    arr[0] = 0.0
    h = kde_bandwidth(arr)
    points = np.concatenate([
        np.linspace(-4.0, 4.0, 33) * scale,
        [1e3 * scale, -1e150 * scale],
        [arr.max() + 38.0 * h, 1e-160 * h, -1e155 * h],
    ])
    kinds = _kernel_arguments(arr, points)
    assert min(kinds.values()) > 0, kinds
    out = kde_at(arr, points)
    assert out.tolist() == [kde_per_point(arr, p) for p in points]


@pytest.mark.parametrize("count", [0, 1, 2, 3, 201])
def test_kde_demo_shaped_grid_equals_per_point_arithmetic(count):
    """The demo's grid, range +- 3h, on a skewed series where about half
    the kernel weights are exactly 0; with up to three points the caller's
    half, the worker's half, or no worker at all is empty."""
    arr = RngStream(83).normal(size=5_000) ** 2
    h = kde_bandwidth(arr)
    grid = np.linspace(arr.min() - 3.0 * h, arr.max() + 3.0 * h, count)
    if count == 201:
        kinds = _kernel_arguments(arr, grid)
        assert 0.3 < kinds["zero weight"] / kinds["all"] < 0.7, kinds
    out = kde_at(arr, grid)
    assert out.shape == (count,)
    assert out.tolist() == [kde_per_point(arr, p) for p in grid]
    if count == 1:
        assert kde_at(arr, grid[0]) == kde_per_point(arr, grid[0])
