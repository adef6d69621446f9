"""Batch means, flat-top, target covariance, batch rules, correlograms."""

import numpy as np
import pytest

from mcoutput import (
    ChainMatrix,
    RngStream,
    StoppingConfig,
    batch_means_sigma,
    correlogram,
    default_batch_size,
    discard_initial,
    evaluate_verdict,
    flat_top_sigma,
    quantile_ci,
    sample_cov_lambda,
    sqrt_batch_size,
    stopping_controller,
)
from mcoutput.errors import (
    DataError,
    DegenerateDataError,
    InsufficientDataError,
    NumericsError,
    ParameterError,
)
from oracles import Ar1Spec, generate_ar1

HAND_CHAIN = ChainMatrix([1.0, 2.0, 3.0, 4.0])


@pytest.mark.parametrize(
    "estimate",
    [
        lambda x: batch_means_sigma(x, 2),
        lambda x: flat_top_sigma(x, 2),
        sample_cov_lambda,
        lambda x: correlogram(x, 1),
        lambda x: discard_initial(x, 1),
    ],
    ids=["batch_means", "flat_top", "sample_cov", "correlogram", "discard"],
)
def test_an_array_is_refused_as_a_chain(estimate):
    """A numpy array used to raise an untyped AttributeError."""
    with pytest.raises(DataError, match="chain must be a ChainMatrix, got ndarray"):
        estimate(np.arange(8.0).reshape(4, 2))


def test_batch_means_hand_value():
    """(1,2,3,4) with b=2: batch means (1.5, 3.5), grand mean 2.5,
    so (b/(a-1)) * sum of squares = 2 * 2 = 4."""
    est = batch_means_sigma(HAND_CHAIN, 2)
    assert est.matrix[0, 0] == 4.0
    assert est.kind == "batch-means"
    assert est.batch_size == 2
    assert est.n_used == 4
    assert est.is_psd


def test_flat_top_hand_value():
    est = flat_top_sigma(HAND_CHAIN, 2)
    assert est.matrix[0, 0] == pytest.approx(19.0 / 3.0, rel=1e-15)
    assert est.kind == "flat-top"


def test_sample_cov_hand_value():
    est = sample_cov_lambda(HAND_CHAIN)
    assert est.matrix[0, 0] == 1.25
    assert est.kind == "sample-cov"
    assert est.batch_size == 0


def test_flat_top_is_the_advertised_combination():
    """2 * Sigma_b - Sigma_{b/2}, matrix for matrix."""
    chain = generate_ar1(Ar1Spec(rho=0.4, dim=2), 5_000, RngStream(2))
    b = 20
    lhs = flat_top_sigma(chain, b).matrix
    rhs = 2.0 * batch_means_sigma(chain, b).matrix - batch_means_sigma(chain, b // 2).matrix
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_flat_top_rejects_odd_or_tiny_batches():
    chain = ChainMatrix(np.arange(40.0))
    with pytest.raises(ParameterError):
        flat_top_sigma(chain, 5)
    with pytest.raises(ParameterError):
        flat_top_sigma(chain, 0)


def test_flat_top_needs_two_batches_of_its_own_length():
    """Three half-batches of 10 rows fit, but only one batch of 20."""
    with pytest.raises(
        InsufficientDataError,
        match="^need at least two complete batches: n=39, b=20$",
    ):
        flat_top_sigma(ChainMatrix(np.arange(39.0)), 20)


def test_flat_top_fine_pass_keeps_its_spare_half_batch():
    """n = 135, b = 20: the coarse pass uses 6 batches (120 rows), the fine
    pass 13 half-batches (130 rows); only rows 130..134 are dropped."""
    x = generate_ar1(Ar1Spec(rho=0.3), 135, RngStream(5)).values
    base = flat_top_sigma(ChainMatrix(x), 20)
    assert base.n_used == 120
    tail = x.copy()
    tail[130:] = 1e6
    assert np.array_equal(flat_top_sigma(ChainMatrix(tail), 20).matrix, base.matrix)
    spare = x.copy()
    spare[125] += 1.0
    assert flat_top_sigma(ChainMatrix(spare), 20).matrix[0, 0] != base.matrix[0, 0]


def test_batch_means_needs_two_batches():
    chain = ChainMatrix(np.arange(10.0))
    with pytest.raises(InsufficientDataError):
        batch_means_sigma(chain, 10)
    with pytest.raises(ParameterError):
        batch_means_sigma(chain, 0)


def test_sample_cov_needs_two_rows():
    with pytest.raises(InsufficientDataError):
        sample_cov_lambda(ChainMatrix([1.0]))


@pytest.mark.filterwarnings("error")
def test_overflowing_estimates_are_numerics_errors():
    """A finite chain whose products overflow: no numpy warning, and no
    non-finite matrix reaches the Cholesky factor."""
    chain = ChainMatrix(RngStream(31).normal(size=(3000, 2)) * 1e160)
    with pytest.raises(NumericsError, match="^sample-cov covariance overflows"):
        sample_cov_lambda(chain)
    with pytest.raises(NumericsError, match="^batch-means covariance overflows"):
        batch_means_sigma(chain, 14)
    with pytest.raises(NumericsError, match="^flat-top covariance overflows"):
        flat_top_sigma(chain, 14)


@pytest.mark.parametrize("b,extra", [(5, 4), (10, 7), (25, 24)])
def test_batch_means_ignores_trailing_partial_batch(b, extra):
    """Fewer than b rows past the last complete batch must not move the
    estimate; they are dropped from the end."""
    base = generate_ar1(Ar1Spec(rho=0.3), 100, RngStream(4))
    grown = ChainMatrix(np.concatenate([base.column(0), np.full(extra, 1e6)]))
    ref = batch_means_sigma(base, b)
    noisy = batch_means_sigma(grown, b)
    np.testing.assert_array_equal(ref.matrix, noisy.matrix)
    assert noisy.n_used == ref.n_used


@pytest.mark.parametrize("c", [-2.0, 0.5, 1000.0])
def test_affine_equivariance(c):
    chain = generate_ar1(Ar1Spec(rho=0.5, dim=2), 4_000, RngStream(6))
    scaled = ChainMatrix(c * chain.values)
    for estimator, arg in (
        (batch_means_sigma, 14),
        (flat_top_sigma, 14),
        (sample_cov_lambda, None),
    ):
        base = estimator(chain) if arg is None else estimator(chain, arg)
        after = estimator(scaled) if arg is None else estimator(scaled, arg)
        np.testing.assert_allclose(after.matrix, c * c * base.matrix, rtol=1e-12)


def test_iid_sigma_matches_lambda():
    """With no serial correlation the two covariances estimate the same
    matrix; 10% agreement at n = 1e5."""
    chain = ChainMatrix(RngStream(8).normal(size=(100_000, 2)))
    sig = batch_means_sigma(chain, default_batch_size(chain.rows)).matrix
    lam = sample_cov_lambda(chain).matrix
    rel = np.linalg.norm(sig - lam) / np.linalg.norm(lam)
    assert rel < 0.10


def test_ar1_sigma_tracks_the_analytic_value():
    # Sigma = gamma0 * (1+rho)/(1-rho) = (1/(1-rho^2)) * 3 = 4 at rho = 0.5
    chain = generate_ar1(Ar1Spec(rho=0.5), 100_000, RngStream(12))
    est = batch_means_sigma(chain, 46)
    assert est.matrix[0, 0] == pytest.approx(4.0, rel=0.15)


@pytest.mark.parametrize(
    "n,b",
    [(8, 2), (9, 2), (26, 2), (27, 2), (63, 2), (64, 4), (1000, 10),
     (100_000, 46), (1_000_000, 100)],
)
def test_default_batch_size_values(n, b):
    assert default_batch_size(n) == b


def test_default_batch_size_is_even_and_guarded():
    for n in range(8, 4000, 37):
        b = default_batch_size(n)
        assert b % 2 == 0
        assert b >= 2
        assert b**3 <= n or b == 2
    with pytest.raises(InsufficientDataError):
        default_batch_size(7)
    with pytest.raises(ParameterError):
        default_batch_size(1000.0)
    with pytest.raises(ParameterError):
        default_batch_size(True)


@pytest.mark.parametrize(
    "n,b", [(8, 2), (99, 8), (10_000, 100), (100_000, 316), (57_177, 238)]
)
def test_sqrt_batch_size_values(n, b):
    assert sqrt_batch_size(n) == b


def test_sqrt_batch_size_guards():
    with pytest.raises(InsufficientDataError):
        sqrt_batch_size(4)
    with pytest.raises(ParameterError):
        sqrt_batch_size(2.5)


def test_correlogram_lag0_is_exactly_one():
    chain = generate_ar1(Ar1Spec(rho=0.7), 500, RngStream(14))
    series = correlogram(chain, 10)
    assert series.lags[0] == 0
    assert series.values[0] == 1.0


def test_correlogram_white_noise_stays_in_band():
    n = 100_000
    chain = ChainMatrix(RngStream(16).normal(size=n))
    series = correlogram(chain, 50)
    band = 3.0 / np.sqrt(n)
    assert np.abs(series.values[1:]).max() < band


def test_correlogram_ar1_decay():
    chain = generate_ar1(Ar1Spec(rho=0.5), 100_000, RngStream(18))
    series = correlogram(chain, 5)
    for k in range(1, 6):
        assert series.values[k] == pytest.approx(0.5**k, abs=0.03)


def test_correlogram_cross_pair_lag0_is_sample_correlation():
    chain = ChainMatrix(RngStream(20).normal(size=(2_000, 2)))
    series = correlogram(chain, 3, pair=(0, 1))
    expected = np.corrcoef(chain.column(0), chain.column(1))[0, 1]
    assert series.values[0] == pytest.approx(expected, rel=1e-12)
    assert series.pair == (0, 1)


def test_correlogram_validation():
    chain = ChainMatrix(np.arange(10.0))
    with pytest.raises(ParameterError):
        correlogram(chain, 10)  # needs L < n
    with pytest.raises(ParameterError):
        correlogram(chain, 2.5)
    flat = ChainMatrix(np.ones(10))
    with pytest.raises(DegenerateDataError):
        correlogram(flat, 3)


@pytest.mark.parametrize(
    "pair, message",
    [
        ((0,), "pair must be two column indices"),
        ((0, 1, 2), "pair must be two column indices"),
        (3, "pair must be two column indices"),
        (("0", 1), "column index must be an integer"),
        ((True, 1), "column index must be an integer"),
        ((0, 1.0), "column index must be an integer"),
    ],
    ids=["one", "three", "scalar", "text", "bool", "float"],
)
def test_correlogram_pair_must_be_two_integer_indices(pair, message):
    """Each used to raise an untyped error, and ``(True, 1)`` a matmul
    ValueError."""
    chain = ChainMatrix(RngStream(5).normal(size=(50, 2)))
    with pytest.raises(ParameterError, match=message):
        correlogram(chain, 3, pair)


def test_correlogram_pair_takes_numpy_integers():
    chain = ChainMatrix(RngStream(5).normal(size=(50, 2)))
    want = correlogram(chain, 3, (0, 1))
    for pair in ((np.int64(0), np.int64(1)), np.array([0, 1])):
        got = correlogram(chain, 3, pair)
        np.testing.assert_array_equal(got.values, want.values)
        assert got.pair == (0, 1)


def test_correlogram_overflow_is_a_numerics_error():
    """At 1e160 the variances overflow and every value used to be nan; at
    1e80 only the ccf's variance product overflows, which silently gave 0
    at every lag for a pair whose lag-0 correlation is 0.995. The acf of
    the 1e80 chain is still finite and stays computable."""
    huge = ChainMatrix(RngStream(31).normal(size=(3000, 2)) * 1e160)
    for pair in ((0, 0), (1, 1), (0, 1)):
        with pytest.raises(NumericsError, match="overflows; rescale the chain"):
            correlogram(huge, 5, pair)
    rng = RngStream(8)
    z = rng.normal(size=3000) * 1e80
    chain = ChainMatrix(np.column_stack([z, z + 1e79 * rng.normal(size=3000)]))
    with pytest.raises(NumericsError, match=r"pair \(0, 1\) overflows"):
        correlogram(chain, 2, (0, 1))
    assert correlogram(chain, 2, (0, 0)).values[0] == 1.0


UNIT_CHAIN = RngStream(3).normal(size=(3000, 2))


def _scale_sensitive_calls(chain):
    """Every estimate the underflow rule covers, by name."""
    return {
        "sample-cov": lambda: sample_cov_lambda(chain),
        "batch-means": lambda: batch_means_sigma(chain, 14),
        "flat-top": lambda: flat_top_sigma(chain, 14),
        "acf 0": lambda: correlogram(chain, 5, (0, 0)),
        "acf 1": lambda: correlogram(chain, 5, (1, 1)),
        "ccf": lambda: correlogram(chain, 5, (0, 1)),
        "quantile": lambda: quantile_ci(chain.column(0), 0.5, 0.05, 14),
        "verdict": lambda: evaluate_verdict(chain, StoppingConfig(p=2)),
    }


@pytest.mark.parametrize("scale", [1e-170, 1e-160])
def test_underflowing_estimates_are_numerics_errors(scale):
    """At 1e-170 the squares underflow to zero: the covariances were all-zero
    matrices, the correlogram called both columns constant and quantile_ci
    ended in a ZeroDivisionError. At 1e-160 they are subnormal, and every
    estimate came back imprecise without an error."""
    chain = ChainMatrix(UNIT_CHAIN * scale)
    for name, call in _scale_sensitive_calls(chain).items():
        with pytest.raises(NumericsError, match="underflows; rescale the chain$"):
            call()
            pytest.fail(f"{name} did not raise")


def test_only_the_ccf_underflows_at_1e_90():
    """The variances are normal doubles, but their product is not: the ccf
    was -inf at every lag."""
    calls = _scale_sensitive_calls(ChainMatrix(UNIT_CHAIN * 1e-90))
    with pytest.raises(NumericsError, match=r"pair \(0, 1\) underflows"):
        calls.pop("ccf")()
    for call in calls.values():
        call()


def test_ess_is_scale_free_down_to_1e_150():
    config = StoppingConfig(p=2)
    unit, _, _ = evaluate_verdict(ChainMatrix(UNIT_CHAIN), config)
    small, _, _ = evaluate_verdict(ChainMatrix(UNIT_CHAIN * 1e-150), config)
    assert small.ess == pytest.approx(unit.ess, rel=1e-12)


def _with_constant_column(value):
    return ChainMatrix(np.column_stack([np.full(3000, value), UNIT_CHAIN[:, 1]]))


@pytest.mark.parametrize("value", [3e-170, 0.1])
def test_correlogram_of_a_constant_column_is_degenerate(value):
    """At any scale. The mean of 3000 copies of 0.1 is not exactly 0.1, and
    the acf used to read 0.9997 at lag 1 instead of naming the column."""
    chain = _with_constant_column(value)
    for pair in ((0, 0), (0, 1)):
        with pytest.raises(DegenerateDataError, match="constant column"):
            correlogram(chain, 5, pair)


def test_exact_zero_variances_are_not_underflow():
    """A tiny constant column is named as constant (it used to be a
    singular-estimate error), and batch means that are exactly equal give
    an exactly zero, singular estimate."""
    with pytest.raises(DegenerateDataError, match="^column 'col0' is constant$"):
        evaluate_verdict(_with_constant_column(3e-170), StoppingConfig(p=2))
    periodic = batch_means_sigma(ChainMatrix(np.tile([0.0, 1.0], 50)), 2)
    assert periodic.matrix[0, 0] == 0.0 and periodic.chol is None


def test_flat_top_of_exactly_equal_batch_means_is_exactly_zero():
    """Every half-batch mean and every batch mean is 0.5, and so is each
    pass's centre: an exactly zero, singular estimate, not underflow."""
    est = flat_top_sigma(ChainMatrix(np.tile([0.0, 1.0], 50)), 4)
    assert est.matrix[0, 0] == 0.0 and est.chol is None


@pytest.mark.filterwarnings("error")
def test_flat_top_range_errors_with_a_spare_half_batch():
    """At b = 14 (3000 mod 14 < 7) the tests above cover these errors; at
    b = 16, 3000 mod 16 = 8, so the fine pass holds 2a + 1 half-batches."""
    for scale in (1e-170, 1e-160):
        with pytest.raises(NumericsError, match="^flat-top covariance underflows"):
            flat_top_sigma(ChainMatrix(UNIT_CHAIN * scale), 16)
    with pytest.raises(NumericsError, match="^flat-top covariance overflows"):
        flat_top_sigma(ChainMatrix(UNIT_CHAIN * 1e160), 16)


@pytest.mark.parametrize("value", [0.1, 0.0])
def test_a_constant_column_is_named_by_every_verdict(value):
    """0.1 gave an ESS of about 600 built from rounding noise, 0.0 a
    singular-estimate error naming no column."""
    chain = ChainMatrix(_with_constant_column(value).values, ("x", "y"))
    message = "^column 'x' is constant$"
    with pytest.raises(DegenerateDataError, match=message):
        sample_cov_lambda(chain)
    with pytest.raises(DegenerateDataError, match=message):
        evaluate_verdict(chain, StoppingConfig(p=2))

    def sampler(k, rng):
        return np.column_stack([np.full(k, value), rng.normal(size=k)])

    with pytest.raises(DegenerateDataError, match="^column 'c' is constant$"):
        stopping_controller(
            sampler, StoppingConfig(p=2), RngStream(4), labels=("c", "d")
        )


def test_a_column_with_a_tiny_relative_spread_is_not_constant():
    """Its variance is below the rounding-noise bound, so the min == max
    scan runs, and finds the column varies."""
    x = UNIT_CHAIN.copy()
    x[:, 0] = 1e8 + 1e-6 * x[:, 0]
    lam = sample_cov_lambda(ChainMatrix(x))
    assert 0.0 < lam.matrix[0, 0] < (3000 * np.finfo(float).eps * 1e8) ** 2
