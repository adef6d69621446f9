"""Invariance properties that hold bit for bit.

Scaling a chain by s = 2^k changes no rounding, barring underflow and
overflow, so every estimate scales exactly: quantile points and CI ends
by s, densities by 1/s, Lambda and Sigma by s^2, and the indicator
variance not at all. An increasing map commutes with an order statistic,
a strided column gives what its contiguous copy gives, and burn-in
discards compose additively.

Linear maps hold within a tolerance: Sigma(X A^T) = A Sigma(X) A^T for
batch means and flat-top, and the ESS is invariant under an invertible
affine map X A^T + c and under a permutation of columns, each to 1e-10
relative.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mcoutput import (  # noqa: E402
    ChainMatrix,
    RngStream,
    batch_means_sigma,
    discard_initial,
    ess,
    flat_top_sigma,
    quantile_ci,
    sample_cov_lambda,
    summarize,
)
from mcoutput.errors import OutputAnalysisError  # noqa: E402

LEVELS = (0.025, 0.3, 0.5, 0.975)
B = 10

seeds = st.integers(0, 2**32 - 1)
rows = st.integers(40, 600)
dims = st.integers(1, 3)


def _chain(seed, n, p, step=1):
    """An AR(1)-like chain with rounded values, so that ties occur."""
    rng = RngStream(seed)
    x = rng.normal(size=(n * step, p))
    x[1:] += 0.5 * x[:-1]
    if seed % 2:
        x = np.round(x, 1)
    return x


def _entries(summary):
    return [entry for col in summary.quantiles for entry in col]


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=rows, p=dims, k=st.integers(-40, 40))
def test_power_of_two_scaling_is_exact(seed, n, p, k):
    x = _chain(seed, n, p)
    s = 2.0**k
    chain, scaled = ChainMatrix(x), ChainMatrix(x * s)
    lam, lam_s = sample_cov_lambda(chain), sample_cov_lambda(scaled)
    assert np.array_equal(lam_s.matrix, lam.matrix * s * s)
    for estimator in (batch_means_sigma, flat_top_sigma):
        sig, sig_s = estimator(chain, B), estimator(scaled, B)
        assert np.array_equal(sig_s.matrix, sig.matrix * s * s)
    sig = batch_means_sigma(chain, B)
    base = summarize(chain, sig, B, 0.05, LEVELS)
    other = summarize(scaled, batch_means_sigma(scaled, B), B, 0.05, LEVELS)
    for e, e_s in zip(_entries(base), _entries(other)):
        if isinstance(e, OutputAnalysisError):
            assert type(e_s) is type(e)
            continue
        assert e_s.point == e.point * s
        assert e_s.ci == (e.ci[0] * s, e.ci[1] * s)
        assert e_s.indicator_sigma2 == e.indicator_sigma2
        assert e_s.density_at == e.density_at / s


# non-decreasing in floating point: each is built from correctly rounded
# operations on a monotone argument; floor also makes ties
MAPS = {
    "affine": lambda v: 0.1 * v - 3.0,
    "cube": lambda v: v * v * v,
    "sqrt": lambda v: np.sqrt(v - v.min()),
    "floor": np.floor,
}


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=rows, name=st.sampled_from(sorted(MAPS)))
def test_an_increasing_map_maps_each_point_exactly(seed, n, name):
    x = _chain(seed, n, 1)[:, 0]
    fx = MAPS[name](x)
    # a map that keeps distinct values distinct leaves every indicator as is
    strict = np.unique(fx).size == np.unique(x).size
    for q in LEVELS:
        try:
            base = quantile_ci(x, q, 0.05, B)
            mapped = quantile_ci(fx, q, 0.05, B)
        except OutputAnalysisError:
            continue
        assert mapped.point == fx[np.flatnonzero(x == base.point)[0]]
        if strict:
            assert mapped.indicator_sigma2 == base.indicator_sigma2


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=rows, step=st.integers(2, 4), q=st.sampled_from(LEVELS))
def test_a_strided_column_gives_its_copy_s_interval(seed, n, step, q):
    x = _chain(seed, n, 3, step)
    view = x[::step, 1]
    assert not view.flags.c_contiguous
    copy = np.array(view)
    try:
        expected = quantile_ci(copy, q, 0.05, B)
    except OutputAnalysisError as exc:
        with pytest.raises(type(exc)):
            quantile_ci(view, q, 0.05, B)
    else:
        assert quantile_ci(view, q, 0.05, B) == expected


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(81, 600), j=st.integers(0, 40), k=st.integers(0, 40))
def test_discards_compose_additively(seed, n, j, k):
    chain = ChainMatrix(_chain(seed, n, 2), ("a", "b"))
    twice = discard_initial(discard_initial(chain, j), k)
    once = discard_initial(chain, j + k)
    assert np.array_equal(twice.values, once.values)
    assert twice.labels == once.labels


def _smooth_chain(seed, n, p):
    """An AR(1)-like chain without ties, whose columns have mean 0..p-1."""
    x = RngStream(seed).normal(size=(n, p))
    x[1:] += 0.5 * x[:-1]
    return x + np.arange(p)


def _well_conditioned(seed, p, k):
    """2^k U diag(s) V^T with U, V orthogonal and s in [0.5, 2]."""
    rng = RngStream(seed, 1)
    u, _ = np.linalg.qr(rng.normal(size=(p, p)))
    v, _ = np.linalg.qr(rng.normal(size=(p, p)))
    s = 0.5 + 1.5 * rng.uniform(size=p)
    return 2.0**k * (u * s) @ v.T


def _terms(chain, estimator):
    """The PSD matrix whose rounding bounds the estimator's: batch means
    itself, or the two batch-means terms flat-top subtracts."""
    if estimator is batch_means_sigma:
        return batch_means_sigma(chain, B).matrix
    return 2.0 * batch_means_sigma(chain, B).matrix + batch_means_sigma(
        chain, B // 2
    ).matrix


def _ess_or_none(chain, estimator):
    sig = estimator(chain, B)
    if sig.chol is None:
        return None
    return ess(chain.rows, sample_cov_lambda(chain), sig)


ESTIMATORS = (batch_means_sigma, flat_top_sigma)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(200, 600), p=st.integers(1, 4),
       k=st.integers(-20, 20), shift=st.floats(-10.0, 10.0))
def test_an_affine_map_transforms_sigma_and_keeps_the_ess(seed, n, p, k, shift):
    x = _smooth_chain(seed, n, p)
    a = _well_conditioned(seed, p, k)
    c = shift * 2.0**k * np.arange(1.0, p + 1.0)
    chain, mapped = ChainMatrix(x), ChainMatrix(x @ a.T + c)
    for estimator in ESTIMATORS:
        expected = a @ estimator(chain, B).matrix @ a.T
        d = np.diag(a @ _terms(chain, estimator) @ a.T)
        err = np.abs(estimator(mapped, B).matrix - expected)
        assert np.all(err <= 1e-10 * np.sqrt(np.outer(d, d))), estimator
        base, after = _ess_or_none(chain, estimator), _ess_or_none(mapped, estimator)
        # batch means is positive definite on these chains; flat-top need not be
        if estimator is flat_top_sigma and None in (base, after):
            continue
        assert after == pytest.approx(base, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(200, 600), p=st.integers(2, 4), data=st.data())
def test_a_column_permutation_keeps_the_ess(seed, n, p, data):
    perm = data.draw(st.permutations(range(p)))
    x = _smooth_chain(seed, n, p)
    chain, permuted = ChainMatrix(x), ChainMatrix(x[:, perm])
    for estimator in ESTIMATORS:
        base = _ess_or_none(chain, estimator)
        after = _ess_or_none(permuted, estimator)
        assert (base is None) == (after is None)
        if base is not None:
            assert after == pytest.approx(base, rel=1e-10)
