"""The row-block sample covariance against one centred copy of the chain,
and the controller's merged co-moments against the one-block estimate."""

import math

import numpy as np
import pytest

from oracles import sample_cov_centred_copy

from mcoutput import (
    ChainMatrix,
    DegenerateDataError,
    NumericsError,
    RngStream,
    StoppingConfig,
    evaluate_verdict,
    inference,
    sample_cov_lambda,
    stopping_controller,
)
from mcoutput.inference import CHECK_GROWTH
from mcoutput.mcse import _GRAM_VALUES, _CoMoments


def _rows(p):
    return max(1, _GRAM_VALUES // p)


def _chain(n, p, seed=11, shift=0.0):
    return RngStream(seed).normal(size=(n, p)) + shift


@pytest.mark.parametrize("p", [1, 2, 50])
def test_one_block_is_the_centred_copy_bit_for_bit(p):
    """Up to ``rows`` rows there is one block: today's arithmetic exactly."""
    for n in (2, 1000, _rows(p)):
        x = _chain(n, p, shift=3.0)
        got = sample_cov_lambda(ChainMatrix(x)).matrix
        assert got.tobytes() == sample_cov_centred_copy(x).tobytes(), n


@pytest.mark.parametrize("p", [1, 2, 50])
def test_blocks_agree_with_the_centred_copy(p):
    """Relative to sqrt(Lambda_ii Lambda_jj), on both sides of each block
    boundary and with a short last block."""
    rows = _rows(p)
    for n in (rows - 1, rows, rows + 1, 3 * rows + 7):
        x = _chain(n, p, shift=3.0)
        got = sample_cov_lambda(ChainMatrix(x)).matrix
        ref = sample_cov_centred_copy(x)
        d = np.sqrt(np.diag(ref))
        assert (np.abs(got - ref) <= 1e-13 * np.outer(d, d)).all(), n


def _rms_error(x):
    """RMS error of an estimate of x's Lambda relative to sqrt(Lambda_ii
    Lambda_jj), against an extended-precision reference."""
    xl = x.astype(np.longdouble)
    c = xl - xl.mean(axis=0)
    ref = np.einsum("ki,kj->ij", c, c) / x.shape[0]
    scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
    return lambda mat: float(np.sqrt(np.mean(((mat - ref) / scale) ** 2)))


@pytest.mark.parametrize("shift", [0.0, 1e3, 1e6])
def test_blocks_are_no_less_accurate_than_the_centred_copy(shift):
    """Over a 300k x 7 chain (four blocks)."""
    x = _chain(300_000, 7, seed=5, shift=shift)
    rms = _rms_error(x)
    blocked = rms(sample_cov_lambda(ChainMatrix(x)).matrix)
    assert blocked <= rms(sample_cov_centred_copy(x))


def _controller_lambdas(monkeypatch, x, n_star):
    """The Lambda of every check of a controller run over the rows of x.
    The cutoff is out of reach, so the checks run up to len(x)."""
    lams = []

    def record(chain, config, lam=None):
        result = evaluate_verdict(chain, config, lam)
        lams.append(result[1])
        return result

    monkeypatch.setattr(inference, "evaluate_verdict", record)
    drawn = 0

    def sampler(k, rng):
        nonlocal drawn
        drawn += k
        return x[drawn - k : drawn]

    cfg = StoppingConfig(p=x.shape[1], epsilon=1e-3, n_star=n_star, max_n=len(x))
    stopping_controller(sampler, cfg, None)
    return lams


@pytest.mark.parametrize("shift", [0.0, 1e3, 1e6])
def test_merged_blocks_are_no_less_accurate_than_one_block(monkeypatch, shift):
    """The controller's Lambda over a 300k x 7 chain, checked at 1000 rows
    and then every 1.5 times more, merges the new rows of its last five
    checks; below the threshold each check's Lambda is the one-block bits."""
    x = _chain(300_000, 7, seed=5, shift=shift)
    lams = _controller_lambdas(monkeypatch, x, n_star=1000)
    merged = [lam for lam in lams if lam.n_used * 7 > _GRAM_VALUES]
    assert lams[-1].n_used == 300_000 and len(merged) == 5
    for lam in lams[: len(lams) - len(merged)]:
        one = sample_cov_lambda(ChainMatrix(x[: lam.n_used])).matrix
        assert lam.matrix.tobytes() == one.tobytes()
    rms = _rms_error(x)
    assert rms(lams[-1].matrix) <= rms(sample_cov_lambda(ChainMatrix(x)).matrix)


def _merged(x, first):
    """Lambda of x from an accumulator handed x[:first] and then, as the
    controller does, the rows up to 1.5 times the last length each time."""
    moments, n = _CoMoments(x.shape[1], len(x)), first
    while moments.count < len(x):
        moments.update(x[:n])
        n = min(len(x), math.ceil(n * CHECK_GROWTH))
    return moments.estimate(ChainMatrix(x))


def test_a_column_constant_in_every_merged_block_is_named():
    p = 50
    x = _chain(4 * _rows(p), p)
    x[:, 3] = 0.1
    with pytest.raises(DegenerateDataError, match="^column 'col3' is constant$"):
        _merged(x, _rows(p))


def test_a_column_constant_only_in_the_first_block_is_not_named():
    p = 50
    x = _chain(4 * _rows(p), p)
    x[: _rows(p), 3] = 0.1
    got = _merged(x, _rows(p)).matrix
    ref = sample_cov_lambda(ChainMatrix(x)).matrix
    d = np.sqrt(np.diag(ref))
    assert (np.abs(got - ref) <= 1e-13 * np.outer(d, d)).all()


def test_a_constant_column_spanning_blocks_is_named():
    p = 50
    x = _chain(3 * _rows(p) + 7, p)
    x[:, 3] = 0.1
    with pytest.raises(DegenerateDataError, match="^column 'col3' is constant$"):
        sample_cov_lambda(ChainMatrix(x))


@pytest.mark.filterwarnings("error")
def test_tiny_values_after_the_first_block_underflow():
    """Column 0 is exactly zero through the first block and 1e-170 scale
    after it: it varies, but its variance underflows."""
    p = 50
    rows = _rows(p)
    x = _chain(3 * rows + 7, p)
    x[:rows, 0] = 0.0
    x[rows:, 0] *= 1e-170
    with pytest.raises(NumericsError, match="^sample-cov covariance underflows"):
        sample_cov_lambda(ChainMatrix(x))


@pytest.mark.filterwarnings("error")
def test_a_variance_that_underflows_across_merges_raises():
    """Column 0 is exactly zero in the first block and 1e-170 scale in every
    merged one: it varies, but its merged variance underflows."""
    p = 50
    rows = _rows(p)
    x = _chain(4 * rows, p)
    x[:rows, 0] = 0.0
    x[rows:, 0] *= 1e-170
    with pytest.raises(NumericsError, match="^sample-cov covariance underflows"):
        _merged(x, rows)
