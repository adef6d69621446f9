"""The row-block sample covariance against one centred copy of the chain."""

import numpy as np
import pytest

from oracles import sample_cov_centred_copy

from mcoutput import (
    ChainMatrix,
    DegenerateDataError,
    NumericsError,
    RngStream,
    sample_cov_lambda,
)
from mcoutput.mcse import _GRAM_VALUES


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


@pytest.mark.parametrize("shift", [0.0, 1e3, 1e6])
def test_blocks_are_no_less_accurate_than_the_centred_copy(shift):
    """RMS error relative to sqrt(Lambda_ii Lambda_jj), against an
    extended-precision reference, over a 300k x 7 chain (four blocks)."""
    x = _chain(300_000, 7, seed=5, shift=shift)
    xl = x.astype(np.longdouble)
    c = xl - xl.mean(axis=0)
    ref = np.einsum("ki,kj->ij", c, c) / x.shape[0]
    scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))

    def rms(mat):
        return float(np.sqrt(np.mean(((mat - ref) / scale) ** 2)))

    blocked = rms(sample_cov_lambda(ChainMatrix(x)).matrix)
    assert blocked <= rms(sample_cov_centred_copy(x))


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
