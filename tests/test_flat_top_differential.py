"""Differential tests: the one-pass flat_top_sigma against two full
batch-means passes, 2 * Sigma_hat(b) - Sigma_hat(b/2), and both against a
math.fsum reference on chains whose mean dwarfs their spread.
``tests/test_flat_top_property.py`` checks the two passes on drawn chains."""

import math

import numpy as np
import pytest

from mcoutput import (
    ChainMatrix,
    RngStream,
    batch_means_sigma,
    flat_top_sigma,
)
from oracles import Ar1Spec, flat_top_two_pass, generate_ar1


def _ar1(seed, n, p, rho, offset):
    """An AR(1) chain whose column j has mean offset[j] standard deviations."""
    spec = Ar1Spec(rho=rho, dim=p)
    chain = generate_ar1(spec, n, RngStream(seed))
    sd = math.sqrt(spec.stationary_variance)
    return chain.values + sd * np.asarray(offset, dtype=float)


def _term_scale(chain, b):
    """sqrt(s_i s_j) for s the diagonal of 2 * Sigma_hat(b) + Sigma_hat(b/2):
    the size of the terms flat-top subtracts, positive where the flat-top
    diagonal itself may cancel to about zero."""
    s = np.diag(
        2.0 * batch_means_sigma(chain, b).matrix
        + batch_means_sigma(chain, b // 2).matrix
    )
    return np.sqrt(np.outer(s, s))


def _fsum_batch_means(x, b, shift):
    """Batch-means matrix with every sum taken by math.fsum, of the rows
    x - shift. Subtracting a shift within a factor two of every value is
    exact (Sterbenz), so this reference keeps the digits the mean hides."""
    a = x.shape[0] // b
    cols = range(x.shape[1])
    means = [
        [math.fsum(x[k * b:(k + 1) * b, j] - shift[j]) / b for j in cols]
        for k in range(a)
    ]
    centre = [math.fsum(row[j] for row in means) / a for j in cols]
    dev = [[row[j] - centre[j] for j in cols] for row in means]
    return np.array([
        [b / (a - 1.0) * math.fsum(d[i] * d[j] for d in dev) for j in cols]
        for i in cols
    ])


@pytest.mark.parametrize("ratio", [1e3, 1e6])
def test_one_pass_is_as_accurate_as_two_passes(ratio):
    """Root-mean-square error over eight chains, relative to the terms'
    scale: the one pass is at most twice the two-pass error."""
    b = 20
    errors = {"one pass": [], "two passes": []}
    for seed in range(8):
        x = _ar1(seed, 3_001, 2, 0.5, [ratio, -ratio])
        chain = ChainMatrix(x)
        shift = x[0]
        reference = 2.0 * _fsum_batch_means(x, b, shift) - _fsum_batch_means(
            x, b // 2, shift
        )
        scale = _term_scale(chain, b)
        for name, got in (
            ("one pass", flat_top_sigma(chain, b).matrix),
            ("two passes", flat_top_two_pass(chain, b)),
        ):
            errors[name].append(np.max(np.abs(got - reference) / scale))
    rms = {k: math.sqrt(np.mean(np.square(v))) for k, v in errors.items()}
    assert rms["one pass"] <= 2.0 * rms["two passes"], rms
