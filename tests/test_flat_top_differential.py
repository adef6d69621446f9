"""Differential tests: the one-pass flat_top_sigma against two full
batch-means passes, 2 * Sigma_hat(b) - Sigma_hat(b/2), and both against a
math.fsum reference on chains whose mean dwarfs their spread."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mcoutput import (  # noqa: E402
    ChainMatrix,
    RngStream,
    batch_means_sigma,
    flat_top_sigma,
)
from oracles import Ar1Spec, flat_top_two_pass, generate_ar1  # noqa: E402


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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    half=st.integers(1, 30),
    a=st.integers(2, 80),
    extra=st.floats(0.0, 1.0, exclude_max=True),
    p=st.integers(1, 3),
    rho=st.floats(-0.9, 0.95),
    offset=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
)
# b = 2, one spare row: the fine pass has a 2a+1-th half-batch
@example(seed=1, half=1, a=2, extra=0.5, p=1, rho=0.5, offset=[0.0] * 3)
# b = 2, no spare row
@example(seed=2, half=1, a=50, extra=0.0, p=2, rho=0.9, offset=[10.0, -10.0, 0.0])
# n mod b < b/2: the trailing rows are dropped by both passes
@example(seed=3, half=10, a=30, extra=0.45, p=3, rho=0.3, offset=[-10.0, 1.0, 5.0])
# n mod b >= b/2: the fine pass uses one more half-batch than the coarse
@example(seed=4, half=10, a=30, extra=0.5, p=3, rho=0.3, offset=[-10.0, 1.0, 5.0])
@example(seed=5, half=7, a=3, extra=0.99, p=2, rho=-0.5, offset=[3.0, 3.0, 3.0])
def test_one_pass_matches_two_passes(seed, half, a, extra, p, rho, offset):
    b = 2 * half
    n = a * b + int(extra * b)
    chain = ChainMatrix(_ar1(seed, n, p, rho, offset[:p]))
    est = flat_top_sigma(chain, b)
    expected = flat_top_two_pass(chain, b)
    scale = _term_scale(chain, b)
    assert np.all(np.abs(est.matrix - expected) <= 1e-12 * scale)
    assert est.n_used == a * b
    assert est.batch_size == b
    assert est.kind == "flat-top"


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
