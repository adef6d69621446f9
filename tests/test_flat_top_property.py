"""Property test: the one-pass flat_top_sigma against two full batch-means
passes, 2 * Sigma_hat(b) - Sigma_hat(b/2), on drawn AR(1) chains, within
1e-12 of the size of the terms flat-top subtracts."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_flat_top_differential import _ar1, _term_scale  # noqa: E402

from mcoutput import ChainMatrix, flat_top_sigma  # noqa: E402
from oracles import flat_top_two_pass  # noqa: E402


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
