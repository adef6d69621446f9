"""Property test for ``evaluate_verdict`` called directly, where a check has
the fewest rows: n near 8 and a = n // b batches near p. On any finite
chain, from subnormal to near-overflow scale, with constant and duplicate
columns and a spike, each call ends with a verdict whose ESS is finite or
with a typed error, never a numpy warning. Lambda left to the default or
passed as a function ends the same way, with the same verdict or the same
error type: both are computed after Sigma.

Tier-1 runs 200 examples; a Hypothesis profile with more, such as
``long-run`` (``tests/conftest.py``), raises the count:
``pytest tests/test_verdict_property.py --hypothesis-profile=long-run``.
"""

import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mcoutput import (  # noqa: E402
    ChainMatrix,
    StoppingConfig,
    evaluate_verdict,
    sample_cov_lambda,
)
from mcoutput.errors import OutputAnalysisError  # noqa: E402

OFFSETS = (0.0, 1.0, -1e3, 1e300, -1e300)


@st.composite
def checks(draw):
    """(chain values, batch length or None for the default rule, whether
    Sigma is flat-top). a = n // b is drawn from p - 1 to p + 3. A copy of
    the first column and a constant column each come one time in four, so
    that most draws can give a verdict; so do a scale near 1 and a zero
    offset, each drawn half the time."""
    p = draw(st.integers(1, 6))
    b = draw(st.integers(1, 8))
    a = draw(st.integers(max(1, p - 1), p + 3))
    n = max(2, draw(st.integers(a * b, a * b + b - 1)))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = 2.0 ** draw(st.integers(-1074, 1023) | st.integers(-8, 8))
    offset = draw(st.just(0.0) | st.sampled_from(OFFSETS))
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, p)) * scale + offset
    if p > 1 and draw(st.integers(0, 3)) == 0:
        x[:, draw(st.integers(1, p - 1))] = x[:, 0]
    if draw(st.integers(0, 3)) == 0:
        x[:, draw(st.integers(0, p - 1))] = offset
    if draw(st.booleans()):
        at = draw(st.integers(0, n - 1)), draw(st.integers(0, p - 1))
        x[at] = draw(st.floats(-1e300, 1e300))
    return x, draw(st.none() | st.just(b)), draw(st.booleans())


def _outcome(chain, config, lam):
    """The verdict of one call, or the type of the typed error it raised."""
    try:
        verdict = evaluate_verdict(chain, config, lam)[0]
    except OutputAnalysisError as exc:
        return type(exc)
    assert math.isfinite(verdict.ess), verdict
    return verdict


@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=max(200, settings().max_examples),
)
@given(checks())
def test_a_direct_check_is_a_finite_verdict_or_a_typed_error(check):
    x, b, use_flat_top = check
    chain = ChainMatrix(x)
    rule = {} if b is None else {"batch_size_fn": lambda n: b}
    config = StoppingConfig(
        p=x.shape[1], n_star=8, use_flat_top=use_flat_top, **rule
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcomes = [
            _outcome(chain, config, lam)
            for lam in (None, lambda: sample_cov_lambda(chain))
        ]
    assert outcomes[0] == outcomes[1], outcomes
