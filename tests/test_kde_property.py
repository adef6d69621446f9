"""Property test: on any finite series, from subnormal to near-overflow
scale, the KDE layer gives finite values or a typed error, never a numpy
warning or an inf."""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mcoutput.errors import OutputAnalysisError  # noqa: E402
from mcoutput.quantiles import kde_at, kde_bandwidth  # noqa: E402

OFFSETS = (0.0, 1e3, -1e3, 1e300, -1e300)
SPIKES = (1e-12, 1.0, 1e300, -5e-324)


def _spiked(seed, n, value):
    x = np.random.default_rng(seed).standard_normal(n) * 1e-320
    x[3] = value
    return x


def _cancelling_extremes():
    x = np.zeros(16)
    x[[0, 8]] = 1e308
    x[[1, 9]] = -1e308
    return x


@st.composite
def series(draw):
    n = draw(st.integers(2, 300))
    k = draw(st.integers(-1074, 1023))
    seed = draw(st.integers(0, 2**32 - 1))
    with np.errstate(over="ignore"):
        x = np.random.default_rng(seed).standard_normal(n) * 2.0**k
        x += draw(st.sampled_from(OFFSETS))
    spike = draw(st.none() | st.sampled_from(SPIKES))
    if spike is not None:
        x[draw(st.integers(0, n - 1))] = spike
    return x


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@example(_spiked(0, 30, 1e-12))
@example(_spiked(1, 300, 1e-12))
@example(_cancelling_extremes())
@given(series())
def test_kde_layer_is_finite_or_a_typed_error(x):
    assume(np.isfinite(x).all())
    points = np.sort(x)[[0, x.size // 2, -1]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            h = kde_bandwidth(x)
            dens = kde_at(x, points)
        except OutputAnalysisError:
            return
    assert np.isfinite(h)
    assert np.isfinite(dens).all()
