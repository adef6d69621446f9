"""Property tests: on any finite series, from subnormal to near-overflow
scale, the KDE layer gives finite values or a typed error, never a numpy
warning or an inf; and kde_at gives, at any finite points, the bits of one
expression per point."""

import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import kde_per_point  # noqa: E402

from mcoutput.errors import OutputAnalysisError  # noqa: E402
from mcoutput.quantiles import kde_at, kde_bandwidth  # noqa: E402

OFFSETS = (0.0, 1e3, -1e3, 1e300, -1e300)
SPIKES = (1e-12, 1.0, 1e300, -5e-324)
FAR = (1e3, -1e3, 1e155, -1e155, 1e300, -1e300, 1.7e308, -1.7e308)


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


@st.composite
def points(draw, x):
    """Up to 7 points: data, data plus 2**k, far outside, or any float."""
    out = []
    for _ in range(draw(st.integers(0, 7))):
        datum = float(x[draw(st.integers(0, x.size - 1))])
        kind = draw(st.sampled_from(("datum", "near", "far", "any")))
        if kind == "datum":
            p = datum
        elif kind == "near":
            p = datum + draw(st.sampled_from((1.0, -1.0))) * 2.0 ** draw(
                st.integers(-1074, 1023)
            )
        elif kind == "far":
            p = draw(st.sampled_from(FAR))
        else:
            p = draw(st.floats(allow_nan=False, allow_infinity=False))
        out.append(p if math.isfinite(p) else datum)
    return np.array(out, dtype=float)


_EXAMPLES = max(200, settings().max_examples)


@settings(derandomize=True, database=None, deadline=None, max_examples=_EXAMPLES)
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


@settings(derandomize=True, database=None, deadline=None, max_examples=_EXAMPLES)
@given(series(), st.data())
def test_kde_at_gives_the_per_point_bits(x, data):
    assume(np.isfinite(x).all())
    pts = data.draw(points(x))
    try:
        kde_per_point(x, 0.0)
    except OutputAnalysisError as exc:
        with pytest.raises(type(exc)):
            kde_at(x, pts)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kde_at(x, pts)
    assert got.tolist() == [kde_per_point(x, p) for p in pts]
