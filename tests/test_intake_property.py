"""Property test at the library boundary: every public function that takes
an array or a level in (0, 1) ends in a result or an OutputAnalysisError,
with no warning, whatever it is given in that place: text, numeric strings,
complex values, datetimes and time spans (also inside object arrays),
mappings, records, ragged rows, NaN and infinities, bools, None and
misshapen arrays, mixed with values it accepts.

The ``long-run`` profile (``tests/conftest.py``) runs a few thousand
examples: ``pytest tests/test_intake_property.py --hypothesis-profile=long-run``.
"""

import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mcoutput import (  # noqa: E402
    ChainMatrix,
    CovarianceEstimate,
    LCD_FAILURE_HOURS,
    OutputAnalysisError,
    RngStream,
    StoppingConfig,
    chi2_quantile,
    empirical_quantile,
    f_quantile,
    hotelling_region,
    indicator_sigma2,
    kde_at,
    kde_bandwidth,
    min_ess_cutoff,
    quantile_ci,
    stopping_controller,
    summarize,
    weibull_mle_beta,
)

_DAY = np.datetime64("2020-01-01")
_SPAN = np.timedelta64(3, "D")
HOSTILE = (
    # text, and numbers written as text
    "abc", "", ["a", "b", "c"], np.array(["x", "y"]),
    "0.05", ["1.5", "2", "-3"], np.array(["1", "2.5", "4"]),
    # complex values
    1 + 1j, [1 + 1j, 2.0], np.ones(3, dtype=np.complex64),
    # datetimes and time spans, alone, in arrays and among other objects
    _DAY, _SPAN, np.arange(3).astype("datetime64[D]"),
    np.arange(3).astype("timedelta64[s]"), np.array([_DAY, 1.0], dtype=object),
    [_SPAN, 1.0, 2.0],
    # mappings, records and ragged rows
    {"a": 1.0}, {}, np.zeros(3, dtype=[("a", float), ("b", float)]),
    [[1.0], [2.0, 3.0]], [1.0, [2.0]],
    # NaN and infinities
    math.nan, math.inf, -math.inf, [1.0, math.nan, 2.0], np.array([math.inf, 0.0]),
    [0.0, -math.inf],
    # bools, None and misshapen arrays
    True, False, [True, False, True], np.array([True, False]), None, [],
    np.zeros(0), np.zeros((3, 2)), np.zeros((2, 2, 2)),
)
SERIES = RngStream(83).normal(size=40)
ACCEPTED = (
    SERIES, SERIES[:5].tolist(), [0.0, 0.0], list(LCD_FAILURE_HOURS),
    [0.0, 1.0], 0.05, 0.5, 0.95, np.float32(0.25), 1, 0.0,
)
SIGMA = CovarianceEstimate(np.eye(2), "batch-means", 10, 100)
CHAIN = ChainMatrix(RngStream(89).normal(size=(100, 2)))
REGION = hotelling_region([0.0, 0.0], SIGMA, 100, 0.05, 8)


def _first_block(block):
    """A one-column stopping run whose sampler returns ``block``."""
    config = StoppingConfig(p=1, n_star=8, max_n=8)
    return stopping_controller(lambda k, rng: block, config, None)


# each call takes two drawn values, ``a`` and ``b``; a place it fills with
# a fixed value is one that neither takes an array nor a level
CALLS = {
    "ChainMatrix": lambda a, b: ChainMatrix(a),
    "stopping_controller block": lambda a, b: _first_block(a),
    "StoppingConfig": lambda a, b: StoppingConfig(p=2, alpha=a, epsilon=b),
    "min_ess_cutoff": lambda a, b: min_ess_cutoff(a, b, 2),
    "chi2_quantile": lambda a, b: chi2_quantile(a, 2),
    "f_quantile": lambda a, b: f_quantile(a, 2, 3),
    "hotelling_region": lambda a, b: hotelling_region(a, SIGMA, 100, b, 8),
    "ConfidenceRegion.contains": lambda a, b: REGION.contains(a),
    "summarize": lambda a, b: summarize(CHAIN, SIGMA, a, [b, 0.5]),
    "empirical_quantile": lambda a, b: empirical_quantile(a, b),
    "indicator_sigma2": lambda a, b: indicator_sigma2(a, 0.0, 2),
    "kde_bandwidth": lambda a, b: kde_bandwidth(a),
    "kde_at": lambda a, b: kde_at(a, b),
    "quantile_ci": lambda a, b: quantile_ci(a, b, 0.05, 2),
    "quantile_ci alpha": lambda a, b: quantile_ci(SERIES, 0.5, a, 2),
    "weibull_mle_beta": lambda a, b: weibull_mle_beta(a),
}

values = (
    st.sampled_from(HOSTILE + ACCEPTED)
    | st.floats()
    | st.lists(st.floats(-1e3, 1e3) | st.sampled_from((math.nan, math.inf)),
               max_size=6)
)


@settings(derandomize=True, database=None, deadline=None,
          max_examples=max(400, settings().max_examples))
@example("min_ess_cutoff", "0.05", 0.05)
@example("min_ess_cutoff", 0.05, "0.05")
@example("chi2_quantile", "0.5", None)
@example("kde_bandwidth", [1.0, 2.0], None)
@example("weibull_mle_beta", [1 + 1j, 2.0], None)
@given(st.sampled_from(sorted(CALLS)), values, values)
def test_a_call_ends_in_a_result_or_a_typed_error(name, a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            CALLS[name](a, b)
        except OutputAnalysisError:
            pass
