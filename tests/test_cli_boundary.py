"""Property test at the CLI boundary: on any finite chain, from subnormal to
near-overflow scale, with constant and duplicate columns and a spike, every
``analyze`` and ``plotdata`` call ends one of two ways. Either it exits 0 or
2 with nothing on stderr and only finite numbers in what it writes, or it
exits 1 with one ``error:`` line and, for ``plotdata``, no output directory.

The ``long-run`` profile (``tests/conftest.py``) runs a few thousand
examples: ``pytest tests/test_cli_boundary.py --hypothesis-profile=long-run``.
"""

import contextlib
import csv
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mcoutput import ChainMatrix  # noqa: E402
from mcoutput.cli import PLOT_KINDS, main, write_chain_csv  # noqa: E402

OFFSETS = (0.0, 1.0, -1e3, 1e300, -1e300)
CALLS = (
    ["analyze"],
    ["analyze", "--flat-top"],
    ["analyze", "--quantiles", "0.001,0.5,0.999"],
    *(["plotdata", "--kind", kind] for kind in PLOT_KINDS),
)


@st.composite
def chains(draw):
    """A finite (n, p) chain: uniform noise on (-1, 1) times 2**k plus an
    offset, maybe with a copy of the first column, a constant column and
    one spike."""
    n = draw(st.integers(1, 400))
    p = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = 2.0 ** draw(st.integers(-1074, 1023))
    offset = draw(st.sampled_from(OFFSETS) | st.floats(-1e300, 1e300))
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, p)) * scale + offset
    if p > 1 and draw(st.booleans()):
        x[:, draw(st.integers(1, p - 1))] = x[:, 0]
    if draw(st.booleans()):
        x[:, draw(st.integers(0, p - 1))] = offset
    if draw(st.booleans()):
        at = draw(st.integers(0, n - 1)), draw(st.integers(0, p - 1))
        x[at] = draw(st.floats(-1e300, 1e300))
    return x


def _spiked(seed, n):
    x = np.random.default_rng(seed).standard_normal((n, 1)) * 1e-320
    x[3] = 1e-12
    return x


def _finite(value):
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, list):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _numbers_are_finite(path):
    if path.suffix == ".json":
        return _finite(json.loads(path.read_text()))  # NaN and Infinity too
    with open(path, newline="") as fh:
        for cell in (cell for row in csv.reader(fh) for cell in row):
            try:
                value = float(cell)
            except ValueError:  # a label or a marker kind
                continue
            if not math.isfinite(value):
                return False
    return True


@settings(derandomize=True, database=None, deadline=None)
@example(_spiked(0, 30), 0, None)  # a subnormal KDE bandwidth, analyze
@example(_spiked(1, 300), 6, None)  # the same, plotdata density
@example(np.random.default_rng(5).standard_normal((10, 2)), 4, None)  # --lags 50
@given(chains(), st.integers(0, len(CALLS) - 1), st.none() | st.integers(-1, 450))
def test_cli_call_ends_in_a_report_or_one_error_line(x, call, lags):
    argv = list(CALLS[call])
    if lags is not None and argv[-1] in ("acf", "ccf"):
        argv += ["--lags", str(lags)]
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "chain.csv", Path(tmp) / "out"
        write_chain_csv(ChainMatrix(x), path)
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            status = main([argv[0], str(path), *argv[1:], "--out-dir", str(out)])
        err = stderr.getvalue()
        if status in (0, 2):
            assert err == ""
            assert not re.search(r"\b(nan|inf)\b", stdout.getvalue(), re.I)
            written = sorted(out.iterdir())
            assert written
            assert all(map(_numbers_are_finite, written)), written
        else:
            assert status == 1
            assert re.fullmatch(r"error: [^\n]+\n", err), err
            assert "Out of range float values" not in err
            if argv[0] == "plotdata":
                assert not out.exists()
