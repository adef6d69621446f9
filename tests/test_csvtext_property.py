"""Property test: on drawn rows of any finite doubles, ±0, subnormals and
±max included, split into drawn runs, the per-draw bodies of ``_csvtext``
are the bytes ``cli._write_csv`` writes after each table's header: the
chain body from the functional rows, the params body from the parameter
rows."""

import numpy as np
import pytest

from mcoutput import _csvtext, cli

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
           1.7976931348623157e308, -1.7976931348623157e308)


def _expected_bodies(tmp_path, h, pr):
    """What ``_write_csv`` writes after the chain and params headers."""
    tables = [(["MTTF", "R1500"], *h.T), (["lambda", "beta"], *pr.T)]
    bodies = []
    for i, table in enumerate(tables):
        path = tmp_path / f"{i}.csv"
        cli._write_csv(path, *table)
        bodies.append(path.read_bytes().split(b"\r\n", 1)[1])
    return bodies


def _through_child(tmp_path, h, pr, cuts):
    paths = [tmp_path / f"child{i}.csv" for i in range(2)]
    for path in paths:
        path.write_bytes(b"")
    draws = _csvtext.DrawTables()
    try:
        for a, b in zip(cuts, cuts[1:]):
            draws.send(h[a:b], pr[a:b])
        draws.finish(paths, len(h))  # raises where the child declines
        return [path.read_bytes() for path in paths]
    finally:
        draws.close()


def _in_process(tmp_path, h, pr, cuts):
    bodies = _csvtext.Bodies()
    for a, b in zip(cuts, cuts[1:]):
        bodies.add(h[a:b].tobytes() + pr[a:b].tobytes())
    assert bodies.rows == len(h)
    return [b"".join(parts) for parts in bodies.parts]


# any finite double, the special ones, or a mantissa at any binary exponent
DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(SPECIAL),
    st.builds(
        lambda m, e: float(np.ldexp(m, e)),
        st.floats(-2.0, 2.0, exclude_min=True, exclude_max=True),
        st.integers(-1074, 1023),
    ),
)


@st.composite
def runs(draw):
    """(k, 2) functional and parameter rows and the cuts of their runs."""
    k = draw(st.integers(1, 24))
    values = draw(st.lists(DOUBLES, min_size=4 * k, max_size=4 * k))
    x = np.array(values).reshape(2, k, 2)
    inner = draw(st.sets(st.integers(1, k - 1), max_size=5)) if k > 1 else set()
    return x[0], x[1], [0, *sorted(inner), k]


@pytest.fixture(scope="module")
def body_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("bodies")


def _extremes():
    x = np.array([*SPECIAL, 0.1, 1.0 / 3.0, -123456789.125, 1e22, 1e-5])
    return x.reshape(6, 2), x[::-1].reshape(6, 2).copy(), [0, 1, 4, 6]


@settings(derandomize=True, database=None, deadline=None,
          max_examples=max(100, settings().max_examples))
@example(_extremes(), 0)
@given(runs(), st.integers(0, 14))
def test_bodies_are_the_writer_s_bytes(body_dir, drawn, via):
    """In process for most examples, through a real child for about one in
    15."""
    h, pr, cuts = drawn
    expected = _expected_bodies(body_dir, h, pr)
    format_runs = _through_child if via == 0 else _in_process
    assert format_runs(body_dir, h, pr, cuts) == expected
