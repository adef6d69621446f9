"""Property test: every chain write_chain_csv writes, read_chain_csv reads
back bit for bit, labels included."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mcoutput import ChainMatrix  # noqa: E402
from mcoutput.cli import read_chain_csv, write_chain_csv  # noqa: E402

BIG = np.finfo(float).max
# signed zeros, the extremes, the smallest subnormal and normal, and values
# whose row sums overflow
EDGES = (0.0, -0.0, BIG, -BIG, 5e-324, -5e-324, np.finfo(float).tiny, 1e308, -1e308)
finite = st.floats(allow_nan=False, allow_infinity=False)
cells = st.one_of(st.sampled_from(EDGES), finite)
# read_chain_csv strips the whitespace around a label
labels = st.text(alphabet='ab ,"\'é;', max_size=6).filter(lambda s: s == s.strip())


@st.composite
def chains(draw):
    p = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    row = st.lists(cells, min_size=p, max_size=p)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    return draw(st.lists(labels, min_size=p, max_size=p)), rows


@settings(database=None, deadline=None)
@example((["a,b", 'q"x'], [[1e308, 1e308], [-0.0, 5e-324]]))
@given(chains())
def test_written_chain_reads_back_bit_for_bit(table):
    names, rows = table
    chain = ChainMatrix(rows, names)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chain.csv"
        write_chain_csv(chain, path)
        back = read_chain_csv(path)
    assert back.values.tobytes() == chain.values.tobytes()
    assert back.labels == chain.labels
