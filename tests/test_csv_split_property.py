"""Property test: byte ranges of a chain file cut just after a ``\\n``,
each parsed by ``_csvrows.read_range`` in this process, join to the
serial rows bit for bit, or decline where the serial read declines.
``tests/test_csv_split.py`` checks the split read through real children."""

import csv
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_csv_differential import chain_texts  # noqa: E402
from test_csv_split import _open, _rows  # noqa: E402

from mcoutput import _csvrows  # noqa: E402
from mcoutput.cli import _loadtxt_chain  # noqa: E402


def _split_in_process(path, pick):
    """Labels and value bytes of the file read as two ranges, the first
    from the end of the header, cut after the ``pick``-th ``\\n`` past it
    (one range where there is none), each by ``read_range`` in this
    process, or None where the read declines: an error, or no data row."""
    data = path.read_bytes()
    with _open(path) as fh:
        try:
            header, head_end = _csvrows.read_head(fh)
            width, limit = len(header), csv.field_size_limit()
            cuts = [m.end() for m in re.finditer(b"\n", data)
                    if head_end <= m.end() < len(data)]
            bounds = [head_end, len(data)]
            if cuts:
                bounds.insert(1, cuts[pick % len(cuts)])
            pieces = [_csvrows.read_range(fh.fileno(), a, b, width, limit)
                      for a, b in zip(bounds, bounds[1:])]
        except (ValueError, csv.Error):
            return None
    rows = np.concatenate(pieces)
    if not len(rows):
        return None
    return tuple(cell.strip() for cell in header), rows.tobytes()


@settings(database=None, deadline=None, derandomize=True,
          max_examples=max(300, settings().max_examples))
@example(b"x,y\r\n1,2\r\n3,4\r\n5,6\r\n", 1)  # a cut right after \r\n
@example(b"x\n1\n2\n\r3\n", 0)  # a cut just before a lone \r
@example(b"x\n1\n2\r3\n4\r\n", 0)  # a cut just after a line a lone \r ends
@example(b"x,y\n1,2\n\n\n3,4\n\n\n5,6\n", 1)  # blank lines on both sides
@example(b"x,y\n1,2\n\n\n3,4\n\n\n5,6\n", 4)
@example(b"x,y\n1,2\n3,4\n\n\n\r\n", 1)  # a range of blank lines only
@example(b'x,y\n1,2\n"3\n4",5\n6,7\n', 1)  # a quoted cell across the cut
@example(b"x\n1\n\xef\xbb\xbf2\n", 0)  # a byte-order mark after the cut
@example(b"\xef\xbb\xbfx,y\n1,2\n3,4\n", 0)  # a byte-order mark at the start
@example("\n\xe9,y\n1,2\n3,4\n".encode(), 0)  # a two-byte label after a blank
@given(chain_texts(), st.integers(0, 63))
def test_ranges_cut_after_a_newline_join_to_the_serial_rows(data, pick):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chain.csv"
        path.write_bytes(data)
        with _open(path) as fh:
            serial = _rows(_loadtxt_chain(fh))
        assert _split_in_process(path, pick) == serial
