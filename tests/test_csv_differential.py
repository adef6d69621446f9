"""Differential property test: read_chain_csv, which tries np.loadtxt first,
agrees with the csv-module parser on every text: the same labels and value
bytes, or the same error type, message and line."""

import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mcoutput.cli import _csv_chain, read_chain_csv  # noqa: E402
from mcoutput.errors import OutputAnalysisError  # noqa: E402

BOM = "\ufeff".encode()
# cells float() reads, some with whitespace it strips (form feed, NEL, NBSP,
# ideographic space) or in forms only it accepts (underscores, non-ASCII
# digits)
NUMBERS = (
    "0", "-0", "1", "-2.5", "+.5", "1.", "1e308", "-1e308", "5e-324",
    "1e-400", "1E5", " 3 ", "\t4", "\x0c6", "7\x85", "8\xa0", "\xa09",
    "\u30001", "1_0", "\u0663", "\u0661.\u0665",
)
# cells some parser refuses, or reads as a value that is not finite
ODD = (
    "", " ", "nan", "NaN", "inf", "-inf", "1e400", "infinity", '"3"',
    '"1,5"', '"2\n3"', "#", "#1", "1#", "\x00", "1\x00", "abc", "0x10",
    "1 2", "1\u20282", "\ufeff1", "1j", '"',
)
numbers = st.sampled_from(NUMBERS)
cells = st.one_of(numbers, numbers, st.sampled_from(ODD))
line_ends = st.sampled_from(["\n", "\r\n", "\r"])
# lines between rows that either parser may skip or refuse
fillers = st.sampled_from(["", "", " ", "\t", "\x0c", "#", "\x85"])
# (header, its column count)
headers = st.sampled_from([
    ("x", 1), ("x,y", 2), ("a,b,c", 3), ('"a,b",c', 2), ('"multi\nline",y', 2),
    (" x , y ", 2), ("1,2", 2), ("#,y", 2),
])


def _one_in(k):
    return st.sampled_from([False] * (k - 1) + [True])


@st.composite
def chain_texts(draw):
    """Encoded chain text: a header after optional blank lines, then rows
    as wide as the header, each ended by \\n, \\r\\n or \\r (the last one
    maybe not). Half the texts hold only cells float() reads and blank
    lines; the others also odd cells, ragged rows and whitespace lines.
    Some start with a BOM, and some carry a byte that is not UTF-8."""
    header, width = draw(headers)
    dirty = draw(st.booleans())
    lines = [""] * draw(st.integers(0, 2)) + [header]
    for _ in range(draw(st.integers(0, 6))):
        if draw(_one_in(5)):
            lines.append(draw(fillers) if dirty else "")
            continue
        p = draw(st.integers(1, 4)) if dirty and draw(_one_in(5)) else width
        row = st.lists(cells if dirty else numbers, min_size=p, max_size=p)
        lines.append(",".join(draw(row)))
    text = "".join(line + draw(line_ends) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode()
    if draw(st.booleans()):
        data = BOM + data
    if draw(_one_in(8)):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + data[at:]
    return data


def _outcome(read, path):
    try:
        chain = read(path)
    except OutputAnalysisError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return chain.labels, chain.values.shape, chain.values.tobytes()


def _csv_module_parser(path):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return _csv_chain(fh, path)


@settings(database=None, deadline=None, max_examples=300)
@example(b'"a,b",c\n"1",2\n3,"4"\n')  # quoted cells
@example(b"x,y\n#1,2\n3,4\n")  # a comment character
@example(b"x,y\n1,2\n\n \n\t\n3,4\n")  # blank and whitespace lines
@example(b"x\r1\r\n2\n3\r")  # lone \r and mixed line ends
@example(b"x,y\n1\x00,2\n")  # NUL
@example("x,y\n\x0c1,2\x85\n3\xa0,\u30004\n".encode())  # whitespace float() strips
@example("x\n1_0\n\u0663\n".encode())  # underscores and non-ASCII digits
@example(b"x,y\n1,nan\n2,inf\n")  # values that are not finite
@example(BOM + b"x,y\r\n1,2\r\n")  # a byte-order mark
@example(b"x,y\n1,2\n3,\xff4\n")  # bytes that are not UTF-8
@example(b"\n\n1,2\n3,4\n")  # a numeric header after blank lines
@example(b"x,y\n")  # a header and no data
@example(b"x,y\n1,2\n3\n")  # a ragged row
@example(b'x,y\n"1\n",3\nabc,4\n')  # a bad row after a multi-line cell
@example(b'"x\n",y\n1,2\nabc,4\n')  # a bad row after a multi-line label
@given(chain_texts())
def test_fast_reader_agrees_with_the_csv_module_parser(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chain.csv"
        path.write_bytes(data)
        assert _outcome(read_chain_csv, path) == _outcome(_csv_module_parser, path)
