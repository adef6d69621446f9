"""The split read of a large chain file through real children: the ranges
join to the serial rows bit for bit; any range that is not clean, or a
child that cannot start or fails, declines, so the csv-module parser
decides every error; and no child process outlives the read.
``tests/test_csv_split_property.py`` checks the ranges on drawn texts."""

import csv
import gc
import os
import signal
import subprocess
import warnings
from pathlib import Path

import numpy as np
import pytest

from mcoutput import ChainMatrix, RngStream, _csvrows, _csvtext
from mcoutput.cli import (
    _csv_chain,
    read_chain_csv,
    write_chain_csv,
)
from mcoutput.errors import OutputAnalysisError


def _open(path):
    return open(path, newline="", encoding="utf-8-sig")


def _rows(chain):
    return None if chain is None else (chain.labels, chain.values.tobytes())


# ---------------------------------------------------------------------------
# end to end, through a real child


@pytest.fixture
def launched(monkeypatch):
    """Every file is cut in two, whatever its size; yields the children
    the reads start."""
    procs = []

    def spy(*args, real=_csvrows._launch):
        child = real(*args)
        procs.append(child._proc)
        return child

    monkeypatch.setattr(_csvrows, "_launch", spy)
    monkeypatch.setattr(_csvrows, "_SPLIT_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return procs


@pytest.fixture
def no_launch(monkeypatch):
    def refuse(*args):
        raise AssertionError("a child process was started")

    monkeypatch.setattr(_csvrows, "_launch", refuse)


def _live_children():
    pids = set()
    for path in Path("/proc/self/task").glob("*/children"):
        pids.update(map(int, path.read_text().split()))
    return pids


def _assert_reaped(procs):
    assert procs and all(proc.returncode is not None for proc in procs)
    assert not {proc.pid for proc in procs} & _live_children()


def _outcome(path):
    try:
        return _rows(read_chain_csv(path))
    except OutputAnalysisError as exc:
        return type(exc), str(exc), exc.line


def _csv_parser_outcome(path):
    try:
        with _open(path) as fh:
            return _rows(_csv_chain(fh, path))
    except OutputAnalysisError as exc:
        return type(exc), str(exc), exc.line


def _chain_file(tmp_path, name, last_row=None, rows=400):
    """A written 3-column chain, its last line replaced by ``last_row``."""
    chain = ChainMatrix(RngStream(31).normal(size=(rows, 3)), ["a", "b", "c"])
    path = tmp_path / name
    write_chain_csv(chain, path)
    if last_row is not None:
        data = path.read_bytes()
        body = data[: data.rindex(b"\r\n", 0, len(data) - 2) + 2]
        path.write_bytes(body + last_row + b"\r\n")
    return path, chain


def test_split_read_gives_the_serial_bytes(tmp_path, launched):
    path, chain = _chain_file(tmp_path, "clean.csv")
    assert _outcome(path) == (("a", "b", "c"), chain.values.tobytes())
    assert [proc.returncode for proc in launched] == [0]
    _assert_reaped(launched)


def test_split_read_of_many_ranges_gives_the_serial_bytes(tmp_path, launched,
                                                          monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    path, chain = _chain_file(tmp_path, "clean.csv")
    assert _outcome(path) == (("a", "b", "c"), chain.values.tobytes())
    assert [proc.returncode for proc in launched] == [0, 0, 0]
    _assert_reaped(launched)


@pytest.mark.parametrize(
    "last_row",
    [b"1,nan,2", b"1,2", b"1,\xff2,3", b"1,2," + b"0" * 131_073],
    ids=["nan", "ragged", "not-utf8", "over-the-field-limit"],
)
def test_bad_row_in_the_childs_range_is_the_csv_parsers_error(
    tmp_path, launched, last_row
):
    path, _ = _chain_file(tmp_path, "bad.csv", last_row, rows=10_000)
    want = _csv_parser_outcome(path)
    assert want[0] is not None and want[0].__name__ == "ParseError"
    assert _outcome(path) == want
    # the child itself declined its range
    assert [proc.returncode for proc in launched] == [1]
    _assert_reaped(launched)


def test_tail_of_blank_lines_gives_the_child_no_rows(tmp_path, launched):
    path = tmp_path / "tail.csv"
    path.write_bytes(b"x,y\n" + b"1,2\n3,4\n" * 50 + b"\n\r\n" * 300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chain = read_chain_csv(path)
    assert chain.values.tolist() == [[1.0, 2.0], [3.0, 4.0]] * 50
    assert [proc.returncode for proc in launched] == [0]
    _assert_reaped(launched)


@pytest.mark.parametrize(
    "child, status",
    [
        ("os.write(1, struct.pack('=q', 5) + bytes(8))", 0),
        ("os.kill(os.getpid(), signal.SIGKILL)", -signal.SIGKILL),
        ("os.write(1, struct.pack('=q', 0)); sys.exit(3)", 3),
    ],
    ids=["short", "killed", "exit-status"],
)
def test_child_that_fails_sends_the_file_to_the_csv_parser(
    tmp_path, launched, monkeypatch, child, status
):
    monkeypatch.setattr(
        _csvtext, "_CHILD", "import os, signal, struct, sys; " + child
    )
    parsed = []

    def spy(fh, name, real=_csv_chain):
        parsed.append(name)
        return real(fh, name)

    monkeypatch.setattr("mcoutput.cli._csv_chain", spy)
    path, chain = _chain_file(tmp_path, "chain.csv")
    assert _outcome(path) == (("a", "b", "c"), chain.values.tobytes())
    assert parsed == [path]
    assert [proc.returncode for proc in launched] == [status]
    _assert_reaped(launched)


@pytest.mark.parametrize("text", ["x" * 5000 + ",y\n1,2\n3,4\n"], ids=["header"])
def test_head_past_the_midpoint_gives_no_split(tmp_path, monkeypatch, no_launch,
                                               text):
    monkeypatch.setattr(_csvrows, "_SPLIT_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    path = tmp_path / "head.csv"
    path.write_text(text)
    assert read_chain_csv(path).values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_long_first_data_line_is_a_range_of_its_own(tmp_path, launched):
    first = "x,y\n1," + "0" * 5000 + "2\n"
    path = tmp_path / "first.csv"
    path.write_text(first + "3,4\n")
    assert read_chain_csv(path).values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    # the child's range starts just after the first data line
    assert launched[0].args[5] == str(len(first))
    assert [proc.returncode for proc in launched] == [0]
    _assert_reaped(launched)


@pytest.fixture
def csv_parsed(monkeypatch):
    """The names of the files the csv-module parser reads."""
    parsed = []

    def spy(fh, name, real=_csv_chain):
        parsed.append(name)
        return real(fh, name)

    monkeypatch.setattr("mcoutput.cli._csv_chain", spy)
    return parsed


def test_byte_order_mark_and_two_line_header_end_where_ranges_start(
    tmp_path, launched, csv_parsed
):
    plain, _ = _chain_file(tmp_path, "chain.csv")
    body = plain.read_bytes().split(b"\r\n", 1)[1]
    path = tmp_path / "head.csv"
    # three two-byte labels: an offset counted in characters falls on "d"
    path.write_bytes('\ufeff"α\nβ",γ,d\r\n'.encode() + body)
    want = _csv_parser_outcome(path)
    assert want[0] == ("α\nβ", "γ", "d")
    assert _outcome(path) == want
    assert csv_parsed == []
    assert [proc.returncode for proc in launched] == [0]
    _assert_reaped(launched)


def test_first_range_of_blank_lines_only(tmp_path, launched, csv_parsed):
    path = tmp_path / "blank.csv"
    path.write_bytes(b"x,y\n" + b"\n" * 400 + b"1,2\r\n3,4\n")
    want = _csv_parser_outcome(path)
    assert want[1] == np.array([[1.0, 2.0], [3.0, 4.0]]).tobytes()
    assert _outcome(path) == want
    assert csv_parsed == []
    # the cut falls among the blank lines, so the parent's range has no row
    assert int(launched[0].args[5]) < 404
    assert [proc.returncode for proc in launched] == [0]
    _assert_reaped(launched)


def test_child_that_cannot_start_sends_the_file_to_the_csv_parser(
    tmp_path, monkeypatch, csv_parsed
):
    def refuse(*args, **kwargs):
        raise OSError("no process")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    monkeypatch.setattr(_csvrows, "_SPLIT_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    path, chain = _chain_file(tmp_path, "chain.csv")
    assert _outcome(path) == (("a", "b", "c"), chain.values.tobytes())
    assert csv_parsed == [path]


def test_child_honours_a_raised_field_limit(tmp_path, launched):
    long_row = b"1,2," + b"0" * 200_000 + b"3"
    path, chain = _chain_file(tmp_path, "long.csv", long_row, rows=10_000)
    want = chain.values.copy()
    want[-1] = [1.0, 2.0, 3.0]
    old = csv.field_size_limit(1 << 20)
    try:
        got = read_chain_csv(path)
    finally:
        csv.field_size_limit(old)
    assert got.values.tobytes() == want.tobytes()
    assert [proc.returncode for proc in launched] == [0]
    _assert_reaped(launched)


# ---------------------------------------------------------------------------
# process hygiene


def test_no_child_outlives_a_parent_range_that_raises(tmp_path, launched,
                                                      monkeypatch):
    # the child's rows overfill the pipe, so it cannot exit on its own
    path, _ = _chain_file(tmp_path, "chain.csv", rows=10_000)

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(_csvrows, "read_rows", interrupted)
    with pytest.raises(KeyboardInterrupt):
        read_chain_csv(path)
    assert [proc.returncode for proc in launched] == [-signal.SIGKILL]
    _assert_reaped(launched)


def test_split_read_leaves_no_resource_warning(tmp_path, launched):
    clean, _ = _chain_file(tmp_path, "clean.csv")
    bad, _ = _chain_file(tmp_path, "bad.csv", b"1,2,inf")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        read_chain_csv(clean)
        with pytest.raises(OutputAnalysisError):
            read_chain_csv(bad)
        gc.collect()
    assert [str(w.message) for w in caught] == []
    assert len(launched) == 2


def test_small_file_starts_no_process(tmp_path, no_launch):
    path, chain = _chain_file(tmp_path, "small.csv")
    assert path.stat().st_size < _csvrows._SPLIT_BYTES
    assert read_chain_csv(path).values.tobytes() == chain.values.tobytes()


@pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "cpu-count"])
def test_single_cpu_starts_no_process(tmp_path, monkeypatch, no_launch, affinity):
    monkeypatch.setattr(_csvrows, "_SPLIT_BYTES", 1)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    path, chain = _chain_file(tmp_path, "chain.csv")
    assert read_chain_csv(path).values.tobytes() == chain.values.tobytes()


def test_piped_stdin_starts_no_process(tmp_path, fresh_python):
    path, chain = _chain_file(tmp_path, "chain.csv")
    code = (
        "from mcoutput import _csvrows\n"
        "from mcoutput.cli import read_chain_csv\n"
        "def refuse(*args):\n"
        "    raise AssertionError('a child process was started')\n"
        "_csvrows._launch = refuse\n"
        "_csvrows._SPLIT_BYTES = 1\n"
        "print(read_chain_csv('/dev/stdin').values.tobytes().hex())"
    )
    out = fresh_python("-c", code, stdin_text=path.read_text())
    assert out.returncode == 0, out.stderr
    assert out.stdout == chain.values.tobytes().hex() + "\n"


def test_child_module_loads_without_the_package(fresh_python):
    """A child runs the module from its file: numpy and the standard
    library only, and ``subprocess`` only once a split starts."""
    code = (
        "import runpy, sys\n"
        f"runpy.run_path({_csvrows.__file__!r})\n"
        "print(sorted(m for m in ('mcoutput', 'scipy', 'subprocess')"
        " if m in sys.modules))"
    )
    out = fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
