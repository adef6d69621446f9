"""The data rows of a chain CSV as ``np.loadtxt`` reads them: in one piece,
or, for a large file, in byte ranges after the header that child processes
parse at once.

Every range goes through ``read_rows``. A range that is not clean (a value
``loadtxt`` cannot read, bytes that are not UTF-8, a field over the csv
limit, a row of another width or a value that is not finite), a child that
fails and a file with no data row all raise ValueError; ``_csvtext.Child``
runs each child and raises it where one cannot start or fails. That
declines the whole read, so the csv-module parser, which reads the file
again from the start, decides every error and names its line.

This module imports only numpy and the standard library: a child runs it
from its file, without the mcoutput package, whose import loads scipy.
"""

import codecs
import csv
import io
import itertools
import os
import struct
import sys

import numpy as np

# A file of at least this many bytes is cut into ranges of at least half
# of it, one per CPU at most. Starting a child costs about 0.3 s, and two
# parses at once run slower than one: on 2 vCPUs the reader alone took
# 0.73 s whole and 0.98 s split at 24 MB, 0.93 s and 0.73 s at 32 MB.
_SPLIT_BYTES = 32 << 20
_COUNT = struct.Struct("=q")


def read_head(fh):
    """(header cells, the byte offset where the header record ends) of a
    chain file opened at its start; blank lines before the header are
    skipped. Raises ValueError where the file has no header."""
    bom = fh.buffer.peek(len(codecs.BOM_UTF8)).startswith(codecs.BOM_UTF8)
    seen = []

    def recorded(lines):
        for line in lines:
            seen.append(line)
            yield line

    header = next(filter(None, csv.reader(recorded(fh))), None)
    if header is None:
        raise ValueError("file is empty")
    end = sum(len(line.encode()) for line in seen)
    return header, end + bom * len(codecs.BOM_UTF8)


def read_rows(lines, width, limit):
    """The rows of ``lines`` as ``np.loadtxt`` reads them, a (rows, width)
    float array. Blank lines are skipped, and lines with no row give 0 rows
    without calling ``loadtxt``. Raises ValueError for a field longer than
    ``limit``, a row of another width or a value that is not finite."""

    def within_limit(line):
        if len(line) > limit:
            if max(map(len, line.rstrip("\r\n").split(","))) > limit:
                raise ValueError("field larger than field limit")
        return line

    lines = iter(lines)
    # loadtxt warns, rather than raises, when no data line follows
    first = next((line for line in lines if line.strip("\r\n")), None)
    if first is None:
        return np.empty((0, width))
    arr = np.loadtxt(
        map(within_limit, itertools.chain((first,), lines)),
        delimiter=",",
        comments=None,
        ndmin=2,
        dtype=float,
    )
    if arr.shape[1] != width:
        raise ValueError(f"expected {width} columns, got {arr.shape[1]}")
    if not np.isfinite(arr).all():
        raise ValueError("chain values must all be finite")
    return arr


def read_after_head(fh, head_end, width, limit):
    """The rows of the seekable chain file ``fh`` after its header, which
    ends at byte ``head_end``. A file of at least ``_SPLIT_BYTES`` is cut
    just after a ``\\n`` into ranges of at least half that, at most one per
    CPU, the first from ``head_end``; else ``fh`` is read on from there.
    Raises ValueError where a range declines or no data row follows."""
    fd = fh.fileno()
    size = os.fstat(fd).st_size
    cuts = _cuts(fd, size, head_end, _pieces(size))
    if cuts:
        arr = _read_ranges(fd, [head_end, *cuts, size], width, limit)
    else:
        arr = read_rows(fh, width, limit)
    if not len(arr):
        raise ValueError("no data rows after the header")
    return arr


def read_range(fd, start, end, width, limit):
    """``read_rows`` of bytes [start, end) of the open file ``fd``, decoded
    as UTF-8 and split as a ``newline=""`` handle splits them. Every range
    of a split read goes through here."""
    raw = io.BufferedReader(_ByteRange(fd, start, end), 1 << 16)
    with io.TextIOWrapper(raw, encoding="utf-8", newline="") as lines:
        return read_rows(lines, width, limit)


class _ByteRange(io.RawIOBase):
    """Bytes [start, end) of an open file, read with ``pread``: the file's
    own offset never moves, and the file is not closed with the range."""

    def __init__(self, fd, start, end):
        self._fd, self._pos, self._end = fd, start, end

    def readable(self):
        return True

    def readinto(self, buf):
        want = max(0, min(len(buf), self._end - self._pos))
        data = os.pread(self._fd, want, self._pos)
        memoryview(buf)[: len(data)] = data
        self._pos += len(data)
        return len(data)


def _pieces(size):
    if os.name != "posix":  # ranges need os.pread and Popen's pass_fds
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, 2 * size // _SPLIT_BYTES)


def _cuts(fd, size, head_end, pieces):
    """Where ranges 2..pieces start: just after the first ``\\n`` at or past
    an even share of the file. A share that ends inside the header gives
    no cut."""
    cuts = []
    for i in range(1, pieces):
        target = size * i // pieces
        cut = _after_newline(fd, target) if target >= head_end else None
        if cut is not None and cut < size and cut > (cuts[-1] if cuts else 0):
            cuts.append(cut)
    return cuts


def _after_newline(fd, pos):
    """The offset just after the first ``\\n`` at or past byte ``pos``."""
    while chunk := os.pread(fd, 1 << 16, pos):
        at = chunk.find(b"\n")
        if at >= 0:
            return pos + at + 1
        pos += len(chunk)
    return None


def _read_ranges(fd, bounds, width, limit):
    """Parse [bounds[0], bounds[1]) here and each later range in a child at
    the same time; the rows in file order. A range that declines, or a
    child that cannot start, raises ValueError. Every child is killed and
    reaped on return."""
    children = []
    try:
        for start, end in zip(bounds[1:-1], bounds[2:]):
            children.append(_launch(fd, start, end, width, limit))
        own = read_range(fd, bounds[0], bounds[1], width, limit)
        counts = [_COUNT.unpack(child.read(_COUNT.size))[0] for child in children]
        out = np.empty((len(own) + sum(counts), width))
        out[: len(own)] = own
        row = len(own)
        del own
        for child, count in zip(children, counts):
            child.readinto(out[row : row + count])
            child.wait()
            row += count
        return out
    finally:
        for child in children:
            child.close()


def _launch(fd, start, end, width, limit):
    """A child that runs ``_child`` on one range of ``fd``."""
    from ._csvtext import Child  # here: a child runs this without the package

    return Child(__file__, fd, start, end, width, limit, pass_fds=(fd,))


def _child(fd, start, end, width, limit):
    """Parse one range and write its row count, then the rows' own buffer,
    to stdout; exit with status 1, writing nothing, where it declines."""
    try:
        arr = read_range(fd, start, end, width, limit)
    except ValueError:
        sys.exit(1)
    with open(1, "wb", closefd=False) as out:
        out.write(_COUNT.pack(len(arr)))
        out.write(arr)


if __name__ == "__main__":
    _child(*map(int, sys.argv[2:]))
