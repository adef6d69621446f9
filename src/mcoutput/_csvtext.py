"""The cells and line end of every CSV the package writes, the package's
one child-process launcher, and the child that formats the demo's per-draw
tables while its sampler runs.

``cli._write_csv`` writes a float cell as ``FLOAT``, every other cell (an
integer index or lag, a marker kind) as ``OTHER`` and ends each line with
``EOL``. The demo's two per-draw tables (chain and params) hold most of its
bytes: :class:`DrawTables` streams each run of new draws to one child,
which formats the tables' bodies with the same cells on the CPU the
sampler leaves idle and appends them to their files.

The parent sends each run as its row count, then the run's (k, 2)
functional rows and its (k, 2) parameter rows as native doubles. The end
frame is the count -1, then the paths of the chain and params files,
NUL-separated, and the end of input. The child appends each body to its
file, which already holds its header: the bytes ``_write_csv`` writes
after that header. It then replies with its row count alone.

:class:`Child` runs this child and the split read's (``_csvrows``). Both
decline one way: a child that cannot start, a short reply or a non-zero
exit raises ValueError, and the caller does the work in process. This
module imports only the standard library: the child runs it from its file
with ``python -S``, without numpy, scipy or the mcoutput package.
"""

import contextlib
import os
import struct
import sys

FLOAT = "%.17g"  # 17 significant digits read back as the same double
OTHER = "%s"
EOL = "\r\n"
_ROW = FLOAT + "," + FLOAT + EOL  # a per-draw line: two floats

_RUN = struct.Struct("=q")
_END = _RUN.pack(-1)
_DOUBLE = struct.calcsize("d")
_CHILD = "import runpy, sys; runpy.run_path(sys.argv[1], run_name='__main__')"


class Bodies:
    """The two per-draw bodies, chain and params, formatted one run at a
    time."""

    def __init__(self):
        self.rows = 0
        self.parts = ([], [])

    def add(self, run):
        """Format one run: the bytes of its (k, 2) functional rows, then of
        its (k, 2) parameter rows, as native doubles."""
        values = memoryview(run).cast("d")
        k = len(values) // 4
        for body, half in zip(self.parts, (values[: 2 * k], values[2 * k :])):
            body.append((_ROW * k % tuple(half)).encode())
        self.rows += k


class Child:
    """A child that runs the module at ``path`` as ``__main__`` on ``args``,
    its stdout piped and its stderr discarded; ValueError where it cannot
    start. :meth:`close` kills and reaps it and closes its pipes."""

    def __init__(self, path, *args, flags=(), stdin=False, pass_fds=()):
        import subprocess

        try:
            self._proc = subprocess.Popen(
                [sys.executable, *flags, "-c", _CHILD, path, *map(str, args)],
                stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                pass_fds=pass_fds,
            )
        except OSError as exc:
            raise ValueError(f"cannot start a child: {exc}") from None

    def read(self, size):
        """The next ``size`` bytes of the reply; ValueError where it ends short."""
        data = self._proc.stdout.read(size)
        if len(data) < size:
            raise ValueError("the child's reply ended short")
        return data

    def readinto(self, buf):
        """Fill ``buf`` from the reply; ValueError where it ends short."""
        if self._proc.stdout.readinto(buf) < memoryview(buf).nbytes:
            raise ValueError("the child's reply ended short")

    def wait(self):
        """Reap the child; ValueError where it exited non-zero."""
        if status := self._proc.wait():
            raise ValueError(f"the child exited with status {status}")

    def close(self):
        self._proc.kill()
        self._proc.wait()
        for pipe in filter(None, (self._proc.stdin, self._proc.stdout)):
            with contextlib.suppress(OSError):  # a refused write stays buffered
                pipe.close()


class DrawTables(Child):
    """The child that formats the per-draw bodies while the sampler runs:
    :meth:`send` is ``run_demo``'s ``on_draws``. After the run,
    :meth:`finish` has it append each body to its file and reaps it; it
    raises ValueError where the child declines."""

    def __init__(self):
        super().__init__(__file__, flags=("-S",), stdin=True)
        self._broken = False

    def send(self, functionals, params):
        """Send one run of draws; after a broken pipe, send nothing more."""
        if self._broken:
            return
        pipe = self._proc.stdin
        try:
            pipe.writelines((_RUN.pack(len(functionals)), functionals, params))
            pipe.flush()
        except OSError:
            self._broken = True

    def finish(self, paths, rows):
        """End the child's input with ``paths``, the chain and params files,
        each holding its header; the child appends each body to its file.
        ValueError where a pipe broke, the child's row count is not
        ``rows`` or it exited non-zero."""
        pipe = self._proc.stdin
        try:
            if not self._broken:
                pipe.writelines((_END, b"\0".join(map(os.fsencode, paths))))
            pipe.close()
        except OSError:
            self._broken = True
        if self._broken:
            raise ValueError("the pipe to the child broke")
        (count,) = _RUN.unpack(self.read(_RUN.size))
        if count != rows:
            raise ValueError(f"the child formatted {count} rows, not {rows}")
        self.wait()


def _child():
    """Format the runs on stdin, append each body to its file named in the
    end frame, then reply with the row count; exit with status 1, appending
    nothing, where a run ends early or the input ends before the end frame."""
    src, bodies = sys.stdin.buffer, Bodies()
    while (head := src.read(_RUN.size)) != _END:
        if len(head) < _RUN.size:
            sys.exit(1)
        size = 4 * _DOUBLE * _RUN.unpack(head)[0]
        run = src.read(size)
        if len(run) < size:
            sys.exit(1)
        bodies.add(run)
    paths = src.read().split(b"\0")
    for path, body in zip(paths, bodies.parts, strict=True):
        with open(path, "ab") as out:
            out.writelines(body)
    sys.stdout.buffer.write(_RUN.pack(bodies.rows))


if __name__ == "__main__":
    _child()
