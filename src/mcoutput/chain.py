"""Chain storage and reproducible random streams.

A chain is an n-by-p matrix: one row per retained draw, one column per
component of the functional whose expectation is being estimated.
"""

import numpy as np
from scipy.special import ndtri

from .errors import (
    DataError,
    DimensionError,
    InsufficientDataError,
    ParameterError,
    _require_int,
)

__all__ = [
    "ChainMatrix",
    "RngStream",
    "discard_initial",
]

_TWO63 = 2**63
_TWO64 = 2**64
# smallest uniform handed out; keeps the inverse normal CDF finite
_OPEN_LOW = 2.0**-53
# uniforms drawn at once to serve scalar draws
_BLOCK = 4096
# numpy scalars that a float cast turns into counts of their unit
_TIMES = (np.datetime64, np.timedelta64)


class RngStream:
    """Counter-based random stream addressed by (seed, stream_id).

    The stream wraps a Philox-4x64 counter generator keyed by the pair,
    so equal pairs replay the identical draw sequence and distinct
    stream ids give statistically independent streams without any
    coordination. Normal variates are produced by inverting the standard
    normal CDF on open-interval uniforms (one uniform per normal, in call
    order), which keeps every draw a pure function of the uniform
    sequence. That convention is relied on by the Weibull demo for
    seed-reproducible output.

    Both keys are integers in [-2**63, 2**63), the range that maps
    one-to-one onto the generator's two 64-bit key words.

    Scalar draws are served from a block of ``_BLOCK`` uniforms drawn at
    once, with the inverse normal CDF of each kept beside it; Philox
    ``random(k)`` gives the same doubles as k scalar ``random()`` calls.
    Array draws first return the generator to the position of the last
    uniform handed out, so the sequence is the same as unbuffered draws.
    """

    def __init__(self, seed, stream_id=0):
        for value, what in ((seed, "seed"), (stream_id, "stream_id")):
            _require_int(value, what)
            if not -_TWO63 <= value < _TWO63:
                raise ParameterError(
                    f"{what} must be in [-2**63, 2**63), got {value}"
                )
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array(
            [self.seed % _TWO64, self.stream_id % _TWO64], dtype=np.uint64
        )
        self._gen = np.random.Generator(np.random.Philox(key=key))
        # the block: generator state before it, its uniforms, their normals,
        # and the index of the next unused entry (_BLOCK when none is left)
        self._saved = None
        self._u = self._z = ()
        self._pos = _BLOCK

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def _refill(self):
        """Draw the next block; scalar draws read it from index 0."""
        self._saved = self._gen.bit_generator.state
        u = np.maximum(self._gen.random(_BLOCK), _OPEN_LOW)
        self._u = u.tolist()
        self._z = ndtri(u).tolist()
        self._pos = 0

    def _sync(self):
        """Leave the generator just past the last uniform handed out."""
        if self._pos < _BLOCK:
            self._gen.bit_generator.state = self._saved
            self._gen.random(self._pos)
            self._pos = _BLOCK

    def uniform(self, size=None):
        """Uniform draws on the open interval (0, 1).

        Returns a float when ``size`` is None, else an ndarray.
        """
        if size is None:
            # inlined here and in normal(): a sampler scan makes four draws
            if self._pos == _BLOCK:
                self._refill()
            self._pos += 1
            return self._u[self._pos - 1]
        self._sync()
        u = self._gen.random(size)
        return np.maximum(u, _OPEN_LOW)

    def normal(self, size=None):
        """Standard normal draws via inverse-CDF on :meth:`uniform`."""
        if size is None:
            if self._pos == _BLOCK:
                self._refill()
            self._pos += 1
            return self._z[self._pos - 1]
        return ndtri(self.uniform(size))


def _float_array(data, copy, what="chain"):
    """``data`` as a float64 array, always a new one when ``copy``. Bool,
    integer and numeric-string values are cast. Anything else raises
    DataError: complex values, whose imaginary parts the cast would drop,
    datetimes and time spans, also among other objects, and records, which
    it would turn into counts or fields, and data it cannot cast: text,
    ragged rows, mappings."""
    try:
        arr = np.asarray(data)
        kind, got = arr.dtype.kind, arr.dtype
        if kind == "O":
            time = next((v for v in arr.flat if isinstance(v, _TIMES)), None)
            if time is not None:
                kind, got = "M", type(time).__name__
        if kind not in "cmMV":
            return arr.astype(float, copy=copy)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{what} values must be numbers: {exc}") from None
    need = "real" if kind == "c" else "numbers"
    raise DataError(f"{what} values must be {need}, got {got} values")


class ChainMatrix:
    """Immutable n-by-p record of functional evaluations.

    Parameters
    ----------
    data : array_like
        Two-dimensional (rows are draws). A one-dimensional input is
        treated as a single column, i.e. a univariate series.
    labels : sequence of str, optional
        One label per column.

    Notes
    -----
    The stored array is marked read-only, so estimates taken from a
    ChainMatrix can never be invalidated by later changes. Zero rows are
    allowed; every estimator enforces its own minimum length.
    """

    __slots__ = ("_data", "labels")

    def __init__(self, data, labels=None):
        arr = _float_array(data, copy=True)
        if not np.isfinite(arr).all():
            raise DataError("chain values must all be finite")
        self._freeze(arr, labels)

    @classmethod
    def _adopt(cls, arr, labels=None):
        """Wrap a float64 array the package owns, without copying it.

        ``arr`` is fresh, or a view of a package-owned buffer whose rows
        under the view are never written again. Every caller has already
        found its values finite (the file readers as they parse, the
        stopping controller block by block, :func:`discard_initial` from
        a chain's rows; an indicator series holds only 0.0 and 1.0), so
        only the shape and label checks of ``ChainMatrix(arr)`` are made;
        ``arr`` itself is then marked read-only, so no caller may keep a
        writable reference.
        """
        chain = cls.__new__(cls)
        chain._freeze(arr, labels)
        return chain

    def _freeze(self, arr, labels):
        """Check a float array and its labels, then store it read-only."""
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise DimensionError(
                f"chain data must be 1- or 2-dimensional, got ndim={arr.ndim}"
            )
        if arr.shape[1] < 1:
            raise DimensionError("chain needs at least one column")
        if labels is not None:
            labels = tuple(str(lab) for lab in labels)
            if len(labels) != arr.shape[1]:
                raise DimensionError(
                    f"{len(labels)} labels for {arr.shape[1]} columns"
                )
        arr.setflags(write=False)
        self._data = arr
        self.labels = labels

    @property
    def values(self):
        """Read-only view of the underlying (rows, cols) array."""
        return self._data

    @property
    def rows(self):
        return self._data.shape[0]

    @property
    def cols(self):
        return self._data.shape[1]

    def column(self, i):
        """Read-only 1-D view of column ``i``."""
        if not 0 <= i < self.cols:
            raise DimensionError(f"column {i} out of range for p={self.cols}")
        return self._data[:, i]

    def label(self, i):
        if self.labels is not None:
            return self.labels[i]
        return f"col{i}"

    def __repr__(self):
        return f"ChainMatrix(rows={self.rows}, cols={self.cols})"


def discard_initial(chain, k):
    """Drop the first ``k`` rows (burn-in): a read-only view of the chain's
    rows from ``k`` on, so no value is copied or scanned again."""
    _require_int(k, "discard count", 0)
    if k >= chain.rows:
        raise InsufficientDataError(
            f"discarding {k} rows leaves nothing of a {chain.rows}-row chain"
        )
    return ChainMatrix._adopt(chain.values[k:], chain.labels)
