"""Chain storage, reproducible random streams, and synthetic AR(1) chains.

A chain is an n-by-p matrix: one row per retained draw, one column per
component of the functional whose expectation is being estimated.
"""

from dataclasses import dataclass, field

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
    "Ar1Spec",
    "discard_initial",
    "generate_ar1",
]

_TWO64 = 2**64
# smallest uniform handed out; keeps the inverse normal CDF finite
_OPEN_LOW = 2.0**-53
# uniforms drawn at once to serve scalar draws
_BLOCK = 4096


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

    Scalar draws are served from a block of ``_BLOCK`` uniforms drawn at
    once, with the inverse normal CDF of each kept beside it; Philox
    ``random(k)`` gives the same doubles as k scalar ``random()`` calls.
    Array draws first return the generator to the position of the last
    uniform handed out, so the sequence is the same as unbuffered draws.
    """

    def __init__(self, seed, stream_id=0):
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
        arr = np.array(data, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise DimensionError(
                f"chain data must be 1- or 2-dimensional, got ndim={arr.ndim}"
            )
        if arr.shape[1] < 1:
            raise DimensionError("chain needs at least one column")
        if arr.size and not np.isfinite(arr).all():
            raise DataError("chain values must all be finite")
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
    """Drop the first ``k`` rows (burn-in); ``k=0`` is an identity copy."""
    _require_int(k, "discard count", 0)
    if k >= chain.rows:
        raise InsufficientDataError(
            f"discarding {k} rows leaves nothing of a {chain.rows}-row chain"
        )
    return ChainMatrix(chain.values[k:], chain.labels)


@dataclass(frozen=True)
class Ar1Spec:
    """First-order autoregression used for synthetic test chains.

    X_t = rho * X_{t-1} + e_t with e_t ~ N(0, innovation_sd^2 * C) where C
    is the optional innovation correlation across the ``dim`` components
    (identity when omitted). The first draw comes from the stationary law,
    so the generated chain is stationary from row one.
    """

    rho: float
    innovation_sd: float = 1.0
    dim: int = 1
    cross_correlation: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if not abs(self.rho) < 1.0:
            raise ParameterError(f"|rho| must be < 1, got {self.rho}")
        if not self.innovation_sd > 0.0:
            raise ParameterError("innovation_sd must be positive")
        if self.dim < 1:
            raise ParameterError("dim must be >= 1")
        if self.cross_correlation is not None:
            c = np.asarray(self.cross_correlation, dtype=float)
            if c.shape != (self.dim, self.dim):
                raise DimensionError(
                    f"cross_correlation must be {self.dim}x{self.dim}"
                )
            if not np.allclose(c, c.T, atol=1e-12):
                raise ParameterError("cross_correlation must be symmetric")
            object.__setattr__(self, "cross_correlation", c)

    @property
    def stationary_variance(self):
        """Per-component variance of the stationary law."""
        return self.innovation_sd**2 / (1.0 - self.rho**2)


def generate_ar1(spec, n, rng):
    """Simulate ``n`` rows of the AR(1) chain described by ``spec``.

    Consumes exactly n * dim normals from ``rng`` in row-major order.
    """
    from scipy.signal import lfilter

    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    z = rng.normal(size=(int(n), spec.dim))
    if spec.cross_correlation is not None:
        try:
            chol = np.linalg.cholesky(spec.cross_correlation)
        except np.linalg.LinAlgError:
            raise ParameterError(
                "cross_correlation must be positive definite"
            ) from None
        eps = (z @ chol.T) * spec.innovation_sd
    else:
        eps = z * spec.innovation_sd
    # stationary start: var(X_1) = innovation variance / (1 - rho^2)
    eps[0] *= 1.0 / np.sqrt(1.0 - spec.rho**2)
    x = lfilter([1.0], [1.0, -spec.rho], eps, axis=0)
    return ChainMatrix(x)
