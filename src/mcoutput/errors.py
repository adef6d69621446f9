"""Exception types shared across the package, and the integer and level checks."""

import numpy as np


class OutputAnalysisError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(OutputAnalysisError):
    """Array shapes or column counts do not line up."""


class DataError(OutputAnalysisError):
    """Input values are unusable (non-finite or non-numeric)."""


class ParseError(DataError):
    """A delimited text file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ParameterError(OutputAnalysisError):
    """A configuration value is outside its admissible range."""


class InsufficientDataError(OutputAnalysisError):
    """The chain is too short for the requested computation."""


class DegenerateDataError(OutputAnalysisError):
    """The data carry no variation where variation is required."""


class SingularEstimateError(OutputAnalysisError):
    """A covariance estimate is not positive definite where it must be."""


class NumericsError(OutputAnalysisError):
    """A numeric routine failed to converge, or its arithmetic overflowed."""


class DegreesOfFreedomError(OutputAnalysisError):
    """Too few degrees of freedom for the requested distribution."""


class UsageError(OutputAnalysisError):
    """The command line was invoked with inconsistent arguments."""


def _require_int(value, what, low=None):
    """Raise ParameterError unless value is an integer (not a bool or a time
    span, which numpy counts as an integer) >= low."""
    if isinstance(value, (bool, np.timedelta64)) or not isinstance(
        value, (int, np.integer)
    ):
        raise ParameterError(f"{what} must be an integer")
    if low is not None and value < low:
        raise ParameterError(f"{what} must be >= {low}, got {value}")


def _is_real(value):
    """Whether value is a Python or numpy int or float, not a bool or time span."""
    real = isinstance(value, (int, float, np.integer, np.floating))
    return real and not isinstance(value, (bool, np.timedelta64))


def _require_unit(value, what):
    """Raise ParameterError unless value is a real number inside (0, 1)."""
    if not (_is_real(value) and 0.0 < value < 1.0):
        raise ParameterError(f"{what} must be inside (0, 1), got {value}")


def _require_alpha(alpha):
    """Raise ParameterError unless alpha is inside (0, 1) with 1 - alpha/2 < 1
    in floating point, that is, alpha > 2**-53."""
    _require_unit(alpha, "alpha")
    if 1.0 - alpha / 2.0 == 1.0:
        raise ParameterError(
            f"alpha must exceed 2**-53, got {alpha}: 1 - alpha/2 rounds to 1"
        )
