"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

import mcoutput

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    # a long run of the property tests that the long-run step of
    # .github/workflows/tests.yml names
    settings.register_profile(
        "long-run", max_examples=3000, derandomize=True, database=None,
        deadline=None,
    )


class UnbufferedStream:
    """RngStream's draw rules with one Generator call per draw.

    The reference for RngStream's block-buffered scalar path: scalar
    uniforms are ``max(random(), 2**-53)``, scalar normals their inverse
    normal CDF, and array draws the same on ``random(size)``.
    """

    def __init__(self, seed, stream_id=0):
        key = np.array([seed % 2**64, stream_id % 2**64], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def _sync(self):
        """Nothing is buffered, so the generator is always in position."""

    def uniform(self, size=None):
        if size is None:
            return max(self._gen.random(), 2.0**-53)
        return np.maximum(self._gen.random(size), 2.0**-53)

    def normal(self, size=None):
        if size is None:
            return float(ndtri(self.uniform()))
        return ndtri(self.uniform(size))


def _philox_position(stream):
    """(counter, buffer position) of a stream's Philox generator."""
    state = stream._gen.bit_generator.state
    return state["state"]["counter"].tolist(), state["buffer_pos"]


@pytest.fixture(scope="session")
def unbuffered_stream():
    return UnbufferedStream


@pytest.fixture(scope="session")
def philox_position():
    return _philox_position


def _fresh_python(*args, stdin_text=None):
    """Run a new interpreter that imports this checkout's mcoutput, with
    ``stdin_text`` written to its standard input through a pipe."""
    src = str(Path(mcoutput.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, input=stdin_text,
    )


@pytest.fixture(scope="session")
def fresh_python():
    return _fresh_python
