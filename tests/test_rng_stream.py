"""Differential test: RngStream's block-buffered draws against one
Generator call per draw, over random interleavings of scalar and array
draws that cross the block boundary."""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mcoutput import RngStream  # noqa: E402
from mcoutput.chain import _BLOCK  # noqa: E402

# (kind, size, repeat): ``repeat`` scalar draws when size is None, else one
# array draw of ``size``; long scalar runs cross the block boundary often
scalar_runs = st.tuples(
    st.sampled_from(["uniform", "normal"]), st.none(), st.integers(1, 3000)
)
array_draws = st.tuples(
    st.sampled_from(["uniform", "normal"]), st.integers(0, 50), st.just(1)
)
programs = st.lists(st.one_of(scalar_runs, array_draws), max_size=12)


@settings(database=None, deadline=None)
@example([("uniform", None, _BLOCK - 1), ("normal", 3, 1),
          ("normal", None, _BLOCK + 1), ("uniform", 0, 1)])
@example([("normal", None, _BLOCK), ("uniform", None, 1), ("uniform", 2, 1)])
@given(programs)
def test_buffered_draws_equal_unbuffered_draws(
    unbuffered_stream, philox_position, program
):
    rng, ref = RngStream(29, 3), unbuffered_stream(29, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, size, repeat in program:
            if size is None:
                for _ in range(repeat):
                    got, want = getattr(rng, kind)(), getattr(ref, kind)()
                    assert type(got) is float and got == want
            else:
                got, want = getattr(rng, kind)(size), getattr(ref, kind)(size)
                assert got.tobytes() == want.tobytes()
                assert philox_position(rng) == philox_position(ref)
    rng._sync()
    assert philox_position(rng) == philox_position(ref)
    assert rng.uniform() == ref.uniform()
