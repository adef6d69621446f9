"""Property test for ``_CoMoments.update``, the stopping controller's Lambda,
handed a chain's rows at every check of a drawn schedule.

While n * p <= 2**19 each update starts over from all n rows, so its
estimate has exactly the bytes of ``sample_cov_lambda`` on those rows, or
raises the same error. Past that it merges only the new rows; where the
spread is not lost to the shift or to the ends of the double range, the
merged Lambda stays within 1e-13 of sqrt(Lambda_ii Lambda_jj) of an
extended-precision reference, the bound ``test_sample_cov_blocks.py``
gives the one-block estimate. A constant column raises
``DegenerateDataError`` naming the first one; any other failure is a typed
error, never a numpy warning.

Tier-1 runs 50 examples; a Hypothesis profile with more, such as
``long-run`` (``tests/conftest.py``), raises the count:
``pytest tests/test_comoments_property.py --hypothesis-profile=long-run``.
"""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mcoutput import ChainMatrix, sample_cov_lambda  # noqa: E402
from mcoutput.errors import DegenerateDataError, OutputAnalysisError  # noqa: E402
from mcoutput.mcse import _GRAM_VALUES, _CoMoments  # noqa: E402

SHIFTS = (0.0, 3.0, 1e3, 1e6)
# the merged Lambda's bound, relative to sqrt(Lambda_ii Lambda_jj)
BOUND = 1e-13


@st.composite
def schedules(draw):
    """(chain values, strictly growing row counts, scale, shift). The counts
    stay under 400 for p < 4; for p >= 4 they run from half the edge,
    2**19 // p rows, the most one rebuild takes, to a quarter past it, with
    at least one count on each side. Steps of one row come often, across
    the edge too. Values are uniform on (-1, 1) times the scale 2**k plus
    the shift; a constant column comes one time in four."""
    p = draw(st.integers(1, 8))
    edge = _GRAM_VALUES // p
    if p < 4:
        low, high = 2, 400
        lengths = set()
    else:
        low, high = edge // 2, edge + edge // 4
        lengths = {draw(st.integers(low, edge)), draw(st.integers(edge + 1, high))}
        if draw(st.booleans()):
            lengths |= {edge, edge + 1}
    lengths |= set(draw(st.lists(st.integers(low, high), min_size=1, max_size=4)))
    for n in draw(st.lists(st.sampled_from(sorted(lengths)), max_size=2)):
        lengths.add(n + 1)
    lengths = sorted(lengths)
    seed = draw(st.integers(0, 2**32 - 1))
    scale = 2.0 ** draw(st.integers(-1074, 1023) | st.integers(-8, 8))
    shift = draw(st.sampled_from(SHIFTS)) * draw(st.sampled_from((1.0, -1.0)))
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (lengths[-1], p)) * scale + shift
    if draw(st.integers(0, 3)) == 0:
        x[:, draw(st.integers(0, p - 1))] = shift
    return x, lengths, scale, shift


def _bounded(scale, shift):
    """Whether merged Lambdas are held to ``BOUND``: the spread is at least
    2**-20 of the shift, and its squares stay clear of the ends of the
    double range."""
    return 2.0**-400 <= scale <= 2.0**400 and abs(shift) <= 2.0**20 * scale


def _references(x, lengths):
    """Lambda of x[:n] for each n in ``lengths``, in extended precision:
    co-moments about the first row, summed over each step's new rows."""
    c = x.astype(np.longdouble) - x[0]
    s1, s2, last = 0, 0, 0
    for n in lengths:
        s1 = s1 + c[last:n].sum(axis=0)
        s2 = s2 + c[last:n].T @ c[last:n]
        last = n
        yield (s2 - np.outer(s1, s1) / n) / n


def _outcome(moments, head):
    """The estimate after ``moments.update(head)``, or the typed error."""
    try:
        moments.update(head)
        return moments.estimate(ChainMatrix(head))
    except OutputAnalysisError as exc:
        return exc


def _one_block(head):
    try:
        return sample_cov_lambda(ChainMatrix(head))
    except OutputAnalysisError as exc:
        return exc


@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=max(50, settings().max_examples),
)
@given(schedules())
def test_updates_rebuild_exactly_and_merge_within_the_bound(schedule):
    x, lengths, scale, shift = schedule
    p = x.shape[1]
    moments = _CoMoments(p, lengths[-1])
    # the first row at which each column leaves its first value; 0 if none
    moved = (x != x[0]).argmax(axis=0)
    refs = _references(x, lengths) if _bounded(scale, shift) else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in lengths:
            head = x[:n]
            got = _outcome(moments, head)
            ref = None if refs is None else next(refs)
            assert moments.count == n
            constant = np.flatnonzero((moved == 0) | (moved >= n))
            if constant.size:
                assert isinstance(got, DegenerateDataError), got
                assert str(got) == f"column 'col{constant[0]}' is constant"
            elif n * p <= _GRAM_VALUES:
                want = _one_block(head)
                if isinstance(want, OutputAnalysisError):
                    assert (type(got), str(got)) == (type(want), str(want))
                else:
                    assert got.matrix.tobytes() == want.matrix.tobytes(), n
            elif isinstance(got, OutputAnalysisError):
                assert not isinstance(got, DegenerateDataError), got
            elif ref is not None:
                d = np.sqrt(np.diag(ref))
                err = np.abs(got.matrix - ref) / np.outer(d, d)
                assert err.max() <= BOUND, (n, float(err.max()))
