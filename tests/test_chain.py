"""Chain container, random streams, and the synthetic AR(1) generator."""

import hashlib
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from mcoutput import (
    ChainMatrix,
    RngStream,
    StoppingConfig,
    discard_initial,
    stopping_controller,
)
from mcoutput.errors import (
    DataError,
    DimensionError,
    InsufficientDataError,
    ParameterError,
)
from oracles import Ar1Spec, generate_ar1


def test_rng_stream_is_reproducible():
    a = RngStream(42, 7)
    b = RngStream(42, 7)
    np.testing.assert_array_equal(a.uniform(100), b.uniform(100))
    np.testing.assert_array_equal(a.normal(100), b.normal(100))


@pytest.mark.parametrize(
    "seed, stream_id, name",
    [
        (1.5, 0, "seed"),
        ("7", 0, "seed"),
        (True, 0, "seed"),
        (1, 0.5, "stream_id"),
        (1, None, "stream_id"),
    ],
)
def test_rng_stream_rejects_non_integer_keys(seed, stream_id, name):
    with pytest.raises(ParameterError, match=f"^{name} must be an integer$"):
        RngStream(seed, stream_id)


def test_rng_stream_accepts_negative_and_numpy_integer_keys():
    a = RngStream(-1, np.int64(-2))
    b = RngStream(-1, -2)
    assert repr(a) == "RngStream(seed=-1, stream_id=-2)"
    np.testing.assert_array_equal(a.uniform(5), b.uniform(5))


@pytest.mark.parametrize(
    "seed, stream_id, name, value",
    [
        (2**63, 0, "seed", 2**63),
        (2**64, 0, "seed", 2**64),
        (-(2**63) - 1, 0, "seed", -(2**63) - 1),
        (np.uint64(2**64 - 1), 0, "seed", 2**64 - 1),
        (0, 2**64, "stream_id", 2**64),
    ],
)
def test_rng_stream_rejects_keys_outside_int64(seed, stream_id, name, value):
    """Keys were reduced modulo 2**64, so 2**64 replayed seed 0."""
    with pytest.raises(ParameterError) as info:
        RngStream(seed, stream_id)
    assert str(info.value) == f"{name} must be in [-2**63, 2**63), got {value}"


def test_rng_stream_int64_extremes_are_distinct_streams():
    ends = [RngStream(2**63 - 1), RngStream(-(2**63)), RngStream(-1), RngStream(0)]
    draws = {tuple(s.uniform(4)) for s in ends}
    assert len(draws) == 4
    np.testing.assert_array_equal(
        RngStream(0, 2**63 - 1).uniform(3), RngStream(0, np.int64(2**63 - 1)).uniform(3)
    )


def test_rng_distinct_streams_differ():
    a = RngStream(42, 0)
    b = RngStream(42, 1)
    assert not np.array_equal(a.uniform(64), b.uniform(64))


def test_rng_uniform_open_interval():
    u = RngStream(0).uniform(200_000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_rng_scalar_matches_array_draws():
    """A scalar draw consumes exactly one slot of the underlying sequence."""
    a = RngStream(3, 1)
    b = RngStream(3, 1)
    singles = np.array([a.normal() for _ in range(10)])
    np.testing.assert_array_equal(singles, b.normal(10))


def test_rng_normal_moments():
    z = RngStream(11).normal(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_chain_univariate_input_becomes_column():
    c = ChainMatrix([1.0, 2.0, 3.0])
    assert c.rows == 3
    assert c.cols == 1
    np.testing.assert_array_equal(c.column(0), [1.0, 2.0, 3.0])


def test_chain_values_are_read_only():
    c = ChainMatrix([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        c.values[0, 0] = 99.0


def test_chain_copies_the_callers_array():
    a = np.arange(6.0).reshape(3, 2)
    chain = ChainMatrix(a)
    assert not np.shares_memory(chain.values, a)
    assert a.flags.writeable
    a[0, 0] = 99.0
    assert chain.values[0, 0] == 0.0


def test_adopted_array_is_shared_and_frozen():
    a = np.arange(6.0)
    chain = ChainMatrix._adopt(a, ["x"])
    assert np.shares_memory(chain.values, a)
    assert chain.values.shape == (6, 1)
    assert chain.labels == ("x",)
    assert not chain.values.flags.writeable
    with pytest.raises(DimensionError):
        ChainMatrix._adopt(np.zeros((2, 2)), ["only_one"])


def test_chain_rejects_non_finite():
    with pytest.raises(DataError):
        ChainMatrix([1.0, np.nan, 2.0])
    with pytest.raises(DataError):
        ChainMatrix([[1.0], [np.inf]])


@pytest.mark.parametrize(
    "data",
    [
        np.array([[1 + 2j, 2], [3, 4]]),
        [[1 + 2j, 2.0], [3.0, 4.0]],
        np.array([1.0, 2.0], dtype=np.complex64),
    ],
    ids=["array", "list", "complex64"],
)
def test_chain_refuses_complex_values(data):
    """The float cast would keep only the real parts, or fail untyped."""
    with pytest.raises(DataError, match="^chain values must be real, got complex"):
        ChainMatrix(data)


def _first_block(data):
    """``data`` as the first sampler block of a stopping controller."""
    config = StoppingConfig(p=2, n_star=len(data), max_n=len(data))
    stopping_controller(lambda k, rng: data, config, None)


_DAY = np.datetime64("2020-01-01")
_SPAN = np.timedelta64(3, "D")


@pytest.mark.parametrize(
    "intake, data, message",
    [
        (ChainMatrix, [[1.0, "abc"]], "numbers: could not convert string to float"),
        (
            ChainMatrix,
            [[1.0, 2.0], [3.0]],
            "numbers: setting an array element with a sequence",
        ),
        (ChainMatrix, {"a": 1.0}, "numbers: float() argument must be"),
        (
            ChainMatrix,
            np.zeros(3, dtype=[("a", float), ("b", float)]),
            "numbers, got [(",
        ),
        (
            ChainMatrix,
            np.arange(3).astype("datetime64[D]"),
            "numbers, got datetime64[D] values",
        ),
        (
            ChainMatrix,
            np.arange(3).astype("timedelta64[s]"),
            "numbers, got timedelta64[s] values",
        ),
        (ChainMatrix, [_DAY, 2.0], "numbers, got datetime64 values"),
        (
            ChainMatrix,
            np.array([_SPAN, 1.0], dtype=object),
            "numbers, got timedelta64 values",
        ),
        (
            _first_block,
            np.array([[1.0, 2.0]] * 7 + [[1.0, _DAY]], dtype=object),
            "numbers, got datetime64 values",
        ),
    ],
    ids=[
        "text", "ragged", "dict", "record", "datetime64", "timedelta64",
        "datetime-in-list", "timedelta-in-object-array", "datetime-in-block",
    ],
)
def test_chain_refuses_non_numeric_values(intake, data, message):
    """Each used to raise an untyped ValueError or TypeError, or, for
    datetimes and time spans, also inside a list or an object array, to be
    stored as counts."""
    with pytest.raises(DataError) as info:
        intake(data)
    assert str(info.value).startswith(f"chain values must be {message}")


def test_chain_casts_decimal_fraction_and_mixed_objects():
    """Other objects that float() takes stay accepted."""
    data = np.array([Decimal("1.5"), Fraction(1, 4), True, 3, "2.5"], dtype=object)
    np.testing.assert_array_equal(
        ChainMatrix(data).column(0), [1.5, 0.25, 1.0, 3.0, 2.5]
    )


def test_chain_casts_bool_and_numeric_string_values():
    flags = ChainMatrix(np.array([[True, False], [False, True]]))
    assert flags.values.dtype == np.float64
    np.testing.assert_array_equal(flags.values, [[1.0, 0.0], [0.0, 1.0]])
    text = ChainMatrix(np.full((2, 2), "1.5"))
    np.testing.assert_array_equal(text.values, np.full((2, 2), 1.5))
    counts = ChainMatrix(np.arange(4, dtype=np.int8))
    np.testing.assert_array_equal(counts.values, [[0.0], [1.0], [2.0], [3.0]])


def test_chain_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        ChainMatrix(np.zeros((2, 2, 2)))
    with pytest.raises(DimensionError):
        ChainMatrix(np.empty((4, 0)))


def test_chain_labels():
    c = ChainMatrix([[1.0, 2.0]], labels=("x", "y"))
    assert c.label(0) == "x"
    assert c.label(1) == "y"
    bare = ChainMatrix([[1.0, 2.0]])
    assert bare.label(1) == "col1"
    with pytest.raises(DimensionError):
        ChainMatrix([[1.0, 2.0]], labels=("only_one",))


def test_chain_allows_zero_rows():
    empty = ChainMatrix(np.empty((0, 2)), labels=("u", "v"))
    assert empty.rows == 0
    assert empty.cols == 2
    assert empty.labels == ("u", "v")


def test_discard_initial():
    c = ChainMatrix(np.arange(6.0))
    np.testing.assert_array_equal(discard_initial(c, 0).values, c.values)
    np.testing.assert_array_equal(discard_initial(c, 4).column(0), [4.0, 5.0])
    with pytest.raises(ParameterError):
        discard_initial(c, -1)
    with pytest.raises(InsufficientDataError):
        discard_initial(c, 6)


def test_discard_initial_keeps_a_read_only_view():
    """No copy of the kept rows, and no way to write through the view."""
    c = ChainMatrix(np.arange(40.0).reshape(20, 2), labels=("a", "b"))
    kept = discard_initial(c, 10)
    assert np.shares_memory(c.values, kept.values)
    assert kept.labels == ("a", "b")
    assert not kept.values.flags.writeable
    with pytest.raises(ValueError):
        kept.values.setflags(write=True)


def test_ar1_spec_validation():
    with pytest.raises(ParameterError):
        Ar1Spec(rho=1.0)
    with pytest.raises(ParameterError):
        Ar1Spec(rho=0.5, innovation_sd=0.0)
    with pytest.raises(ParameterError):
        Ar1Spec(rho=0.5, dim=0)
    with pytest.raises(ParameterError):
        Ar1Spec(rho=0.5, dim=2, cross_correlation=[[1.0, 0.3], [0.2, 1.0]])
    with pytest.raises(DimensionError):
        Ar1Spec(rho=0.5, dim=2, cross_correlation=np.eye(3))


def test_ar1_stationary_variance_formula():
    spec = Ar1Spec(rho=0.6, innovation_sd=2.0)
    assert spec.stationary_variance == pytest.approx(4.0 / (1.0 - 0.36))


def test_generate_ar1_reproducible():
    spec = Ar1Spec(rho=0.5)
    x = generate_ar1(spec, 500, RngStream(9))
    y = generate_ar1(spec, 500, RngStream(9))
    np.testing.assert_array_equal(x.values, y.values)


def test_generate_ar1_pinned_chain():
    """Every seeded test chain rests on these bits: one column, so no BLAS
    product is involved and the hash holds on any numpy."""
    x = generate_ar1(Ar1Spec(rho=0.5), 1000, RngStream(9))
    assert hashlib.sha256(x.values.tobytes()).hexdigest() == (
        "41114df9adc49ac02fcd53d7fb228641cc1114316708aeeb166ac9839d57a80d"
    )


def test_generate_ar1_consumes_n_dim_normals():
    """The generator leaves the stream exactly n*dim draws ahead."""
    spec = Ar1Spec(rho=0.3, dim=2)
    used = RngStream(17)
    generate_ar1(spec, 40, used)
    fresh = RngStream(17)
    fresh.normal(size=(40, 2))
    assert used.uniform() == fresh.uniform()


def test_generate_ar1_matches_theory():
    spec = Ar1Spec(rho=0.8)
    x = generate_ar1(spec, 200_000, RngStream(23)).column(0)
    var_target = spec.stationary_variance
    assert np.var(x) == pytest.approx(var_target, rel=0.05)
    lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert lag1 == pytest.approx(0.8, abs=0.01)


def test_generate_ar1_cross_correlation():
    # common rho, so the stationary cross-correlation equals the
    # innovation correlation
    corr = np.array([[1.0, 0.7], [0.7, 1.0]])
    spec = Ar1Spec(rho=0.5, dim=2, cross_correlation=corr)
    x = generate_ar1(spec, 150_000, RngStream(31)).values
    observed = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
    assert observed == pytest.approx(0.7, abs=0.02)


def test_generate_ar1_rejects_non_pd_correlation():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    spec = Ar1Spec(rho=0.2, dim=2, cross_correlation=bad)
    with pytest.raises(ParameterError):
        generate_ar1(spec, 10, RngStream(0))


def test_generate_ar1_rejects_empty():
    with pytest.raises(ParameterError):
        generate_ar1(Ar1Spec(rho=0.2), 0, RngStream(0))
