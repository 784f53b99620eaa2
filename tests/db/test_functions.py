"""Scalar-function registry tests."""

import pytest

from repro.db import standard_functions


@pytest.fixture
def fns():
    return standard_functions(lambda: 1234.5678912, rand=lambda: 0.25)


def test_now_has_second_resolution(fns):
    """MySQL's native NOW() truncates to seconds — the resolution the
    paper found too coarse for delay measurement."""
    assert fns["NOW"]() == 1234.0
    assert fns["CURRENT_TIMESTAMP"]() == 1234.0


def test_usec_now_has_microsecond_resolution(fns):
    """The bug-#8523 workaround UDF keeps microseconds."""
    assert fns["USEC_NOW"]() == pytest.approx(1234.567891)
    assert fns["USEC_NOW"]() != fns["NOW"]()


def test_unix_timestamp(fns):
    assert fns["UNIX_TIMESTAMP"]() == 1234
    assert fns["UNIX_TIMESTAMP"](99.9) == 99


def test_string_functions(fns):
    assert fns["LOWER"]("AbC") == "abc"
    assert fns["UPPER"]("AbC") == "ABC"
    assert fns["LENGTH"]("hello") == 5
    assert fns["CONCAT"]("a", 1, "b") == "a1b"
    assert fns["CONCAT"]("a", None) is None
    assert fns["SUBSTRING"]("hello", 2) == "ello"
    assert fns["SUBSTRING"]("hello", 2, 3) == "ell"


def test_null_passthrough(fns):
    for name in ("LOWER", "UPPER", "LENGTH", "ABS", "FLOOR"):
        assert fns[name](None) is None


def test_numeric_functions(fns):
    assert fns["ABS"](-3) == 3
    assert fns["ROUND"](2.567, 1) == 2.6
    assert fns["ROUND"](2.5678) == 3
    assert fns["FLOOR"](2.9) == 2
    assert fns["CEILING"](2.1) == 3
    assert fns["MOD"](7, 3) == 1
    assert fns["MOD"](7, 0) is None
    # MySQL: the sign of the dividend, NULL in either argument -> NULL.
    assert fns["MOD"](-1, 2) == -1
    assert fns["MOD"](-5.5, 2) == -1.5
    assert fns["MOD"](5, None) is None


def test_coalesce_ifnull(fns):
    assert fns["COALESCE"](None, None, 3) == 3
    assert fns["COALESCE"](None, None) is None
    assert fns["IFNULL"](None, "x") == "x"
    assert fns["IFNULL"](1, "x") == 1


def test_rand_uses_provided_generator(fns):
    assert fns["RAND"]() == 0.25


def test_rand_without_generator_raises():
    fns = standard_functions(lambda: 0.0)
    with pytest.raises(ValueError):
        fns["RAND"]()
