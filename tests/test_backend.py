from fractions import Fraction

import pytest

from copekit.backend import (
    BackendError,
    floating,
    format_scalar,
    parse_scalar,
    rational,
)


def test_rational_coercion():
    be = rational()
    assert be.coerce("1/3") == Fraction(1, 3)
    assert be.coerce(2) == Fraction(2)
    assert be.coerce(Fraction(5, 7)) == Fraction(5, 7)
    assert be.coerce(0.5) == Fraction(1, 2)


def test_float_equality_uses_eps():
    be = floating(1e-9)
    assert be.eq(0.5, 0.5 + 1e-10)
    assert not be.eq(0.5, 0.5 + 1e-8)
    assert be.is_zero(1e-12)
    assert be.leq(1.0 + 1e-12, 1.0)


def test_rational_equality_is_exact():
    be = rational()
    assert be.eq(Fraction(1, 3), Fraction(2, 6))
    assert not be.eq(Fraction(1, 3), Fraction(333333333, 1000000000))


def test_backend_validation():
    with pytest.raises(BackendError):
        floating(2.0)
    with pytest.raises(BackendError):
        floating(0.0)


def test_scalar_parse_format_round_trip():
    be = rational()
    for text in ["0", "1", "1/2", "7/3"]:
        assert format_scalar(parse_scalar(text, be), be) == text
    bf = floating()
    assert parse_scalar(0.25, bf) == 0.25
    with pytest.raises(BackendError):
        parse_scalar(0.25, be)  # rational documents use strings
    with pytest.raises(BackendError):
        parse_scalar("1/2", bf)  # float documents use numbers


# Canonical literals take parse_scalar's fast path; the rest fall back to
# Fraction(text).  Either way the result must be Fraction(text)'s.
LITERALS = [
    "0", "1", "-1", "1/2", "-3/7", "12/35", "123456789012345678901234567890/7",
    "+1/2", " 1/2 ", "1/2\n", "1_0/3", "2/4", "0.5", "1e-3", "-0", "00/01",
    "1/0", "0/0", "1/-2", "1 / 2", "١/٢", "٣", "", "/", "1/", "--1",
    "-", "-/2", "1/2/3", "abc",
]


@pytest.mark.parametrize("text", LITERALS)
def test_parse_scalar_agrees_with_fraction(text):
    be = rational()
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(BackendError, match="bad rational literal"):
            parse_scalar(text, be)
        return
    value = parse_scalar(text, be)
    assert type(value) is Fraction
    assert value == expected
    assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)


def test_non_canonical_literals_of_one_half():
    # The literals of CI's non-canonical document: "0.5" and " 1/2" go
    # through Fraction's parser, and "2/4" is reduced.
    for text in ("0.5", "2/4", " 1/2"):
        value = parse_scalar(text, rational())
        assert type(value) is Fraction and (value.numerator, value.denominator) == (1, 2)


def test_format_scalar_agrees_with_str_of_fraction():
    be = rational()
    values = [Fraction(0), Fraction(-3, 7), Fraction(4, 2), Fraction(10**30, 3), 0, 5, -12,
              True, False, 0.5, -0.0, 0.1, 3.0, 1e-300]
    for v in values:
        assert format_scalar(v, be) == str(Fraction(v))
