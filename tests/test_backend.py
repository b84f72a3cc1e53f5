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


def test_decimal_exponents_are_bounded():
    # An exponent is read as Fraction's format reads it (any case, a sign,
    # underscores, Unicode digits) and refused past 4300, int's digit limit,
    # before any power of ten is computed.
    for text in ("1e-3", "1.5e-4300", "1e4300", " 1e-9 ", "2E+1_0", "1e٣"):
        assert parse_scalar(text, rational()) == Fraction(text)
    for text in ("1e-1000000", "1E+4301", "1e-1_000_000", "1e-٤٣٠١", "1e" + "9" * 5000):
        with pytest.raises(BackendError, match="bad rational literal"):
            parse_scalar(text, rational())


def test_cached_literals_parse_as_the_uncached_parse():
    # Each distinct short literal is parsed once per process; the value shared
    # from the cache is the one Fraction's own parser gives.  A non-canonical
    # literal is kept as None and read by Fraction(text) every time.
    from copekit.backend import _LITERAL_CACHE_SIZE, _canonical_literal

    assert _canonical_literal.cache_info().maxsize == _LITERAL_CACHE_SIZE
    for text in ("0", "1", "1/2", "-3/7", "0.5", " 1/2", "2/4", "1e-3"):
        fresh = Fraction(text)
        for _ in range(2):
            value = parse_scalar(text, rational())
            assert type(value) is Fraction and value == fresh
            assert (value.numerator, value.denominator) == (fresh.numerator, fresh.denominator)
        assert (_canonical_literal(text) is None) == (text in ("0.5", " 1/2", "1e-3"))
    # The numbers 1.0 and 1 are no cache keys: "1" is cached, 1.0 still refused.
    assert parse_scalar(1, rational()) == parse_scalar("1", rational())
    with pytest.raises(BackendError):
        parse_scalar(1.0, rational())


def test_long_literals_bypass_the_cache():
    # Past _CACHED_LITERAL_CHARS characters a literal is parsed on every
    # occurrence and never kept, canonical or not.
    from copekit.backend import _CACHED_LITERAL_CHARS, _canonical_literal

    n = _CACHED_LITERAL_CHARS
    for text in ("1" * (n + 1), "-" + "7" * n + "/9", "1" * n + "e-9", "9" * 4000 + "/1"):
        before = _canonical_literal.cache_info()
        for _ in range(2):
            value = parse_scalar(text, rational())
            assert value == Fraction(text)
        after = _canonical_literal.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)


def test_literal_cache_memory_is_bounded():
    # A full cache of the largest literals it keeps, 32-character canonical
    # ones, holds about 1.1 MB, within the docstring's bound of about 1.3 MB.
    import gc
    import tracemalloc

    from copekit.backend import _CACHED_LITERAL_CHARS, _LITERAL_CACHE_SIZE, _canonical_literal

    width = (_CACHED_LITERAL_CHARS - 2) // 2
    _canonical_literal.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for i in range(_LITERAL_CACHE_SIZE):
            parse_scalar(f"-{10 ** (width - 1) + i}/{10 ** width - i}", rational())
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
        _canonical_literal.cache_clear()
    assert _canonical_literal.cache_info().maxsize == _LITERAL_CACHE_SIZE
    assert kept < 1.4e6


@pytest.mark.parametrize("backend", [rational(), floating()])
def test_booleans_are_not_entries(backend):
    # bool is an int, so true and false would read as 1 and 0.
    for value in (True, False):
        with pytest.raises(BackendError, match="boolean"):
            parse_scalar(value, backend)


def test_format_scalar_agrees_with_str_of_fraction():
    be = rational()
    values = [Fraction(0), Fraction(-3, 7), Fraction(4, 2), Fraction(10**30, 3), 0, 5, -12,
              True, False, 0.5, -0.0, 0.1, 3.0, 1e-300]
    for v in values:
        assert format_scalar(v, be) == str(Fraction(v))
