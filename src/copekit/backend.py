"""Numeric backends: exact rationals or floats with a comparison tolerance.

Matrices in this package carry one of two backends.  The rational backend
stores :class:`fractions.Fraction` entries; arithmetic is closed and every
comparison is exact, which is what certificate re-verification relies on.
The float backend stores machine floats and treats two values as equal
whenever they differ by at most ``eps`` (default ``1e-9``).  Generated
theories with irrational entries (e.g. Bloch-sphere overlaps) live on the
float backend.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

Entry = Union[Fraction, float]

RATIONAL = "rational"
FLOAT = "float"

DEFAULT_EPS = 1e-9


class BackendError(ValueError):
    """Raised when a value cannot be represented on the requested backend."""


@dataclass(frozen=True)
class Backend:
    """A numeric regime: ``rational`` (exact) or ``float`` with tolerance."""

    kind: str
    eps: float = DEFAULT_EPS

    def __post_init__(self) -> None:
        if self.kind not in (RATIONAL, FLOAT):
            raise BackendError(f"unknown backend kind {self.kind!r}")
        if self.kind == FLOAT and not (0 < self.eps < 1):
            raise BackendError(f"float backend needs 0 < eps < 1, got {self.eps}")

    @property
    def is_exact(self) -> bool:
        return self.kind == RATIONAL

    def coerce(self, value) -> Entry:
        """Convert ``value`` to this backend's scalar type.

        On the rational backend ints, Fractions, and ``"p/q"`` strings are
        accepted; floats are converted exactly (binary expansion), so prefer
        strings or Fractions for human-entered data.
        """
        if self.is_exact:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, (int, str, float)):
                return Fraction(value)
            raise BackendError(f"cannot coerce {_cut(repr(value))} to a rational entry")
        return float(value)

    def eq(self, a, b) -> bool:
        if self.is_exact:
            return a == b
        return abs(a - b) <= self.eps

    def is_zero(self, a) -> bool:
        return self.eq(a, 0)

    def leq(self, a, b) -> bool:
        if self.is_exact:
            return a <= b
        return a <= b + self.eps

    def geq(self, a, b) -> bool:
        return self.leq(b, a)

    def zero(self) -> Entry:
        return Fraction(0) if self.is_exact else 0.0

    def one(self) -> Entry:
        return Fraction(1) if self.is_exact else 1.0


def rational() -> Backend:
    return Backend(RATIONAL)


def floating(eps: float = DEFAULT_EPS) -> Backend:
    return Backend(FLOAT, eps)


# The canonical rational literal, in ASCII digits only: what format_scalar emits.
_CANONICAL_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
# A decimal exponent as Fraction's format reads it.
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)
_MAX_EXPONENT = 4300  # int's default digit limit, which bounds every other literal
_LITERAL_CACHE_SIZE = 4096  # distinct short literals kept parsed
_CACHED_LITERAL_CHARS = 32  # a longer literal is parsed on every occurrence


@lru_cache(maxsize=_LITERAL_CACHE_SIZE)
def _canonical_literal(text: str) -> Optional[Fraction]:
    """``Fraction(int(p), int(q))`` for a canonical literal, None for any other string.

    A kept entry is a string of at most ``_CACHED_LITERAL_CHARS`` characters
    and None or a Fraction of two ints below 10**32, about 300 bytes, so the
    cache holds at most about 1.3 MB.  A zero denominator raises every time.
    """
    canonical = _CANONICAL_RATIONAL.fullmatch(text)
    if canonical is None:
        return None
    p, q = canonical.groups()
    return Fraction(int(p), int(q)) if q else Fraction(int(p))


def _cut(text: str, limit: int = 80) -> str:
    """``text`` cut to ``limit`` characters with an ellipsis, so that an
    error message echoes a bounded part of any document value."""
    return text if len(text) <= limit else text[:limit - 3] + "..."


def parse_scalar(text, backend: Backend) -> Entry:
    """Parse a JSON-level scalar (``"p/q"`` string or number) for ``backend``.

    A string of the canonical shape ``-?digits`` or ``-?digits/digits`` (ASCII
    digits, no sign on the denominator, no spaces) skips ``Fraction``'s general
    parser, and is parsed once per process if at most ``_CACHED_LITERAL_CHARS``
    long; any other string goes through ``Fraction(text)``, once its decimal
    exponent, if any, is found at most ``_MAX_EXPONENT`` in magnitude.  Both
    give the same value and raise the same ``BackendError``.  JSON booleans
    are refused, and so is the number ``1.0`` on the rational backend.
    """
    if isinstance(text, bool):
        raise BackendError(f"a JSON boolean is not a matrix entry, got {str(text).lower()}")
    if backend.is_exact:
        if isinstance(text, str):
            short = len(text) <= _CACHED_LITERAL_CHARS
            try:
                value = (_canonical_literal if short else _canonical_literal.__wrapped__)(text)
                if value is None and (exponent := _EXPONENT.search(text)):
                    if abs(int(exponent[1])) > _MAX_EXPONENT:
                        raise ValueError("exponent out of range")
                return Fraction(text) if value is None else value
            except (ValueError, ZeroDivisionError) as exc:
                raise BackendError(f"bad rational literal {_cut(repr(text))}") from exc
        if isinstance(text, int):
            return Fraction(text)
        raise BackendError(
            f"rational documents encode entries as strings, got {_cut(repr(text))}"
        )
    if isinstance(text, (int, float)):
        return float(text)
    raise BackendError(f"float documents encode entries as numbers, got {_cut(repr(text))}")


def format_scalar(value: Entry, backend: Backend):
    """Inverse of :func:`parse_scalar`: JSON-ready representation.

    On the rational backend that is ``str(Fraction(value))``, the canonical
    ``"p/q"`` (or ``"p"``); a ``Fraction`` is already normalized, so it is
    formatted as it is.
    """
    if backend.is_exact:
        return str(value if type(value) is Fraction else Fraction(value))
    return float(value)
