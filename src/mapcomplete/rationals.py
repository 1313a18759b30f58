"""Exact rational plumbing: parsing, formatting, canonical enumerations.

Everything in the core works on ``fractions.Fraction``; floats never enter.
The enumerations here are the fixed pairings used by the builtin countable
base and carrier kinds, so they must stay stable across releases.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import isqrt

from .errors import InputError

_RATIONAL_RE = re.compile(r"-?\d+(/\d+)?")


class _DigitLimitError(InputError):
    """Rational text that Python's int-string limit refuses: the text is a
    rational, and the limit, not its syntax, stops it."""


def parse_rational(text: object, path: str | None = None) -> Fraction:
    """Parse ``p/q`` or integer text into an exact Fraction.

    Decimal notation is rejected on purpose: every number in an instance
    document must round-trip bit-exactly. Either part past Python's
    int-string limit raises InputError; the limit stays where it is.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text.strip()):
        raise InputError(
            f"expected an exact rational like '3' or '1/2', got {text!r}", path=path
        )
    s = text.strip()
    try:
        if "/" not in s:
            return Fraction(int(s))
        num, den = map(int, s.split("/"))
    except ValueError:
        digits = max(len(part) for part in s.lstrip("-").split("/"))
        raise _DigitLimitError(
            f"integer of {digits} digits is past Python's limit of "
            f"{sys.get_int_max_str_digits()} digits for integer text", path=path
        ) from None
    if den == 0:
        raise InputError("zero denominator", path=path)
    return Fraction(num, den)


def format_rational(q: Fraction) -> str:
    """Canonical text form: lowest terms, ``p`` for integers, else ``p/q``.

    A numerator or denominator past Python's int-string limit raises
    InputError, as parse_rational does on such text.
    """
    q = Fraction(q)
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise InputError(
            "rational with a numerator or denominator of more than "
            f"{sys.get_int_max_str_digits()} digits is past Python's limit for integer text"
        ) from None


def decimal_approx(q: Fraction, places: int = 12) -> str:
    """Fixed-point decimal rendering by integer long division, no floats."""
    q = Fraction(q)
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled = (q.numerator * 10**places + q.denominator // 2) // q.denominator
    whole, frac = divmod(scaled, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"


def frac_ceil(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def cantor_unpair(k: int) -> tuple[int, int]:
    """Inverse of the Cantor pairing; bijection from naturals onto pairs."""
    w = (isqrt(8 * k + 1) - 1) // 2
    j = k - w * (w + 1) // 2
    return w - j, j


def _fusc_pair(n: int) -> tuple[int, int]:
    # Stern's diatomic sequence: (fusc(n), fusc(n+1)), one step per bit of
    # n from the top; the pair for n is that for n >> 1, stepped by n's
    # lowest bit.
    a, b = 0, 1
    for bit in bin(n)[2:]:
        if bit == "1":
            a += b
        else:
            b += a
    return a, b


def nth_positive_rational(n: int) -> Fraction:
    """Calkin-Wilf enumeration: a bijection from {1, 2, ...} onto Q > 0."""
    if n < 1:
        raise InputError("positive-rational index starts at 1")
    a, b = _fusc_pair(n)
    return Fraction(a, b)


def nth_rational(n: int) -> Fraction:
    """Bijection from {0, 1, ...} onto all of Q: 0, 1, -1, 1/2, -1/2, ..."""
    if n < 0:
        raise InputError("rational index starts at 0")
    if n == 0:
        return Fraction(0)
    q = nth_positive_rational((n + 1) // 2)
    return q if n % 2 == 1 else -q


def nth_unit_rational(n: int) -> Fraction:
    """Bijection from {0, 1, ...} onto Q strictly between 0 and 1: q / (1 + q)
    for q = a/b the (n+1)-th positive rational, that is a / (a + b)."""
    if n < 0:
        raise InputError("unit-rational index starts at 0")
    a, b = _fusc_pair(n + 1)
    return Fraction(a, a + b)
