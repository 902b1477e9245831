"""Exact rational helpers shared across modules."""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import MalformedInputError, NotRationalError, PrecisionError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def as_exact(x, what: str = "value") -> Fraction:
    """Coerce an int or Fraction to Fraction; refuse floats and strings.

    Floats are refused even when they happen to hold an integral value,
    because silently promoting them hides precision bugs at call sites
    that promise exact arithmetic.
    """
    if isinstance(x, bool):
        raise NotRationalError(f"{what} must be an exact rational, got bool")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    raise NotRationalError(
        f"{what} must be an exact rational (int or Fraction), got {type(x).__name__}"
    )


def as_exact_time(t, what: str = "time") -> Fraction:
    """Like as_exact but raises PrecisionError, the contract for exact time args."""
    try:
        return as_exact(t, what)
    except NotRationalError as exc:
        raise PrecisionError(str(exc)) from None


def parse_rational(text: str, what: str = "value") -> Fraction:
    """Parse a strict 'p/q' or integer literal.

    Decimal notation is rejected on purpose: where the interfaces take
    rationals they take them exactly, and '0.1' is not the number most
    people believe it is.
    """
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise MalformedInputError(
            f"{what} must be an integer or p/q rational literal, got {text!r}"
        )
    return Fraction(text)


def parse_real(text: str, what: str = "value"):
    """Parse a real literal: 'p/q' stays exact, decimal notation becomes float."""
    text = text.strip()
    if _RATIONAL_RE.match(text):
        return Fraction(text)
    try:
        return float(text)
    except ValueError:
        raise MalformedInputError(f"{what} is not a number: {text!r}") from None


def is_rational(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def frac_part(x: Fraction) -> Fraction:
    """Fractional part in [0, 1)."""
    return x - (x.numerator // x.denominator)


def float_or_inf(x) -> float:
    """float(x), with a rational beyond float range read as a signed inf."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def to_float(x) -> float:
    """float(x), with a Fraction converted by its numerator / denominator:
    the same correctly rounded int division as Rational.__float__, so the
    same bits, without its two property calls."""
    return x.numerator / x.denominator if type(x) is Fraction else float(x)
