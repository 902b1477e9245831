"""Exact rational helpers shared across modules."""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction

from .errors import MalformedInputError, NotRationalError, PrecisionError

# ASCII digits only: a Unicode \d would pass '١' or '１', which Fraction reads
_RATIONAL_RE = re.compile(r"[+-]?\d+(/[1-9]\d*)?", re.ASCII)


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
    """Parse a strict 'p/q' or integer literal in ASCII digits.

    Decimal notation is rejected on purpose: where the interfaces take
    rationals they take them exactly, and '0.1' is not the number most
    people believe it is.  Other digits ('١', '１', '²') and digit groups
    ('1_0') are refused with MalformedInputError, as in ids.
    """
    text = text.strip()
    if not _RATIONAL_RE.fullmatch(text):
        raise MalformedInputError(
            f"{what} must be an integer or p/q rational literal, got {text!r}"
        )
    return Fraction(text)


def parse_real(text: str, what: str = "value"):
    """Parse a real literal: 'p/q' stays exact, decimal notation becomes float.

    The text is ASCII with no '_', as in parse_rational: float() would
    also read other digits ('١.٥' as 1.5) and digit groups ('1_0' as
    10.0), and both are refused with MalformedInputError.
    """
    text = text.strip()
    if _RATIONAL_RE.fullmatch(text):
        return Fraction(text)
    if text.isascii() and "_" not in text:
        try:
            return float(text)
        except ValueError:
            pass
    raise MalformedInputError(f"{what} is not a number: {text!r}")


def is_rational(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def exact_values(vectors) -> bool:
    """Whether every SparseVector of `vectors` holds only ints and Fractions."""
    return all(v._den is not None for v in vectors)


def by_value_kind(f, run, exact: bool = True):
    """run(h), an exact real-linear computation on an exact state h: on f
    as it is if f is exact and `exact` (no other input was a float), else
    on f with each finite float read as the dyadic rational it holds, the
    answer rounded once by _rounded, so each value is within half an ulp
    of the exact one.  Complex f runs as two real runs joined as
    re + im.scale(1j); nan or inf in f raise PrecisionError."""
    if exact and exact_values(f.values):
        return run(f)
    loose = [v for v in f.values if v._den is None]
    for v in loose:
        for j, x in v.items():
            if isinstance(x, (float, complex)) and not cmath.isfinite(x):
                raise PrecisionError(f"state value {x!r} on edge {j!r} is not finite")

    def exactly(part):
        return f.map_values(lambda v: type(v)({j: Fraction(getattr(x, part)) for j, x in v.items()}))

    if not any(isinstance(x, complex) for v in loose for x in v.values()):
        return _rounded(run(exactly("real")))
    re, im = (_rounded(run(exactly(part))) for part in ("real", "imag"))
    return re + im.scale(1j)


def _rounded(h):
    """An exact answer h, a state or a SparseVector, each value rounded by
    `rounded`; a state's constructor merges neighbours that round equal,
    and a vector's drops a value that underflows to 0."""
    if hasattr(h, "breakpoints"):
        return type(h)(h.breakpoints, [_rounded(v) for v in h.values])
    return type(h)(zip(h.support(), [rounded(n, h._den) for n in h._nums]))


def coprime_fraction(n: int, d: int) -> Fraction:
    """The Fraction n / d as is, for Python ints n and d > 0 with gcd 1:
    Fraction(n, d)'s type checks and gcd are skipped, so the caller owns
    them, and a value built from a pair it did not reduce would compare
    and hash wrongly.  Python 3.12+ has this as
    Fraction._from_coprime_ints; before it, the same two slot writes."""
    obj = object.__new__(Fraction)
    obj._numerator, obj._denominator = n, d
    return obj


coprime_fraction = getattr(Fraction, "_from_coprime_ints", coprime_fraction)


def rounded(n: int, d: int) -> float:
    """n / d, correctly rounded, as int true division is."""
    try:
        return n / d
    except OverflowError:
        raise PrecisionError(f"a value near 2**{n.bit_length() - d.bit_length()} "
                             "overflows a float") from None


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
