"""Exact rational scalars.

All coordinates, endpoints and offsets in this package are
fractions.Fraction values; Fraction already maintains the invariants we
need (lowest terms, positive denominator, value equality).  Floats are
rejected everywhere at construction time so no rounding can sneak in.
The wire format is the compact string "p" or "p/q".  Fast paths scale a
group of rationals once to integers over their common denominator
(lattice_point), compute on the ints and make a Fraction only per output.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm

from .errors import InputError

Rat = Fraction

# The one grammar of a rational literal, for parse_rat and the DSL: 'p',
# '-p' or 'p/q', the denominator without leading zeros.
RAT_LITERAL = re.compile(r"^-?\d+(/[1-9]\d*)?$")

# The most decimal digits a literal may spell in its numerator and in its
# denominator, leading zeros included; a longer one is bad input, rejected
# before any conversion.  Python refuses int/str conversions past 4300
# digits by default, and this bound leaves room for results built from a
# few literals, whose denominators multiply.
MAX_LITERAL_DIGITS = 1000
_INT_BOUND = 10**MAX_LITERAL_DIGITS


def too_many_digits(literal: str) -> bool:
    """True when a 'p', '-p' or 'p/q' literal exceeds MAX_LITERAL_DIGITS."""
    return len(literal) > MAX_LITERAL_DIGITS and any(
        len(part) > MAX_LITERAL_DIGITS for part in literal.lstrip("-").split("/"))


def int_too_long(value) -> bool:
    """True when value is an int of more than MAX_LITERAL_DIGITS digits,
    decided without converting it to a string."""
    return isinstance(value, int) and abs(value) >= _INT_BOUND


def rat(value) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to Fraction; reject floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rat(value)
    raise InputError(f"not an exact rational: {value!r} ({type(value).__name__})")


def lattice_point(x) -> tuple[tuple[int, ...], int]:
    """(L*x, L) for a rational vector x, L the lcm of its denominators.
    Scaling by L > 0 keeps the order, so the ints sort and compare as
    the rationals do.  The lcm and L // d are taken once per distinct
    denominator d, which matters when the denominators are long."""
    dens = {c.denominator for c in x}
    L = lcm(*dens)
    q = {d: L // d for d in dens}
    return tuple(c.numerator * q[c.denominator] for c in x), L


def parse_rat(text: str) -> Fraction:
    if not RAT_LITERAL.match(text):
        raise InputError(f"malformed rational {text!r}; expected 'p' or 'p/q'")
    if too_many_digits(text):
        raise InputError(f"rational literal longer than {MAX_LITERAL_DIGITS} digits")
    return Fraction(text)


def fmt_rat(value: Fraction) -> str:
    # str(Fraction) is already "p" or "p/q" in lowest terms.  Python
    # refuses to write an int past sys.get_int_max_str_digits() digits, so
    # a result built from a few long literals may not be writable: bad
    # input, reported before anything is printed.
    try:
        return str(value)
    except ValueError:
        raise InputError(f"result has a rational of more than {sys.get_int_max_str_digits()} "
                         "digits in its numerator or denominator") from None
