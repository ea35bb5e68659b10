"""Exact rational scalars.

Coordinates, endpoints and offsets at the API edge are fractions.Fraction
values; Fraction already maintains the invariants we need (lowest terms,
positive denominator, value equality).  One reader takes every rational
input (ratio): it gives the integer pair (p, q), makes no Fraction for an
int or a literal, and rejects a bool, a float or any other value, so no
rounding can sneak in; rat is its Fraction view.  The wire format is
the compact string "p" or "p/q", read by one ASCII literal grammar and
checked in one place (check_literal), so the CLI, region files and the
DSL report each fault with one message.
Fast paths scale a group of rationals once to integers over their
common denominator (lattice_point), or read them as integer pairs
(ratio), compute on the ints, and write each output position from its
integer pair with one gcd (fmt_ratio).
Integer combinations, of polytope indicators, generators, stalk
degrees, conormal rays or covector positions, are put in canonical form
by one signed sum (signed_sum): equal keys merged, zero weights dropped;
a caller that needs the canonical order sorts the result.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm

from .errors import InputError

# The one grammar of a rational literal: 'p', '-p' or 'p/q' in ASCII
# digits, the denominator without leading zeros.
RAT_LITERAL = re.compile(r"-?\d+(/[1-9]\d*)?\Z", re.ASCII)
_ZERO_DENOMINATOR = re.compile(r"-?\d+/0+\Z", re.ASCII)

# The most decimal digits a literal may spell in its numerator and in its
# denominator, leading zeros included; a longer one is bad input, rejected
# before any conversion.  Python refuses int/str conversions past 4300
# digits by default, and this bound leaves room for results built from a
# few literals, whose denominators multiply.
MAX_LITERAL_DIGITS = 1000
_INT_BOUND = 10**MAX_LITERAL_DIGITS


def check_literal(text: str) -> str:
    """text, when it is a rational literal within the digit bound; else
    InputError, one message per fault: the grammar first ("zero
    denominator" for p/0...0, "malformed rational" for any other miss),
    then the digit bound."""
    if not RAT_LITERAL.match(text):
        if _ZERO_DENOMINATOR.match(text):
            raise InputError("zero denominator")
        raise InputError(f"malformed rational {text!r}; expected 'p' or 'p/q'")
    if len(text) > MAX_LITERAL_DIGITS and any(
            len(part) > MAX_LITERAL_DIGITS for part in text.lstrip("-").split("/")):
        raise InputError(f"rational literal longer than {MAX_LITERAL_DIGITS} digits")
    return text


def int_too_long(value) -> bool:
    """True when value is an int of more than MAX_LITERAL_DIGITS digits,
    decided without converting it to a string."""
    return isinstance(value, int) and abs(value) >= _INT_BOUND


def rat(value) -> Fraction:
    """value as a Fraction: a Fraction as it is, anything else read by ratio."""
    return value if isinstance(value, Fraction) else Fraction(*ratio(value))


def ratio(value) -> tuple[int, int]:
    """(p, q) in lowest terms with q > 0 for an int, a Fraction, a "p/q"
    string, or an integer pair (p, q) with q > 0, which the DSL's
    literals are; InputError for a bool, a float or any other value."""
    if type(value) is Fraction:
        return value.numerator, value.denominator
    if type(value) is int:
        return value, 1
    if isinstance(value, str):
        p, _, q = check_literal(value).partition("/")
        value = int(p), int(q or 1)
    elif not isinstance(value, tuple):
        if isinstance(value, bool):
            raise InputError(f"not a rational: {value!r}")
        if not isinstance(value, (int, Fraction)):
            raise InputError(f"not an exact rational: {value!r} ({type(value).__name__})")
        return value.numerator, value.denominator
    if len(value) != 2 or not all(type(v) is int for v in value) or value[1] < 1:
        raise InputError(f"not an integer pair (p, q) with q > 0: {value!r}")
    g = gcd(*value)
    return value[0] // g, value[1] // g


def lattice_point(x) -> tuple[tuple[int, ...], int]:
    """(L*x, L) for a rational vector x, L the lcm of its denominators.
    Scaling by L > 0 keeps the order, so the ints sort and compare as
    the rationals do.  The lcm and L // d are taken once per distinct
    denominator d, which matters when the denominators are long."""
    dens = {c.denominator for c in x}
    L = lcm(*dens)
    q = {d: L // d for d in dens}
    return tuple(c.numerator * q[c.denominator] for c in x), L


def over_gcd(v) -> tuple[int, ...]:
    """The integer vector v over the gcd of its entries, signs kept."""
    g = gcd(*v)
    return tuple([c // g for c in v]) if g > 1 else tuple(v)  # a list builds faster


def signed_sum(pairs) -> dict:
    """{key: weight} of (key, weight) pairs: the weights of equal keys
    summed, in the order each key first appears, and zero sums dropped."""
    acc: dict = {}
    get = acc.get
    for k, w in pairs:
        acc[k] = get(k, 0) + w
    # most sums cancel nothing: the scan for a zero is cheaper than a copy
    return {k: w for k, w in acc.items() if w} if 0 in acc.values() else acc


def fmt_rat(value: Fraction) -> str:
    return fmt_ratio(value.numerator, value.denominator)


def fmt_ratio(p: int, q: int) -> str:
    """p/q (q > 0) in lowest terms as "p" or "p/q": one gcd, taken only
    when the position is written."""
    g = gcd(p, q)
    # Python refuses to write an int past sys.get_int_max_str_digits()
    # digits, so a result built from a few long literals may not be
    # writable: bad input, reported before anything is printed.
    try:
        return str(p // g) if q == g else f"{p // g}/{q // g}"
    except ValueError:
        raise InputError(f"result has a rational of more than {sys.get_int_max_str_digits()} "
                         "digits in its numerator or denominator") from None
