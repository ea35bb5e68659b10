"""Constructible sheaves on the real line with compact support.

An object is a finite multiset of shifted interval generators k_I[d];
by the decomposition theorem for constructible sheaves on R this normal
form is unique once sorted, so equality of objects is equality of the
canonical form.  A Sheaf1 is that form on integers: one denominator den
and a strictly increasing tuple of keys (lo, hi, closure, shift, mult),
the ends lo/den and hi/den, with den >= 1 coprime to the ends taken
together.  Every operation acts on the keys; Fractions appear only at
the API edge (the Generator views and the constructors' arguments).
Convolution

    F * G = Rs_!(F boxtimes G),   s(x, y) = x + y

is computed generator by generator from a closed case table over the
four closure types, on integer ends over the lcm of the two
denominators; the table is cross-validated against an independent
stalk/sections oracle (see sheafconv.oracle).  The unit is the
skyscraper at 0 and the semi-open generators are the zero divisors:
k_{[a,b[} always annihilates k_{]c,d]}.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable

from .errors import InputError, InvariantViolation, NotInvertible
from .rational import fmt_ratio, lattice_point, rat, ratio, signed_sum

# The most generator pairs one convolution may multiply, checked before
# any pair is built: a conv of four random 12-term sums already holds
# about 17,000 generators, so a fifth term would multiply about 200,000.
MAX_GENERATOR_PAIRS = 100_000

# the two bits of a closure's value: which ends are open
LEFT_OPEN = 2
RIGHT_OPEN = 1


class Closure(enum.IntEnum):
    """Endpoint closure of an interval; the int value is the sort order."""

    CC = 0
    CO = 1
    OC = 2
    OO = 3

    @property
    def left_closed(self) -> bool:
        return not self & LEFT_OPEN

    @property
    def right_closed(self) -> bool:
        return not self & RIGHT_OPEN


CC, CO, OC, OO = Closure
_REVERSED = (CC, OC, CO, OO)  # the mirror image under x -> -x
_FLIPPED = (OO, OC, CO, CC)  # both ends' closures swapped


def _check_degree(shift, mult) -> None:
    if not isinstance(shift, int) or isinstance(shift, bool):
        raise InputError(f"shift must be an integer, got {shift!r}")
    if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
        raise InputError(f"multiplicity must be a positive integer, got {mult!r}")


@dataclass(frozen=True, order=True)
class Interval:
    """Nonempty bounded interval; a single point must be closed."""

    lo: Fraction
    hi: Fraction
    closure: Closure

    def __post_init__(self):
        object.__setattr__(self, "lo", rat(self.lo))
        object.__setattr__(self, "hi", rat(self.hi))
        if self.lo > self.hi:
            raise InputError(f"empty interval: lo={self.lo} > hi={self.hi}")
        if self.lo == self.hi and self.closure is not Closure.CC:
            raise InputError("a degenerate interval must be closed")

    def contains(self, t: Fraction) -> bool:
        if t < self.lo or t > self.hi:
            return False
        if t == self.lo and not self.closure.left_closed:
            return False
        if t == self.hi and not self.closure.right_closed:
            return False
        return True


@dataclass(frozen=True, order=True)
class Generator:
    """One summand k_I[shift] with multiplicity mult >= 1.

    Degree convention: the stalk of k_I[d] at an interior point sits in
    degree -d.
    """

    interval: Interval
    shift: int = 0
    mult: int = 1

    def __post_init__(self):
        _check_degree(self.shift, self.mult)


@dataclass(frozen=True, init=False)
class Sheaf1:
    """Canonical direct sum of generators; the empty sum is the zero object.

    den >= 1 and keys, a strictly increasing tuple of (lo, hi, closure,
    shift, mult) over den, with gcd(den, every end) == 1, so that equal
    objects have equal fields.  Sheaf1(gens) takes a canonical tuple of
    Generators (see normalize); gens is that tuple, built on first use.
    """

    den: int
    keys: tuple[tuple[int, int, Closure, int, int], ...]

    def __init__(self, gens: Iterable[Generator] = ()):
        gens = tuple(gens)
        den, keys = _items(gens)
        self._set(den, tuple(keys))
        self.__dict__["gens"] = gens

    @classmethod
    def _of(cls, den: int, keys: tuple) -> "Sheaf1":
        f = object.__new__(cls)
        f._set(den, keys)
        return f

    def _set(self, den: int, keys: tuple) -> None:
        # the canonical form, checked in one pass
        if den < 1 or (den > 1 and gcd(den, *(e for k in keys for e in k[:2])) != 1) or any(
                a[:4] >= b[:4] for a, b in zip(keys, keys[1:])):
            raise InvariantViolation("Sheaf1 constructed with non-canonical generators")
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "keys", keys)

    @cached_property
    def gens(self) -> tuple[Generator, ...]:
        den = self.den
        return tuple(Generator(Interval(Fraction(lo, den), Fraction(hi, den), c), s, m)
                     for lo, hi, c, s, m in self.keys)

    @property
    def is_zero(self) -> bool:
        return not self.keys

    def __iter__(self):
        return iter(self.gens)


def _items(gens) -> tuple[int, list[tuple]]:
    """(den, [(lo, hi, closure, shift, mult)]) of a generator sequence, the
    ends scaled once over their common denominator den."""
    ends, den = lattice_point([e for g in gens for e in (g.interval.lo, g.interval.hi)])
    return den, [(lo, hi, g.interval.closure, g.shift, g.mult)
                 for g, lo, hi in zip(gens, ends[::2], ends[1::2])]


def _normal(den: int, pairs: Iterable[tuple]) -> Sheaf1:
    """The canonical object of ((lo, hi, closure, shift), mult) pairs over
    den: the signed sum of the pairs, its keys sorted and den reduced by
    the gcd of all ends."""
    keys = [(*k, m) for k, m in sorted(signed_sum(pairs).items())]
    g = gcd(den, *(e for k in keys for e in k[:2])) if den > 1 else 1
    if g > 1:
        den //= g
        keys = [(lo // g, hi // g, c, s, m) for lo, hi, c, s, m in keys]
    return Sheaf1._of(den, tuple(keys))


def _scaled(f: Sheaf1, den: int):
    """The keys of f over den, a multiple of f.den."""
    k = den // f.den
    if k == 1:
        return f.keys
    return [(lo * k, hi * k, c, s, m) for lo, hi, c, s, m in f.keys]


def normalize(gens: Iterable[Generator]) -> Sheaf1:
    """Merge generators that agree on (interval, shift); drop nothing else.

    Idempotent; every public operation returns normalized objects.  The
    ends are scaled once over their common denominator, and the keys
    (lo, hi, closure, shift) merged and sorted as ints; den > 0 keeps the
    order, so it is the order of the Fraction ends.
    """
    den, items = _items(list(gens))
    return _normal(den, [(k[:4], k[4]) for k in items])


# -- convenience constructors ------------------------------------------------

def interval_sheaf(closure: Closure, a, b, shift: int = 0, mult: int = 1) -> Sheaf1:
    """mult copies of k_I[shift], I the interval from a to b with the
    given endpoint closure; a and b are anything rational.ratio reads."""
    (p, q), (r, s) = ratio(a), ratio(b)
    den = lcm(q, s)
    lo, hi = p * (den // q), r * (den // s)
    if lo > hi:
        raise InputError(f"empty interval: lo={fmt_ratio(p, q)} > hi={fmt_ratio(r, s)}")
    if lo == hi and closure is not Closure.CC:
        raise InputError("a degenerate interval must be closed")
    _check_degree(shift, mult)
    # both ends in lowest terms over the lcm of their denominators: canonical
    return Sheaf1._of(den, ((lo, hi, closure, shift, mult),))


def kc(a, b, shift: int = 0, mult: int = 1) -> Sheaf1:
    return interval_sheaf(Closure.CC, a, b, shift, mult)


def ko(a, b, shift: int = 0, mult: int = 1) -> Sheaf1:
    return interval_sheaf(Closure.OO, a, b, shift, mult)


def kco(a, b, shift: int = 0, mult: int = 1) -> Sheaf1:
    return interval_sheaf(Closure.CO, a, b, shift, mult)


def koc(a, b, shift: int = 0, mult: int = 1) -> Sheaf1:
    return interval_sheaf(Closure.OC, a, b, shift, mult)


def dirac(x, shift: int = 0, mult: int = 1) -> Sheaf1:
    return interval_sheaf(Closure.CC, x, x, shift, mult)


def zero() -> Sheaf1:
    return Sheaf1()


def direct_sum(*sheaves: Sheaf1) -> Sheaf1:
    den = lcm(*(f.den for f in sheaves))
    return _normal(den, [((lo, hi, c, s), m) for f in sheaves
                         for lo, hi, c, s, m in _scaled(f, den)])


# -- elementary operations ---------------------------------------------------

def shift(f: Sheaf1, k: int) -> Sheaf1:
    _check_degree(k, 1)
    return _normal(f.den, [((lo, hi, c, s + k), m) for lo, hi, c, s, m in f.keys])


def translate(f: Sheaf1, x0) -> Sheaf1:
    p, q = ratio(x0)
    den = lcm(f.den, q)
    x = p * (den // q)
    return _normal(den, [((lo + x, hi + x, c, s), m) for lo, hi, c, s, m in _scaled(f, den)])


def antipodal(f: Sheaf1) -> Sheaf1:
    """Pullback along x -> -x."""
    return _normal(f.den, [((-hi, -lo, _REVERSED[c], s), m) for lo, hi, c, s, m in f.keys])


def dual(f: Sheaf1) -> Sheaf1:
    """Verdier duality.

    On intervals it swaps open and closed ends and replaces a shift d by
    1 - d, except that skyscrapers are self-dual up to sign of shift:

        D k_{[a,b]}[d] = k_{]a,b[}[1-d]      D k_{]a,b[}[d] = k_{[a,b]}[1-d]
        D k_{[a,b[}[d] = k_{]a,b]}[1-d]      D k_{]a,b]}[d] = k_{[a,b[}[1-d]
        D delta_a[d]   = delta_a[-d]
    """
    return _normal(f.den, [((lo, hi, c, -s) if lo == hi else (lo, hi, _FLIPPED[c], 1 - s), m)
                           for lo, hi, c, s, m in f.keys])


# -- convolution -------------------------------------------------------------

def _convolve_ends(a: int, b: int, ci: Closure, c: int, d: int, cj: Closure) -> tuple:
    """Unshifted, multiplicity-one convolution of k_I and k_J, I from a to
    b and J from c to d (integer ends over one denominator).

    Returns (lo, hi, closure, extra_shift) summands.  Case analysis over
    the closure pair (symmetric in its arguments); every case is forced
    by the stalkwise computation RGamma_c(I cap (t - J)) and
    double-checked by the oracle module.
    """
    if ci > cj:
        a, b, ci, c, d, cj = c, d, cj, a, b, ci

    if ci is CC:
        if cj is CC:
            return ((a + c, b + d, CC, 0),)
        if cj is OO:
            if b - a < d - c:
                return ((b + c, a + d, OO, 0),)
            # a shorter (or equal) open window degenerates to a closed
            # interval (a skyscraper when the lengths agree), one degree down
            return ((a + d, b + c, CC, -1),)
        if cj is CO:
            # only the left closure of the CC factor survives
            return ((a + c, a + d, CO, 0),)
        return ((b + c, b + d, OC, 0),)

    if cj is OO:
        if ci is OO:
            return ((a + c, b + d, OO, -1),)
        if ci is CO:
            # the CO factor translated by the right end of the open window
            return ((a + d, b + d, CO, -1),)
        return ((a + c, b + c, OC, -1),)

    if ci is not cj:
        return ()  # CO and OC: semi-open annihilation, every stalk is half-open

    lo_cut, hi_cut = (a + d, b + c) if a + d <= b + c else (b + c, a + d)
    if ci is CO:
        return ((a + c, lo_cut, CO, 0), (hi_cut, b + d, CO, -1))
    return ((hi_cut, b + d, OC, 0), (a + c, lo_cut, OC, -1))


def convolve_generators(g: Generator, h: Generator) -> Sheaf1:
    """Convolution of two single generators."""
    return convolve(Sheaf1((g,)), Sheaf1((h,)))


def convolve(f: Sheaf1, g: Sheaf1) -> Sheaf1:
    """Bilinear extension of the generator table on integer ends over
    lcm(f.den, g.den), normalized once.

    Raises InputError when f and g have more than MAX_GENERATOR_PAIRS
    generator pairs, before any pair is built.
    """
    pairs = len(f.keys) * len(g.keys)
    if pairs > MAX_GENERATOR_PAIRS:
        raise InputError(f"convolution of {len(f.keys)} by {len(g.keys)} generators: "
                         f"more than {MAX_GENERATOR_PAIRS} generator pairs")
    den = lcm(f.den, g.den)
    gk = _scaled(g, den)
    return _normal(den, [
        ((lo, hi, c, s + t + extra), m * n)
        for a, b, ci, s, m in _scaled(f, den)
        for c2, d, cj, t, n in gk
        for lo, hi, c, extra in _convolve_ends(a, b, ci, c2, d, cj)
    ])


# -- local and global invariants ---------------------------------------------

def stalk(f: Sheaf1, t) -> dict[int, int]:
    """Graded dimensions of the stalk at t; zero entries are dropped."""
    p, q = ratio(t)
    x = p * f.den  # t scaled by den * q, like every end below
    dims = signed_sum((-s, m) for lo, hi, c, s, m in f.keys
                      if (lo * q < x or (lo * q == x and not c & LEFT_OPEN))
                      and (x < hi * q or (x == hi * q and not c & RIGHT_OPEN)))
    return dict(sorted(dims.items()))


def global_sections_c(f: Sheaf1) -> dict[int, int]:
    """Compactly supported cohomology of the whole line.

    A closed generator (including skyscrapers) contributes in degree -d,
    an open one in degree 1-d, a semi-open one contributes nothing.
    """
    dims = signed_sum((-s if c is CC else 1 - s, m) for _, _, c, s, m in f.keys
                      if c is CC or c is OO)
    return dict(sorted(dims.items()))


def euler_c(f: Sheaf1) -> int:
    return sum((-1 if deg % 2 else 1) * dim for deg, dim in global_sections_c(f).items())


def rescale(f: Sheaf1, lam) -> Sheaf1:
    """Proper pushforward along u(x) = lam * x.

    For lam = 0 the image is a point and the result is the skyscraper
    complex at 0 carrying RGamma_c(f).
    """
    p, q = ratio(lam)
    if p == 0:
        return _normal(1, [((0, 0, CC, -deg), dim) for deg, dim in global_sections_c(f).items()])
    out = _normal(f.den * q, [((lo * abs(p), hi * abs(p), c, s), m) for lo, hi, c, s, m in f.keys])
    return out if p > 0 else antipodal(out)


# -- invertibility -----------------------------------------------------------

def is_invertible(f: Sheaf1) -> tuple[bool, str]:
    """Decide invertibility for convolution; returns (verdict, reason).

    The invertible objects are exactly the single generators of
    multiplicity one whose interval is closed or open (points count as
    closed).  Semi-open generators are zero divisors, and any direct sum
    of two or more generators has a rank-too-big stalk or section space.
    """
    if f.is_zero:
        return False, "the zero object is not invertible"
    if len(f.keys) > 1:
        return False, f"{len(f.keys)} generators; an invertible object has exactly one"
    _, _, c, _, m = f.keys[0]
    if m != 1:
        return False, f"multiplicity {m}; an invertible generator has multiplicity 1"
    if c is CO or c is OC:
        return False, "semi-open generators are zero divisors"
    return True, "single closed or open generator of multiplicity 1"


def inverse(f: Sheaf1) -> Sheaf1:
    """Convolution inverse: the dual of the antipodal object.

    Raises NotInvertible with the reason when f is not invertible, and
    InvariantViolation if the candidate fails the round-trip self-check
    (which the calculus promises cannot happen).
    """
    ok, reason = is_invertible(f)
    if not ok:
        raise NotInvertible(reason)
    candidate = dual(antipodal(f))
    unit = dirac(0)
    if convolve(f, candidate) != unit or convolve(candidate, f) != unit:
        raise InvariantViolation(
            f"inverse self-check failed for {f!r}: candidate {candidate!r}"
        )
    return candidate
