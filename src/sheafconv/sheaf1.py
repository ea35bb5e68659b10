"""Constructible sheaves on the real line with compact support.

An object is a finite multiset of shifted interval generators k_I[d];
by the decomposition theorem for constructible sheaves on R this normal
form is unique once sorted, so equality of objects is equality of the
canonical generator tuple.  The normal form is merged and sorted on
integer keys, the interval ends scaled once over their common
denominator.  Convolution

    F * G = Rs_!(F boxtimes G),   s(x, y) = x + y

is computed generator by generator from a closed case table over the
four closure types; the table is cross-validated against an independent
stalk/sections oracle (see sheafconv.oracle).  The unit is the skyscraper
at 0 and the semi-open generators are the zero divisors: k_{[a,b[} always
annihilates k_{]c,d]}.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import InputError, InvariantViolation, NotInvertible
from .rational import lattice_point, rat


class Closure(enum.IntEnum):
    """Endpoint closure of an interval; the int value is the sort order."""

    CC = 0
    CO = 1
    OC = 2
    OO = 3

    @property
    def left_closed(self) -> bool:
        return self in (Closure.CC, Closure.CO)

    @property
    def right_closed(self) -> bool:
        return self in (Closure.CC, Closure.OC)

    @property
    def reversed(self) -> "Closure":
        # mirror image under x -> -x
        return Closure.of(self.right_closed, self.left_closed)

    @staticmethod
    def of(left_closed: bool, right_closed: bool) -> "Closure":
        # the value's two bits say which ends are open: left 2, right 1
        return Closure(2 * (not left_closed) + (not right_closed))


# the expression language's interval atoms; the JSON wire format names
# each closure by its lower-case enum name instead
ATOM_CLOSURES = {
    "kc": Closure.CC,
    "kco": Closure.CO,
    "koc": Closure.OC,
    "ko": Closure.OO,
}


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

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, t: Fraction) -> bool:
        if t < self.lo or t > self.hi:
            return False
        if t == self.lo and not self.closure.left_closed:
            return False
        if t == self.hi and not self.closure.right_closed:
            return False
        return True

    def translate(self, x0: Fraction) -> "Interval":
        return Interval(self.lo + x0, self.hi + x0, self.closure)

    def reflect(self) -> "Interval":
        return Interval(-self.hi, -self.lo, self.closure.reversed)


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
        if not isinstance(self.shift, int) or isinstance(self.shift, bool):
            raise InputError(f"shift must be an integer, got {self.shift!r}")
        if not isinstance(self.mult, int) or self.mult < 1:
            raise InputError(f"multiplicity must be a positive integer, got {self.mult!r}")

    def sort_key(self):
        iv = self.interval
        return (iv.lo, iv.hi, int(iv.closure), self.shift)


@dataclass(frozen=True)
class Sheaf1:
    """Canonical direct sum of generators; the empty sum is the zero object."""

    gens: tuple[Generator, ...] = ()

    def __post_init__(self):
        keys = [g.sort_key() for g in self.gens]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise InvariantViolation("Sheaf1 constructed with non-canonical generators")

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def __iter__(self):
        return iter(self.gens)


def normalize(gens: Iterable[Generator] | Sheaf1) -> Sheaf1:
    """Merge generators that agree on (interval, shift); drop nothing else.

    Idempotent; every public operation returns normalized objects.  The
    generators are merged and sorted by the integer key (lo*den, hi*den,
    closure, shift), den the common denominator of all their ends; den > 0
    keeps the order, so it is the order of Generator.sort_key.
    """
    if isinstance(gens, Sheaf1):
        gens = gens.gens
    gens = list(gens)
    ends, _ = lattice_point([e for g in gens for e in (g.interval.lo, g.interval.hi)])
    merged: dict[tuple, Generator] = {}
    for g, lo, hi in zip(gens, ends[::2], ends[1::2]):
        key = (lo, hi, g.interval.closure, g.shift)
        old = merged.get(key)
        merged[key] = g if old is None else Generator(g.interval, g.shift, old.mult + g.mult)
    return Sheaf1(tuple(merged[k] for k in sorted(merged)))


# -- convenience constructors ------------------------------------------------

def interval_sheaf(closure: Closure, a, b, shift: int = 0, mult: int = 1) -> Sheaf1:
    """mult copies of k_I[shift], I the interval from a to b with the
    given endpoint closure."""
    return normalize([Generator(Interval(rat(a), rat(b), closure), shift, mult)])


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
    return normalize([g for f in sheaves for g in f.gens])


# -- elementary operations ---------------------------------------------------

def shift(f: Sheaf1, k: int) -> Sheaf1:
    if not isinstance(k, int) or isinstance(k, bool):
        raise InputError(f"shift must be an integer, got {k!r}")
    return normalize(Generator(g.interval, g.shift + k, g.mult) for g in f)


def translate(f: Sheaf1, x0) -> Sheaf1:
    x0 = rat(x0)
    return normalize(Generator(g.interval.translate(x0), g.shift, g.mult) for g in f)


def antipodal(f: Sheaf1) -> Sheaf1:
    """Pullback along x -> -x."""
    return normalize(Generator(g.interval.reflect(), g.shift, g.mult) for g in f)


def dual(f: Sheaf1) -> Sheaf1:
    """Verdier duality.

    On intervals it swaps open and closed ends and replaces a shift d by
    1 - d, except that skyscrapers are self-dual up to sign of shift:

        D k_{[a,b]}[d] = k_{]a,b[}[1-d]      D k_{]a,b[}[d] = k_{[a,b]}[1-d]
        D k_{[a,b[}[d] = k_{]a,b]}[1-d]      D k_{]a,b]}[d] = k_{[a,b[}[1-d]
        D delta_a[d]   = delta_a[-d]
    """
    out = []
    for g in f:
        iv = g.interval
        if iv.is_point:
            out.append(Generator(iv, -g.shift, g.mult))
        else:
            flipped = Interval(iv.lo, iv.hi, Closure.of(not iv.closure.left_closed,
                                                        not iv.closure.right_closed))
            out.append(Generator(flipped, 1 - g.shift, g.mult))
    return normalize(out)


# -- convolution -------------------------------------------------------------

def _convolve_intervals(i: Interval, j: Interval) -> list[tuple[Interval, int]]:
    """Unshifted, multiplicity-one convolution k_I * k_J.

    Returns [(interval, extra_shift)] summands.  Case analysis over the
    closure pair (symmetric in its arguments); every case is forced by the
    stalkwise computation RGamma_c(I cap (t - J)) and double-checked by the
    oracle module.
    """
    ci, cj = i.closure, j.closure
    if int(ci) > int(cj):
        i, j = j, i
        ci, cj = cj, ci
    a, b = i.lo, i.hi
    c, d = j.lo, j.hi

    if ci is Closure.CC and cj is Closure.CC:
        return [(Interval(a + c, b + d, Closure.CC), 0)]

    if ci is Closure.CC and cj is Closure.OO:
        if i.length < j.length:
            return [(Interval(b + c, a + d, Closure.OO), 0)]
        # a shorter (or equal) open window degenerates to a closed interval
        # (a skyscraper when the lengths agree), one degree down
        return [(Interval(a + d, b + c, Closure.CC), -1)]

    if ci is Closure.CC and cj is Closure.CO:
        # only the left closure of the CC factor survives
        return [(Interval(a + c, a + d, Closure.CO), 0)]

    if ci is Closure.CC and cj is Closure.OC:
        return [(Interval(b + c, b + d, Closure.OC), 0)]

    if ci is Closure.CO and cj is Closure.OC:
        return []  # semi-open annihilation: every stalk is half-open

    if ci is Closure.OO and cj is Closure.OO:
        return [(Interval(a + c, b + d, Closure.OO), -1)]

    if ci is Closure.CO and cj is Closure.OO:
        # the CO factor translated by the right end of the open window
        return [(Interval(a + d, b + d, Closure.CO), -1)]

    if ci is Closure.OC and cj is Closure.OO:
        return [(Interval(a + c, b + c, Closure.OC), -1)]

    if ci is Closure.CO and cj is Closure.CO:
        lo_cut = min(a + d, b + c)
        hi_cut = max(a + d, b + c)
        return [
            (Interval(a + c, lo_cut, Closure.CO), 0),
            (Interval(hi_cut, b + d, Closure.CO), -1),
        ]

    if ci is Closure.OC and cj is Closure.OC:
        lo_cut = min(a + d, b + c)
        hi_cut = max(a + d, b + c)
        return [
            (Interval(hi_cut, b + d, Closure.OC), 0),
            (Interval(a + c, lo_cut, Closure.OC), -1),
        ]

    raise InvariantViolation(f"unhandled closure pair {ci}, {cj}")


def convolve_generators(g: Generator, h: Generator) -> Sheaf1:
    """Convolution of two single generators."""
    summands = [
        Generator(iv, g.shift + h.shift + extra, g.mult * h.mult)
        for iv, extra in _convolve_intervals(g.interval, h.interval)
    ]
    return normalize(summands)


def convolve(f: Sheaf1, g: Sheaf1) -> Sheaf1:
    """Bilinear extension of the generator table, normalized once."""
    return normalize(
        Generator(iv, gf.shift + gg.shift + extra, gf.mult * gg.mult)
        for gf in f
        for gg in g
        for iv, extra in _convolve_intervals(gf.interval, gg.interval)
    )


# -- local and global invariants ---------------------------------------------

def stalk(f: Sheaf1, t) -> dict[int, int]:
    """Graded dimensions of the stalk at t; zero entries are dropped."""
    t = rat(t)
    dims: dict[int, int] = {}
    for g in f:
        if g.interval.contains(t):
            deg = -g.shift
            dims[deg] = dims.get(deg, 0) + g.mult
    return {k: v for k, v in sorted(dims.items()) if v}


def global_sections_c(f: Sheaf1) -> dict[int, int]:
    """Compactly supported cohomology of the whole line.

    A closed generator (including skyscrapers) contributes in degree -d,
    an open one in degree 1-d, a semi-open one contributes nothing.
    """
    dims: dict[int, int] = {}
    for g in f:
        c = g.interval.closure
        if c is Closure.CC:
            deg = -g.shift
        elif c is Closure.OO:
            deg = 1 - g.shift
        else:
            continue
        dims[deg] = dims.get(deg, 0) + g.mult
    return {k: v for k, v in sorted(dims.items()) if v}


def euler_c(f: Sheaf1) -> int:
    return sum((-1 if deg % 2 else 1) * dim for deg, dim in global_sections_c(f).items())


def graded_tensor(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, p in a.items():
        for j, q in b.items():
            out[i + j] = out.get(i + j, 0) + p * q
    return {k: v for k, v in sorted(out.items()) if v}


def rescale(f: Sheaf1, lam) -> Sheaf1:
    """Proper pushforward along u(x) = lam * x.

    For lam = 0 the image is a point and the result is the skyscraper
    complex at 0 carrying RGamma_c(f).
    """
    lam = rat(lam)
    if lam == 0:
        return normalize(
            Generator(Interval(rat(0), rat(0), Closure.CC), -deg, dim)
            for deg, dim in global_sections_c(f).items()
        )
    out = []
    for g in f:
        iv = g.interval
        if lam > 0:
            img = Interval(lam * iv.lo, lam * iv.hi, iv.closure)
        else:
            img = Interval(lam * iv.hi, lam * iv.lo, iv.closure.reversed)
        out.append(Generator(img, g.shift, g.mult))
    return normalize(out)


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
    if len(f.gens) > 1:
        return False, f"{len(f.gens)} generators; an invertible object has exactly one"
    g = f.gens[0]
    if g.mult != 1:
        return False, f"multiplicity {g.mult}; an invertible generator has multiplicity 1"
    if g.interval.closure in (Closure.CO, Closure.OC):
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
