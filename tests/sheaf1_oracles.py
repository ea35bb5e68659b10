"""Oracle for the one-dimensional objects, and seeded random ones.

The library keeps an object as integer keys over one denominator.  The
functions here are the same operations on Fraction generators, as they
were first written: the closure-pair table adds Fraction ends, and the
normal form is a dict by (interval, shift) sorted by the Fraction ends.
Each returns the canonical generator tuple (a stalk its graded
dimensions), so a test compares it with the library's Generator views.
sheaf_to_expr writes an object back in the expression language, so a
test can read it again and compare.
"""

import random
from fractions import Fraction

from sheafconv import cli
from sheafconv.sheaf1 import (Closure, Generator, Interval, Sheaf1,
                              global_sections_c, normalize)
from sheafconv.randgen import rand_generator, rand_rat


C = Closure
# each closure with its two ends swapped, and with each end's closure flipped
MIRRORED = {C.CC: C.CC, C.CO: C.OC, C.OC: C.CO, C.OO: C.OO}
FLIPPED = {C.CC: C.OO, C.CO: C.OC, C.OC: C.CO, C.OO: C.CC}


def sort_key(g: Generator) -> tuple:
    iv = g.interval
    return (iv.lo, iv.hi, int(iv.closure), g.shift)


def fraction_normalize(gens) -> tuple:
    """The canonical generator tuple of a list of generators."""
    merged: dict = {}
    for g in gens:
        key = (g.interval, g.shift)
        old = merged.get(key)
        merged[key] = g if old is None else Generator(g.interval, g.shift, old.mult + g.mult)
    return tuple(sorted(merged.values(), key=sort_key))


def fraction_convolve_intervals(i: Interval, j: Interval) -> list:
    """Unshifted, multiplicity-one convolution k_I * k_J as
    [(interval, extra_shift)] summands, one case per closure pair."""
    ci, cj = i.closure, j.closure
    if int(ci) > int(cj):
        i, j = j, i
        ci, cj = cj, ci
    a, b = i.lo, i.hi
    c, d = j.lo, j.hi
    if (ci, cj) == (C.CC, C.CC):
        return [(Interval(a + c, b + d, C.CC), 0)]
    if (ci, cj) == (C.CC, C.OO):
        if b - a < d - c:
            return [(Interval(b + c, a + d, C.OO), 0)]
        return [(Interval(a + d, b + c, C.CC), -1)]
    if (ci, cj) == (C.CC, C.CO):
        return [(Interval(a + c, a + d, C.CO), 0)]
    if (ci, cj) == (C.CC, C.OC):
        return [(Interval(b + c, b + d, C.OC), 0)]
    if (ci, cj) == (C.CO, C.OC):
        return []
    if (ci, cj) == (C.OO, C.OO):
        return [(Interval(a + c, b + d, C.OO), -1)]
    if (ci, cj) == (C.CO, C.OO):
        return [(Interval(a + d, b + d, C.CO), -1)]
    if (ci, cj) == (C.OC, C.OO):
        return [(Interval(a + c, b + c, C.OC), -1)]
    lo_cut, hi_cut = min(a + d, b + c), max(a + d, b + c)
    if (ci, cj) == (C.CO, C.CO):
        return [(Interval(a + c, lo_cut, C.CO), 0), (Interval(hi_cut, b + d, C.CO), -1)]
    return [(Interval(hi_cut, b + d, C.OC), 0), (Interval(a + c, lo_cut, C.OC), -1)]


def fraction_convolve(f: Sheaf1, g: Sheaf1) -> tuple:
    return fraction_normalize(
        Generator(iv, gf.shift + gg.shift + extra, gf.mult * gg.mult)
        for gf in f.gens for gg in g.gens
        for iv, extra in fraction_convolve_intervals(gf.interval, gg.interval))


def fraction_shift(f: Sheaf1, k: int) -> tuple:
    return fraction_normalize(Generator(g.interval, g.shift + k, g.mult) for g in f.gens)


def fraction_translate(f: Sheaf1, x0: Fraction) -> tuple:
    return fraction_normalize(
        Generator(Interval(g.interval.lo + x0, g.interval.hi + x0, g.interval.closure),
                  g.shift, g.mult) for g in f.gens)


def fraction_antipodal(f: Sheaf1) -> tuple:
    return fraction_normalize(
        Generator(Interval(-g.interval.hi, -g.interval.lo, MIRRORED[g.interval.closure]),
                  g.shift, g.mult) for g in f.gens)


def fraction_dual(f: Sheaf1) -> tuple:
    out = []
    for g in f.gens:
        iv = g.interval
        if iv.lo == iv.hi:
            out.append(Generator(iv, -g.shift, g.mult))
        else:
            out.append(Generator(Interval(iv.lo, iv.hi, FLIPPED[iv.closure]), 1 - g.shift, g.mult))
    return fraction_normalize(out)


def fraction_rescale(f: Sheaf1, lam: Fraction) -> tuple:
    if lam == 0:
        return fraction_normalize(
            Generator(Interval(Fraction(0), Fraction(0), Closure.CC), -deg, dim)
            for deg, dim in global_sections_c(f).items())
    out = []
    for g in f.gens:
        iv = g.interval
        if lam > 0:
            img = Interval(lam * iv.lo, lam * iv.hi, iv.closure)
        else:
            img = Interval(lam * iv.hi, lam * iv.lo, MIRRORED[iv.closure])
        out.append(Generator(img, g.shift, g.mult))
    return fraction_normalize(out)


def holds(iv: Interval, t: Fraction) -> bool:
    """Whether t lies in iv, read off its Fraction ends and its closure's name."""
    return ((iv.lo < t or (iv.lo == t and iv.closure in (C.CC, C.CO)))
            and (t < iv.hi or (t == iv.hi and iv.closure in (C.CC, C.OC))))


def fraction_stalk(f: Sheaf1, t: Fraction) -> dict:
    dims: dict = {}
    for g in f.gens:
        if holds(g.interval, t):
            dims[-g.shift] = dims.get(-g.shift, 0) + g.mult
    return {k: v for k, v in sorted(dims.items()) if v}


def fraction_inverse(f: Sheaf1) -> tuple:
    """The dual of the antipodal object of an invertible f."""
    return fraction_dual(normalize(fraction_antipodal(f)))


def graded_tensor(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, p in a.items():
        for j, q in b.items():
            out[i + j] = out.get(i + j, 0) + p * q
    return {k: v for k, v in sorted(out.items()) if v}


# ---------------------------------------------------------------------------
# the expression language

# Closure -> expression-language atom
_ATOMS = {C.CC: "kc", C.CO: "kco", C.OC: "koc", C.OO: "ko"}


def sheaf_to_expr(f: Sheaf1) -> str:
    """Render a canonical object back into the expression language."""
    parts = []
    for lo, hi, c, s, m in cli._ends(f):
        core = f"dirac({lo})" if lo == hi else f"{_ATOMS[c]}({lo},{hi})"
        if s:
            core = f"shift({core},{s})"
        parts.extend([core] * m)
    if not parts:
        return "zero"
    if len(parts) == 1:
        return parts[0]
    return "sum(" + ",".join(parts) + ")"


# ---------------------------------------------------------------------------
# seeded random objects


def rand_sheaf(rng: random.Random, max_gens: int = 6, allow_zero: bool = True) -> Sheaf1:
    lo = 0 if allow_zero else 1
    return normalize([rand_generator(rng) for _ in range(rng.randint(lo, max_gens))])


def rand_invertible(rng: random.Random) -> Sheaf1:
    """A single generator of multiplicity one, closed or open."""
    if rng.random() < 0.2:
        a = rand_rat(rng)
        iv = Interval(a, a, Closure.CC)
    else:
        closure = rng.choice([Closure.CC, Closure.OO])
        a, b = rand_rat(rng), rand_rat(rng)
        while b == a:
            b = rand_rat(rng)
        iv = Interval(min(a, b), max(a, b), closure)
    return normalize((Generator(iv, rng.randint(-3, 3), 1),))
