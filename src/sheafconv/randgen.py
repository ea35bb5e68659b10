"""Seeded random object makers shared by the oracle driver and the tests.

Everything takes an explicit random.Random so runs are reproducible from
a single integer seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .sheaf1 import Closure, Generator, Interval, Sheaf1, normalize


def rand_rat(rng: random.Random, lo: int = -16, hi: int = 16, max_den: int = 8) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_closure(rng: random.Random) -> Closure:
    return rng.choice(list(Closure))


def rand_interval(rng: random.Random, allow_point: bool = True) -> Interval:
    if allow_point and rng.random() < 0.15:
        a = rand_rat(rng)
        return Interval(a, a, Closure.CC)
    closure = rand_closure(rng)
    a = rand_rat(rng)
    b = rand_rat(rng)
    while b == a:
        b = rand_rat(rng)
    if a > b:
        a, b = b, a
    return Interval(a, b, closure)


def rand_generator(rng: random.Random, max_shift: int = 3, max_mult: int = 3) -> Generator:
    return Generator(
        rand_interval(rng),
        rng.randint(-max_shift, max_shift),
        rng.randint(1, max_mult),
    )


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
    return Sheaf1((Generator(iv, rng.randint(-3, 3), 1),))


# ---------------------------------------------------------------------------
# geometry makers (kept small-coordinate so exact hulls stay fast)

def rand_point(rng: random.Random, n: int, span: int = 4, max_den: int = 2) -> tuple:
    return tuple(rand_rat(rng, -span, span, max_den) for _ in range(n))


def rand_polytope(rng: random.Random, n: int, npts: int | None = None, span: int = 4):
    from .polytope import convex_hull

    if npts is None:
        npts = rng.randint(n + 1, n + 4)
    return convex_hull([rand_point(rng, n, span) for _ in range(npts)])


def rand_box(rng: random.Random, n: int, span: int = 4):
    from itertools import product

    from .polytope import Polytope

    sides = []
    for _ in range(n):
        a = rand_rat(rng, -span, span, 2)
        b = rand_rat(rng, -span, span, 2)
        sides.append((min(a, b), max(a, b)))
    return Polytope(tuple(product(*[(lo, hi) for lo, hi in sides])))


def rand_union_region(rng: random.Random, n: int, max_terms: int = 3, span: int = 4):
    """Union of closed polytopes presented with weight one each."""
    from .region import CLOSED, make_region

    k = rng.randint(1, max_terms)
    polys: dict = {}
    while len(polys) < k:
        p = rand_box(rng, n, span) if rng.random() < 0.5 else rand_polytope(rng, n, span=span)
        polys[p] = p
    return make_region(n, [(p, CLOSED, 1) for p in polys.values()])
