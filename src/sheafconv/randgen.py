"""Seeded random generators for the oracle driver (and the tests).

Everything takes an explicit random.Random so runs are reproducible from
a single integer seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .sheaf1 import Closure, Generator, Interval


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
