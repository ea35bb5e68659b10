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


def rand_interval(rng: random.Random) -> Interval:
    if rng.random() < 0.15:
        a = rand_rat(rng)
        return Interval(a, a, Closure.CC)
    closure = rng.choice(list(Closure))
    a = rand_rat(rng)
    b = rand_rat(rng)
    while b == a:
        b = rand_rat(rng)
    if a > b:
        a, b = b, a
    return Interval(a, b, closure)


def rand_generator(rng: random.Random) -> Generator:
    return Generator(rand_interval(rng), rng.randint(-3, 3), rng.randint(1, 3))
