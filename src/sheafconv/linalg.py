"""Exact vector helpers over int or Fraction, sized for ambient dimension <= 3."""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul, neg, sub

from .rational import lattice_point, over_gcd

Vec = tuple[Fraction, ...]


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(map(add, u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(map(sub, u, v))


def vneg(u: Vec) -> Vec:
    return tuple(map(neg, u))


def vdot(u, v) -> Fraction:
    return sum(map(mul, u, v))


def cross3(u, v) -> tuple:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def primitive(v) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, its first nonzero
    entry positive: one canonical representative per line."""
    ints = over_gcd(lattice_point(v)[0])
    return vneg(ints) if next((x for x in ints if x), 0) < 0 else ints
