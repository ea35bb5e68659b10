"""Exact linear algebra over Fraction, sized for ambient dimension <= 3."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vec = tuple[Fraction, ...]


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vneg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def vdot(u, v) -> Fraction:
    return sum(a * b for a, b in zip(u, v))


def vscale(u: Vec, c) -> Vec:
    return tuple(a * c for a in u)


def cross3(u, v) -> tuple:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def rref(rows: list) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def nullspace(rows: list, ncols: int) -> list[Vec]:
    """Basis of {x : row . x = 0 for every row}."""
    if not rows:
        return [tuple(Fraction(int(i == j)) for j in range(ncols)) for i in range(ncols)]
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -red[ri][fc]
        basis.append(tuple(v))
    return basis


def primitive(v, keep_sign: bool = False) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers.

    Unless keep_sign is set the result is flipped so its first nonzero
    entry is positive, giving one canonical representative per line.
    """
    fr = [Fraction(x) for x in v]
    if all(x == 0 for x in fr):
        return tuple(0 for _ in fr)
    den = lcm(*(x.denominator for x in fr)) if len(fr) > 1 else fr[0].denominator
    ints = [int(x * den) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    if not keep_sign:
        lead = next(x for x in ints if x != 0)
        if lead < 0:
            ints = [-x for x in ints]
    return tuple(ints)
