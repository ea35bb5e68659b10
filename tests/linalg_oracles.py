"""Fraction linear algebra, kept as an oracle for the integer lattice
form of sheafconv.polytope: reduced row echelon form and nullspace, the
scaling of a vector the tests build points with, and its scaling to
primitive integers with its signs kept."""

from fractions import Fraction
from math import gcd, lcm


def vscale(u, c) -> tuple:
    return tuple(a * c for a in u)


def scaled(w):
    """A rational vector scaled to primitive integers, its signs kept."""
    ints = [int(c * lcm(*(Fraction(x).denominator for x in w))) for c in w]
    return tuple(c // gcd(*ints) for c in ints)


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


def nullspace(rows: list, ncols: int) -> list[tuple]:
    """Basis of {x : row . x = 0 for every row}, one vector per free
    column with 1 there."""
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
