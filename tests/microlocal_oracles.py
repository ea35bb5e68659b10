"""Oracles for the microlocal layer.

The library reads one closed-form end rule for what an interval end
contributes to the singular support and the characteristic cycle.  The
tables here spell the same data out closure by closure, with points as
their own case, the way the library first encoded it.  They share no
code with the end rule, so a test that compares the two checks both.

The library multiplies ray families on integer positions over one
common denominator; ``fraction_ray_convolve`` is the same product keyed
by the Fraction positions themselves, as it was first written.

The library decides B(f) * B(f reflected) = 1 in closed form, from the
sum of the squared multiplicities; ``ray_square`` builds that product
for one family, as the library once did, so the closed form can be
checked against it.
"""

from fractions import Fraction

from sheafconv import sheaf1
from sheafconv.sheaf1 import Closure

PLUS = 1
MINUS = -1

# (endpoint index, sign, weight); endpoint 0 = lo, 1 = hi.  CC gets the
# inward-pointing conormals (-, +), OO outward (+, -), the semi-open
# types repeat the sign of their open end, and a skyscraper carries
# both rays.
_POINT_RAYS = ((0, PLUS, 1), (0, MINUS, 1))
_INTERVAL_RAYS = {
    Closure.CC: ((0, MINUS, 1), (1, PLUS, 1)),
    Closure.OO: ((0, PLUS, -1), (1, MINUS, -1)),
    Closure.CO: ((0, MINUS, 1), (1, MINUS, -1)),
    Closure.OC: ((0, PLUS, -1), (1, PLUS, 1)),
}


def table_rays(iv: sheaf1.Interval):
    """(base point, sign, weight) per ray of one interval, from the tables."""
    ends = (iv.lo, iv.hi)
    rows = _POINT_RAYS if iv.is_point else _INTERVAL_RAYS[iv.closure]
    return [(ends[i], sign, weight) for i, sign, weight in rows]


def table_ss_rays(f: sheaf1.Sheaf1):
    """The singular support's rays, sorted by base point, plus before minus."""
    rays = {(x, s) for g in f for x, s, _ in table_rays(g.interval)}
    return tuple(sorted(rays, key=lambda r: (r[0], -r[1])))


def table_cc_families(f: sheaf1.Sheaf1):
    """(plus, minus) signed ray multiplicities, zero entries dropped."""
    acc: dict[tuple[Fraction, int], int] = {}
    for g in f:
        factor = g.mult * (-1) ** (g.shift % 2)
        for x, s, w in table_rays(g.interval):
            acc[(x, s)] = acc.get((x, s), 0) + w * factor
    return tuple(
        tuple(sorted((x, m) for (x, s), m in acc.items() if s == sign and m))
        for sign in (PLUS, MINUS)
    )


def fraction_ray_convolve(a, b):
    """Additive convolution of two ray families with Fraction keys,
    zero multiplicities dropped, sorted by position."""
    out: dict[Fraction, int] = {}
    for x, m in a:
        for y, n in b:
            out[x + y] = out.get(x + y, 0) + m * n
    return tuple(sorted((x, m) for x, m in out.items() if m))


def ray_square(items):
    """A sorted family P times its reflection: c(t) is the sum of
    m_i * m_j over x_i - x_j = t.  It is symmetric, c(t) = c(-t), so only
    the pairs i > j (t > 0) are summed and mirrored; c(0) is the sum of
    the squares.  Zero entries dropped, sorted by position."""
    half = {}
    for j, (y, n) in enumerate(items):
        for x, m in items[j + 1:]:
            half[x - y] = half.get(x - y, 0) + m * n
    right = tuple(sorted((t, c) for t, c in half.items() if c))
    centre = ((0, sum(m * m for _, m in items)),) if items else ()
    return tuple((-t, c) for t, c in reversed(right)) + centre + right
