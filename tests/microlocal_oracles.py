"""Oracles for the microlocal layer.

The library reads the singular support off the generators by one
closed-form end rule, and the characteristic cycle and B off the jumps
of chi, with B's zero entry the total of the + family.  The tables here
spell the end rays out closure by closure, with points as their own
case, the way the library first encoded them.  They share no code with
either reading, so a test that compares them checks both.

The library multiplies ray families on integer positions over one
common denominator; ``fraction_ray_convolve`` is the same product keyed
by the Fraction positions themselves, as it was first written.

The library decides B(f) * B(f reflected) = 1 in closed form, from the
sum of the squared multiplicities; ``ray_square`` builds that product
for one family, as the library once did, so the closed form can be
checked against it.

The paper's identities that the library never computes are stated here
on its transforms: B of the unit, of an antipodal, of a dual and of a
reflection, the antipodal cycle, and the support bound of a convolution.
"""

from fractions import Fraction

from sheafconv import sheaf1
from sheafconv.cf1 import Cf1
from sheafconv.microlocal import CC1, BTransform, ss
from sheafconv.sheaf1 import Closure, Sheaf1, convolve

PLUS = 1
MINUS = -1

# (endpoint index, sign, weight); endpoint 0 = lo, 1 = hi.  A ray points
# outward at a closed end and inward at an open one: CC gets the outward
# conormals (-, +), OO the inward ones (+, -), the semi-open types repeat
# the sign of their open end, and a skyscraper carries both rays.
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
    rows = _POINT_RAYS if iv.lo == iv.hi else _INTERVAL_RAYS[iv.closure]
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


def _negated(items: tuple[tuple[Fraction, int], ...]) -> tuple[tuple[Fraction, int], ...]:
    """Ray multiplicities with every base point negated: a sorted family
    read backwards."""
    return tuple((-x, m) for x, m in reversed(items))


def cf1_reflect(f: Cf1) -> Cf1:
    rb = tuple(-b for b in reversed(f.breaks))
    return Cf1(rb, tuple(reversed(f.point_values)), tuple(reversed(f.gap_values)))


def cc_antipodal(c: CC1) -> CC1:
    """Characteristic cycle of the antipodal object: positions negate and
    the two ray families swap."""
    return CC1(cf1_reflect(c.zero_weight), _negated(c.minus), _negated(c.plus))


def b_one() -> BTransform:
    """B of the unit skyscraper at the origin."""
    z = Fraction(0)
    return BTransform(((z, 1),), ((z, 1),), 1)


def b_antipodal(b: BTransform) -> BTransform:
    """B of the antipodal object: positions negate, ray families swap."""
    return BTransform(_negated(b.minus), _negated(b.plus), b.zero)


def b_reflect(b: BTransform) -> BTransform:
    """Positions negated with ray families kept; equals B of the dual of
    the antipodal object."""
    return BTransform(_negated(b.plus), _negated(b.minus), b.zero)


def b_dual(b: BTransform) -> BTransform:
    """Transform of the Verdier dual: the covector antipodal.

    Duality keeps the support in place, so ray families swap at fixed
    base points and the zero entry is unchanged.
    """
    return BTransform(b.minus, b.plus, b.zero)


def ss_convolution_bound_check(f: Sheaf1, g: Sheaf1) -> tuple[bool, tuple | None]:
    """Microlocal bound for convolution.

    Every ray (x0, sigma) of ss(f * g) must split as x0 = x1 + x2 with
    (x1, sigma) in ss(f) and (x2, sigma) in ss(g).  Returns the first
    unsplittable ray as a counterexample, or None.
    """
    h = convolve(f, g)
    rays_f = set(ss(f).rays)
    rays_g = set(ss(g).rays)
    for x0, sigma in ss(h).rays:
        if not any(
            (x0 - x1, sigma) in rays_g for x1, s1 in rays_f if s1 == sigma
        ):
            return False, (x0, sigma)
    return True, None
