"""Microlocal invariants of interval sheaves.

The cotangent directions over the line are the two ray signs; a
microlocal datum is therefore a pair of integer multisets indexed by
base point, one per sign, plus data along the zero section.  Three
levels are tracked:

  ss  -- singular support: which rays appear at all (no multiplicities);
  cc  -- characteristic cycle: signed ray multiplicities plus the
         pointwise Euler weight on the zero section, additive in the
         object and multiplied by (-1)^shift;
  b_transform -- the projection of cc to the cotangent fiber over the
         sum map; convolution turns into the positionwise product
         (bullet), which is the computable necessary condition for
         invertibility.

All three read one end rule, the local index formula for the
characteristic cycle of an interval (Kashiwara-Schapira, Sheaves on
Manifolds, ch. IX): a closed end carries +1 on its outward conormal ray,
an open end -1 on its inward one, and a point is closed at both ends.
An invertible f has inverse D(a f), the dual of its antipodal object,
whose transform is B(f) with every position negated (b_reflect); so
B(f) * B(D(a f)) = 1 is necessary.  That product is never built: each
family P times its reflection carries the sum of the squared
multiplicities at position 0, and a sum of squares of nonzero integers
is 1 only for a single ray of multiplicity +-1, the unit's shape.  The
necessary check reads the families once and decides in closed form.

The ray families are read off the object's integer keys over its own
denominator, merged by rational.signed_sum and kept sorted by position,
so a negation reads a family backwards.  Products run on integer
positions over one common denominator; the necessary check writes its
detail straight from the integer positions.  Public transforms hold
Fraction positions, each made once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cf1 import Cf1, cf1_from_sheaf, cf1_reflect
from .rational import fmt_rat, fmt_ratio, lattice_point, rat, signed_sum
from .sheaf1 import LEFT_OPEN, RIGHT_OPEN, Sheaf1, convolve, euler_c

PLUS = 1
MINUS = -1


def _negated(items: tuple[tuple[Fraction, int], ...]) -> tuple[tuple[Fraction, int], ...]:
    """Ray multiplicities with every base point negated: a sorted family
    read backwards."""
    return tuple((-x, m) for x, m in reversed(items))


@dataclass(frozen=True)
class SS1:
    """Singular support: closure of the support plus outward ray set."""

    zero_section: tuple[tuple[Fraction, Fraction], ...]  # merged closed intervals
    rays: tuple[tuple[Fraction, int], ...]  # (base point, sign), sorted

    def to_json(self) -> dict:
        return {
            "zero_section": [[fmt_rat(a), fmt_rat(b)] for a, b in self.zero_section],
            "rays": [[fmt_rat(x), "+" if s > 0 else "-"] for x, s in self.rays],
        }


@dataclass(frozen=True)
class CC1:
    """Characteristic cycle: signed ray multiplicities and zero-section weight."""

    zero_weight: Cf1
    plus: tuple[tuple[Fraction, int], ...]
    minus: tuple[tuple[Fraction, int], ...]

    def to_json(self) -> dict:
        return {
            "zero_weight": self.zero_weight.to_json(),
            "plus": [[fmt_rat(x), str(m)] for x, m in self.plus],
            "minus": [[fmt_rat(x), str(m)] for x, m in self.minus],
        }


@dataclass(frozen=True)
class BTransform:
    """Fiberwise projection of the characteristic cycle."""

    plus: tuple[tuple[Fraction, int], ...]
    minus: tuple[tuple[Fraction, int], ...]
    zero: int

    def to_json(self) -> dict:
        return {
            "plus": [[fmt_rat(x), str(m)] for x, m in self.plus],
            "minus": [[fmt_rat(x), str(m)] for x, m in self.minus],
            "zero": self.zero,
        }


def _end_rays(lo: int, hi: int, closure: int) -> tuple[tuple[int, int, int], ...]:
    """(base point, ray sign, weight) of each end of an interval: +1 on
    the outward ray of a closed end, -1 on the inward ray of an open one."""
    lw = -1 if closure & LEFT_OPEN else 1
    rw = -1 if closure & RIGHT_OPEN else 1
    return ((lo, -lw, lw), (hi, rw, rw))


def ss(f: Sheaf1) -> SS1:
    den = f.den
    support: list[list[int]] = []  # the merged closed intervals, in order of lo
    rays = set()
    for lo, hi, c, _, _ in f.keys:
        if support and lo <= support[-1][1]:
            support[-1][1] = max(support[-1][1], hi)
        else:
            support.append([lo, hi])
        rays.update((x, sign) for x, sign, _ in _end_rays(lo, hi, c))
    return SS1(tuple((Fraction(lo, den), Fraction(hi, den)) for lo, hi in support),
               tuple((Fraction(x, den), s) for x, s in sorted(rays, key=lambda r: (r[0], -r[1]))))


def _int_families(f: Sheaf1) -> tuple[tuple, tuple]:
    """Signed (plus, minus) ray multiplicities on the integer positions of
    f over f.den, sorted: the end rule times mult * (-1)^shift, summed
    over the generators."""
    families: dict[int, list[tuple[int, int]]] = {PLUS: [], MINUS: []}
    for lo, hi, c, s, m in f.keys:
        m = -m if s % 2 else m
        for x, sign, weight in _end_rays(lo, hi, c):
            families[sign].append((x, weight * m))
    return tuple(tuple(sorted(signed_sum(families[sign]).items())) for sign in (PLUS, MINUS))


def _ray_families(f: Sheaf1) -> tuple[tuple, tuple]:
    """The signed (plus, minus) ray multiplicities, each position made a
    Fraction once."""
    return tuple(tuple((Fraction(p, f.den), m) for p, m in items) for items in _int_families(f))


def cc(f: Sheaf1) -> CC1:
    return CC1(cf1_from_sheaf(f), *_ray_families(f))


def cc_antipodal(c: CC1) -> CC1:
    """Characteristic cycle of the antipodal object: positions negate and
    the two ray families swap."""
    return CC1(cf1_reflect(c.zero_weight), _negated(c.minus), _negated(c.plus))


def b_transform(f: Sheaf1) -> BTransform:
    return BTransform(*_ray_families(f), euler_c(f))


def b_one() -> BTransform:
    """B of the unit skyscraper at the origin."""
    z = rat(0)
    return BTransform(((z, 1),), ((z, 1),), 1)


def _ray_convolve(a: tuple, b: tuple) -> tuple[tuple[Fraction, int], ...]:
    """Additive convolution of two ray families on integer positions.

    Both families are scaled once by the lcm of their position
    denominators and multiplied with int keys; each surviving position
    becomes a Fraction once, at the end.  Scaling by den > 0 keeps the
    order, so the sorted tuple is the one Fraction keys would give.
    """
    X, den = lattice_point([x for x, _ in a + b])
    scaled_a = list(zip(X[:len(a)], (m for _, m in a)))
    out = signed_sum((x + y, m * n) for y, (_, n) in zip(X[len(a):], b) for x, m in scaled_a)
    return tuple((Fraction(p, den), m) for p, m in sorted(out.items()))


def bullet(a: BTransform, b: BTransform) -> BTransform:
    """Product matching convolution: positionwise additive convolution on
    each ray family, ordinary product on the zero component."""
    return BTransform(
        _ray_convolve(a.plus, b.plus),
        _ray_convolve(a.minus, b.minus),
        a.zero * b.zero,
    )


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


def b_necessary_check(f: Sheaf1) -> tuple[bool, dict]:
    """Necessary condition for invertibility at the B level.

    An inverse must have transform B(f) reflected, so B(f) times its
    reflection must be the unit transform.  Each ray family P times its
    reflection carries sum(m * m) at position 0, and that sum over
    nonzero multiplicities is 1 only for one ray of multiplicity +-1,
    whose product is the unit; the zero entry multiplies to z * z.  So
    the check passes exactly when each family is a single ray of
    multiplicity +-1 and z * z = 1, read in one pass over the families.
    Invertible objects always pass; the converse fails in general, so a
    pass is not a certificate.  The detail holds B(f) as `btrans` writes
    it and the product's value at 0, its "norm".
    """
    den, z = f.den, euler_c(f)
    families = _int_families(f)
    plus, minus = ([[fmt_ratio(p, den), str(m)] for p, m in items] for items in families)
    norm_plus, norm_minus = (sum(m * m for _, m in items) for items in families)
    scalar_ok = z * z == 1
    refined_ok = norm_plus == norm_minus == 1 and scalar_ok
    detail = {
        "transform": {"plus": plus, "minus": minus, "zero": z},
        "norm": {"plus": norm_plus, "minus": norm_minus, "zero": z * z},
        "zero": z,
        "refined_ok": refined_ok,
        "scalar_ok": scalar_ok,
    }
    return refined_ok, detail


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
