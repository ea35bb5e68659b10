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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cf1 import Cf1, cf1_from_sheaf, cf1_reflect
from .rational import fmt_rat, rat
from .sheaf1 import Closure, Sheaf1, antipodal, convolve, dual, euler_c

PLUS = 1
MINUS = -1

RayMultiset = dict[Fraction, int]


def _ray_items(rays: RayMultiset) -> tuple[tuple[Fraction, int], ...]:
    return tuple(sorted((x, m) for x, m in rays.items() if m))


def _negated(items: tuple[tuple[Fraction, int], ...]) -> tuple[tuple[Fraction, int], ...]:
    """Ray multiplicities with every base point negated, re-sorted."""
    return tuple(sorted((-x, m) for x, m in items))


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

    def plus_dict(self) -> RayMultiset:
        return dict(self.plus)

    def minus_dict(self) -> RayMultiset:
        return dict(self.minus)

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

    def plus_dict(self) -> RayMultiset:
        return dict(self.plus)

    def minus_dict(self) -> RayMultiset:
        return dict(self.minus)

    def to_json(self) -> dict:
        return {
            "plus": [[fmt_rat(x), str(m)] for x, m in self.plus],
            "minus": [[fmt_rat(x), str(m)] for x, m in self.minus],
            "zero": self.zero,
        }


# ray sign pattern of a generator: (left endpoint sign(s), right endpoint sign(s))
# CC gets inward-pointing conormals (-, +), OO outward (+, -), the semi-open
# types repeat the sign of their open end, and a skyscraper carries both rays.

def _gen_rays(closure: Closure, is_point: bool) -> tuple[tuple[int, int], ...]:
    """(endpoint index, sign) pairs; endpoint 0 = lo, 1 = hi."""
    if is_point:
        return ((0, PLUS), (0, MINUS))
    return {
        Closure.CC: ((0, MINUS), (1, PLUS)),
        Closure.OO: ((0, PLUS), (1, MINUS)),
        Closure.CO: ((0, MINUS), (1, MINUS)),
        Closure.OC: ((0, PLUS), (1, PLUS)),
    }[closure]


# signed multiplicities for the characteristic cycle, before the
# mult * (-1)^shift factor; same indexing as _gen_rays.

def _gen_cc_signs(closure: Closure, is_point: bool) -> tuple[tuple[int, int, int], ...]:
    if is_point:
        return ((0, PLUS, 1), (0, MINUS, 1))
    return {
        Closure.CC: ((0, MINUS, 1), (1, PLUS, 1)),
        Closure.OO: ((0, PLUS, -1), (1, MINUS, -1)),
        Closure.CO: ((0, MINUS, 1), (1, MINUS, -1)),
        Closure.OC: ((0, PLUS, -1), (1, PLUS, 1)),
    }[closure]


def _merge_closed_intervals(ivs: list[tuple[Fraction, Fraction]]) -> tuple:
    if not ivs:
        return ()
    ivs.sort()
    merged = [list(ivs[0])]
    for lo, hi in ivs[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def ss(f: Sheaf1) -> SS1:
    rays = set()
    support = []
    for g in f:
        iv = g.interval
        support.append((iv.lo, iv.hi))
        ends = (iv.lo, iv.hi)
        for end_idx, sign in _gen_rays(iv.closure, iv.is_point):
            rays.add((ends[end_idx], sign))
    return SS1(_merge_closed_intervals(support),
               tuple(sorted(rays, key=lambda r: (r[0], -r[1]))))


def cc(f: Sheaf1) -> CC1:
    plus: RayMultiset = {}
    minus: RayMultiset = {}
    for g in f:
        iv = g.interval
        factor = g.mult * (-1 if g.shift % 2 else 1)
        ends = (iv.lo, iv.hi)
        for end_idx, sign, weight in _gen_cc_signs(iv.closure, iv.is_point):
            target = plus if sign == PLUS else minus
            x = ends[end_idx]
            target[x] = target.get(x, 0) + weight * factor
    return CC1(cf1_from_sheaf(f), _ray_items(plus), _ray_items(minus))


def cc_antipodal(c: CC1) -> CC1:
    """Characteristic cycle of the antipodal object: positions negate and
    the two ray families swap."""
    return CC1(cf1_reflect(c.zero_weight), _negated(c.minus), _negated(c.plus))


def b_transform(f: Sheaf1) -> BTransform:
    c = cc(f)
    return BTransform(c.plus, c.minus, euler_c(f))


def b_one() -> BTransform:
    """B of the unit skyscraper at the origin."""
    z = rat(0)
    return BTransform(((z, 1),), ((z, 1),), 1)


def _ray_convolve(a: RayMultiset, b: RayMultiset) -> RayMultiset:
    out: RayMultiset = {}
    for x, m in a.items():
        for y, n in b.items():
            out[x + y] = out.get(x + y, 0) + m * n
    return {k: v for k, v in out.items() if v}


def bullet(a: BTransform, b: BTransform) -> BTransform:
    """Product matching convolution: positionwise additive convolution on
    each ray family, ordinary product on the zero component."""
    return BTransform(
        _ray_items(_ray_convolve(a.plus_dict(), b.plus_dict())),
        _ray_items(_ray_convolve(a.minus_dict(), b.minus_dict())),
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

    Checks that (a) the product of B(f) with B(dual(antipodal(f))) is the
    unit transform, and (b) the scalar Euler square is 1.  Invertible
    objects always pass; the converse fails in general, so a pass is not
    a certificate.
    """
    bf = b_transform(f)
    bi = b_transform(dual(antipodal(f)))
    product = bullet(bf, bi)
    refined_ok = product == b_one()
    scalar_ok = bf.zero * bf.zero == 1
    detail = {
        "product": product.to_json(),
        "zero": bf.zero,
        "refined_ok": refined_ok,
        "scalar_ok": scalar_ok,
    }
    return refined_ok and scalar_ok, detail


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
