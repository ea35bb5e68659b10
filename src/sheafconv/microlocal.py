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
whose transform is B(f) with every position negated (b_reflect); so the
necessary check multiplies B(f) by its reflection and never builds a
second sheaf.

The ray families and their product run on integer positions: the
positions are scaled once over one common denominator, summed in
int-keyed dicts and sorted as ints, and each output position becomes a
Fraction once.  Every family is kept sorted by position, so a negation
reads it backwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cf1 import Cf1, cf1_from_sheaf, cf1_reflect
from .rational import fmt_rat, lattice_point, rat
from .sheaf1 import Interval, Sheaf1, convolve, euler_c

PLUS = 1
MINUS = -1


def _ray_items(rays: dict[int, int], den: int) -> tuple[tuple[Fraction, int], ...]:
    """The nonzero multiplicities of an int-keyed family over den, sorted,
    each position made a Fraction once."""
    return tuple((Fraction(p, den), m) for p, m in sorted(rays.items()) if m)


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


def _end_rays(iv: Interval) -> tuple[tuple[Fraction, int, int], ...]:
    """(base point, ray sign, weight) of each end of an interval: +1 on
    the outward ray of a closed end, -1 on the inward ray of an open one."""
    lw = 1 if iv.closure.left_closed else -1
    rw = 1 if iv.closure.right_closed else -1
    return ((iv.lo, -lw, lw), (iv.hi, rw, rw))


def _merge_closed_intervals(ivs: list[tuple[Fraction, Fraction]]) -> tuple:
    merged: list[list[Fraction]] = []
    for lo, hi in sorted(ivs):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def ss(f: Sheaf1) -> SS1:
    rays = set()
    support = []
    for g in f:
        support.append((g.interval.lo, g.interval.hi))
        rays.update((x, sign) for x, sign, _ in _end_rays(g.interval))
    return SS1(_merge_closed_intervals(support),
               tuple(sorted(rays, key=lambda r: (r[0], -r[1]))))


def _ray_families(f: Sheaf1) -> tuple[tuple, tuple]:
    """Signed (plus, minus) ray multiplicities: the end rule times
    mult * (-1)^shift, summed over the generators on integer positions
    over the common denominator of all their ends."""
    rays = [(x, sign, weight * g.mult * (-1 if g.shift % 2 else 1))
            for g in f for x, sign, weight in _end_rays(g.interval)]
    X, den = lattice_point([x for x, _, _ in rays])
    families: dict[int, dict[int, int]] = {PLUS: {}, MINUS: {}}
    for p, (_, sign, m) in zip(X, rays):
        target = families[sign]
        target[p] = target.get(p, 0) + m
    return _ray_items(families[PLUS], den), _ray_items(families[MINUS], den)


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
    scaled_b = list(zip(X[len(a):], (n for _, n in b)))
    out: dict[int, int] = {}
    get = out.get
    for s, (_, m) in zip(X, a):
        for t, n in scaled_b:
            k = s + t
            out[k] = get(k, 0) + m * n
    return _ray_items(out, den)


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

    Checks that (a) the product of B(f) with its reflection, which is
    B(dual(antipodal(f))), the transform an inverse must have, is the
    unit transform, and (b) the scalar Euler square is 1.  Invertible
    objects always pass; the converse fails in general, so a pass is not
    a certificate.
    """
    bf = b_transform(f)
    product = bullet(bf, b_reflect(bf))
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
