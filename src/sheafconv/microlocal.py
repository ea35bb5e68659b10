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

The ray families are read off the object's integer keys over its own
denominator and kept sorted by position, so a negation reads a family
backwards.  Products run on integer positions through one kernel; the
necessary check's product P * P-bar is symmetric about 0, so it sums
only the pairs at t >= 0, mirrors them, and writes its detail straight
from the integer positions.  Public transforms hold Fraction positions,
each made once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cf1 import Cf1, cf1_from_sheaf, cf1_reflect
from .rational import fmt_rat, fmt_ratio, lattice_point, rat
from .sheaf1 import LEFT_OPEN, RIGHT_OPEN, Sheaf1, convolve, euler_c

PLUS = 1
MINUS = -1


def _int_items(rays: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """The nonzero multiplicities of an int-keyed family, sorted."""
    return tuple(sorted((p, m) for p, m in rays.items() if m))


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
    families: dict[int, dict[int, int]] = {PLUS: {}, MINUS: {}}
    for lo, hi, c, s, m in f.keys:
        m = -m if s % 2 else m
        for x, sign, weight in _end_rays(lo, hi, c):
            target = families[sign]
            target[x] = target.get(x, 0) + weight * m
    return _int_items(families[PLUS]), _int_items(families[MINUS])


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


def _add_row(out: dict[int, int], y: int, n: int, items) -> None:
    """The product kernel: out[x + y] += m * n for each (x, m) in items."""
    get = out.get
    for x, m in items:
        k = x + y
        out[k] = get(k, 0) + m * n


def _ray_convolve(a: tuple, b: tuple) -> tuple[tuple[Fraction, int], ...]:
    """Additive convolution of two ray families on integer positions.

    Both families are scaled once by the lcm of their position
    denominators and multiplied with int keys; each surviving position
    becomes a Fraction once, at the end.  Scaling by den > 0 keeps the
    order, so the sorted tuple is the one Fraction keys would give.
    """
    X, den = lattice_point([x for x, _ in a + b])
    scaled_a = list(zip(X[:len(a)], (m for _, m in a)))
    out: dict[int, int] = {}
    for y, (_, n) in zip(X[len(a):], b):
        _add_row(out, y, n, scaled_a)
    return tuple((Fraction(p, den), m) for p, m in _int_items(out))


def _ray_square(items: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """A sorted int family P times its reflection: c(t) is the sum of
    m_i * m_j over x_i - x_j = t.  It is symmetric, c(t) = c(-t), so only
    the pairs i > j (t > 0) are summed and mirrored; c(0) is the sum of
    the squares."""
    half: dict[int, int] = {}
    for j, (y, n) in enumerate(items):
        _add_row(half, -y, n, items[j + 1:])
    right = _int_items(half)
    centre = ((0, sum(m * m for _, m in items)),) if items else ()
    return tuple((-t, c) for t, c in reversed(right)) + centre + right


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
    den, z = f.den, euler_c(f)
    plus, minus = (_ray_square(items) for items in _int_families(f))
    unit = ((0, 1),)
    scalar_ok = z * z == 1
    refined_ok = plus == unit and minus == unit and scalar_ok
    detail = {
        "product": {
            "plus": [[fmt_ratio(t, den), str(c)] for t, c in plus],
            "minus": [[fmt_ratio(t, den), str(c)] for t, c in minus],
            "zero": z * z,
        },
        "zero": z,
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
