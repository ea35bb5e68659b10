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

ss reads the generators: a closed end's outward conormal ray and an open
end's inward one, a point being closed at both ends.  It is not a
function of chi: k_[0,1] + k_[0,1][1] has chi = 0 and rays at both ends.
cc and B read the jumps of phi = chi(f) by the local index formula
(Kashiwara-Schapira, Sheaves on Manifolds, ch. IX): the + ray at x
carries phi(x) - phi(x+), the - ray phi(x) - phi(x-), and B's zero entry
is the + total, the integral of phi d(chi).
An invertible f has inverse D(a f), the dual of its antipodal object,
and B(D(a f)) is B(f) with its positions negated, so B(f) * B(D(a f)) = 1
is necessary.  That product is never built: each family P times its
reflection carries the sum of the squared multiplicities at position 0,
and a sum of squares of nonzero integers is 1 only for a single ray of
multiplicity +-1, the unit's shape.  The necessary check reads the
families once and decides in closed form.

The jumps come from the integer sweep that builds chi(f) (cf1), sorted
by position.  Products run on integer positions over one common
denominator; the necessary check writes its detail straight from the
integer positions.  Public transforms hold Fraction positions, each made
once; cc's are the breakpoints of its own zero weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cf1 import Cf1, _from_rows, _sheaf_atoms, _sweep
from .rational import fmt_rat, fmt_ratio, lattice_point, signed_sum
from .sheaf1 import LEFT_OPEN, RIGHT_OPEN, Sheaf1


@dataclass(frozen=True)
class SS1:
    """Singular support: closure of the support plus the end rays, outward
    at a closed end and inward at an open one."""

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


def ss(f: Sheaf1) -> SS1:
    den = f.den
    support: list[list[int]] = []  # the merged closed intervals, in order of lo
    rays = set()
    for lo, hi, c, _, _ in f.keys:
        if support and lo <= support[-1][1]:
            support[-1][1] = max(support[-1][1], hi)
        else:
            support.append([lo, hi])
        rays.update(((lo, 1 if c & LEFT_OPEN else -1), (hi, -1 if c & RIGHT_OPEN else 1)))
    return SS1(tuple((Fraction(lo, den), Fraction(hi, den)) for lo, hi in support),
               tuple((Fraction(x, den), s) for x, s in sorted(rays, key=lambda r: (r[0], -r[1]))))


def _families(rows: list, positions) -> tuple[tuple, tuple]:
    """The (plus, minus) ray multiplicities at a sweep's breakpoints, keyed
    by positions: phi(x) - phi(x+) and phi(x) - phi(x-), zeros dropped."""
    return (tuple((p, at - right) for p, (_, _, at, right) in zip(positions, rows) if at != right),
            tuple((p, at - left) for p, (_, left, at, _) in zip(positions, rows) if at != left))


def cc(f: Sheaf1) -> CC1:
    rows = _sweep(*_sheaf_atoms(f))
    zero_weight = _from_rows(rows, f.den)
    return CC1(zero_weight, *_families(rows, zero_weight.breaks))


def b_transform(f: Sheaf1) -> BTransform:
    rows = _sweep(*_sheaf_atoms(f))
    plus, minus = _families(rows, [Fraction(x, f.den) for x, _, _, _ in rows])
    return BTransform(plus, minus, sum(m for _, m in plus))


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
    rows = _sweep(*_sheaf_atoms(f))
    families = _families(rows, [fmt_ratio(x, f.den) for x, _, _, _ in rows])
    z = sum(m for _, m in families[0])
    plus, minus = ([[p, str(m)] for p, m in items] for items in families)
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

