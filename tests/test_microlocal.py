"""Singular support, characteristic cycle, and the ray transform.

The one-sidedness test at the bottom matters: the necessary condition
is a genuine theorem-level filter, not a decision procedure, and we
pin an explicit object in its blind spot so nobody upgrades it to one.
"""

import random
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import example, given, settings

from sheafconv.microlocal import BTransform, b_necessary_check, b_transform, bullet, cc, ss
from sheafconv.sheaf1 import (
    Closure,
    Generator,
    Interval,
    antipodal,
    convolve,
    dirac,
    direct_sum,
    dual,
    euler_c,
    inverse,
    is_invertible,
    kc,
    kco,
    ko,
    koc,
    normalize,
    shift,
)

from microlocal_oracles import (
    b_antipodal,
    b_dual,
    b_one,
    b_reflect,
    cc_antipodal,
    fraction_ray_convolve,
    ss_convolution_bound_check,
    table_cc_families,
    table_ss_rays,
)
from test_sheaf1 import invertibles, rats, sheaves, small_sheaves


def items(pairs):
    return tuple(sorted((Fraction(x), m) for x, m in pairs))


# ---------------------------------------------------------------------------
# frozen transforms of the four unit-interval types


def test_b_transform_anchors():
    b = b_transform(kc(0, 1))
    assert (b.plus, b.minus, b.zero) == (items([(1, 1)]), items([(0, 1)]), 1)
    b = b_transform(ko(0, 1))
    assert (b.plus, b.minus, b.zero) == (items([(0, -1)]), items([(1, -1)]), -1)
    b = b_transform(kco(0, 1))
    assert (b.plus, b.minus, b.zero) == ((), items([(0, 1), (1, -1)]), 0)
    b = b_transform(koc(0, 1))
    assert (b.plus, b.minus, b.zero) == (items([(0, -1), (1, 1)]), (), 0)


def test_b_transform_of_unit_is_one():
    assert b_transform(dirac(0)) == b_one()


def test_b_transform_shift_flips_sign():
    b = b_transform(shift(kc(0, 1), 1))
    assert (b.plus, b.minus, b.zero) == (items([(1, -1)]), items([(0, -1)]), -1)


def test_ss_anchors():
    s = ss(direct_sum(kc(0, 1), dirac(3)))
    assert s.zero_section == ((Fraction(0), Fraction(1)), (Fraction(3), Fraction(3)))
    assert s.rays == ((Fraction(0), -1), (Fraction(1), 1), (Fraction(3), 1), (Fraction(3), -1))


def test_ss_merges_touching_supports():
    s = ss(direct_sum(kc(0, 1), kc(1, 2)))
    assert s.zero_section == ((Fraction(0), Fraction(2)),)


def test_cc_zero_weight_is_the_stalkwise_euler_function():
    c = cc(ko(0, 1))
    assert c.zero_weight.to_json() == {
        "breakpoints": ["0", "1"],
        "point_values": [0, 0],
        "gap_values": [1],
    }


@given(sheaves)
@settings(max_examples=300)
def test_end_rule_matches_per_closure_tables(f):
    # the sheaves mix points, all four closures, shifts and multiplicities
    plus, minus = table_cc_families(f)
    assert ss(f).rays == table_ss_rays(f)
    c = cc(f)
    assert (c.plus, c.minus) == (plus, minus)
    assert b_transform(f) == BTransform(plus, minus, euler_c(f))


# ---------------------------------------------------------------------------
# functoriality and identities


@given(small_sheaves, small_sheaves)
def test_b_functorial_for_convolution(f, g):
    assert b_transform(convolve(f, g)) == bullet(b_transform(f), b_transform(g))


@given(sheaves)
def test_b_of_dual_is_covector_antipodal(f):
    assert b_transform(dual(f)) == b_dual(b_transform(f))
    # duality keeps positions, reflection of the object negates them;
    # composing the two primitive moves gives the same swap
    assert b_dual(b_transform(f)) == b_reflect(b_antipodal(b_transform(f)))


@given(sheaves)
def test_b_of_antipodal_object(f):
    assert b_transform(antipodal(f)) == b_antipodal(b_transform(f))


@given(sheaves)
def test_b_reflect_matches_dual_antipodal(f):
    assert b_transform(dual(antipodal(f))) == b_reflect(b_transform(f))


@given(sheaves)
def test_b_index_identity(f):
    # both ray families and the zero entry carry the same total: chi
    b = b_transform(f)
    assert sum(m for _, m in b.plus) == b.zero == euler_c(f)
    assert sum(m for _, m in b.minus) == b.zero


@given(sheaves)
def test_cc_antipodal_involutive(f):
    assert cc_antipodal(cc_antipodal(cc(f))) == cc(f)
    assert cc_antipodal(cc(f)) == cc(antipodal(f))


@given(sheaves)
def test_ss_rays_sit_on_generator_endpoints(f):
    # merging the zero section can swallow a ray's base point (a
    # skyscraper inside a longer interval), so the bound is against the
    # generator endpoints, not the merged support
    s = ss(f)
    ends = {g.interval.lo for g in f.gens} | {g.interval.hi for g in f.gens}
    assert {x for x, _ in s.rays} <= ends
    supp = s.zero_section
    assert all(any(a <= x <= b for a, b in supp) for x, _ in s.rays)


@given(small_sheaves, small_sheaves)
def test_ss_convolution_bound(f, g):
    ok, counterexample = ss_convolution_bound_check(f, g)
    assert ok and counterexample is None


# ---------------------------------------------------------------------------
# the necessary condition


@given(invertibles())
def test_necessary_check_passes_on_invertibles(f):
    ok, detail = b_necessary_check(f)
    assert ok and detail["refined_ok"] and detail["scalar_ok"]


def test_necessary_check_fails_on_semi_open():
    for f in (kco(0, 1), koc(0, 1), kco(-2, Fraction(1, 2))):
        ok, detail = b_necessary_check(f)
        assert not ok and not detail["scalar_ok"]


def test_necessary_check_fails_on_two_generator_sums():
    pairs = [
        direct_sum(kc(0, 1), kc(0, 2)),
        direct_sum(kc(0, 1), ko(0, 2)),
        direct_sum(ko(-1, 1), ko(0, 2)),
        direct_sum(kc(0, 1), dirac(5)),
        direct_sum(dirac(0), dirac(1)),
        direct_sum(kc(0, 1), shift(kc(3, 4), 2)),
        kc(0, 1, mult=2),
    ]
    for f in pairs:
        ok, _ = b_necessary_check(f)
        assert not ok, f
        assert not is_invertible(f)[0]


def test_necessary_check_is_one_sided():
    # this object passes both the refined and the scalar check yet is
    # not invertible: the condition filters, it does not decide
    f = direct_sum(kco(0, 1), shift(kc(0, Fraction(1, 2)), 1))
    ok, detail = b_necessary_check(f)
    assert ok and detail["refined_ok"] and detail["scalar_ok"]
    assert not is_invertible(f)[0]


@given(invertibles(), invertibles())
def test_bullet_of_inverse_pair_is_unit(f, g):
    # B sends the inverse to the reflected transform, so the product
    # collapses to the unit
    assert bullet(b_transform(f), b_transform(inverse(f))) == b_one()
    assert bullet(b_transform(f), b_transform(g)) == b_transform(convolve(f, g))


# ---------------------------------------------------------------------------
# the product on integer positions against the Fraction-keyed oracle


# a few positions with mixed denominators up to 10**6, negatives included;
# families drawn from one small pool collide, so products cancel often
positions = st.lists(
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
    min_size=1, max_size=4, unique=True,
)


@st.composite
def ray_families(draw, pool):
    """A sorted family over the pool and its integer translates, with
    nonzero multiplicities; empty families included."""
    spots = {x + k for x in pool for k in (-1, 0, 1)}
    chosen = draw(st.lists(st.sampled_from(sorted(spots)), max_size=6, unique=True))
    return tuple(sorted((x, draw(st.sampled_from((-2, -1, 1, 2)))) for x in chosen))


@st.composite
def transform_pairs(draw):
    pool = draw(positions)
    a, b = (BTransform(draw(ray_families(pool)), draw(ray_families(pool)),
                       draw(st.integers(-3, 3))) for _ in range(2))
    return a, b


# (1 + t) * (1 - t) = 1 - t^2: the middle position cancels to zero
_CANCELLING = (BTransform(((Fraction(0), 1), (Fraction(1, 2), 1)), (), 1),
               BTransform(((Fraction(0), 1), (Fraction(1, 2), -1)), (), 1))


@given(transform_pairs())
@example(_CANCELLING)
@settings(max_examples=200)
def test_bullet_matches_fraction_oracle(pair):
    a, b = pair
    got = bullet(a, b)
    assert got.plus == fraction_ray_convolve(a.plus, b.plus)
    assert got.minus == fraction_ray_convolve(a.minus, b.minus)
    assert got.zero == a.zero * b.zero
    assert all(m for _, m in got.plus + got.minus)


# ---------------------------------------------------------------------------
# the refined verdict in closed form


def closed_form_refined_ok(b: BTransform) -> bool:
    """B(f) times its reflection carries the sum of the squared
    multiplicities at position 0, so it is the unit exactly when each ray
    family is one ray of multiplicity +-1 and the zero entry is +-1."""
    single = all(len(fam) == 1 and abs(fam[0][1]) == 1 for fam in (b.plus, b.minus))
    return single and abs(b.zero) == 1


@given(st.one_of(sheaves, invertibles(),
                 st.builds(convolve, small_sheaves, small_sheaves)))
@settings(max_examples=300)
def test_refined_verdict_has_closed_form(f):
    _, detail = b_necessary_check(f)
    assert detail["refined_ok"] == closed_form_refined_ok(b_transform(f))


_ENDS = sorted({Fraction(n, d) for n in range(-8, 9) for d in (1, 2, 3, 4)})


def _random_generator(rng, closure, shift=None):
    a, b = sorted(rng.sample(_ENDS, 2))
    return Generator(Interval(a, b, closure), rng.randint(-2, 2) if shift is None else shift)


def _three_of_each(rng):
    """Twelve distinct generators of multiplicity one, three per closure."""
    gens = set()
    for closure in list(Closure) * 3:
        size = len(gens)
        while len(gens) == size:
            gens.add(_random_generator(rng, closure))
    return normalize(gens)


def _unit_like(rng):
    """Twelve generators whose transform is that of one closed interval:
    kco(a,b) + kc(b,c) has the rays of kc(a,c), and each X + X[1] cancels."""
    a, b, c = sorted(rng.sample(_ENDS, 3))
    gens = [Generator(Interval(a, b, Closure.CO)), Generator(Interval(b, c, Closure.CC))]
    for _ in range(5):
        g = _random_generator(rng, rng.choice(list(Closure)), shift=0)
        gens += [g, Generator(g.interval, 1)]
    return normalize(gens)


def test_refined_verdict_closed_form_on_large_checks():
    # the large `check` of the line workload convolves two operands of
    # three generators per closure, up to 144 generators; their Euler
    # characteristic is a sum of six +-1, hence even, so the verdict is
    # always False there, and operands built to pass give the True side
    rng = random.Random(0)
    seen = set()
    for make in (_three_of_each, _unit_like) * 4:
        f = convolve(make(rng), make(rng))
        _, detail = b_necessary_check(f)
        assert detail["refined_ok"] == closed_form_refined_ok(b_transform(f))
        seen.add(detail["refined_ok"])
    assert seen == {False, True}
