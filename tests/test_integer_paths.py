"""The 1D layers run on integer positions over one common denominator.

Each integer path is pinned equal to the Fraction-keyed path it
replaced, on positions with mixed denominators up to 10**6, negative
positions, points, multiplicities that cancel and empty inputs: the
normal form and every operation on objects against the Fraction
operations of tests/sheaf1_oracles.py, the shadows against the pointwise
oracles and the Fraction sweep of tests/shadow_oracles.py, the ray
families against the per-closure tables of tests/microlocal_oracles.py,
the closed-form necessary check against the product of each family with
its reflection, and the negations against a re-sort.  Counting guards
keep the large ops free of Fraction hashing, and the large check free of
Fractions.
"""

import json
import random
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import example, given, settings

from sheafconv import cli
from sheafconv.cf1 import Cf1, cf1_convolve, cf1_from_atoms, cf1_from_sheaf
from sheafconv.dsl import eval_text
from sheafconv.microlocal import BTransform, b_necessary_check, b_transform, bullet, cc
from sheafconv.sheaf1 import (
    Closure,
    Generator,
    Interval,
    Sheaf1,
    antipodal,
    convolve,
    dual,
    euler_c,
    inverse,
    normalize,
    rescale,
    shift,
    stalk,
    translate,
)

from microlocal_oracles import (b_antipodal, b_one, b_reflect, cc_antipodal, ray_square,
                                table_cc_families)
from shadow_oracles import (brute_cf1_convolve, build_cf1, fraction_sweep, integer_atoms,
                            stalk_shadow)
from sheaf1_oracles import (
    fraction_antipodal,
    fraction_convolve,
    fraction_dual,
    fraction_inverse,
    fraction_normalize,
    fraction_rescale,
    fraction_shift,
    fraction_stalk,
    fraction_translate,
)

# a few positions with denominators up to 10**6, signs mixed
pools = st.lists(
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
    min_size=1, max_size=4, unique=True,
)


def spots(pool) -> list:
    """The pool and its integer translates: positions that collide
    under sums and share or mix denominators."""
    return sorted({x + k for x in pool for k in (-1, 0, 1)})


@st.composite
def generator_lists(draw, max_size=8, pool=None):
    """Generators on one pool (drawn unless given), some of them
    repeated, so that merges happen; the empty list included."""
    at = st.sampled_from(spots(pool or draw(pools)))
    gens = []
    for _ in range(draw(st.integers(0, max_size))):
        a, b = sorted((draw(at), draw(at)))
        closure = Closure.CC if a == b else draw(st.sampled_from(list(Closure)))
        gens.append(Generator(Interval(a, b, closure), draw(st.integers(-2, 2)),
                              draw(st.integers(1, 3))))
    if gens and draw(st.booleans()):
        gens += draw(st.lists(st.sampled_from(gens), max_size=3))
    return gens


# canonical objects built by the oracle, so the inputs do not depend on
# the normal form under test
wide_sheaves = generator_lists().map(lambda gens: normalize(fraction_normalize(gens)))

_I = Interval(Fraction(-3, 7), Fraction(5, 999983), Closure.OO)
# k_I and k_I[1]: the shadow and every ray cancel
_CANCELLING = [Generator(_I, 0), Generator(_I, 1)]


@given(generator_lists(max_size=12))
@example([])
@example(_CANCELLING + _CANCELLING[:1])
@settings(max_examples=200)
def test_normalize_matches_fraction_oracle(gens):
    # Generator equality reads the multiplicity: order and merges both
    assert normalize(gens).gens == fraction_normalize(gens)


@st.composite
def sheaf_pairs(draw):
    """Two canonical objects and a point on one pool, so that the ends of
    their convolution collide and cancel."""
    pool = draw(pools)
    f, g = (normalize(fraction_normalize(draw(generator_lists(pool=pool)))) for _ in range(2))
    return f, g, draw(st.sampled_from(spots(pool)))


_PAIR_EXAMPLES = [(Sheaf1(), normalize(fraction_normalize(_CANCELLING)), Fraction(-3, 7)),
                  (normalize(fraction_normalize(_CANCELLING)),) * 2 + (Fraction(1, 2),),
                  (normalize(fraction_normalize(_CANCELLING)), Sheaf1(), Fraction(0))]


def pinned(test):
    """Run test on drawn sheaf_pairs and on the empty and cancelling
    examples, the point 0 among them."""
    for case in _PAIR_EXAMPLES:
        test = example(case)(test)
    return settings(max_examples=150)(given(sheaf_pairs())(test))


@pinned
def test_convolve_matches_fraction_oracle(case):
    f, g, _ = case
    assert convolve(f, g).gens == fraction_convolve(f, g)


@pinned
def test_dual_antipodal_shift_match_fraction_oracle(case):
    f, _, _ = case
    assert dual(f).gens == fraction_dual(f)
    assert antipodal(f).gens == fraction_antipodal(f)
    assert shift(f, -3).gens == fraction_shift(f, -3)


@pinned
def test_translate_rescale_stalk_match_fraction_oracle(case):
    # the point is a translation, a scale factor and a probe at once
    f, _, x = case
    assert translate(f, x).gens == fraction_translate(f, x)
    assert rescale(f, x).gens == fraction_rescale(f, x)
    for t in (x, x + Fraction(1, 3), -x):
        assert stalk(f, t) == fraction_stalk(f, t)


@given(st.sampled_from(spots([Fraction(5, 999983), Fraction(-7, 10**6)])),
       st.sampled_from(spots([Fraction(1, 3), Fraction(2, 999983)])),
       st.sampled_from([Closure.CC, Closure.OO]), st.integers(-3, 3))
@settings(max_examples=100)
def test_inverse_matches_fraction_oracle(a, b, closure, d):
    a, b = sorted((a, b))
    f = normalize((Generator(Interval(a, b, closure if a < b else Closure.CC), d),))
    assert inverse(f).gens == fraction_inverse(f)


@st.composite
def cf1_pairs(draw):
    """Two canonical functions on one pool, so that the positions of
    their convolution collide and cancel."""
    at = spots(draw(pools))

    def one():
        breaks = sorted(draw(st.lists(st.sampled_from(at), max_size=5, unique=True)))
        raw = Cf1(tuple(breaks),
                  tuple(draw(st.integers(-2, 2)) for _ in breaks),
                  tuple(draw(st.integers(-2, 2)) for _ in breaks[1:]))
        return build_cf1(breaks, raw)

    return one(), one()


@given(cf1_pairs())
@settings(max_examples=120)
def test_cf1_convolve_matches_brute_oracle(pair):
    f, g = pair
    assert cf1_convolve(f, g) == brute_cf1_convolve(f, g)


@given(wide_sheaves)
@example(Sheaf1())
@example(normalize(fraction_normalize(_CANCELLING)))
@settings(max_examples=120)
def test_cf1_from_sheaf_matches_stalk_oracle(f):
    assert cf1_from_sheaf(f) == stalk_shadow(f)


@st.composite
def atoms(draw):
    """Point masses (zero ones too) and open plateaus, some cancelling."""
    at = st.sampled_from(spots(draw(pools)))
    points = draw(st.dictionaries(at, st.integers(-2, 2), max_size=4))
    opens = []
    for _ in range(draw(st.integers(0, 4))):
        u, v = draw(at), draw(at)
        if u != v:
            opens.append((min(u, v), max(u, v), draw(st.sampled_from((-2, -1, 1, 2)))))
    if opens and draw(st.booleans()):
        u, v, c = opens[0]
        opens.append((u, v, -c))
    return points, opens


@given(atoms())
@example(({}, []))
@settings(max_examples=120)
def test_cf1_from_atoms_matches_fraction_sweep(case):
    points, opens = case
    assert cf1_from_atoms(*integer_atoms(points, opens)) == fraction_sweep(points, opens)


@given(wide_sheaves)
@example(Sheaf1())
@example(normalize(fraction_normalize(_CANCELLING)))
@settings(max_examples=120)
def test_ray_families_match_tables(f):
    b, c = b_transform(f), cc(f)
    assert (b.plus, b.minus) == (c.plus, c.minus) == table_cc_families(f)


def at_zero(family) -> int:
    """The multiplicity of a sorted family at position 0."""
    return dict(family).get(0, 0)


@given(wide_sheaves)
@example(Sheaf1())
@example(normalize(fraction_normalize(_CANCELLING)))
@settings(max_examples=150)
def test_symmetric_product_matches_full_product(f):
    # the oracle's symmetric product is B(f) times its reflection; the
    # check's detail is B(f) and that product's value at 0, and it passes
    # exactly when the product is the unit
    b = b_transform(f)
    full = bullet(b, b_reflect(b))
    assert (full.plus, full.minus) == (ray_square(b.plus), ray_square(b.minus))
    ok, detail = b_necessary_check(f)
    assert detail["transform"] == b.to_json()
    assert detail["norm"] == {"plus": at_zero(full.plus), "minus": at_zero(full.minus),
                              "zero": full.zero}
    assert ok == detail["refined_ok"] == (full == b_one())


_UNIT_LIKE = normalize(fraction_normalize([Generator(Interval(_I.lo, _I.hi, Closure.CC))]))
# kc(0,1) plus kco(2,3) or koc(2,3): chi = 1 and one family is a single
# ray of multiplicity 1, but the other family has three rays
_HALF_UNITS = [
    normalize(fraction_normalize([Generator(Interval(Fraction(0), Fraction(1), Closure.CC)),
                               Generator(Interval(Fraction(2), Fraction(3), c))]))
    for c in (Closure.CO, Closure.OC)
]
# passes the check without being invertible
_ONE_SIDED = normalize(fraction_normalize([
    Generator(Interval(Fraction(0), Fraction(1), Closure.CO)),
    Generator(Interval(Fraction(0), Fraction(1, 2), Closure.CC), 1)]))


@given(st.one_of(wide_sheaves, sheaf_pairs().map(lambda fgt: convolve(fgt[0], fgt[1]))))
@example(Sheaf1())
@example(normalize(fraction_normalize(_CANCELLING)))
@example(normalize(fraction_normalize(_CANCELLING + _CANCELLING[:1])))
@example(_UNIT_LIKE)
@example(_ONE_SIDED)
@example(_HALF_UNITS[0])
@example(_HALF_UNITS[1])
@example(convolve(_UNIT_LIKE, _ONE_SIDED))
@settings(max_examples=200)
def test_necessary_check_matches_ray_square_oracle(f):
    # each family of the per-closure tables times its reflection, built
    # pair by pair: the closed form passes exactly when both are the unit
    # and chi^2 = 1, and its norm is their value at 0
    squares = [ray_square(family) for family in table_cc_families(f)]
    z = euler_c(f)
    ok, detail = b_necessary_check(f)
    assert ok == detail["refined_ok"] == (squares == [((0, 1),)] * 2 and z * z == 1)
    assert detail["scalar_ok"] == (z * z == 1) and detail["zero"] == z
    assert detail["norm"] == {"plus": at_zero(squares[0]), "minus": at_zero(squares[1]),
                              "zero": z * z}


def resorted(items) -> tuple:
    return tuple(sorted((-x, m) for x, m in items))


@given(wide_sheaves)
@settings(max_examples=120)
def test_negations_are_resorted_negations(f):
    b = b_transform(f)
    assert b_reflect(b) == BTransform(resorted(b.plus), resorted(b.minus), b.zero)
    assert b_antipodal(b) == BTransform(resorted(b.minus), resorted(b.plus), b.zero)
    c = cc(f)
    flipped = cc_antipodal(c)
    assert (flipped.plus, flipped.minus) == (resorted(c.minus), resorted(c.plus))


# ---------------------------------------------------------------------------
# no Fraction hashing on the large ops

_ENDS = sorted({Fraction(n, d) for n in range(-8, 9) for d in (1, 2, 3, 4, 7)})


def _random_generator(rng, closure):
    a, b = sorted(rng.sample(_ENDS, 2))
    return Generator(Interval(a, b, closure), rng.randint(-2, 2))


def _twelve(rng) -> Sheaf1:
    """Three generators of each closure, as in a large op."""
    return normalize(fraction_normalize(_random_generator(rng, c) for c in list(Closure) * 3))


def test_large_ops_hash_no_fraction(monkeypatch):
    rng = random.Random(1010)
    f, g = _twelve(rng), _twelve(rng)
    assert len(f.gens) == len(g.gens) == 12
    sf, sg = cf1_from_sheaf(f), cf1_from_sheaf(g)
    gens = [_random_generator(rng, rng.choice(list(Closure))) for _ in range(120)]
    gens += rng.sample(gens, 24)
    calls = []
    real = Fraction.__hash__

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    assert cf1_convolve(sf, sg).breaks
    assert len(normalize(gens).gens) > 100
    assert cf1_from_sheaf(f) == sf
    # the large check: 144 generator pairs, normalized once, then B(h)
    # times its reflection
    ok, _ = b_necessary_check(convolve(f, g))
    assert not ok
    assert calls == []


def _sum_expr(rng) -> str:
    parts = []
    for closure in ("kc", "ko", "kco", "koc") * 3:
        a, b = sorted(rng.sample(_ENDS, 2))
        parts.append(f"shift({closure}({a},{b}),{rng.randint(-2, 2)})")
    return "sum(" + ",".join(parts) + ")"


def large_check_expr() -> str:
    """The shape of the line workload's large check: two sums of three
    generators per closure, up to 144 generators after the convolution."""
    rng = random.Random(1013)
    return f"conv({_sum_expr(rng)},{_sum_expr(rng)})"


def test_large_check_makes_no_fraction(monkeypatch, capsys):
    expr = large_check_expr()
    calls = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert cli.main(["check", "-e", expr]) == 1
    monkeypatch.undo()
    assert calls == []
    detail = json.loads(capsys.readouterr().out)["detail"]
    # B(h) times its reflection, which the check does not build
    b = b_transform(eval_text(expr))
    full = bullet(b, b_reflect(b))
    assert len(full.plus) > 50
    assert detail["transform"] == b.to_json()
    assert detail["norm"] == {"plus": at_zero(full.plus), "minus": at_zero(full.minus),
                              "zero": full.zero}
    assert not detail["refined_ok"]
