"""Canonical forms and the convolution table on the line.

The ten closure-pair anchors below are frozen from hand stalk
computations (intersect I with t-J, classify, read off the degree);
the property section then covers the algebra laws on random objects.
"""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from sheafconv import sheaf1
from sheafconv.errors import InputError, InvariantViolation, NotInvertible
from sheafconv.sheaf1 import (
    Closure,
    Generator,
    Interval,
    Sheaf1,
    antipodal,
    convolve,
    convolve_generators,
    dirac,
    direct_sum,
    dual,
    euler_c,
    global_sections_c,
    interval_sheaf,
    inverse,
    is_invertible,
    kc,
    kco,
    ko,
    koc,
    normalize,
    rescale,
    shift,
    stalk,
    translate,
    zero,
)

from sheaf1_oracles import graded_tensor

rats = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


@st.composite
def intervals(draw):
    if draw(st.booleans()) and draw(st.booleans()) and draw(st.booleans()):
        a = draw(rats)
        return Interval(a, a, Closure.CC)
    a, b = draw(rats), draw(rats)
    if a == b:
        b = a + 1
    return Interval(min(a, b), max(a, b), draw(st.sampled_from(list(Closure))))


@st.composite
def generators(draw):
    return Generator(draw(intervals()), draw(st.integers(-3, 3)), draw(st.integers(1, 3)))


sheaves = st.lists(generators(), max_size=5).map(normalize)
small_sheaves = st.lists(generators(), max_size=3).map(normalize)


@st.composite
def invertibles(draw):
    a, b = draw(rats), draw(rats)
    kind = draw(st.sampled_from(["cc", "oo", "point"]))
    d = draw(st.integers(-3, 3))
    if kind == "point":
        return dirac(a, shift=d)
    if a == b:
        b = a + 1
    lo, hi = min(a, b), max(a, b)
    return kc(lo, hi, shift=d) if kind == "cc" else ko(lo, hi, shift=d)


# ---------------------------------------------------------------------------
# construction and canonical form


def test_interval_validation():
    with pytest.raises(InputError):
        Interval(Fraction(1), Fraction(0), Closure.CC)
    with pytest.raises(InputError):
        Interval(Fraction(0), Fraction(0), Closure.OO)  # empty
    with pytest.raises(InputError):
        kc(0, 1, mult=0)
    with pytest.raises(InputError, match=r"^shift must be an integer, got 1\.5$"):
        kc(0, 1, shift=1.5)
    # a bool is an int to Python, but neither a shift nor a multiplicity
    unit = Interval(Fraction(0), Fraction(1), Closure.CC)
    for make in (lambda: kc(0, 1, mult=True), lambda: interval_sheaf(Closure.CC, 0, 1, 0, True),
                 lambda: Generator(unit, 0, True)):
        with pytest.raises(InputError, match=r"^multiplicity must be a positive integer, got True$"):
            make()


def test_a_closure_must_be_a_closure():
    # 1 == Closure.CO, yet the table dispatches by identity: kc(0, 1)
    # convolved with an int closure 1 gave ]1,2], not Closure.CO's [0,1[
    for bad in (1, "cc", 7, None, True):
        for make in (lambda: interval_sheaf(bad, 0, 1),
                     lambda: Interval(Fraction(0), Fraction(1), bad)):
            with pytest.raises(InputError, match=rf"^closure must be a Closure, got {bad!r}$"):
                make()


def test_normalize_merges_and_sorts():
    f = normalize([
        Generator(Interval(Fraction(0), Fraction(1), Closure.CC), 0, 1),
        Generator(Interval(Fraction(-2), Fraction(1), Closure.OO), 1, 2),
        Generator(Interval(Fraction(0), Fraction(1), Closure.CC), 0, 2),
    ])
    assert f == direct_sum(ko(-2, 1, shift=1, mult=2), kc(0, 1, mult=3))
    assert f.gens[0].interval.lo == -2


def test_sheaf1_rejects_non_canonical_generator_tuples():
    iv = Interval(Fraction(0), Fraction(1), Closure.CC)
    a, b = Generator(iv), Generator(Interval(Fraction(0), Fraction(2), Closure.CC))
    co, up = Generator(Interval(iv.lo, iv.hi, Closure.CO)), Generator(iv, 1)
    f = normalize((a, up, co, b))
    assert Sheaf1(f.den, f.keys) == f
    assert f.gens == (a, up, co, b)

    def keys(gens):  # over den 1: every end here is an integer
        return tuple((int(g.interval.lo), int(g.interval.hi), g.interval.closure, g.shift, g.mult)
                     for g in gens)

    # out of order by hi, by closure and by shift; the same (interval,
    # shift) twice, with equal or different multiplicities
    for gens in ((b, a), (co, up), (up, a), (a, a), (a, Generator(iv, 0, 2)), (a, b, a)):
        with pytest.raises(InvariantViolation):
            Sheaf1(1, keys(gens))
    # den 0, and den 2 with both ends even: not in lowest terms
    for den, ks in ((0, keys((a,))), (2, ((0, 2, Closure.CC, 0, 1),))):
        with pytest.raises(InvariantViolation):
            Sheaf1(den, ks)


def test_direct_sum_of_nothing_is_zero():
    assert direct_sum() == zero()
    assert direct_sum(zero(), zero()) == zero()


@given(sheaves)
def test_normalize_idempotent(f):
    assert normalize(list(f.gens)) == f


# ---------------------------------------------------------------------------
# the table, one anchor per closure pair


def test_conv_cc_cc():
    assert convolve(kc(0, 1), kc(2, 4)) == kc(2, 5)


def test_conv_cc_oo_three_length_cases():
    assert convolve(kc(0, 1), ko(0, 2)) == ko(1, 2)     # closed strictly shorter
    assert convolve(kc(0, 2), ko(0, 1)) == kc(1, 2, shift=-1)  # closed longer
    assert convolve(kc(0, 1), ko(0, 1)) == dirac(1, shift=-1)  # equal lengths


def test_conv_cc_semiopen():
    assert convolve(kc(0, 1), kco(2, 4)) == kco(2, 4)
    assert convolve(kc(0, 1), koc(2, 4)) == koc(3, 5)


def test_conv_semiopen_annihilation():
    assert convolve(kco(0, 1), koc(0, 1)) == zero()
    # opposite semi-open types annihilate regardless of lengths
    assert convolve(kco(0, 1), koc(2, 7)) == zero()


def test_conv_oo_oo():
    assert convolve(ko(0, 1), ko(0, 2)) == ko(0, 3, shift=-1)


def test_conv_semiopen_oo():
    assert convolve(kco(0, 1), ko(0, 2)) == kco(2, 3, shift=-1)
    assert convolve(koc(0, 1), ko(0, 2)) == koc(0, 1, shift=-1)


def test_conv_co_co_splits():
    assert convolve(kco(0, 2), kco(1, 2)) == direct_sum(
        kco(1, 2), kco(3, 4, shift=-1)
    )
    assert convolve(koc(0, 2), koc(1, 2)) == direct_sum(
        koc(3, 4), koc(1, 2, shift=-1)
    )


def test_conv_with_points():
    assert convolve(dirac(2), dirac(3, shift=1)) == dirac(5, shift=1)
    assert convolve(kc(0, 1), dirac(-1)) == kc(-1, 0)


def test_conv_shift_and_mult_bookkeeping():
    f = convolve(kc(0, 1, shift=2, mult=3), kc(0, 1, shift=-1, mult=2))
    assert f == kc(0, 2, shift=1, mult=6)


def test_convolve_normalizes_once(monkeypatch):
    # the summands of every generator pair are merged in one pass
    f = direct_sum(kc(0, 1), ko(0, 2), kco(1, 3), dirac(5))
    g = direct_sum(kc(0, 1, shift=1), koc(-1, 1), ko(2, 4, mult=2))
    want = convolve(f, g)
    calls = []
    real = sheaf1._normal
    monkeypatch.setattr(sheaf1, "_normal", lambda den, items: calls.append(items) or real(den, items))
    assert convolve(f, g) == want
    assert len(calls) == 1


@given(sheaves, sheaves)
def test_convolve_is_the_sum_of_generator_convolutions(f, g):
    pairs = [convolve_generators(a, b) for a in f for b in g]
    assert convolve(f, g) == direct_sum(*pairs)


# ---------------------------------------------------------------------------
# algebra laws


@given(small_sheaves, small_sheaves)
def test_conv_commutative(f, g):
    assert convolve(f, g) == convolve(g, f)


@settings(max_examples=40)
@given(small_sheaves, small_sheaves, small_sheaves)
def test_conv_associative(f, g, h):
    assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))


@given(sheaves)
def test_conv_unit(f):
    assert convolve(f, dirac(0)) == f


@given(sheaves, rats)
def test_conv_with_point_translates(f, x):
    assert convolve(f, dirac(x)) == translate(f, x)


@given(small_sheaves, small_sheaves, st.integers(-3, 3))
def test_conv_respects_shift(f, g, k):
    assert convolve(shift(f, k), g) == shift(convolve(f, g), k)


@given(small_sheaves, small_sheaves, small_sheaves)
def test_conv_additive(f, g, h):
    assert convolve(direct_sum(f, g), h) == direct_sum(convolve(f, h), convolve(g, h))


@given(small_sheaves, small_sheaves)
def test_conv_antipodal_equivariant(f, g):
    assert antipodal(convolve(f, g)) == convolve(antipodal(f), antipodal(g))


@given(sheaves)
def test_dual_and_antipodal_involutive(f):
    assert dual(dual(f)) == f
    assert antipodal(antipodal(f)) == f


@given(small_sheaves, small_sheaves)
def test_euler_multiplicative(f, g):
    assert euler_c(convolve(f, g)) == euler_c(f) * euler_c(g)


@given(small_sheaves, small_sheaves)
def test_global_sections_kunneth(f, g):
    assert global_sections_c(convolve(f, g)) == graded_tensor(
        global_sections_c(f), global_sections_c(g)
    )


def test_global_sections_anchors():
    assert global_sections_c(kc(0, 1)) == {0: 1}
    assert global_sections_c(ko(0, 1)) == {1: 1}
    assert global_sections_c(kco(0, 1)) == {}
    assert global_sections_c(dirac(5, shift=2, mult=3)) == {-2: 3}


# ---------------------------------------------------------------------------
# rescaling


@given(sheaves, st.sampled_from([Fraction(2), Fraction(-1), Fraction(1, 3)]))
def test_rescale_moves_stalks(f, lam):
    for g in f.gens:
        for t in (g.interval.lo, (g.interval.lo + g.interval.hi) / 2):
            assert stalk(rescale(f, lam), lam * t) == stalk(f, t)


@given(sheaves)
def test_rescale_minus_one_is_antipodal(f):
    assert rescale(f, -1) == antipodal(f)


@given(sheaves)
def test_rescale_zero_is_sections_skyscraper(f):
    assert stalk(rescale(f, 0), Fraction(0)) == global_sections_c(f)
    assert stalk(rescale(f, 0), Fraction(1)) == {}


@given(sheaves, st.sampled_from([Fraction(2), Fraction(-3, 2)]),
       st.sampled_from([Fraction(-1), Fraction(1, 2), Fraction(0)]))
def test_rescale_composes(f, lam, mu):
    assert rescale(rescale(f, lam), mu) == rescale(f, lam * mu)


# ---------------------------------------------------------------------------
# invertibility and inverses


@given(invertibles())
def test_inverse_round_trip(f):
    assert convolve(f, inverse(f)) == dirac(0)


@given(invertibles())
def test_inverse_involutive(f):
    assert inverse(inverse(f)) == f


def test_inverse_anchors():
    assert inverse(kc(0, 1)) == ko(-1, 0, shift=1)
    assert inverse(ko(0, 1)) == kc(-1, 0, shift=1)
    assert inverse(dirac(2, shift=1)) == dirac(-2, shift=-1)


def test_not_invertible_reasons():
    ok, reason = is_invertible(kco(0, 1))
    assert not ok and "semi-open" in reason
    ok, reason = is_invertible(kc(0, 1, mult=2))
    assert not ok and "multiplicity" in reason
    ok, reason = is_invertible(direct_sum(kc(0, 1), dirac(3)))
    assert not ok
    ok, reason = is_invertible(zero())
    assert not ok
    with pytest.raises(NotInvertible):
        inverse(koc(0, 1))


@given(sheaves)
def test_invertible_iff_single_two_sided_generator(f):
    ok, _ = is_invertible(f)
    expected = (
        len(f.gens) == 1
        and f.gens[0].mult == 1
        and f.gens[0].interval.closure in (Closure.CC, Closure.OO)
    )
    assert ok == expected
