"""Brute-force oracles versus the closure-pair table.

The stalk oracle classifies I cap (t-J) from endpoint arithmetic; the
sections oracle counts components of the excluded-face set of a
partially closed rectangle.  Neither consults the table, which is what
makes validate_table meaningful.  Both run on integers over one scale;
they and the driver are pinned equal to the Fraction oracles of
tests/table_oracles.py, and a counting guard keeps the driver free of
Fractions between the draws and the report.
"""

import hashlib
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from sheafconv import cli, oracle
from sheafconv.errors import InputError
from sheafconv.oracle import (
    _at,
    _dens,
    _key,
    _keys,
    _sections,
    _slab_sections,
    conv_stalk_oracle,
    validate_table,
)
from sheafconv.randgen import rand_generator
from sheafconv.sheaf1 import (
    Closure,
    Generator,
    Interval,
    Sheaf1,
    convolve_generators,
    dirac,
    euler_c,
    kc,
    kco,
    ko,
    koc,
    normalize,
    stalk,
    translate,
)

import table_oracles
from sheaf1_oracles import holds


def gen(f: Sheaf1) -> Generator:
    assert len(f.gens) == 1
    return f.gens[0]


def conv_sections_oracle(g: Generator, h: Generator, slab) -> dict[int, int]:
    """The library's integer sections oracle on a Fraction slab, scaled
    over the lcm of the denominators."""
    u, v = Fraction(slab[0]), Fraction(slab[1])
    scale = lcm(*_dens(g), *_dens(h), u.denominator, v.denominator)
    return _sections(_key(g, scale), _key(h, scale), _at(u, scale), _at(v, scale))


def sheaf_slab_sections(f: Sheaf1, u, v) -> dict[int, int]:
    """The library's integer slab sections of f over ]u, v[, u and v
    Fractions."""
    u, v = Fraction(u), Fraction(v)
    scale = lcm(f.den, u.denominator, v.denominator)
    return _slab_sections(_keys(f, scale), _at(u, scale), _at(v, scale))


# ---------------------------------------------------------------------------
# stalk oracle


def test_stalk_oracle_closed_meets_open():
    # [0,1] cap (2 - ]0,3[) = [0,1] cap ]-1,2[ = [0,1], closed
    assert conv_stalk_oracle(gen(kc(0, 1)), gen(ko(0, 3)), Fraction(2)) == {0: 1}


def test_stalk_oracle_half_open_everywhere():
    g, h = gen(kco(0, 1)), gen(koc(0, 1))
    for t in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5)):
        assert conv_stalk_oracle(g, h, t) == {}


def test_stalk_oracle_open_intersection():
    # [0,1] cap (0 - ]-1,0[) = [0,1] cap ]0,1[ = ]0,1[, open
    assert conv_stalk_oracle(gen(kc(0, 1)), gen(ko(-1, 0)), Fraction(0)) == {1: 1}


def test_stalk_oracle_shift_and_mult():
    g = gen(kc(0, 1, shift=2, mult=3))
    h = gen(ko(-1, 0, shift=-1, mult=2))
    # degree 1 shifted by -(2 + -1) = -1 -> degree 0, mult 6
    assert conv_stalk_oracle(g, h, Fraction(0)) == {0: 6}


def test_stalk_oracle_reflects_closure_flags():
    # convolving with a skyscraper recovers membership of t in J, so a
    # wrong flag swap in t-J would show up at the endpoints
    d = gen(dirac(0))
    for mk in (kc, ko, kco, koc):
        h = gen(mk(0, 1))
        for t in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)):
            want = {0: 1} if holds(h.interval, t) else {}
            assert conv_stalk_oracle(d, h, t) == want, (mk.__name__, t)


# ---------------------------------------------------------------------------
# sections oracle


def test_sections_open_times_open_is_a_circle():
    # excluded faces form the full boundary circle -> H^2
    assert conv_sections_oracle(gen(ko(0, 1)), gen(ko(0, 2)), (Fraction(-1), Fraction(4))) == {2: 1}


def test_sections_closed_times_closed_is_connected():
    assert conv_sections_oracle(gen(kc(0, 1)), gen(kc(0, 2)), (Fraction(-1), Fraction(4))) == {0: 1}


def test_sections_semi_open_pair_vanishes():
    # excluded right edge and top edge share the corner (1,3): B is one
    # connected arc, so every cohomology degree dies
    assert conv_sections_oracle(gen(kco(0, 1)), gen(kco(0, 3)), (Fraction(-1), Fraction(5))) == {}
    # consistency with the table result k_{[0,1[} + k_{[3,4[}[-1], whose
    # slab sections vanish term by term
    f = normalize(list(convolve_generators(gen(kco(0, 1)), gen(kco(0, 3)))))
    assert sheaf_slab_sections(f, Fraction(-1), Fraction(5)) == {}


def test_sections_slab_cutting_support():
    g, h = gen(kc(0, 1)), gen(kc(0, 1))
    # slab ]-1, 1[ cuts the rectangle; boundary cut is open so the
    # closed corner at s=0 still contributes H^0
    assert conv_sections_oracle(g, h, (Fraction(-1), Fraction(1))) == {0: 1}
    # slab through the middle of an open result
    go = gen(ko(0, 1))
    assert conv_sections_oracle(go, go, (Fraction(1, 2), Fraction(3, 2))) == {1: 1}


def test_sheaf_slab_sections_counts_interior_open_ends():
    f = ko(0, 1, shift=0)
    assert sheaf_slab_sections(f, Fraction(-1), Fraction(2)) == {1: 1}
    assert sheaf_slab_sections(f, Fraction(0), Fraction(1)) == {0: 1}  # both cuts at the boundary
    assert sheaf_slab_sections(kco(0, 1), Fraction(-1), Fraction(2)) == {}
    assert sheaf_slab_sections(kc(0, 1, shift=2, mult=5), Fraction(-1), Fraction(2)) == {-2: 5}


# ---------------------------------------------------------------------------
# the driver


def test_validate_table_clean():
    report = validate_table(trials=300, seed=7)
    assert report["count"] == 0
    assert report["discrepancies"] == []
    assert report["trials"] == 300 and report["seed"] == 7


def test_validate_table_rejects_zero_trials():
    with pytest.raises(InputError):
        validate_table(trials=0)


def test_validate_table_rejects_a_count_that_is_not_an_int():
    # a bool is an int to Python, and a float would reach range()
    for bad in (True, 2.5):
        with pytest.raises(InputError, match="integer count"):
            validate_table(trials=bad)


def corrupted(g: Generator, h: Generator) -> Sheaf1:
    """The real convolution with just the closed*closed cell sabotaged:
    every right end one too far."""
    out = normalize(list(convolve_generators(g, h)))
    if (g.interval.closure, h.interval.closure) == (Closure.CC, Closure.CC):
        out = normalize(
            [Generator(Interval(x.interval.lo, x.interval.hi + 1, x.interval.closure),
                       x.shift, x.mult) for x in out.gens]
        )
    return out


# validate_table(trials=120, seed=3) on the corrupted table, as the Fraction
# driver reports it: (trial, kind, at, expected, got), in report order
CORRUPTED_REPORT = [
    (10, "stalk", "-49/8", {}, {-2: 4}),
    (10, "stalk", "-53/8", {}, {-2: 4}),
    (22, "stalk", "180/7", {}, {4: 2}),
    (22, "stalk", "353/14", {}, {4: 2}),
    (45, "stalk", "10/3", {}, {3: 6}),
    (45, "stalk", "17/6", {}, {3: 6}),
    (45, "sections", ("217/66", "973/198"), {}, {3: 6}),
    (59, "stalk", "123/10", {}, {-1: 6}),
    (59, "stalk", "59/5", {}, {-1: 6}),
    (65, "stalk", "23/4", {}, {-2: 9}),
    (65, "stalk", "21/4", {}, {-2: 9}),
    (69, "stalk", "457/30", {}, {-3: 6}),
    (69, "stalk", "221/15", {}, {-3: 6}),
    (69, "sections", ("29/2", "559/30"), {}, {-3: 6}),
    (69, "sections", ("91/6", "153/10"), {}, {-3: 6}),
    (69, "sections", ("451/30", "153/10"), {}, {-3: 6}),
    (69, "sections", ("431/30", "547/30"), {}, {-3: 6}),
    (75, "stalk", "49/8", {}, {0: 3}),
    (75, "stalk", "45/8", {}, {0: 3}),
    (75, "sections", ("9937/1848", "8341/264"), {}, {0: 3}),
    (76, "stalk", "-8/5", {}, {-2: 9}),
    (76, "stalk", "-21/10", {}, {-2: 9}),
    (76, "sections", ("-7/3", "343/165"), {}, {-2: 9}),
    (76, "sections", ("-137/55", "-151/165"), {}, {-2: 9}),
    (81, "stalk", "139/14", {}, {0: 3}),
    (81, "stalk", "66/7", {}, {0: 3}),
    (83, "stalk", "7", {}, {-2: 9}),
    (83, "stalk", "13/2", {}, {-2: 9}),
    (83, "sections", ("68/11", "93/11"), {}, {-2: 9}),
    (86, "stalk", "17/4", {}, {-1: 3}),
    (86, "stalk", "15/4", {}, {-1: 3}),
    (86, "sections", ("151/44", "183/44"), {}, {-1: 3}),
]


def test_validate_table_catches_a_corrupted_entry(monkeypatch):
    monkeypatch.setattr(oracle, "convolve_generators", corrupted)
    report = validate_table(trials=120, seed=3)
    assert report["count"] == len(CORRUPTED_REPORT) == 32
    assert all(d["pair"] == "cc*cc" for d in report["discrepancies"])
    at = lambda a: tuple(map(Fraction, a)) if isinstance(a, tuple) else Fraction(a)
    assert [(d["trial"], d["kind"], d["at"], d["expected"], d["got"])
            for d in report["discrepancies"]] == [
        (trial, kind, at(a), want, got) for trial, kind, a, want, got in CORRUPTED_REPORT]
    # the probe of a discrepancy is a Fraction, and every report field
    # equals the Fraction driver's, the generators included
    assert all(type(x) is Fraction for d in report["discrepancies"]
               for x in (d["at"] if d["kind"] == "sections" else (d["at"],)))
    assert report == table_oracles.fraction_validate_table(120, 3, conv_fn=corrupted)


def test_cli_table_reports_a_corrupted_entry(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "convolve_generators", corrupted)
    assert cli.main(["table", "--trials", "120", "--seed", "3"]) == 1
    out = capsys.readouterr().out
    assert len(out.encode()) == 2932
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ad76c484f56c6e767318bf1526f0a5e61f291dd3a38ae54652770ca82b89b0ed")


def test_validate_table_matches_fraction_driver_on_a_translated_table(monkeypatch):
    # every cell wrong, by a shift with a denominator the draws never have
    def translated(g: Generator, h: Generator) -> Sheaf1:
        return translate(convolve_generators(g, h), Fraction(1, 5))

    monkeypatch.setattr(oracle, "convolve_generators", translated)
    report = validate_table(trials=150, seed=12345)
    assert report["count"] > 300
    assert {d["kind"] for d in report["discrepancies"]} == {"stalk", "sections"}
    assert report == table_oracles.fraction_validate_table(150, 12345, conv_fn=translated)


def test_validate_table_makes_no_fraction_outside_the_draws(monkeypatch):
    calls, drawn = [], []
    drawing = []
    real_new, real_draw = Fraction.__new__, oracle.rand_generator

    def counting(cls, *args, **kwargs):
        (drawn if drawing else calls).append(args)
        return real_new(cls, *args, **kwargs)

    def draw(rng):
        drawing.append(True)
        try:
            return real_draw(rng)
        finally:
            drawing.pop()

    monkeypatch.setattr(oracle, "rand_generator", draw)
    monkeypatch.setattr(Fraction, "__new__", counting)
    report = validate_table(trials=50, seed=11)
    monkeypatch.undo()
    assert report["count"] == 0
    assert calls == []
    assert drawn  # the generators' ends are Fractions, made by the draws


# ---------------------------------------------------------------------------
# the integer oracles against the Fraction ones

ends = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 8))


@st.composite
def generators(draw) -> Generator:
    a, b = sorted((draw(ends), draw(ends)))
    closure = draw(st.sampled_from(list(Closure))) if a < b else Closure.CC
    return Generator(Interval(a, b, closure), draw(st.integers(-3, 3)), draw(st.integers(1, 3)))


def probe_points(g: Generator, h: Generator, f: Sheaf1) -> list[Fraction]:
    """Every critical point of g * h and of f, every midpoint, and
    points outside on both sides."""
    pts = sorted({x + y for x in (g.interval.lo, g.interval.hi)
                  for y in (h.interval.lo, h.interval.hi)}
                 | {e for r in f.gens for e in (r.interval.lo, r.interval.hi)})
    mids = [(a + b) / 2 for a, b in zip(pts, pts[1:])]
    return pts + mids + [pts[0] - 1, pts[0] - Fraction(1, 7), pts[-1] + Fraction(5, 3)]


@settings(max_examples=150, derandomize=True)
@given(generators(), generators())
def test_integer_oracles_match_fraction_oracles(g, h):
    f = convolve_generators(g, h)
    both = normalize([g, h])
    probes = probe_points(g, h, f)
    for t in probes:
        assert conv_stalk_oracle(g, h, t) == table_oracles.conv_stalk_oracle(g, h, t), t
    # slabs over every pair of probes, so their ends land on critical
    # points, midpoints and outside, empty slabs included
    for u in probes:
        for v in probes:
            assert (conv_sections_oracle(g, h, (u, v))
                    == table_oracles.conv_sections_oracle(g, h, (u, v))), (u, v)
            for obj in (f, both):
                assert (sheaf_slab_sections(obj, u, v)
                        == table_oracles.sheaf_slab_sections(obj, u, v)), (obj, u, v)


def euler_from_stalk_samples(g: Generator, h: Generator) -> int:
    """Integrate the oracle's pointwise chi over a cell refinement."""
    pts = sorted({
        g.interval.lo + h.interval.lo, g.interval.lo + h.interval.hi,
        g.interval.hi + h.interval.lo, g.interval.hi + h.interval.hi,
    })
    chi = lambda dims: sum((-1 if d % 2 else 1) * m for d, m in dims.items())
    total = 0
    for p in pts:
        total += chi(conv_stalk_oracle(g, h, p))
    for a, b in zip(pts, pts[1:]):
        if a < b:
            total -= chi(conv_stalk_oracle(g, h, (a + b) / 2))
    return total


def test_stalk_oracle_integrates_to_euler_product():
    rng = random.Random(21)
    for _ in range(150):
        g, h = rand_generator(rng), rand_generator(rng)
        lhs = euler_from_stalk_samples(g, h)
        rhs = euler_c(normalize((g,))) * euler_c(normalize((h,)))
        assert lhs == rhs, (g, h)
