"""Euler convolution on R^n and the convexity decision.

The inverse identity tests probe h = 1_S * inv at 0 and away from 0;
exactness of the arithmetic means a single bad probe would be a real
counterexample, not noise.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from sheafconv import cfun, polytope, region
from sheafconv.cf1 import Cf1, cf1_convolve, cf1_from_atoms, cf1_from_sheaf, invertible_shadow
from sheafconv.cfun import (
    ConstructibleFunction,
    cf_inverse_convex,
    default_directions,
    direction_sweep,
    euler_convolve,
    euler_convolve_at,
    indicator,
    indicator_normal_form,
    invertibility_check_cf,
    pushforward_linear,
)
from sheafconv.errors import InputError, InvariantViolation
from sheafconv.linalg import cross3, primitive, vadd, vdot, vsub
from sheafconv.polytope import Polytope, convex_hull, minkowski_sum
from sheafconv.randgen import rand_rat
from sheafconv.region import (CLOSED, RELINT, euler_char_c, evaluate_region, is_convex_region,
                              make_region, slice_region)
from sheafconv.sheaf1 import convolve, kc, kco, ko

from region_oracles import (core_boxes, parent_slice_region, rand_box, rand_point, rand_polytope,
                            rand_union_region)
from shadow_oracles import (brute_cf1_convolve, build_cf1, integer_atoms, sliced_pushforward,
                            stalk_shadow)
from sheaf1_oracles import rand_sheaf
from test_acceptance import region_corpus

F = Fraction


def box2(x0, x1, y0, y1):
    return Polytope(((x0, y0), (x1, y0), (x0, y1), (x1, y1)))


def L_shape():
    return make_region(2, [(box2(0, 2, 0, 1), CLOSED, 1), (box2(0, 1, 0, 2), CLOSED, 1)])


# ---------------------------------------------------------------------------
# convolution values


def test_square_against_open_reflected_square():
    f = indicator(box2(0, 1, 0, 1))
    g = indicator(box2(-1, 0, -1, 0), RELINT)
    assert euler_convolve_at(f, g, (F(0), F(0))) == 1
    assert euler_convolve_at(f, g, (F(1, 2), F(1, 2))) == 0


def test_point_convolution_translates():
    f = indicator(box2(0, 1, 0, 1))
    d = indicator(Polytope(((2, 3),)))
    h = euler_convolve(f, d)
    assert evaluate_region(h.region, (F(5, 2), F(7, 2))) == 1
    assert evaluate_region(h.region, (F(1, 2), F(1, 2))) == 0


def test_convolve_requires_matching_dimension():
    with pytest.raises(InputError):
        euler_convolve(indicator(Polytope(((0,), (1,)))), indicator(box2(0, 1, 0, 1)))


def test_convolution_is_commutative_and_additive_on_samples():
    rng = random.Random(31)
    for _ in range(6):
        n = rng.choice([2, 3])
        f = ConstructibleFunction(rand_union_region(rng, n, 2, span=2))
        g = indicator(rand_polytope(rng, n, span=2))
        h1, h2 = euler_convolve(f, g), euler_convolve(g, f)
        for _ in range(15):
            t = rand_point(rng, n, span=6)
            assert evaluate_region(h1.region, t) == evaluate_region(h2.region, t)


def test_swapped_probe_hits_the_cache_entry_of_the_pair():
    # the benchmark harness reads the hit and miss counters of this cache
    assert callable(cfun._conv_terms.cache_info) and callable(cfun._conv_terms.cache_clear)
    f = ConstructibleFunction(make_region(2, [(Polytope(((0, 0), (2, 0), (0, 1))), CLOSED, 1),
                                              (Polytope(((1, 1), (3, 2))), CLOSED, -1)]))
    g = ConstructibleFunction(make_region(2, [(Polytope(((0, 0), (1, 0), (0, 1), (1, 1))), RELINT, 2)]))
    cfun._conv_terms.cache_clear()
    h = euler_convolve(f, g)
    before = cfun._conv_terms.cache_info()
    t = (Fraction(1, 2), Fraction(3, 4))
    assert euler_convolve_at(g, f, t) == evaluate_region(h.region, t)
    after = cfun._conv_terms.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
    assert euler_convolve(g, f) == h
    assert euler_convolve(g, f).region is h.region  # the cached product, not a rebuild


def test_minkowski_identity_for_convex_pairs():
    rng = random.Random(32)
    for _ in range(8):
        n = rng.choice([1, 2, 3])
        p, q = rand_polytope(rng, n, span=3), rand_box(rng, n, span=3)
        s = minkowski_sum(p, q)
        h = euler_convolve(indicator(p), indicator(q))
        for _ in range(25):
            t = rand_point(rng, n, span=8)
            assert evaluate_region(h.region, t) == (1 if s.contains(t) else 0)


# ---------------------------------------------------------------------------
# the convex inverse


def test_inverse_identity_unit_square():
    sq = box2(0, 1, 0, 1)
    h = euler_convolve(indicator(sq), cf_inverse_convex(sq))
    assert evaluate_region(h.region, (F(0), F(0))) == 1
    for t in ((F(1), F(1)), (F(-1, 2), F(0)), (F(1, 3), F(1, 7)), (F(5), F(5))):
        assert evaluate_region(h.region, t) == 0


def test_inverse_identity_lower_dimensional():
    seg = Polytope(((0, 0, 0), (1, 2, 3)))
    h = euler_convolve(indicator(seg), cf_inverse_convex(seg))
    assert evaluate_region(h.region, (F(0), F(0), F(0))) == 1
    assert evaluate_region(h.region, (F(1, 2), F(1), F(3, 2))) == 0  # inside S + (-S)
    assert evaluate_region(h.region, (F(1), F(1), F(1))) == 0
    pt = Polytope(((3, -2),))
    h2 = euler_convolve(indicator(pt), cf_inverse_convex(pt))
    assert evaluate_region(h2.region, (F(0), F(0))) == 1
    assert evaluate_region(h2.region, (F(1), F(0))) == 0


def test_inverse_sign_in_one_dimension():
    seg = Polytope(((0,), (1,)))
    inv = cf_inverse_convex(seg)
    assert evaluate_region(inv.region, (F(-1, 2),)) == -1
    assert evaluate_region(inv.region, (F(0),)) == 0
    assert evaluate_region(inv.region, (F(-1),)) == 0


# ---------------------------------------------------------------------------
# pushforward and shadows


def test_pushforward_square():
    cf = pushforward_linear(indicator(box2(0, 1, 0, 1)), (1, 0))
    assert cf.to_json() == {
        "breakpoints": ["0", "1"],
        "point_values": [1, 1],
        "gap_values": [1],
    }
    assert invertible_shadow(cf)


def test_pushforward_L_sees_the_elbow():
    cf = pushforward_linear(ConstructibleFunction(indicator_normal_form(L_shape())), (1, 1))
    assert max(cf.point_values) == 2 or max(cf.gap_values) == 2
    assert not invertible_shadow(cf)


def test_pushforward_point_mass():
    cf = pushforward_linear(indicator(Polytope(((2, 3),))), (1, 2))
    assert cf.to_json() == {"breakpoints": ["8"], "point_values": [1], "gap_values": []}
    assert invertible_shadow(cf)


def test_pushforward_open_square_alternates_sign():
    cf = pushforward_linear(indicator(box2(0, 1, 0, 1), RELINT), (1, 0))
    assert cf.to_json() == {
        "breakpoints": ["0", "1"],
        "point_values": [0, 0],
        "gap_values": [-1],
    }
    assert invertible_shadow(cf)  # matches the open-interval pattern


def test_pushforward_one_dimensional_matches_sheaf_shadow():
    for f, g in ((kc(0, 1), kc(2, 4)), (kc(0, 1), ko(0, 2)), (kco(0, 1), ko(-1, 3))):
        region_f = pushforward_linear(
            ConstructibleFunction(_sheaf_region(f)), (1,)
        )
        assert region_f == cf1_from_sheaf(f)
        assert cf1_convolve(cf1_from_sheaf(f), cf1_from_sheaf(g)) == cf1_from_sheaf(
            convolve(f, g)
        )


def _sheaf_region(f):
    items = []
    for g in f.gens:
        iv = g.interval
        closed = Polytope(((iv.lo,), (iv.hi,)))
        sign = -1 if g.shift % 2 else 1
        w = sign * g.mult
        if iv.closure.name == "CC":
            items.append((closed, CLOSED, w))
        elif iv.closure.name == "OO":
            items.append((closed, RELINT, w))
        else:
            # half-open: closed interval minus one endpoint
            items.append((closed, CLOSED, w))
            gone = iv.lo if iv.closure.name == "OC" else iv.hi
            items.append((Polytope(((gone,),)), CLOSED, -w))
    return make_region(1, items)


def test_shadow_patterns():
    two_bumps = build_cf1([F(0), F(1), F(2), F(3)],
                          lambda t: 1 if F(0) <= t <= F(1) or F(2) <= t <= F(3) else 0)
    assert not invertible_shadow(two_bumps)
    tall = build_cf1([F(0), F(1)], lambda t: 2 if F(0) <= t <= F(1) else 0)
    assert not invertible_shadow(tall)
    # outside its breakpoints a shadow reads 0; its fields are checked
    assert two_bumps(F(-1)) == two_bumps(F(4)) == 0
    with pytest.raises(InvariantViolation, match="^Cf1 field lengths are inconsistent$"):
        Cf1((F(0), F(1)), (1, 1), ())
    with pytest.raises(InvariantViolation, match="^Cf1 breakpoints must be strictly increasing$"):
        Cf1((F(1), F(0)), (1, 1), (1,))


# ---------------------------------------------------------------------------
# the fast 1D paths against the pointwise paths they replaced


def _rand_xi(rng, n):
    while True:
        xi = tuple(rng.randint(-3, 3) if rng.random() < 0.8 else rand_rat(rng, -2, 2, 3)
                   for _ in range(n))
        if any(xi):
            return xi


def _flat_poly(rng, n):
    """A point, a segment or (for n >= 2) a triangle."""
    k = rng.randint(1, min(n, 2) + 1)
    return Polytope(tuple(rand_point(rng, n, span=2) for _ in range(k)))


def _rand_term(rng, n):
    roll = rng.random()
    if roll < 0.35:
        poly = _flat_poly(rng, n)
    elif roll < 0.65:
        poly = rand_box(rng, n, span=2)
    else:
        poly = rand_polytope(rng, n, npts=rng.randint(1, n + 2), span=2)
    return poly, rng.choice([CLOSED, RELINT]), rng.choice([1, -1, 2, -2])


def _constant_direction(rng, poly):
    """A covector constant on poly, or None when poly is full-dimensional."""
    n, d = poly.n, poly.adim
    if d == n:
        return None
    if d == 0:
        return _rand_xi(rng, n)
    e = vsub(poly.verts[-1], poly.verts[0])
    if n == 2:
        return (-e[1], e[0])
    if d == 2:
        return poly.lattice.eqs[0][0]
    nu = cross3(e, _rand_xi(rng, 3))
    return nu if any(nu) else None


def _pushforward_cases():
    """Seeded (f, xi) pairs covering every term kind the closed form
    distinguishes."""
    rng = random.Random(3401)
    cases = []
    for i in range(330):
        n = 1 + i % 3
        kind = (i // 3) % 5
        xi = _rand_xi(rng, n)
        if kind == 0:  # mixed closed and relint terms
            items = [_rand_term(rng, n) for _ in range(rng.randint(1, 3))]
        elif kind == 1:  # lower-dimensional terms, xi constant on one
            items = [(_flat_poly(rng, n), rng.choice([CLOSED, RELINT]), rng.choice([1, -1, 2, -2]))
                     for _ in range(rng.randint(1, 2))]
            xi = _constant_direction(rng, items[0][0]) or xi
        elif kind == 2:  # a box flat along one axis, projected on that axis
            box = rand_box(rng, n, span=2)
            axis = rng.randrange(n)
            c = box.verts[0][axis]
            poly = Polytope(tuple(v[:axis] + (c,) + v[axis + 1:] for v in box.verts))
            items = [(poly, rng.choice([CLOSED, RELINT]), rng.choice([1, -1, 2, -2]))]
            xi = tuple(1 if j == axis else 0 for j in range(n))
        elif kind == 3:  # cancelling weights: closed minus relint, or a face
            poly = rand_polytope(rng, n, span=2)
            w = rng.choice([1, -1, 2, -2])
            face, _ = rng.choice(poly.faces)
            items = [(poly, CLOSED, w), (poly, RELINT, -w), (face, CLOSED, -w)]
            items = rng.sample(items, rng.randint(2, 3))
        else:  # outputs of euler_convolve
            a, b = _rand_term(rng, n), _rand_term(rng, n)
            f = euler_convolve(ConstructibleFunction(make_region(n, [a])),
                               ConstructibleFunction(make_region(n, [b])))
            cases.append((f, xi))
            continue
        cases.append((ConstructibleFunction(make_region(n, items)), xi))
    return cases


def test_pushforward_matches_sliced_oracle():
    cases = _pushforward_cases()
    assert len(cases) >= 300
    constant = 0
    for f, xi in cases:
        got = pushforward_linear(f, xi)
        assert got == sliced_pushforward(f, xi), (f, xi)
        constant += any(t.poly.adim > 0 and len({vdot(xi, v) for v in t.poly.verts}) == 1
                        for t in f.region.terms)
    assert constant >= 60  # xi constant on a segment, polygon or polytope


def _thirds_quarters_sixths(rng, n):
    """A term whose vertices have coordinates over 3, 4 or 6, one per term."""
    q = rng.choice((3, 4, 6))
    pts = [tuple(F(rng.randint(-2 * q, 2 * q), q) for _ in range(n))
           for _ in range(rng.randint(1, n + 2))]
    return Polytope(pts), rng.choice([CLOSED, RELINT]), rng.choice([1, -1, 2, -2])


def test_pushforward_over_mixed_denominators_matches_sliced_oracle():
    # the closed form reads each term's extremes over the lcm of the terms'
    # denominators; terms over 3, 4 and 6 scale differently onto it
    rng = random.Random(3405)
    mixed = 0
    for i in range(90):
        n = 1 + i % 3
        f = ConstructibleFunction(make_region(
            n, [_thirds_quarters_sixths(rng, n) for _ in range(rng.randint(2, 3))]))
        xi = _rand_xi(rng, n)
        assert pushforward_linear(f, xi) == sliced_pushforward(f, xi), (f, xi)
        mixed += len({t.poly.den for t in f.region.terms}) > 1
    assert mixed >= 45


def test_pushforward_makes_one_fraction_per_breakpoint(monkeypatch):
    # each breakpoint of the result is the only Fraction: the covector
    # and the terms' extremes stay integers
    rng = random.Random(3406)
    calls = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return real(cls, *args, **kwargs)

    for i in range(60):
        n = 2 + i % 2
        f = ConstructibleFunction(indicator_normal_form(rand_union_region(rng, n, span=3)))
        xi = tuple(rng.randint(-3, 3) for _ in range(n))
        if not any(xi):
            xi = (1,) + xi[1:]
        calls.clear()
        monkeypatch.setattr(Fraction, "__new__", counting)
        cf = pushforward_linear(f, xi)
        monkeypatch.undo()
        assert len(calls) == len(cf.breaks), (f, xi)


def _rand_cf1(rng):
    if rng.random() < 0.1:
        return Cf1((), (), ())
    k = rng.randint(1, 5)
    breaks = sorted({rand_rat(rng, -4, 4, 3) for _ in range(k)})
    raw = Cf1(tuple(breaks),
              tuple(rng.randint(-2, 2) for _ in breaks),
              tuple(rng.randint(-2, 2) for _ in breaks[1:]))
    return build_cf1(breaks, raw)


def test_cf1_convolve_matches_brute_force_oracle():
    rng = random.Random(3402)
    zero = Cf1((), (), ())
    pairs = [(zero, zero), (zero, _rand_cf1(rng)), (_rand_cf1(rng), zero)]
    pairs += [(_rand_cf1(rng), _rand_cf1(rng)) for _ in range(420)]
    for f, g in pairs:
        assert cf1_convolve(f, g) == brute_cf1_convolve(f, g), (f, g)


def test_cf1_from_sheaf_matches_stalk_oracle():
    rng = random.Random(3403)
    for _ in range(400):
        f = rand_sheaf(rng, max_gens=6)
        assert cf1_from_sheaf(f) == stalk_shadow(f), f


def test_cf1_from_atoms_matches_pointwise_build():
    """Atoms with shared, touching and cancelling endpoints."""
    rng = random.Random(3404)
    for _ in range(400):
        ends = [F(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(4)]
        points = {rng.choice(ends): rng.randint(-2, 2) for _ in range(rng.randint(0, 3))}
        opens = []
        for _ in range(rng.randint(0, 4)):
            u, v = rng.sample(ends, 2)
            if u == v:
                continue
            opens.append((min(u, v), max(u, v), rng.choice([1, -1, 2, -2])))
        if opens and rng.random() < 0.3:
            u, v, c = opens[0]
            opens.append((u, v, -c))

        def value(t):
            return points.get(t, 0) + sum(c for u, v, c in opens if u < t < v)

        want = build_cf1(list(points) + [e for u, v, _ in opens for e in (u, v)], value)
        assert cf1_from_atoms(*integer_atoms(points, opens)) == want, (points, opens)


# ---------------------------------------------------------------------------
# sweeps and the decision


def test_direction_sweep_square_all_pass():
    rep = direction_sweep(make_region(2, [(box2(0, 1, 0, 1), CLOSED, 1)]), max_coeff=3)
    assert rep["all_pass"] and rep["failing"] == []
    assert all(e["verdict"] == "pass" for e in rep["entries"])


def test_direction_sweep_L_fails_diagonal():
    rep = direction_sweep(L_shape(), max_coeff=2)
    assert not rep["all_pass"]
    assert [1, 1] in rep["failing"]
    entry = next(e for e in rep["entries"] if e["direction"] == [1, 1])
    assert entry["verdict"] == "fail"
    assert 2 in entry["cf1"]["point_values"] or 2 in entry["cf1"]["gap_values"]


def test_direction_sweep_rejects_bad_directions():
    with pytest.raises(InputError):
        direction_sweep(make_region(2, [(box2(0, 1, 0, 1), CLOSED, 2)]))


def test_direction_sweep_counts_its_candidates_against_the_bound(monkeypatch):
    # the L's 24 grid points, 8 facet normals and C(7, 2) vertex pairs, many
    # on one line, are counted before any direction is built
    r = L_shape()
    assert len(cfun._vertices(r)) == 7
    monkeypatch.setattr(cfun, "MAX_SWEEP_DIRECTIONS", 24 + 8 + 21)
    assert not direction_sweep(r, max_coeff=2)["all_pass"]
    monkeypatch.setattr(cfun, "MAX_SWEEP_DIRECTIONS", 52)
    with pytest.raises(InputError, match="sweep of 53 candidate directions: more than 52"):
        direction_sweep(r, max_coeff=2)
    # default_directions, which the certificate's fallback scans, is not bounded
    monkeypatch.setattr(cfun, "MAX_SWEEP_DIRECTIONS", 0)
    assert len(default_directions(r, 3)) > 0


def test_sweep_failure_implies_nonconvex():
    rng = random.Random(33)
    for _ in range(8):
        r = rand_union_region(rng, 2, max_terms=2, span=3)
        rep = direction_sweep(r, max_coeff=2)
        if not rep["all_pass"]:
            assert not is_convex_region(r)[0]


def count_intersections(monkeypatch) -> list:
    """The (p, q) of every intersect_polytopes call from here on."""
    calls = []
    real = polytope.intersect_polytopes

    def counting(p, q):
        calls.append((p, q))
        return real(p, q)

    for mod in (polytope, region, cfun):
        if getattr(mod, "intersect_polytopes", None) is real:
            monkeypatch.setattr(mod, "intersect_polytopes", counting)
    return calls


def test_invertibility_check_runs_one_inclusion_exclusion(monkeypatch):
    calls = count_intersections(monkeypatch)
    res = invertibility_check_cf(L_shape())
    assert not res["invertible"] and res["slice_chi"] >= 2
    # one inclusion-exclusion over two terms intersects them once
    assert len(calls) == 1


@pytest.mark.parametrize("n", [2, 3])
def test_boxes_around_a_core_merge_their_intersections(monkeypatch, n):
    calls = count_intersections(monkeypatch)
    boxes = core_boxes(random.Random(7), n, 12)
    res = invertibility_check_cf(make_region(n, [(p, CLOSED, 1) for p in boxes]))
    assert not res["invertible"]
    # 2^12 - 12 - 1 = 4083 when every subset's intersection is kept apart
    assert len(calls) <= 100


def test_invertibility_check_hulls_the_terms_once(monkeypatch):
    sizes = []
    real = polytope._hull

    def counting(den, points):
        points = list(points)
        sizes.append(len(points))
        return real(den, points)

    for mod in (polytope, region, cfun):
        if getattr(mod, "_hull", None) is real:
            monkeypatch.setattr(mod, "_hull", counting)
    overlapping = make_region(2, [(box2(0, 2, 0, 2), CLOSED, 1), (box2(1, 3, 0, 2), CLOSED, 1)])
    res = invertibility_check_cf(overlapping)
    assert res["invertible"] and res["hull"] == box2(0, 3, 0, 2)
    # the decision's hull of the eight term vertices is the certificate's
    assert sizes.count(8) == 1


def _nonconvex_regions(seed, n, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        r = rand_union_region(rng, n, max_terms=3, span=3)
        if not is_convex_region(r)[0]:
            out.append(r)
    return out


def test_certificate_slice_chi_is_the_sliced_euler_characteristic():
    # the pushforward along xi at t is chi_c of the slice <xi, x> = t
    found = 0
    for n in (2, 3):
        for r in [L_shape()] * (n == 2) + _nonconvex_regions(150 + n, n, 12):
            res = invertibility_check_cf(r)
            assert not res["invertible"]
            if res["direction"] is not None:
                nf = indicator_normal_form(r)
                sliced = slice_region(nf, res["direction"], res["slice_at"])
                assert res["slice_chi"] == euler_char_c(sliced) >= 2, r
                assert sliced == parent_slice_region(nf, res["direction"], res["slice_at"])
                found += 1
    assert found >= 20


def test_invertibility_check_never_slices(monkeypatch):
    calls = []
    for home, name in ((region, "slice_region"), (polytope, "slice_polytope"),
                       (region, "euler_char_c")):
        real = getattr(home, name)

        def counting(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        for mod in (polytope, region, cfun):
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting)
    certified = 0
    for r in [L_shape()] + _nonconvex_regions(152, 2, 4) + _nonconvex_regions(153, 3, 4):
        certified += invertibility_check_cf(r)["slice_chi"] is not None
    assert calls == [] and certified >= 6


def test_invertibility_check_convex():
    res = invertibility_check_cf(make_region(2, [(box2(0, 1, 0, 1), CLOSED, 1)]))
    assert res["invertible"] and res["d"] == 2
    inv = res["inverse"]
    assert evaluate_region(inv.region, (F(-1, 2), F(-1, 2))) == 1
    assert evaluate_region(inv.region, (F(0), F(0))) == 0
    seg3 = make_region(3, [(Polytope(((0, 0, 0), (1, 2, 3))), CLOSED, 1)])
    assert invertibility_check_cf(seg3)["d"] == 1
    # a point's hull has volume 1 in its chart, as its one term has
    for pt in ((F(1, 2),), (F(1, 2), -2), (1, F(-2, 3), 3)):
        res = invertibility_check_cf(make_region(len(pt), [(Polytope((pt,)), CLOSED, 1)]))
        assert res["invertible"] and res["d"] == 0
        (term,) = res["inverse"].region.terms
        mirror = Polytope((tuple(-c for c in pt),))
        assert (term.poly, term.mode, term.weight) == (mirror, RELINT, 1)


def test_invertibility_check_L():
    res = invertibility_check_cf(L_shape())
    assert not res["invertible"]
    assert res["slice_chi"] >= 2 and res["direction"] is not None
    assert evaluate_region(L_shape(), res["witness"]["outside"]) == 0


def test_certificate_in_2d_takes_its_first_candidate():
    # the line through the witness points x and y meets the union in a
    # compact set in which x and y lie in different components, since
    # the witness's outside point lies between them; so the slice through
    # x perpendicular to y - x has chi >= 2, and the fallback over the
    # default directions runs only in 3D
    rng = random.Random(31)
    regions = [r for _, r, convex in region_corpus() if r.dim == 2 and not convex]
    regions += [rand_union_region(rng, 2, max_terms=4) for _ in range(600)]
    certified = 0
    for r in regions:
        res = invertibility_check_cf(r)
        if res["invertible"]:
            continue
        x, y = res["witness"]["x"], res["witness"]["y"]
        d = vsub(y, x)
        assert res["direction"] == primitive((-d[1], d[0])), r
        assert res["slice_at"] == vdot(res["direction"], x), r
        assert res["slice_chi"] >= 2, r
        certified += 1
    assert certified > 400


def test_certificate_fallback_reads_a_gap_of_the_shadow(monkeypatch):
    # the square annulus [0,3]^2 minus ]1,2[^2, with no perpendicular
    # candidate, so the scan over the default directions runs; along
    # (0, 1) every point value is 1 and the gap ]1, 2[ reads 2
    r = make_region(2, [(box2(0, 1, 0, 3), CLOSED, 1), (box2(2, 3, 0, 3), CLOSED, 1),
                        (box2(0, 3, 0, 1), CLOSED, 1), (box2(0, 3, 2, 3), CLOSED, 1)])
    monkeypatch.setattr(cfun, "_perp_directions", lambda d, r: iter(()))
    res = invertibility_check_cf(r)
    assert not res["invertible"]
    assert (res["direction"], res["slice_at"], res["slice_chi"]) == ((0, 1), F(3, 2), 2)
    nf = indicator_normal_form(r)
    shadow = pushforward_linear(ConstructibleFunction(nf), (0, 1))
    assert shadow.point_values == (1, 1, 1, 1) and shadow.gap_values == (1, 2, 1)
    assert euler_char_c(slice_region(nf, (0, 1), F(3, 2))) == 2


def test_invertibility_check_one_dimensional_gap():
    r = make_region(1, [(Polytope(((0,), (1,))), CLOSED, 1), (Polytope(((2,), (3,))), CLOSED, 1)])
    res = invertibility_check_cf(r)
    assert not res["invertible"] and res["direction"] == (1,)
    assert evaluate_region(r, res["witness"]["outside"]) == 0


def test_default_directions_are_primitive_and_cover_axes():
    r = L_shape()
    dirs = default_directions(r, 2)
    assert all(d == primitive(d) for d in dirs)
    assert (1, 0) in dirs and (0, 1) in dirs and (1, 1) in dirs


def test_default_directions_bound_the_grid():
    r = L_shape()
    grid = {primitive(c) for c in product(range(-8, 9), repeat=2) if any(c)}
    assert default_directions(r, 8) == sorted(grid)
    for bad in (-1, 9, 40, True, 2.5):
        with pytest.raises(InputError):
            default_directions(r, bad)
        with pytest.raises(InputError, match="max_coeff"):
            direction_sweep(r, bad)
