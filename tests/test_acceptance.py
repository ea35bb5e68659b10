"""Acceptance battery.

Twelve seeded end-to-end checks, each printing a single PASS/FAIL line
with its timing and asserting its own time budget.  Everything here is
exact: integer and rational equality, no tolerances.
"""

import json
import random
from fractions import Fraction
from time import perf_counter

from sheafconv import cli, microlocal, sheaf1
from sheafconv.cf1 import cf1_convolve
from sheafconv.cfun import (
    ConstructibleFunction,
    cf_inverse_convex,
    direction_sweep,
    euler_convolve,
    euler_convolve_at,
    indicator,
    indicator_normal_form,
    invertibility_check_cf,
    pushforward_linear,
)
from sheafconv.dsl import eval_text
from sheafconv.microlocal import b_necessary_check, b_transform, bullet
from sheafconv.polytope import convex_hull, minkowski_sum
from sheafconv.randgen import rand_rat
from sheafconv.region import CLOSED, evaluate_region, is_convex_region, make_region
from sheafconv.sheaf1 import (
    convolve,
    dirac,
    direct_sum,
    dual,
    inverse,
    is_invertible,
    kc,
    kco,
    ko,
    koc,
    rescale,
    shift,
    zero,
)

from microlocal_oracles import b_dual, b_one, ss_convolution_bound_check
from region_oracles import rand_box, rand_polytope, rand_union_region
from shadow_oracles import sliced_pushforward
from sheaf1_oracles import rand_invertible, rand_sheaf, sheaf_to_expr

F = Fraction


def report(capsys, tag: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n{tag} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"{tag}: {detail}"


def timed(t0: float, budget: float) -> tuple[float, bool]:
    dt = perf_counter() - t0
    return dt, dt < budget


# ---------------------------------------------------------------------------


def test_A1_table_oracle_agreement(capsys):
    t0 = perf_counter()
    rc = cli.main(["table", "--trials", "1000", "--seed", "1"])
    body = json.loads(capsys.readouterr().out)
    dt, in_time = timed(t0, 30.0)
    ok = rc == 0 and body["trials"] == 1000 and body["count"] == 0 and in_time
    report(capsys, "A1", ok,
           f"1000 seeded trials, {body['count']} oracle discrepancies ({dt:.2f}s < 30s)")


def test_A2_inverse_round_trip(capsys):
    rng = random.Random(12)
    t0 = perf_counter()
    bad = 0
    for _ in range(500):
        f = rand_invertible(rng)
        g = inverse(f)
        if convolve(f, g) != dirac(0) or convolve(g, f) != dirac(0):
            bad += 1
    dt, in_time = timed(t0, 5.0)
    ok = bad == 0 and in_time
    report(capsys, "A2", ok,
           f"500 invertible objects, {bad} failed round-trips ({dt:.2f}s < 5s)")


def test_A3_semi_open_annihilation(capsys):
    rng = random.Random(3)
    t0 = perf_counter()
    bad = 0
    for _ in range(100):
        a = rand_rat(rng)
        b = a + abs(rand_rat(rng)) + 1
        f, g = kco(a, b), koc(a, b)
        if convolve(f, g) != zero():
            bad += 1
        if is_invertible(f)[0] or is_invertible(g)[0]:
            bad += 1
    dt, in_time = timed(t0, 1.0)
    ok = bad == 0 and in_time
    report(capsys, "A3", ok,
           f"100 endpoint pairs annihilate and are non-invertible, {bad} bad ({dt:.2f}s < 1s)")


def test_A4_transform_functoriality(capsys):
    rng = random.Random(4)
    t0 = perf_counter()
    bad = 0
    for _ in range(500):
        f = rand_sheaf(rng, max_gens=6)
        g = rand_sheaf(rng, max_gens=6)
        if b_transform(convolve(f, g)) != bullet(b_transform(f), b_transform(g)):
            bad += 1
    dt, in_time = timed(t0, 10.0)
    ok = bad == 0 and in_time
    report(capsys, "A4", ok,
           f"500 pairs, transform of product equals product of transforms, {bad} bad ({dt:.2f}s < 10s)")


def test_A5_transform_unit_and_duality(capsys):
    rng = random.Random(5)
    t0 = perf_counter()
    unit_ok = b_transform(dirac(0)) == b_one()
    bad = 0
    for _ in range(200):
        f = rand_sheaf(rng, max_gens=6)
        # duality fixes base points and swaps the two ray families
        if b_transform(dual(f)) != b_dual(b_transform(f)):
            bad += 1
    dt, in_time = timed(t0, 2.0)
    ok = unit_ok and bad == 0 and in_time
    report(capsys, "A5", ok,
           f"unit transform exact, 200 duality checks, {bad} bad ({dt:.2f}s < 2s)")


def _rand_rigid_gen(rng) -> sheaf1.Sheaf1:
    # closed, open, or point generators only; these carry Euler
    # characteristic +-1, so two of them can never multiply to the unit
    roll = rng.randrange(3)
    s = rng.randint(-2, 2)
    if roll == 0:
        x = rand_rat(rng, -8, 8, 4)
        return dirac(x, shift=s)
    a = rand_rat(rng, -8, 8, 4)
    b = a + abs(rand_rat(rng, -8, 8, 4)) + 1
    return (kc if roll == 1 else ko)(a, b, shift=s)


def test_A6_necessary_condition(capsys):
    rng = random.Random(12)
    t0 = perf_counter()
    bad = 0
    for _ in range(500):
        if not b_necessary_check(rand_invertible(rng))[0]:
            bad += 1
    rng = random.Random(6)
    for _ in range(100):
        a = rand_rat(rng)
        b = a + abs(rand_rat(rng)) + 1
        if b_necessary_check(kco(a, b))[0] or b_necessary_check(koc(a, b))[0]:
            bad += 1
    two_gen = [direct_sum(_rand_rigid_gen(rng), _rand_rigid_gen(rng)) for _ in range(120)]
    two_gen += [
        kc(0, 1, mult=2),
        direct_sum(kc(0, 1), dirac(2)),
        direct_sum(ko(0, 1), ko(2, 3)),
        direct_sum(dirac(0), dirac(0)),
        direct_sum(kc(0, 1), shift(kc(2, 3), 1)),
        direct_sum(dirac(0), shift(dirac(0), -1)),
    ]
    for f in two_gen:
        if b_necessary_check(f)[0]:
            bad += 1
    dt, in_time = timed(t0, 2.0)
    ok = bad == 0 and in_time
    report(capsys, "A6", ok,
           f"500 invertibles pass, 200 semi-open and {len(two_gen)} two-generator objects fail, "
           f"{bad} bad ({dt:.2f}s < 2s)")


def test_A7_monoidal_laws(capsys):
    rng = random.Random(7)
    t0 = perf_counter()
    bad = 0
    for _ in range(200):
        f = rand_sheaf(rng, max_gens=3)
        g = rand_sheaf(rng, max_gens=3)
        h = rand_sheaf(rng, max_gens=3)
        if convolve(convolve(f, g), h) != convolve(f, convolve(g, h)):
            bad += 1
        if convolve(f, g) != convolve(g, f):
            bad += 1
        if convolve(f, dirac(0)) != f:
            bad += 1
    dt, in_time = timed(t0, 10.0)
    ok = bad == 0 and in_time
    report(capsys, "A7", ok,
           f"200 triples: associative, commutative, unital, {bad} bad ({dt:.2f}s < 10s)")


def _rand_direction(rng, n):
    while True:
        xi = tuple(rng.randint(-3, 3) for _ in range(n))
        if any(xi):
            return xi


def test_A8_projection_commutation(capsys):
    rng = random.Random(8)
    t0 = perf_counter()
    bad = 0
    for _ in range(40):
        f = rand_sheaf(rng, max_gens=4)
        g = rand_sheaf(rng, max_gens=4)
        lams = [F(2), F(-1), F(0), rand_rat(rng, -4, 4, 3)]
        for lam in lams:
            if rescale(convolve(f, g), lam) != convolve(rescale(f, lam), rescale(g, lam)):
                bad += 1
    for i in range(50):
        n = 3 if i % 3 == 0 else 2
        f = ConstructibleFunction(rand_union_region(rng, n, max_terms=2, span=3))
        g = ConstructibleFunction(rand_union_region(rng, n, max_terms=2, span=3))
        xi = _rand_direction(rng, n)
        h = euler_convolve(f, g)
        lhs = pushforward_linear(h, xi)
        rhs = cf1_convolve(pushforward_linear(f, xi), pushforward_linear(g, xi))
        if lhs != rhs or lhs != sliced_pushforward(h, xi):
            bad += 1
    dt, in_time = timed(t0, 30.0)
    ok = bad == 0 and in_time
    report(capsys, "A8", ok,
           f"160 rescaling identities and 50 projection commutations (each also against slicing), {bad} bad ({dt:.2f}s < 30s)")


# ---------------------------------------------------------------------------
# region corpus


def box2(x0, x1, y0, y1):
    return convex_hull([(F(x0), F(y0)), (F(x1), F(y0)), (F(x0), F(y1)), (F(x1), F(y1))])


def box3(x0, x1, y0, y1, z0, z1):
    return convex_hull(
        [(F(x), F(y), F(z)) for x in (x0, x1) for y in (y0, y1) for z in (z0, z1)]
    )


def hull(*pts):
    return convex_hull([tuple(F(c) for c in p) for p in pts])


def union(n, *polys):
    return make_region(n, [(p, CLOSED, 1) for p in polys])


def region_corpus():
    seg1 = hull((0,), (2,))
    pt1 = hull((3,),)
    square = box2(0, 1, 0, 1)
    tri = hull((0, 0), (2, 0), (0, 2))
    simplex = hull((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    cube = box3(0, 1, 0, 1, 0, 1)
    seg3 = hull((0, 0, 0), (1, 2, 3))
    frame_bars = [
        hull((0, 0), (4, 0), (4, F(1, 2)), (0, F(1, 2))),
        hull((0, 0), (F(1, 2), 0), (2, 4), (F(3, 2), 4)),
        hull((4, 0), (F(7, 2), 0), (2, 4), (F(5, 2), 4)),
    ]
    return [
        # (name, region, convex?)
        ("segment-1d", union(1, seg1), True),
        ("point-1d", union(1, pt1), True),
        ("square", union(2, square), True),
        ("triangle", union(2, tri), True),
        ("simplex-3d", union(3, simplex), True),
        ("cube", union(3, cube), True),
        ("segment-in-r3", union(3, seg3), True),
        ("two-intervals", union(1, hull((0,), (1,)), hull((2,), (3,))), False),
        ("L-shape", union(2, box2(0, 2, 0, 1), box2(0, 1, 0, 2)), False),
        ("plus-shape", union(2, box2(0, 3, 1, 2), box2(1, 2, 0, 3)), False),
        ("two-squares", union(2, box2(0, 1, 0, 1), box2(2, 3, 0, 1)), False),
        ("staircase", union(2, box2(0, 1, 0, 1), box2(1, 2, 1, 2), box2(2, 3, 2, 3)), False),
        ("triangle-frame", union(2, *frame_bars), False),
        ("two-cubes", union(3, box3(0, 1, 0, 1, 0, 1), box3(2, 3, 0, 1, 0, 1)), False),
    ]


def _probe_points(rng, n, count):
    pts = []
    while len(pts) < count:
        t = tuple(F(rng.randint(-9, 9), rng.randint(1, 2)) for _ in range(n))
        if any(c != 0 for c in t):
            pts.append(t)
    return pts


def _cf1_values(entry) -> list[int]:
    return entry["cf1"]["point_values"] + entry["cf1"]["gap_values"]


def test_A9_convexity_battery(capsys):
    t0 = perf_counter()
    corpus = region_corpus()
    bad = []
    for i, (name, r, expect_convex) in enumerate(corpus):
        verdict, wit, _ = is_convex_region(r)
        if verdict != expect_convex:
            bad.append(f"{name}: verdict {verdict}")
            continue
        if expect_convex:
            h = convex_hull([v for term in r.terms for v in term.poly.verts])
            f = ConstructibleFunction(r)
            inv = cf_inverse_convex(h)
            origin = (F(0),) * r.dim
            if euler_convolve_at(f, inv, origin) != 1:
                bad.append(f"{name}: unit value at origin wrong")
            rng = random.Random(101 + i)
            misses = [
                t for t in _probe_points(rng, r.dim, 200)
                if euler_convolve_at(f, inv, t) != 0
            ]
            if misses:
                bad.append(f"{name}: {len(misses)} nonzero probes, first {misses[0]}")
        else:
            nf = indicator_normal_form(r)
            if not (evaluate_region(nf, wit["x"]) == evaluate_region(nf, wit["y"]) == 1
                    and evaluate_region(nf, wit["outside"]) == 0):
                bad.append(f"{name}: witness does not certify a gap")
            rep = direction_sweep(r, max_coeff=2 if r.dim == 3 else 3)
            if rep["all_pass"]:
                bad.append(f"{name}: sweep found no failing direction")
                continue
            if r.dim >= 2:
                failing = {tuple(d) for d in rep["failing"]}
                heights = [
                    max(_cf1_values(e)) for e in rep["entries"]
                    if tuple(e["direction"]) in failing and _cf1_values(e)
                ]
                if not heights or max(heights) < 2:
                    bad.append(f"{name}: no failing direction with a slice of chi >= 2")
                res = invertibility_check_cf(r)
                if res["invertible"] or res["slice_chi"] is None or res["slice_chi"] < 2:
                    bad.append(f"{name}: checker returned no slice certificate")
            # in dimension 1 hyperplane slices are single points, so the
            # certificate is the witnessed gap plus the failing shadow
    dt, in_time = timed(t0, 60.0)
    ok = not bad and in_time
    report(capsys, "A9", ok,
           f"{len(corpus)} regions (7 convex x 200 probes, 7 certified nonconvex)"
           f"{'; ' + '; '.join(bad) if bad else ''} ({dt:.2f}s < 60s)")


def test_A10_minkowski_identity(capsys):
    rng = random.Random(10)
    t0 = perf_counter()
    bad = 0
    for _ in range(50):
        n = rng.choice([1, 2, 2, 3])
        make = lambda: (rand_box(rng, n, span=3) if rng.random() < 0.5
                        else rand_polytope(rng, n, span=3))
        p, q = make(), make()
        s = minkowski_sum(p, q)
        fp, fq = indicator(p), indicator(q)
        lo = [min(v[i] for v in s.verts) - 1 for i in range(n)]
        hi = [max(v[i] for v in s.verts) + 1 for i in range(n)]
        for _ in range(200):
            t = tuple(
                lo[i] + F(rng.randint(0, int(4 * (hi[i] - lo[i]))), 4)
                for i in range(n)
            )
            want = 1 if s.contains(t) else 0
            if euler_convolve_at(fp, fq, t) != want:
                bad += 1
    dt, in_time = timed(t0, 60.0)
    ok = bad == 0 and in_time
    report(capsys, "A10", ok,
           f"50 convex pairs x 200 samples agree with the sum indicator, {bad} bad ({dt:.2f}s < 60s)")


def test_A11_support_bound(capsys):
    rng = random.Random(11)
    t0 = perf_counter()
    bad = 0
    for _ in range(500):
        f = rand_sheaf(rng, max_gens=4)
        g = rand_sheaf(rng, max_gens=4)
        if ss_convolution_bound_check(f, g) != (True, None):
            bad += 1
    dt, in_time = timed(t0, 5.0)
    ok = bad == 0 and in_time
    report(capsys, "A11", ok,
           f"500 pairs satisfy the support bound, {bad} bad ({dt:.2f}s < 5s)")


def test_A12_cli_contract(capsys, monkeypatch):
    from test_dsl_cli import CORPUS

    t0 = perf_counter()
    bad = 0
    for text in CORPUS:
        f = eval_text(text)
        wire = json.dumps(cli.sheaf_to_json(f), separators=(",", ":"))
        if eval_text(sheaf_to_expr(f)) != f:
            bad += 1
        if cli.sheaf_from_json(json.loads(wire)) != f:
            bad += 1
        again = json.dumps(cli.sheaf_to_json(cli.sheaf_from_json(json.loads(wire))),
                           separators=(",", ":"))
        if again != wire:
            bad += 1

    codes = []
    codes.append(cli.main(["eval", "-e", "kc(0,1)"]))
    codes.append(cli.main(["invert", "-e", "kco(0,1)"]))
    codes.append(cli.main(["eval", "-e", "kc(0,1"]))
    monkeypatch.setattr(sheaf1, "convolve", lambda f, g: zero())
    codes.append(cli.main(["invert", "-e", "kc(0,1)"]))
    capsys.readouterr()
    dt, in_time = timed(t0, 2.0)
    ok = bad == 0 and codes == [0, 1, 2, 3] and in_time
    report(capsys, "A12", ok,
           f"{len(CORPUS)} expressions round-trip, exit codes witnessed {codes} ({dt:.2f}s < 2s)")
