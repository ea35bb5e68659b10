"""Workload ``regions``: ``region check`` through ``cli.main`` on region
JSON files written during set-up, plus ``region sweep --max-coeff 2`` on
a 2D share.

Why: it loads hulls, intersections, inclusion-exclusion, slicing and the
certificate path (polytope, region, cfun.invertibility_check_cf), is the
only workload where the convexity decision runs, and never reaches the
``_conv_terms`` cache.

Every round holds the same classes in a seeded order.  Some are convex
by construction (a box cut into overlapping sub-boxes; a polytope plus
hulls of subsets of its vertices), some non-convex by construction
(L-shapes, separated boxes, staircase chains), and the rest have no
verdict known in advance (boxes around a common core, whose
inclusion-exclusion grows as 2^k, and random unions of boxes and
simplices).  3D sweeps are left out: one takes about 15 s.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from itertools import product

from sheafconv import cf1, cfun, cli, region

from common import canon, json_line, rand_rat, rs, run_cli, simplex

NAME = "regions"
ROUNDS = 20

# (dimension, class, term counts) of the checks in every round; a class
# listed with several term counts uses them in turn, one per round, so
# every seed gets the same mix.  The cheap 2D checks (cut boxes,
# L-shapes, separated boxes, chains, random unions) are 18 of the 30 ops
# of a round, so the median op falls inside their cluster rather than
# in the gap above it
_CHECKS = (
    (2, "cut_box", (2, 3, 4)), (2, "cut_box", (3, 4, 2)),
    (2, "cut_box", (4, 2, 3)), (2, "cut_box", (2, 4, 3)),
    (2, "lshape", (2,)), (2, "lshape", (2,)),
    (2, "separated", (2, 3)), (2, "separated", (3, 2)),
    (2, "rand_union", (2, 3)), (2, "rand_union", (3, 2)),
    (2, "poly_subsets", (2, 3)), (2, "poly_subsets", (3, 2)),
    (2, "lshape", (2,)), (2, "lshape", (2,)),
    (2, "separated", (2, 3)), (2, "separated", (3, 2)),
    (2, "core", (3, 4, 5)), (2, "core", (4, 5, 3)),
    (2, "chain", (2, 3, 4)), (2, "chain", (3, 4, 2)),
    (2, "rand_union", (2, 3)), (2, "rand_union", (3, 2)),
    (3, "cut_box", (2,)), (3, "poly_subsets", (2,)), (3, "lshape", (2,)),
    (3, "separated", (2,)), (3, "core", (2,)), (3, "rand_union", (2,)),
)
_SWEEPS = (("cut_box", "lshape"), ("rand_union", "poly_subsets"))
# ops in one round of the stream: every check and two sweeps
ROUND_OPS = len(_CHECKS) + 2
_TRUTH = {"cut_box": True, "poly_subsets": True, "lshape": False,
          "separated": False, "chain": False, "core": None, "rand_union": None}


# ---------------------------------------------------------------------------
# construction; every term is given by points in convex position, so
# distinct point sets are distinct polytopes


def _box(lo, hi):
    return [list(p) for p in product(*zip(lo, hi))]


def _extent(rng, n, span=3):
    lo = [rand_rat(rng, -span, span - 2, 2) for _ in range(n)]
    hi = [a + rand_rat(rng, 1, 3, 2) for a in lo]
    return lo, hi


def _cut_box(rng, n, k):
    lo, hi = _extent(rng, n)
    axis = rng.randrange(n)
    cuts = sorted({lo[axis] + (hi[axis] - lo[axis]) * Fraction(i, k) for i in range(k + 1)})
    overlap = (hi[axis] - lo[axis]) / (4 * k)
    terms = []
    for a, b in zip(cuts, cuts[1:]):
        plo, phi = list(lo), list(hi)
        plo[axis] = max(lo[axis], a - overlap)
        phi[axis] = min(hi[axis], b + overlap)
        terms.append(_box(plo, phi))
    return terms


def _poly_subsets(rng, n, k, rnd=0):
    if n == 2:
        a = rand_rat(rng, 2, 3, 2)
        b = a - rand_rat(rng, 1, 1, 2) / 2
        c = [rand_rat(rng, -1, 1, 2) for _ in range(2)]
        pts = [[c[0] + x, c[1] + y] for x, y in
               ((a, b), (b, a), (-b, a), (-a, b), (-a, -b), (-b, -a), (b, -a), (a, -b))]
    elif rnd % 2 == 0:
        pts = _box(*_extent(rng, 3))
    else:
        c = [rand_rat(rng, -1, 1, 2) for _ in range(3)]
        pts = []
        for axis in range(3):
            r = rand_rat(rng, 1, 3, 2)
            for s in (1, -1):
                p = list(c)
                p[axis] += s * r
                pts.append(p)
    terms, seen = [pts], set()
    while len(terms) < k + 1:
        size = rng.randint(n + 1, len(pts) - 2)
        idx = tuple(sorted(rng.sample(range(len(pts)), size)))
        if idx not in seen:
            seen.add(idx)
            terms.append([pts[i] for i in idx])
    return terms


def _lshape(rng, n, k):
    lo, hi = _extent(rng, n)
    w = [(b - a) / 2 for a, b in zip(lo, hi)]
    first = list(hi)
    first[1] = lo[1] + w[1]
    second = list(hi)
    second[0] = lo[0] + w[0]
    return [_box(lo, first), _box(lo, second)]


def _separated(rng, n, k):
    lo, hi = _extent(rng, n)
    terms, x = [], lo[0]
    for _ in range(k):
        plo, phi = list(lo), list(hi)
        plo[0] = x
        phi[0] = x + rand_rat(rng, 1, 2, 2)
        terms.append(_box(plo, phi))
        x = phi[0] + rand_rat(rng, 1, 2, 4)
    return terms


def _core(rng, n, k):
    terms, seen = [], set()
    while len(terms) < k:
        lo = [-1 - rand_rat(rng, 0, 2, 2) for _ in range(n)]
        hi = [1 + rand_rat(rng, 0, 2, 2) for _ in range(n)]
        key = tuple(lo + hi)
        if key not in seen:
            seen.add(key)
            terms.append(_box(lo, hi))
    return terms


def _chain(rng, n, k):
    side = rand_rat(rng, 1, 2, 2)
    step = side * Fraction(2, 3)
    base = [rand_rat(rng, -3, -1, 2) for _ in range(n)]
    return [_box([b + i * step for b in base], [b + i * step + side for b in base])
            for i in range(k)]


def _rand_union(rng, n, k):
    """Alternately boxes and simplices, starting with a box."""
    terms, seen = [], set()
    while len(terms) < k:
        t = _box(*_extent(rng, n)) if len(terms) % 2 == 0 else simplex(rng, n, 3)
        key = frozenset(tuple(p) for p in t)
        if key not in seen:
            seen.add(key)
            terms.append(t)
    return terms


_BUILD = {"cut_box": _cut_box, "poly_subsets": _poly_subsets, "lshape": _lshape,
          "separated": _separated, "core": _core, "chain": _chain,
          "rand_union": _rand_union}


def _spec(rng, cmd, n, cls, k, path, rnd):
    if cls == "poly_subsets":
        terms = _poly_subsets(rng, n, k, rnd)
    else:
        terms = _BUILD[cls](rng, n, k)
    doc = {"dimension": n, "terms": [
        {"vertices": [[rs(c) for c in p] for p in t], "mode": "closed", "weight": 1}
        for t in terms]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    probes = [tuple(rand_rat(rng, -2, 2, 3) for _ in range(n)) for _ in range(2)]
    directions = [(rng.randint(1, 3), rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)]
    argv = (["region", "check", path] if cmd == "check"
            else ["region", "sweep", "--max-coeff", "2", path])
    return {"kind": cmd, "cls": cls, "dim": n, "truth": _TRUTH[cls], "path": path,
            "argv": argv, "probes": [p for p in probes if any(p)], "directions": directions}


def generate(seed: int, workdir: str) -> list[dict]:
    rng = random.Random(f"regions:{seed}")
    ops = []
    for rnd in range(ROUNDS):
        slots = [("check", n, cls, ks[rnd % len(ks)]) for n, cls, ks in _CHECKS]
        slots.extend(("sweep", 2, cls, 2) for cls in _SWEEPS[rnd % len(_SWEEPS)])
        rng.shuffle(slots)
        for cmd, n, cls, k in slots:
            path = os.path.join(workdir, f"r{len(ops)}.json")
            ops.append(_spec(rng, cmd, n, cls, k, path, rnd))
    return ops


# ---------------------------------------------------------------------------
# ops: the CLI reads and parses the file, so every op builds fresh objects


def prepare(spec, ctx):
    return None


def execute(spec, inputs, ctx):
    return run_cli(cli, spec["argv"])


def render(output) -> str:
    return canon(list(output))


# ---------------------------------------------------------------------------
# verification, outside the op's timing


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return region.region_from_json(json.load(fh))


def _vec(v):
    return tuple(Fraction(c) for c in v)


def _check_convex(spec, doc):
    """The union's indicator convolved with the reported inverse is the
    delta at the origin.  In 2D this is checked at seeded probes; in 3D
    the direct convolution costs several times the op itself, so the
    identity is checked after pushing both sides to the line along two
    seeded directions (pushforward is multiplicative), which needs no
    Minkowski sum."""
    f = cfun.ConstructibleFunction(cfun.indicator_normal_form(_load(spec["path"])))
    inv = cfun.ConstructibleFunction(region.region_from_json(doc["inverse"]))
    if spec["dim"] == 2:
        for t in [(0, 0)] + [tuple(p) for p in spec["probes"]]:
            got = cfun.euler_convolve_at(f, inv, t)
            if got != (0 if any(t) else 1):
                return f"union * inverse is {got} at {t}"
        return None
    delta = cf1.Cf1((Fraction(0),), (1,), ())
    for xi in spec["directions"]:
        got = cf1.cf1_convolve(cfun.pushforward_linear(f, xi), cfun.pushforward_linear(inv, xi))
        if got != delta:
            return f"projected union * inverse along {xi} is {got.to_json()}"
    return None


def _on_open_segment(x, y, z) -> bool:
    d = [b - a for a, b in zip(x, y)]
    i = next(j for j, c in enumerate(d) if c != 0)
    s = (z[i] - x[i]) / d[i]
    return 0 < s < 1 and all(x[j] + s * d[j] == z[j] for j in range(len(x)))


def _check_nonconvex(spec, doc):
    nf = cfun.indicator_normal_form(_load(spec["path"]))
    wit = {k: _vec(v) for k, v in doc["witness"].items()}
    if (region.evaluate_region(nf, wit["x"]) != 1 or region.evaluate_region(nf, wit["y"]) != 1
            or region.evaluate_region(nf, wit["outside"]) != 0):
        return "witness points are not in, in and out of the union"
    if not _on_open_segment(wit["x"], wit["y"], wit["outside"]):
        return "outside point is not on the open segment"
    if doc["direction"] is None:
        return "no separating direction"
    at = Fraction(doc["slice_at"])
    chi = region.euler_char_c(region.slice_region(nf, tuple(doc["direction"]), at))
    if chi != doc["slice_chi"] or chi < 2:
        return f"slice Euler characteristic {chi}, reported {doc['slice_chi']}"
    return None


def _shadow_passes(cf) -> bool:
    """Whether a shadow is +1 on a closed interval or point, or -1 on an
    open interval, read from its JSON."""
    pv, gv = cf["point_values"], cf["gap_values"]
    return pv == [1] or (len(pv) == 2 and (pv, gv) in (([1, 1], [1]), ([0, 0], [-1])))


def check(spec, inputs, output, ctx):
    _, code, out, err = output
    doc = json_line(out)
    if err or not isinstance(doc, dict):
        return f"exit {code} with stderr {err[:80]!r}"
    truth = spec["truth"]
    if spec["kind"] == "sweep":
        passes = [_shadow_passes(e["cf1"]) for e in doc["entries"]]
        fails = [e["direction"] for e, ok in zip(doc["entries"], passes) if not ok]
        if doc["all_pass"] != (not fails) or doc["failing"] != fails:
            return "sweep verdicts disagree with the shadows"
        if code != (0 if doc["all_pass"] else 1) or (truth and fails):
            return f"sweep exit {code} for a region known convex={truth}"
        return None
    verdict = doc.get("invertible")
    if code != (0 if verdict else 1) or (truth is not None and verdict != truth):
        return f"verdict {verdict} (exit {code}) for a region known convex={truth}"
    return _check_convex(spec, doc) if verdict else _check_nonconvex(spec, doc)
