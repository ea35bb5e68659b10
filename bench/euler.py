"""Workload ``euler``: library calls on seeded pairs (f, g) of 2D and 3D
regions, where g is a single closed or relint term.

Why: it loads polytope through Minkowski sums of large candidate clouds,
facet enumeration and containment rather than small hulls, feeds cf1
with pushforward breakpoints rather than sheaf shadows, and is the only
workload where the ``_conv_terms`` cache matters.

Each pair is one block of ops: ``euler_convolve``, fifteen
``euler_convolve_at`` probes of f*g and one of g*f, ``pushforward_linear`` of f, of g and of
f*g, ``cf1_convolve`` of the first two pushforwards, and a
``cf_inverse_convex`` round trip on g's polytope.  A seeded share of
blocks repeats an earlier pair: some a few blocks later, inside the
256-entry cache, and some far enough back that the pair was evicted.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from sheafconv import cf1, cfun, polytope, region

from common import canon, rand_rat, simplex

NAME = "euler"
BLOCKS = 400
# A far repeat reaches back at least this many blocks.  A block adds up
# to three pairs to the cache (f*g, g*f and the inverse round trip), so
# the repeated pair has been evicted from the 256-entry cache.
FAR = 100

# (dimension, g mode, g shape, shapes of f's terms) of the eight 2D
# blocks in every round, in a seeded order, plus one 3D block that
# rotates through _ROUND_3D; every seed gets the same mix
_ROUND_2D = (
    (2, "closed", "box", ("box",)), (2, "closed", "box", ("box",)),
    (2, "closed", "box", ("box", "simplex")), (2, "closed", "simplex", ("simplex",)),
    (2, "closed", "simplex", ("box", "box")), (2, "relint", "box", ("box",)),
    (2, "relint", "simplex", ("simplex",)), (2, "relint", "simplex", ("box", "simplex")),
)
_ROUND_3D = ((3, "closed", "box", ("box",)), (3, "closed", "simplex", ("simplex",)),
             (3, "relint", "simplex", ("simplex",)))
# fifteen probes of f*g and one of g*f, a distinct cache entry.  The
# first probe of f*g pays for the facets of its terms; the other
# fourteen are the cheapest ops and make up well over half of all ops,
# so the median op falls inside their cluster, not at its edge
_PROBES = 16
_OPS = ("conv",) + ("at",) * (_PROBES - 1) + ("at_swap", "push_f", "push_g", "push_fg",
                                               "cf1_conv", "inverse")
# ops in one round of the stream: nine blocks
ROUND_OPS = (len(_ROUND_2D) + 1) * len(_OPS)


def _box(rng, n, span=2):
    lo = [rand_rat(rng, -span, span - 1, 2) for _ in range(n)]
    hi = [a + rand_rat(rng, 1, 2, 2) for a in lo]
    return [tuple(p) for p in product(*zip(lo, hi))]


def _pair(rng, n, mode, shape, f_shapes):
    f = []
    while len(f) < len(f_shapes):
        t = _box(rng, n) if f_shapes[len(f)] == "box" else simplex(rng, n, 2)
        if t not in f:
            f.append(t)
    g = _box(rng, n) if shape == "box" else simplex(rng, n, 2)
    xi = tuple(rng.choice((-2, -1, 1, 2)) for _ in range(n))
    probes = [tuple(rand_rat(rng, -4, 4, 2) for _ in range(n)) for _ in range(_PROBES)]
    inv_probes = [tuple(rand_rat(rng, -1, 1, 3) for _ in range(n)) for _ in range(2)]
    return {"dim": n, "slot": (n, mode, shape, f_shapes), "f": f, "g": g, "mode": mode,
            "xi": xi, "probes": probes, "inv_probes": [p for p in inv_probes if any(p)]}


def generate(seed: int, workdir: str) -> list[dict]:
    """Blocks in rounds of nine.  In every round one 2D block repeats the
    pair of a block two to twelve back, and, once there are enough blocks,
    another repeats one FAR to FAR + 30 back; a repeat takes the pair of
    an earlier block of the same slot, so the mix stays fixed."""
    rng = random.Random(f"euler:{seed}")
    pairs = []
    rnd = 0
    while len(pairs) < BLOCKS:
        slots = list(_ROUND_2D)
        rng.shuffle(slots)
        near, far = rng.sample(range(len(slots)), 2)
        slots.insert(rng.randrange(len(slots) + 1), _ROUND_3D[rnd % len(_ROUND_3D)])
        rnd += 1
        for i, slot in enumerate(slots):
            reuse = "new"
            if slot[0] == 2 and (i == near or (i == far and len(pairs) > FAR + 10)):
                reuse = "near" if i == near else "far"
                lo, hi = (2, 12) if reuse == "near" else (FAR, FAR + 30)
                same = [p for p in pairs[-hi:-lo + 1] if p["slot"] == slot]
                if same:
                    pairs.append(dict(rng.choice(same), reuse=reuse))
                    continue
            pairs.append(dict(_pair(rng, *slot), reuse="new"))
    order = []
    for b, pair in enumerate(pairs):
        order.extend({"kind": op, "block": b, "pair": pair, "probe": i}
                     for i, op in enumerate(_OPS))
    return order


# ---------------------------------------------------------------------------
# ops; polytopes are built from their extreme points for every op, so no
# lazily cached property carries over from an earlier op


def _fn(terms, n, mode="closed"):
    return cfun.ConstructibleFunction(region.make_region(
        n, [(polytope.Polytope(tuple(t)), mode, 1) for t in terms]))


def prepare(spec, ctx):
    p = spec["pair"]
    n = p["dim"]
    kind = spec["kind"]
    if kind == "conv":
        # a block's first op: the earlier block's results are no longer
        # needed, so the benchmark holds no more than one block's outputs
        ctx.clear()
    if kind == "cf1_conv":
        return (ctx[spec["block"], "push_f"], ctx[spec["block"], "push_g"])
    if kind == "inverse":
        return polytope.Polytope(tuple(p["g"]))
    return (_fn(p["f"], n), _fn([p["g"]], n, p["mode"]))


def execute(spec, inputs, ctx):
    kind = spec["kind"]
    p = spec["pair"]
    if kind == "conv":
        out = cfun.euler_convolve(*inputs)
    elif kind == "at":
        out = cfun.euler_convolve_at(*inputs, p["probes"][spec["probe"] - 1])
    elif kind == "at_swap":
        out = cfun.euler_convolve_at(inputs[1], inputs[0], p["probes"][spec["probe"] - 1])
    elif kind == "push_f":
        out = cfun.pushforward_linear(inputs[0], p["xi"])
    elif kind == "push_g":
        out = cfun.pushforward_linear(inputs[1], p["xi"])
    elif kind == "push_fg":
        out = cfun.pushforward_linear(cfun.euler_convolve(*inputs), p["xi"])
    elif kind == "cf1_conv":
        out = cf1.cf1_convolve(*inputs)
    else:
        inv = cfun.cf_inverse_convex(inputs)
        unit = cfun.indicator(inputs)
        out = tuple(cfun.euler_convolve_at(unit, inv, t)
                    for t in [(0,) * p["dim"]] + p["inv_probes"])
    if kind in ("conv", "push_f", "push_g", "push_fg"):
        ctx[spec["block"], kind] = out
    return out


def render(output) -> str:
    if isinstance(output, cfun.ConstructibleFunction):
        return canon(region.region_to_json(output.region))
    if isinstance(output, cf1.Cf1):
        return canon(output.to_json())
    return canon(output)


# ---------------------------------------------------------------------------
# verification, outside the op's timing


def _is_box(pts) -> bool:
    return len(pts) == 2 ** len(pts[0])


def _box_sum(f, g):
    """Closed form of box * box: the indicator of the summed box."""
    lo = [min(a[i] for a in f) + min(b[i] for b in g) for i in range(len(f[0]))]
    hi = [max(a[i] for a in f) + max(b[i] for b in g) for i in range(len(f[0]))]
    return lo, hi


def _integral(cf) -> int:
    """Euler integral of a Cf1: points count 1, open gaps count -1."""
    return sum(cf.point_values) - sum(cf.gap_values)


def check(spec, inputs, output, ctx):
    kind = spec["kind"]
    p = spec["pair"]
    n = p["dim"]
    boxes = p["mode"] == "closed" and len(p["f"]) == 1 and _is_box(p["f"][0]) and _is_box(p["g"])
    chi_f = len(p["f"])
    # g is a full-dimensional box or simplex; its relative interior has
    # compactly supported Euler characteristic (-1)^n
    chi_g = 1 if p["mode"] == "closed" else (-1) ** n
    if kind == "conv":
        if region.euler_char_c(output.region) != chi_f * chi_g:
            return "chi(f*g) != chi(f) chi(g)"
        if boxes:
            lo, hi = _box_sum(p["f"][0], p["g"])
            terms = output.region.terms
            if len(terms) != 1 or terms[0].weight != 1 or terms[0].mode != "closed" or \
                    set(terms[0].poly.verts) != {tuple(v) for v in product(*zip(lo, hi))}:
                return "box * box is not the summed box"
        return None
    if kind in ("at", "at_swap"):
        t = tuple(Fraction(c) for c in p["probes"][spec["probe"] - 1])
        if boxes:
            lo, hi = _box_sum(p["f"][0], p["g"])
            want = int(all(a <= c <= b for a, c, b in zip(lo, t, hi)))
        else:
            want = region.evaluate_region(ctx[spec["block"], "conv"].region, t)
        return None if output == want else f"(f*g)({t}) = {output}, expected {want}"
    if kind in ("push_f", "push_g", "push_fg"):
        want = {"push_f": chi_f, "push_g": chi_g, "push_fg": chi_f * chi_g}[kind]
        return None if _integral(output) == want else "pushforward loses the Euler integral"
    if kind == "cf1_conv":
        same = output == ctx[spec["block"], "push_fg"]
        return None if same else "pushforward of f*g != convolution of pushforwards"
    want = (1,) + (0,) * len(p["inv_probes"])
    return None if output == want else f"f * inverse = {output}, not the delta"
