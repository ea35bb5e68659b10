"""Workload ``line``: one-dimensional queries through ``cli.main`` plus
``cf1_convolve`` of sheaf shadows.

Why: it drives the whole 1D stack (dsl, sheaf1, microlocal, cf1, oracle,
cli) and never touches the geometry stack, so it is where a faster cf1
or sheaf1 shows and what a geometry change must leave alone.

Every round of the stream holds the same mix of op kinds in a seeded
order: mostly small operands (one to three generators), two ops on
large sums (twelve generators per operand: one shadow convolution and
one ``check``), and one malformed
expression.  Every fourth malformed expression nests ``dual`` past depth
500, which at the seed escapes ``cli.main`` as a RecursionError: a known
failure, counted as a failed op (see ``known_failure``).
"""

from __future__ import annotations

import random
from fractions import Fraction

from sheafconv import cf1, cli, dsl, microlocal, oracle, sheaf1

from common import canon, json_line, rand_rat, rs, run_cli

NAME = "line"
ROUNDS = 60

_ATOM = {"cc": "kc", "co": "kco", "oc": "koc", "oo": "ko"}
_CLOSURE = {"cc": sheaf1.Closure.CC, "co": sheaf1.Closure.CO,
            "oc": sheaf1.Closure.OC, "oo": sheaf1.Closure.OO}
_SMALL_KINDS = (["eval"] * 3 + ["stalk"] * 2 + ["btrans"] * 2 + ["cc", "ss"]
                + ["invert"] * 2 + ["invert_no", "check_yes", "check_no", "table"]
                + ["shadow"] * 2)
# the large ops are the two heaviest kinds, so that they form one cluster
# at the top of the latency distribution
_LARGE_KINDS = ("shadow", "check_no")
_MALFORMED = ("bad_rat", "unknown_atom", "unbalanced", "deep")
# ops in one round of the stream: the small kinds, two large ops and one
# malformed expression
ROUND_OPS = len(_SMALL_KINDS) + 3


# ---------------------------------------------------------------------------
# input generation (plain data: generator tuples and expression strings)


def _gen(rng, closure=None):
    """(closure, lo, hi, shift, mult); a point is closure "cc" with lo == hi."""
    if closure is None and rng.random() < 0.15:
        a = rand_rat(rng, -8, 8, 4)
        return ("cc", a, a, rng.randint(-2, 2), 1)
    closure = closure or rng.choice(("cc", "co", "oc", "oo"))
    a = rand_rat(rng, -8, 8, 4)
    b = rand_rat(rng, -8, 8, 4)
    while b == a:
        b = rand_rat(rng, -8, 8, 4)
    return (closure, min(a, b), max(a, b), rng.randint(-2, 2), rng.choice((1, 1, 1, 2)))


def _operand(rng, size):
    gens, seen = [], set()
    while len(gens) < size:
        g = _gen(rng)
        if g[:4] not in seen:
            seen.add(g[:4])
            gens.append(g)
    return gens


def _large_operand(rng):
    """Twelve distinct generators of multiplicity one, three of each
    closure type, so that every large op has the same shape."""
    gens, seen = [], set()
    for closure in ("cc", "oo", "co", "oc") * 3:
        while True:
            g = _gen(rng, closure)[:4] + (1,)
            if g[:4] not in seen:
                seen.add(g[:4])
                gens.append(g)
                break
    return gens


def _atom_expr(g) -> str:
    closure, lo, hi, shift, _ = g
    core = f"dirac({rs(lo)})" if lo == hi else f"{_ATOM[closure]}({rs(lo)},{rs(hi)})"
    return f"shift({core},{shift})" if shift else core


def _expr(gens) -> str:
    parts = [_atom_expr(g) for g in gens for _ in range(g[4])]
    return parts[0] if len(parts) == 1 else "sum(" + ",".join(parts) + ")"


def _invertible_expr(rng) -> str:
    """A single closed, open or point generator of multiplicity one,
    decorated with operations that keep it invertible."""
    kind = rng.choice(("cc", "oo", "pt"))
    a = rand_rat(rng, -8, 8, 4)
    b = a + rand_rat(rng, 1, 6, 3)
    e = f"dirac({rs(a)})" if kind == "pt" else f"{_ATOM[kind]}({rs(a)},{rs(b)})"
    for _ in range(rng.randint(0, 3)):
        op = rng.choice(("shift", "translate", "dual", "antipodal"))
        if op == "shift":
            e = f"shift({e},{rng.randint(-3, 3)})"
        elif op == "translate":
            e = f"translate({e},{rs(rand_rat(rng, -4, 4, 3))})"
        else:
            e = f"{op}({e})"
    return e


def _non_invertible_expr(rng) -> str:
    a = rand_rat(rng, -8, 8, 4)
    b = a + rand_rat(rng, 1, 6, 3)
    how = rng.choice(("semi", "two", "mult"))
    if how == "semi":
        return f"{rng.choice(('kco', 'koc'))}({rs(a)},{rs(b)})"
    if how == "two":
        return f"sum(kc({rs(a)},{rs(b)}),ko({rs(a)},{rs(b + 1)}))"
    return f"sum(kc({rs(a)},{rs(b)}),kc({rs(a)},{rs(b)}))"


def _malformed(rng, which, a_expr) -> str:
    if which == "bad_rat":
        return rng.choice((f"conv(kc(0,3/0),{a_expr})", f"conv(kc(1.5,2),{a_expr})",
                           f"sum({a_expr},ko(1//2,3))"))
    if which == "unknown_atom":
        return rng.choice((f"conv(kx(0,1),{a_expr})", f"sum({a_expr},box(0,1))",
                           f"conv({a_expr},dual(kcc(0,1)))"))
    if which == "unbalanced":
        return rng.choice((f"conv({a_expr},kc(0,1)", f"conv({a_expr},kc(0,1)))",
                           f"sum(({a_expr},kc(0,1))"))
    depth = rng.randint(500, 600)
    return "dual(" * depth + a_expr + ")" * depth


def _conv_spec(kind, a, b, rng):
    spec = {"kind": kind, "a": a, "b": b, "vseed": rng.randrange(1 << 30)}
    expr = f"conv({_expr(a)},{_expr(b)})"
    if kind == "shadow":
        return spec
    if kind == "check_no":
        spec["argv"] = ["check", "-e", expr]
        return spec
    spec["argv"] = [kind, "-e", expr]
    if kind == "stalk":
        ends = sorted({x + y for g in a for h in b for x in g[1:3] for y in h[1:3]})
        i = rng.randrange(len(ends))
        t = ends[i] if rng.random() < 0.5 or i + 1 == len(ends) else (ends[i] + ends[i + 1]) / 2
        spec["at"] = t
        spec["argv"].append(f"--at={rs(t)}")
    return spec


def _op(rng, kind, rnd):
    if kind in ("eval", "stalk", "btrans", "cc", "ss", "shadow"):
        return _conv_spec(kind, _operand(rng, rng.randint(1, 3)),
                          _operand(rng, rng.randint(1, 3)), rng)
    if kind == "invert":
        return {"kind": kind, "argv": ["invert", "-e", _invertible_expr(rng)]}
    if kind == "invert_no":
        return {"kind": kind, "argv": ["invert", "-e", _non_invertible_expr(rng)]}
    if kind == "check_yes":
        return {"kind": kind, "argv": ["check", "-e", _invertible_expr(rng)]}
    if kind == "check_no":
        return {"kind": kind, "argv": ["check", "-e", _non_invertible_expr(rng)]}
    if kind == "table":
        return {"kind": kind, "argv": ["table", "--trials", "3",
                                       "--seed", str(rng.randrange(1 << 20))]}
    if kind.startswith("large"):
        big = _LARGE_KINDS[int(kind[-1])]
        # distinct closed generators in a, each convolved with a closed one
        # of b, leave distinct closed generators: the result never inverts
        a, b = _large_operand(rng), _large_operand(rng)
        return _conv_spec(big, a, b, rng)
    which = _MALFORMED[rnd % len(_MALFORMED)]
    cmd = rng.choice(("eval", "check", "btrans", "cc", "ss", "invert"))
    return {"kind": "malformed", "which": which,
            "argv": [cmd, "-e", _malformed(rng, which, _expr(_operand(rng, 2)))]}


def generate(seed: int, workdir: str) -> list[dict]:
    rng = random.Random(f"line:{seed}")
    ops = []
    for rnd in range(ROUNDS):
        kinds = list(_SMALL_KINDS) + ["large0", "large1", "malformed"]
        rng.shuffle(kinds)
        ops.extend(_op(rng, k, rnd) for k in kinds)
    return ops


# ---------------------------------------------------------------------------
# ops


def _sheaf(gens):
    return sheaf1.normalize([
        sheaf1.Generator(sheaf1.Interval(lo, hi, _CLOSURE[c]), shift, mult)
        for c, lo, hi, shift, mult in gens
    ])


def prepare(spec, ctx):
    if spec["kind"] == "shadow":
        return (_sheaf(spec["a"]), _sheaf(spec["b"]))
    return None


def execute(spec, inputs, ctx):
    if spec["kind"] == "shadow":
        f, g = inputs
        return ("cf1", cf1.cf1_convolve(cf1.cf1_from_sheaf(f), cf1.cf1_from_sheaf(g)))
    return run_cli(cli, spec["argv"])


def render(output) -> str:
    if output[0] == "cf1":
        return canon(output[1].to_json())
    return canon(list(output))


def known_failure(spec, exc) -> bool:
    """The one escape from ``cli.main`` known at the seed: ``dual`` nested
    past depth 500 overflows the parser's recursion.  It still counts as
    a failed op; any other escape makes the run incorrect."""
    return spec.get("which") == "deep" and isinstance(exc, RecursionError)


# ---------------------------------------------------------------------------
# verification, outside the op's timing


def _lib_gens(gens):
    return [sheaf1.Generator(sheaf1.Interval(lo, hi, _CLOSURE[c]), shift, mult)
            for c, lo, hi, shift, mult in gens]


def _oracle_stalk(a, b, t) -> dict:
    """Sum of the independent stalk oracle over generator pairs."""
    dims: dict = {}
    for g in _lib_gens(a):
        for h in _lib_gens(b):
            for d, n in oracle.conv_stalk_oracle(g, h, t).items():
                dims[d] = dims.get(d, 0) + n
    return {d: n for d, n in dims.items() if n}


def _json_stalk(doc, t) -> dict:
    """Stalk of a generator list in the CLI's JSON form, read directly."""
    dims: dict = {}
    for g in doc["generators"]:
        lo, hi, c = Fraction(g["lo"]), Fraction(g["hi"]), g["closure"]
        inside = ((lo < t or (lo == t and c[0] == "c"))
                  and (t < hi or (t == hi and c[1] == "c")))
        if inside:
            dims[-g["shift"]] = dims.get(-g["shift"], 0) + g["mult"]
    return {d: n for d, n in dims.items() if n}


def _chi(dims) -> int:
    return sum(-n if d % 2 else n for d, n in dims.items())


def _probes(spec, limit=16):
    """Critical points of the pair and the midpoints between them."""
    ends = sorted({x + y for g in spec["a"] for h in spec["b"]
                   for x in g[1:3] for y in h[1:3]})
    mids = [(u + v) / 2 for u, v in zip(ends, ends[1:])]
    pts = ends + mids + [ends[0] - 1, ends[-1] + 1]
    rng = random.Random(spec["vseed"])
    return pts if len(pts) <= limit else rng.sample(pts, limit), ends, mids


def _cf1_at(doc, t) -> int:
    br = [Fraction(b) for b in doc["breakpoints"]]
    if not br or t < br[0] or t > br[-1]:
        return 0
    for i, b in enumerate(br):
        if b == t:
            return doc["point_values"][i]
        if t < b:
            return doc["gap_values"][i - 1]
    return 0


def _bullet_json(spec):
    f, g = _sheaf(spec["a"]), _sheaf(spec["b"])
    return microlocal.bullet(microlocal.b_transform(f), microlocal.b_transform(g)).to_json()


def check(spec, inputs, output, ctx):
    kind = spec["kind"]
    if kind == "shadow":
        f, g = _sheaf(spec["a"]), _sheaf(spec["b"])
        want = cf1.cf1_from_sheaf(sheaf1.convolve(f, g))
        return None if output[1] == want else "shadow differs from the shadow of the convolution"
    _, code, out, err = output
    doc = json_line(out)
    if kind == "malformed":
        if code != 2 or out or not isinstance(json_line(err), dict) or "error" not in json_line(err):
            return f"malformed input gave exit {code}"
        return None
    if err:
        return f"unexpected stderr {err[:80]!r}"
    if doc is None:
        return "stdout is not one JSON document"
    if kind == "eval":
        pts, _, _ = _probes(spec)
        for t in pts:
            if _json_stalk(doc, t) != _oracle_stalk(spec["a"], spec["b"], t):
                return f"stalk at {t} disagrees with the oracle"
        return None if code == 0 else f"exit {code}"
    if kind == "stalk":
        got = {int(d): n for d, n in doc["stalk"].items()}
        ok = code == 0 and got == _oracle_stalk(spec["a"], spec["b"], spec["at"])
        return None if ok else "stalk disagrees with the oracle"
    if kind == "btrans":
        return None if code == 0 and doc == _bullet_json(spec) else "B(F*G) != B(F).B(G)"
    if kind == "cc":
        b = _bullet_json(spec)
        if code != 0 or doc["plus"] != b["plus"] or doc["minus"] != b["minus"]:
            return "characteristic cycle rays are not multiplicative"
        pts, _, _ = _probes(spec)
        for t in pts:
            if _cf1_at(doc["zero_weight"], t) != _chi(_oracle_stalk(spec["a"], spec["b"], t)):
                return f"zero-section weight at {t} disagrees with the oracle"
        return None
    if kind == "ss":
        _, ends, mids = _probes(spec)
        zs = [(Fraction(lo), Fraction(hi)) for lo, hi in doc["zero_section"]]
        for t in mids:
            covered = any(lo <= t <= hi for lo, hi in zs)
            if covered != bool(_oracle_stalk(spec["a"], spec["b"], t)):
                return f"zero section wrong at {t}"
        ends = set(ends)
        if any(Fraction(x) not in ends for x, _ in doc["rays"]):
            return "ray based off the critical set"
        return None if code == 0 else f"exit {code}"
    if kind == "invert":
        f = dsl.eval_text(spec["argv"][2])
        inv = cli.sheaf_from_json(doc)
        return None if code == 0 and sheaf1.convolve(f, inv) == sheaf1.dirac(0) else \
            "inverse does not convolve to the unit"
    if kind == "invert_no":
        return None if code == 1 and doc.get("invertible") is False else f"exit {code}"
    if kind in ("check_yes", "check_no"):
        want = kind == "check_yes"
        ok = code == (0 if want else 1) and doc.get("invertible") is want
        return None if ok else f"verdict {doc.get('invertible')} with exit {code}"
    if kind == "table":
        return None if code == 0 and doc.get("count") == 0 else "table disagrees with the oracles"
    return f"unknown op kind {kind}"
