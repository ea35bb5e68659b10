"""Command line front end.

Every command prints compact JSON on stdout (or a readable rendering
under --text) and exits with 0 for success or an affirmative verdict,
1 for a well-formed negative verdict, 2 for malformed input, and 3 for
an internal invariant violation; a stdout closed early keeps that code.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import microlocal, sheaf1
from .dsl import eval_text
from .errors import InputError, InvariantViolation, NotInvertible
from .oracle import validate_table
from .rational import fmt_rat, fmt_ratio, ratio

# JSON closure name (c.name.lower()) -> Closure
_CLOSURES = {c.name.lower(): c for c in sheaf1.Closure}


def _ends(f: sheaf1.Sheaf1):
    """(lo, hi, closure, shift, mult) of each generator, the ends written
    from their integer positions over f.den."""
    den = f.den
    for lo, hi, c, s, m in f.keys:
        text = fmt_ratio(lo, den)
        yield text, text if hi == lo else fmt_ratio(hi, den), c, s, m


def sheaf_to_json(f: sheaf1.Sheaf1) -> dict:
    return {
        "generators": [
            {"lo": lo, "hi": hi, "closure": c.name.lower(), "shift": s, "mult": m}
            for lo, hi, c, s, m in _ends(f)
        ]
    }


def sheaf_from_json(obj) -> sheaf1.Sheaf1:
    if not isinstance(obj, dict) or set(obj) != {"generators"}:
        raise InputError('expected an object with a single "generators" list')
    gens = obj["generators"]
    if not isinstance(gens, list):
        raise InputError('"generators" must be a list')
    parts = []
    for item in gens:
        if not isinstance(item, dict) or set(item) != {"lo", "hi", "closure", "shift", "mult"}:
            raise InputError("generator needs exactly lo, hi, closure, shift, mult")
        if not isinstance(item["lo"], str) or not isinstance(item["hi"], str):
            raise InputError("endpoints must be rational strings")
        if not isinstance(item["closure"], str) or item["closure"] not in _CLOSURES:
            raise InputError(f"unknown closure {item['closure']!r}")
        parts.append(
            sheaf1.interval_sheaf(_CLOSURES[item["closure"]], item["lo"], item["hi"],
                                  item["shift"], item["mult"])
        )
    return sheaf1.direct_sum(*parts)


def sheaf_to_text(f: sheaf1.Sheaf1) -> str:
    parts = []
    for lo, hi, c, s, m in _ends(f):
        if lo == hi:
            core = f"k{{{lo}}}"
        else:
            lb = "]" if c & sheaf1.LEFT_OPEN else "["
            rb = "[" if c & sheaf1.RIGHT_OPEN else "]"
            core = f"k{lb}{lo},{hi}{rb}"
        if s:
            core += f"[{s}]"
        if m != 1:
            core = f"{m}*{core}"
        parts.append(core)
    return " ⊕ ".join(parts) if parts else "0"


def _emit(obj) -> None:
    """Print a text line, or obj as compact JSON, and flush; a stdout closed
    early is pointed at devnull, so the shutdown flush stays quiet."""
    try:
        print(obj if isinstance(obj, str) else json.dumps(obj, separators=(",", ":")), flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _graded_json(dims: dict) -> dict:
    return {str(d): dims[d] for d in sorted(dims)}


# ---------------------------------------------------------------------------
# command handlers


def _cmd_eval(args) -> int:
    f = eval_text(args.expr)
    if args.text:
        _emit(sheaf_to_text(f))
    else:
        _emit(sheaf_to_json(f))
    return 0


def _cmd_invert(args) -> int:
    g = sheaf1.inverse(eval_text(args.expr))
    _emit(sheaf_to_json(g))
    return 0


def _cmd_check(args) -> int:
    f = eval_text(args.expr)
    invertible, reason = sheaf1.is_invertible(f)
    necessary, detail = microlocal.b_necessary_check(f)
    # the condition is one-sided: passing it proves nothing, but an
    # invertible object that fails it would contradict the calculus
    consistent = necessary or not invertible
    _emit(
        {
            "invertible": invertible,
            "reason": reason,
            "necessary_check": necessary,
            "consistent": consistent,
            "detail": detail,
        }
    )
    if not consistent:
        return 3
    return 0 if invertible else 1


# microlocal function behind each transform command
_TRANSFORMS = {"btrans": "b_transform", "cc": "cc", "ss": "ss"}


def _cmd_transform(args) -> int:
    # looked up on the module at call time, so a rebound function is honoured
    transform = getattr(microlocal, _TRANSFORMS[args.command])
    _emit(transform(eval_text(args.expr)).to_json())
    return 0


def _cmd_stalk(args) -> int:
    f = eval_text(args.expr)
    t = ratio(args.at)
    _emit({"at": fmt_ratio(*t), "stalk": _graded_json(sheaf1.stalk(f, t))})
    return 0


def _cmd_table(args) -> int:
    report = validate_table(trials=args.trials, seed=args.seed)
    _emit(
        {
            "trials": report["trials"],
            "seed": report["seed"],
            "count": report["count"],
            "failures": [
                {
                    "trial": d["trial"],
                    "pair": d["pair"],
                    "probe": d["kind"],
                    "at": ([fmt_rat(c) for c in d["at"]] if isinstance(d["at"], tuple)
                           else fmt_rat(d["at"])),
                    "expected": _graded_json(d["expected"]),
                    "got": _graded_json(d["got"]),
                }
                for d in report["discrepancies"]
            ],
        }
    )
    return 0 if report["count"] == 0 else 1


def _load_region(path: str):
    # region handlers import the geometry stack, so 1D commands never load it
    from .region import region_from_json
    try:
        with open(path, "rb") as fh:
            data = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    # ValueError covers JSONDecodeError, UnicodeDecodeError and an integer
    # past Python's int/str digit limit
    except (ValueError, RecursionError) as e:
        raise InputError(f"{path} is not valid JSON: {e}") from e
    return region_from_json(data)


def _cmd_region_check(args) -> int:
    from .cfun import invertibility_check_cf
    from .region import region_to_json, vertices_json
    res = invertibility_check_cf(_load_region(args.file))
    if res["invertible"]:
        _emit(
            {
                "invertible": True,
                "d": res["d"],
                "hull": vertices_json(res["hull"]),
                "inverse": region_to_json(res["inverse"].region),
            }
        )
        return 0
    wit = res["witness"]
    _emit(
        {
            "invertible": False,
            "witness": {k: [fmt_rat(c) for c in v] for k, v in wit.items()},
            "direction": list(res["direction"]) if res["direction"] else None,
            "slice_at": fmt_rat(res["slice_at"]) if res["slice_at"] is not None else None,
            "slice_chi": res["slice_chi"],
        }
    )
    return 1


def _cmd_region_conv(args) -> int:
    from .cfun import ConstructibleFunction, euler_convolve_at
    f = ConstructibleFunction(_load_region(args.file_f))
    g = ConstructibleFunction(_load_region(args.file_g))
    t = [ratio(c.strip()) for c in args.at.split(",")]
    _emit({"at": [fmt_ratio(*c) for c in t], "value": euler_convolve_at(f, g, t)})
    return 0


def _cmd_region_sweep(args) -> int:
    from .cfun import direction_sweep
    report = direction_sweep(_load_region(args.file), max_coeff=args.max_coeff)
    _emit(report)
    return 0 if report["all_pass"] else 1


# ---------------------------------------------------------------------------
# wiring


# the commands that take nothing but an expression: name, handler, help
_EXPR_COMMANDS = (
    ("invert", _cmd_invert, "convolution inverse, or reason it fails"),
    ("check", _cmd_check, "invertibility verdict plus the necessary condition"),
    ("btrans", _cmd_transform, "microlocal transform"),
    ("cc", _cmd_transform, "characteristic cycle"),
    ("ss", _cmd_transform, "singular support"),
)


def _add_expr(p: argparse.ArgumentParser) -> None:
    p.add_argument("-e", "--expr", required=True, help="expression to evaluate")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="sheafconv",
        description="exact convolution calculus for interval sheaves and "
        "polytopal constructible functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression to canonical form")
    _add_expr(p)
    p.add_argument("--text", action="store_true")
    p.set_defaults(fn=_cmd_eval)

    for name, fn, help_text in _EXPR_COMMANDS:
        p = sub.add_parser(name, help=help_text)
        _add_expr(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("stalk", help="stalk dimensions at a point")
    _add_expr(p)
    p.add_argument("--at", required=True, help="rational point")
    p.set_defaults(fn=_cmd_stalk)

    p = sub.add_parser("table", help="cross-check the convolution table against the oracles")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_table)

    region = sub.add_parser("region", help="constructible functions on R^n")
    rsub = region.add_subparsers(dest="region_command", required=True)

    p = rsub.add_parser("check", help="invertibility of an indicator region")
    p.add_argument("file", help="region JSON file")
    p.set_defaults(fn=_cmd_region_check)

    p = rsub.add_parser("conv", help="Euler convolution of two regions at a point")
    p.add_argument("file_f", help="region JSON file")
    p.add_argument("file_g", help="region JSON file")
    p.add_argument("--at", required=True, help="comma-separated rational coordinates")
    p.set_defaults(fn=_cmd_region_conv)

    p = rsub.add_parser("sweep", help="classify pushforward shadows along many directions")
    p.add_argument("file", help="region JSON file")
    p.add_argument("--max-coeff", type=int, default=5)
    p.set_defaults(fn=_cmd_region_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NotInvertible as e:
        _emit({"invertible": False, "reason": e.reason})
        return 1
    except InputError as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return 2
    except InvariantViolation as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())
