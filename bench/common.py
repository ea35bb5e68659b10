"""Helpers shared by the three workloads: seeded rationals, the in-process
CLI call, and canonical rendering of op outputs."""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction


def rand_rat(rng: random.Random, lo: int, hi: int, max_den: int) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def simplex(rng: random.Random, n: int, span: int) -> list[tuple]:
    """n + 1 affinely independent points with coordinates in [-span, span]."""
    while True:
        pts = [tuple(rand_rat(rng, -span, span, 2) for _ in range(n)) for _ in range(n + 1)]
        d = [[p[j] - pts[0][j] for j in range(n)] for p in pts[1:]]
        det = (d[0][0] * d[1][1] - d[0][1] * d[1][0] if n == 2 else
               d[0][0] * (d[1][1] * d[2][2] - d[1][2] * d[2][1])
               - d[0][1] * (d[1][0] * d[2][2] - d[1][2] * d[2][0])
               + d[0][2] * (d[1][0] * d[2][1] - d[1][1] * d[2][0]))
        if det != 0:
            return pts


def rs(x: Fraction) -> str:
    """Rational in the library's wire format, "p" or "p/q"."""
    return str(Fraction(x))


def run_cli(cli_module, argv: list[str]):
    """Call ``cli.main(argv)`` in process and capture both streams.

    An exception that escapes ``main`` is not caught here: the harness
    records it as a failed op.  ``SystemExit`` (argparse) becomes its
    exit code, as it would for a user at the shell.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_module.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return ("exit", code, out.getvalue(), err.getvalue())


def canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def json_line(text: str):
    """The single JSON document a CLI command printed, or None."""
    lines = text.strip().splitlines()
    if len(lines) != 1:
        return None
    try:
        return json.loads(lines[0])
    except json.JSONDecodeError:
        return None
