"""Tiny expression language for one-dimensional objects.

Grammar: expr := 'zero' | name '(' arg {',' arg} ')' where leaf calls
take rational literals ('p', '-p', 'p/q') and combinators take
subexpressions.  One scan reads the tokens, and the grammar is ASCII:
any other character is a parse error with only ASCII before it, so
error positions are byte offsets into the input.  Arities and argument
kinds are checked while parsing.  Each literal passes rational's one
check, whose message the error carries, and becomes an integer pair
(p, q), which the atoms scale onto their integer keys with no Fraction
in between.  Evaluation has one dispatch: every name but conv (a fold of
sheaf1.convolve) and sum (sheaf1.direct_sum) calls the sheaf1 function
of its own name, atoms, dirac and zero included.
"""

from __future__ import annotations

import functools
import re

from .errors import InputError, ParseError
from .rational import check_literal
from . import sheaf1

# a number, a name, a punctuation mark, or any other non-space character,
# which is an error
_TOKEN = re.compile(r"(-?\d+(?:/\d+)?)|([a-zA-Z_]\w*)|([(),])|(\S)", re.ASCII)

RAT, INT, EXPR = "rat", "int", "expr"

# name -> (argument kinds, variadic tail allowed)
_SIGNATURES = {
    **dict.fromkeys(("kc", "kco", "koc", "ko"), ((RAT, RAT), False)),
    "dirac": ((RAT,), False),
    "conv": ((EXPR, EXPR), True),
    "sum": ((EXPR, EXPR), True),
    "dual": ((EXPR,), False),
    "antipodal": ((EXPR,), False),
    "inverse": ((EXPR,), False),
    "shift": ((EXPR, INT), False),
    "translate": ((EXPR, RAT), False),
}


def _tokens(text: str):
    out = []
    for m in _TOKEN.finditer(text):
        num, name, punct, bad = m.groups()
        if bad:
            raise ParseError(f"unexpected character {bad!r}", m.start())
        out.append(("num" if num else "name" if name else punct, m[0], m.start()))
    out.append(("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, kind):
        tok = self.toks[self.i]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def expr(self):
        kind, value, at = self.peek()
        if kind != "name":
            raise ParseError(f"expected an expression, found {value!r}", at)
        self.i += 1
        if value == "zero":
            return ("zero",)
        if value not in _SIGNATURES:
            raise ParseError(f"unknown name {value!r}", at)
        kinds, variadic = _SIGNATURES[value]
        self.take("(")
        args = [self.arg(kinds[0])]
        for k in kinds[1:]:
            self.take(",")
            args.append(self.arg(k))
        while variadic and self.peek()[0] == ",":
            self.take(",")
            args.append(self.arg(kinds[-1]))
        self.take(")")
        return (value, *args)

    def arg(self, kind):
        if kind == EXPR:
            return self.expr()
        _, value, at = self.peek()
        if kind == INT and "/" in value:
            raise ParseError("expected an integer", at)
        # any token in a literal's place, a name or a mark too, is read by
        # the one literal check, so a bad one reads as it does elsewhere
        try:
            check_literal(value)
        except InputError as exc:
            raise ParseError(str(exc), at) from None
        self.i += 1
        p, _, q = value.partition("/")
        return int(p) if kind == INT else (int(p), int(q or 1))


def parse(text: str):
    p = _Parser(text)
    tree = p.expr()
    kind, value, at = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input starting at {value!r}", at)
    return tree


def eval_expr(tree) -> sheaf1.Sheaf1:
    head, args = tree[0], tree[1:]
    # a subexpression is a tuple headed by its name, a literal an int or
    # an integer pair
    vals = [eval_expr(a) if isinstance(a, tuple) and isinstance(a[0], str) else a
            for a in args]
    if head == "conv":
        return functools.reduce(sheaf1.convolve, vals)
    if head == "sum":
        return sheaf1.direct_sum(*vals)
    # any other name, an atom, zero or a combinator, is the sheaf1
    # function of its own name, looked up when called
    return getattr(sheaf1, head)(*vals)


def eval_text(text: str) -> sheaf1.Sheaf1:
    return eval_expr(parse(text))
