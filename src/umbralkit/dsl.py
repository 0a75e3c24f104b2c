"""Expression DSL for building series from text.

Grammar (left associative, parentheses override):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := atom | "-" factor
    atom   := INT | "t" | "L" | "(" expr ")" | CALL "(" args ")"
    CALL   := the name of a call row of _OPS: exp | log1p | inv | rev | pow | compose

Every operator is declared once, as one row of ``_OPS``: how it is written
(an infix symbol and its binding level, prefix minus, or a call
``name(arg, ...)``), the kind of each argument (an expression, or a signed
rational literal such as pow's exponent), and the Series operation that
evaluates it.  The parser, ``render`` and ``eval_expr`` all read that
table, and the AST has three node types: ``Lit`` (a rational), ``Sym``
(``t`` or ``L``) and ``Op(name, args)`` for a row of the table.
``L`` is the ASCII spelling of the lambda indeterminate.  Rational values
arise from division (``1/2``) except in a rational-literal argument.

``eval_expr`` evaluates each leaf as its own element: ``L`` is the
indeterminate over Q(L), or the rational ``lam`` over Q when one is given,
and every other leaf is over Q.  The field of the result follows from the
operands by ``fields.common_field``, so it is Q(L) exactly when the
expression has an ``L`` leaf and no ``lam`` is given; nothing picks it in
advance.  Input that is not text (``parse_expr``) or not an AST of known
operators (``eval_expr``, ``render``) is a ``DomainError``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add, methodcaller, mul, neg, sub, truediv

from .errors import CompositionOrder, DomainError, ParseError, rational
from .fields import QQ, LAMBDA
from .record import Record
from .series import Series, constant, one, t_series

__all__ = [
    "parse_expr",
    "eval_expr",
    "render",
]


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Lit(Record):
    value: Fraction


class Sym(Record):
    name: str  # t | L


class Op(Record):
    name: str  # a key of _OPS
    args: tuple


_LEAVES = ("t", "L")


# ---------------------------------------------------------------------------
# the operator table
# ---------------------------------------------------------------------------


class _Row(Record):
    symbol: str  # the infix or prefix symbol, or the name of a call
    level: int  # binding level: infix 1 (loosest) and 2, then _PREFIX, _ATOM for a call
    kinds: tuple  # per argument, _EXPR or _RATIONAL
    run: object  # the Series operation, called with the evaluated arguments


_PREFIX, _ATOM = 3, 4
_EXPR, _RATIONAL = "expression", "rational literal"


def _log1p(arg: Series) -> Series:
    if arg.order() == 0:
        raise CompositionOrder("log1p needs an argument with zero constant term")
    return (arg + 1).log()


def _pow(base: Series, e: Fraction) -> Series:
    return base.pow_int(int(e)) if e.denominator == 1 else base.pow_field(e)


# Series methods are looked up on each call, so a patched or traced method
# is the one run.  Infix rows are listed loosest level first.
_OPS = {
    "add": _Row("+", 1, (_EXPR, _EXPR), add),
    "sub": _Row("-", 1, (_EXPR, _EXPR), sub),
    "mul": _Row("*", 2, (_EXPR, _EXPR), mul),
    "div": _Row("/", 2, (_EXPR, _EXPR), truediv),
    "neg": _Row("-", _PREFIX, (_EXPR,), neg),
    "exp": _Row("exp", _ATOM, (_EXPR,), methodcaller("exp")),
    "log1p": _Row("log1p", _ATOM, (_EXPR,), _log1p),
    "inv": _Row("inv", _ATOM, (_EXPR,), methodcaller("inverse")),
    "rev": _Row("rev", _ATOM, (_EXPR,), methodcaller("revert")),
    "pow": _Row("pow", _ATOM, (_EXPR, _RATIONAL), _pow),
    "compose": _Row("compose", _ATOM, (_EXPR, _EXPR), lambda outer, inner: outer.compose(inner)),
}

# what the parser reads: the operators of each binding level, symbol -> name
_WRITTEN = {level: {row.symbol: name for name, row in _OPS.items() if row.level == level}
            for level in range(1, _ATOM + 1)}
# str(Fraction) writes n/d, which parses as a division of two literals
_FRACTION_LEVEL = _OPS["div"].level


def _row(ast) -> _Row:
    """The row of an ``Op`` node whose arguments fit it; else DomainError."""
    row = _OPS.get(ast.name) if isinstance(ast, Op) and isinstance(ast.name, str) else None
    if row is None or not isinstance(ast.args, tuple) or len(ast.args) != len(row.kinds):
        raise DomainError(f"not an AST node: {ast!r}")
    return row


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# one token per match; the last alternative takes any other character
_TOKEN_RE = re.compile(r"\s*(?:(?P<INT>\d+)|(?P<NAME>[A-Za-z_][A-Za-z0-9_]*)"
                       r"|(?P<SYM>[-+*/(),])|(?P<BAD>\S))")


class _Tokens:
    """A cursor over the (kind, text, offset) tokens of the text, ending in
    EOF; a character no token takes is a ParseError before any parsing."""

    def __init__(self, src: str):
        self.items, self.i = [], 0
        for m in _TOKEN_RE.finditer(src):
            kind = m.lastgroup
            text, offset = m.group(kind), m.start(kind)
            if kind == "BAD":
                raise ParseError(f"unexpected character {text!r}", offset)
            self.items.append((text if kind == "SYM" else kind, text, offset))
        self.items.append(("EOF", "", len(src)))

    def peek(self):
        return self.items[self.i]

    def next(self):
        self.i += 1
        return self.items[self.i - 1]

    def expect(self, kind: str):
        """The next token, which must be of ``kind``."""
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"unexpected {tok[0]} {tok[1]!r}", tok[2], (kind,))
        return self.next()


def parse_expr(src: str):
    """Parse a DSL expression into an AST; ParseError carries the offset."""
    if not isinstance(src, str):
        raise DomainError(f"an expression must be a str, got {type(src).__name__}")
    toks = _Tokens(src)
    try:
        ast = _parse_level(toks)
    except RecursionError:
        raise ParseError("expression nested too deeply", toks.peek()[2]) from None
    tok = toks.peek()
    if tok[0] != "EOF":
        expected = (*[sym for level in range(1, _PREFIX) for sym in _WRITTEN[level]], "EOF")
        raise ParseError(f"trailing input {tok[1]!r}", tok[2], expected)
    return ast


def _parse_level(toks, level: int = 1):
    """A left-associative chain of the infix operators of ``level``.  The
    tightest level reads its operands by ``_parse_factor`` itself, so that a
    parenthesis costs four frames, one per grammar rule."""
    ops, last = _WRITTEN[level], level + 1 == _PREFIX
    node = _parse_factor(toks) if last else _parse_level(toks, level + 1)
    while toks.peek()[0] in ops:
        name = ops[toks.next()[0]]
        node = Op(name, (node, _parse_factor(toks) if last else _parse_level(toks, level + 1)))
    return node


def _parse_factor(toks):
    if toks.peek()[0] in _WRITTEN[_PREFIX]:
        return Op(_WRITTEN[_PREFIX][toks.next()[0]], (_parse_factor(toks),))
    return _parse_atom(toks)


_ATOM_EXPECTED = ("INT", *_LEAVES, "(", *_WRITTEN[_ATOM])


def _parse_atom(toks):
    kind, text, offset = toks.next()
    if kind == "INT":
        return Lit(Fraction(int(text)))
    if kind == "(":
        node = _parse_level(toks)
        toks.expect(")")
        return node
    if text in _LEAVES:
        return Sym(text)
    if text in _WRITTEN[_ATOM]:
        # a call: the first argument follows "(", each other one a ","
        name, args, sep = _WRITTEN[_ATOM][text], [], "("
        for arg_kind in _OPS[name].kinds:
            toks.expect(sep)
            args.append(_parse_level(toks) if arg_kind == _EXPR else _parse_rational(toks))
            sep = ","
        toks.expect(")")
        return Op(name, tuple(args))
    what = "unknown name" if kind == "NAME" else f"unexpected {kind}"
    raise ParseError(f"{what} {text!r}", offset, _ATOM_EXPECTED)


def _parse_rational(toks) -> Fraction:
    """A rational literal: an optional sign, INT, and an optional "/" INT."""
    sign = -1 if toks.peek()[0] == "-" else 1
    if sign < 0:
        toks.next()
    value = Fraction(sign * int(toks.expect("INT")[1]))
    if toks.peek()[0] == "/":
        toks.next()
        den = toks.expect("INT")
        if not int(den[1]):
            raise ParseError("zero denominator", den[2])
        value /= int(den[1])
    return value


# ---------------------------------------------------------------------------
# rendering (render . parse == identity on the AST)
# ---------------------------------------------------------------------------


def render(ast) -> str:
    """DSL text that parses back to ``ast``."""
    try:
        return _render(ast, 0)
    except RecursionError:
        raise DomainError("expression nested too deeply to render") from None


def _render(ast, parent_level: int) -> str:
    if isinstance(ast, Lit):
        value = rational("literal", ast.value)
        if value < 0:
            return _render(Op("neg", (Lit(-value),)), parent_level)
        text, level = str(value), _ATOM if value.denominator == 1 else _FRACTION_LEVEL
    elif isinstance(ast, Sym) and ast.name in _LEAVES:
        text, level = ast.name, _ATOM
    else:
        row = _row(ast)
        level, parts = row.level, []
        # a call's arguments stand alone; an operand binds at the operator's
        # level, and by left associativity a right operand strictly tighter
        for i, (arg, kind) in enumerate(zip(ast.args, row.kinds)):
            parts.append(_render(arg, 0 if level == _ATOM else level + i) if kind == _EXPR
                         else str(rational(f"{ast.name}'s {kind}", arg)))
        if level == _ATOM:
            text = f"{row.symbol}({', '.join(parts)})"
        else:  # prefix minus, or infix with spaces at the loosest level
            sym = f" {row.symbol} " if level == 1 else row.symbol
            text = sym + parts[0] if level == _PREFIX else sym.join(parts)
    return f"({text})" if level < parent_level else text


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def eval_expr(ast, T: int, *, lam=None) -> Series:
    """Evaluate an AST to a truncated series by structural recursion.

    Each leaf is its own element: ``L`` is the indeterminate over Q(L)
    when ``lam`` is None and the rational ``lam`` over Q otherwise, every
    other leaf is over Q, and an operation with an operand over Q(L) is over
    Q(L).  ``lam`` must be an exact rational (or None), whether or not the
    expression uses L.
    """
    L = LAMBDA if lam is None else rational("lam", lam)
    try:
        return _eval(ast, T, L)
    except RecursionError:
        raise DomainError("expression nested too deeply to evaluate") from None


def _eval(ast, T, L) -> Series:
    if isinstance(ast, Lit):
        return constant(QQ, ast.value, T)
    if isinstance(ast, Sym) and ast.name in _LEAVES:
        return t_series(QQ, T) if ast.name == "t" else one(QQ, T) * L
    row, args = _row(ast), []
    for arg, kind in zip(ast.args, row.kinds):
        args.append(_eval(arg, T, L) if kind == _EXPR else rational(f"{ast.name}'s {kind}", arg))
    return row.run(*args)
