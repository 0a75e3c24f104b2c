"""Expression DSL for building series from text.

Grammar (left associative, parentheses override):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := atom | "-" factor
    atom   := INT | "t" | "L" | "(" expr ")" | FUNC "(" args ")"
    FUNC   := exp | log1p | inv | rev | pow | compose

The binary operators and their binding levels come from one table,
``_LEVELS``, which the parser (one ``_parse_level`` per level) and
``render`` both read; the call syntax ``name(arg)`` or ``name(arg,
second)`` is parsed in one place.  ``pow`` takes (expr, rational-literal);
``compose`` takes two expressions.
``L`` is the ASCII spelling of the lambda indeterminate.  Rational values
arise from division (``1/2``) except in pow's exponent, which is lexed as a
signed literal.

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


class TVar(Record):
    pass


class LSym(Record):
    pass


class Unary(Record):
    op: str  # neg | inv | exp | log1p | rev
    arg: object


class Binary(Record):
    op: str  # add | sub | mul | div
    left: object
    right: object


class PowNode(Record):
    base: object
    exponent: Fraction


class ComposeNode(Record):
    outer: object
    inner: object


_FUNCS = ("exp", "log1p", "inv", "rev", "pow", "compose")

# The binary operators, loosest level first: symbol -> Binary op.  The
# parser reads one level per entry and ``render`` takes each operator's
# symbol and binding level from here.
_LEVELS = ({"+": "add", "-": "sub"}, {"*": "mul", "/": "div"})

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
        tok = self.items[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, expected: tuple[str, ...]):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"unexpected {tok[0]} {tok[1]!r}", tok[2], expected)
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
        expected = (*[sym for ops in _LEVELS for sym in ops], "EOF")
        raise ParseError(f"trailing input {tok[1]!r}", tok[2], expected)
    return ast


def _parse_level(toks, level: int = 0):
    """A left-associative chain of the operators of ``_LEVELS[level]``.  The
    last level reads its operands by ``_parse_factor`` itself, so that a
    parenthesis costs four frames, one per grammar rule."""
    ops, last = _LEVELS[level], level + 1 == len(_LEVELS)
    node = _parse_factor(toks) if last else _parse_level(toks, level + 1)
    while toks.peek()[0] in ops:
        op = ops[toks.next()[0]]
        node = Binary(op, node, _parse_factor(toks) if last else _parse_level(toks, level + 1))
    return node


def _parse_factor(toks):
    if toks.peek()[0] == "-":
        toks.next()
        return Unary("neg", _parse_factor(toks))
    return _parse_atom(toks)


_ATOM_EXPECTED = ("INT", "t", "L", "(", *_FUNCS)


def _parse_atom(toks):
    kind, text, offset = toks.next()
    if kind == "INT":
        return Lit(Fraction(int(text)))
    if kind == "(":
        node = _parse_level(toks)
        toks.expect(")", (")",))
        return node
    if text == "t":
        return TVar()
    if text == "L":
        return LSym()
    if text in _FUNCS:
        toks.expect("(", ("(",))
        arg = _parse_level(toks)
        if text in ("pow", "compose"):
            toks.expect(",", (",",))
            # pow's exponent is a rational literal, compose's inner an expression
            if text == "pow":
                node = PowNode(arg, _parse_rational(toks))
            else:
                node = ComposeNode(arg, _parse_level(toks))
        else:
            node = Unary(text, arg)
        toks.expect(")", (")",))
        return node
    what = "unknown name" if kind == "NAME" else f"unexpected {kind}"
    raise ParseError(f"{what} {text!r}", offset, _ATOM_EXPECTED)


def _parse_rational(toks) -> Fraction:
    sign = 1
    if toks.peek()[0] == "-":
        toks.next()
        sign = -1
    num = toks.expect("INT", ("INT",))
    value = Fraction(sign * int(num[1]))
    if toks.peek()[0] == "/":
        toks.next()
        den = toks.expect("INT", ("INT",))
        if not int(den[1]):
            raise ParseError("zero denominator", den[2])
        value = value / int(den[1])
    return value


# ---------------------------------------------------------------------------
# rendering (render . parse == identity on the AST)
# ---------------------------------------------------------------------------

# Binary op -> (symbol, binding level), level i + 1 for _LEVELS[i]; the
# loosest level is written with spaces.  Unary minus binds tighter than
# every binary operator, and atoms tightest.
_SYMBOLS = {op: (f" {sym} " if i == 0 else sym, i + 1)
            for i, ops in enumerate(_LEVELS) for sym, op in ops.items()}
_LEVEL_UNARY, _LEVEL_ATOM = len(_LEVELS) + 1, len(_LEVELS) + 2


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
            return _render(Unary("neg", Lit(-value)), parent_level)
        # a fraction n/d is a division of two literals
        text, level = str(value), _LEVEL_ATOM if value.denominator == 1 else _SYMBOLS["div"][1]
    elif isinstance(ast, TVar):
        text, level = "t", _LEVEL_ATOM
    elif isinstance(ast, LSym):
        text, level = "L", _LEVEL_ATOM
    elif isinstance(ast, Unary) and ast.op in _UNARY:
        if ast.op == "neg":
            text, level = "-" + _render(ast.arg, _LEVEL_UNARY), _LEVEL_UNARY
        else:
            text, level = f"{ast.op}({_render(ast.arg, 0)})", _LEVEL_ATOM
    elif isinstance(ast, Binary) and ast.op in _SYMBOLS:
        sym, level = _SYMBOLS[ast.op]
        # left associativity: the right child needs strictly tighter binding
        text = _render(ast.left, level) + sym + _render(ast.right, level + 1)
    elif isinstance(ast, PowNode):
        expo = rational("exponent", ast.exponent)
        text, level = f"pow({_render(ast.base, 0)}, {expo})", _LEVEL_ATOM
    elif isinstance(ast, ComposeNode):
        text, level = f"compose({_render(ast.outer, 0)}, {_render(ast.inner, 0)})", _LEVEL_ATOM
    else:
        raise DomainError(f"not an AST node: {ast!r}")
    if level < parent_level:
        return f"({text})"
    return text


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


def _log1p(arg: Series) -> Series:
    if arg.order() == 0:
        raise CompositionOrder("log1p needs an argument with zero constant term")
    return (arg + 1).log()


# methods looked up on each call, so a patched or traced method is the one run
_UNARY = {"neg": neg, "inv": methodcaller("inverse"), "exp": methodcaller("exp"),
          "log1p": _log1p, "rev": methodcaller("revert")}
_BINARY = {"add": add, "sub": sub, "mul": mul, "div": truediv}


def _eval(ast, T, L) -> Series:
    if isinstance(ast, Lit):
        return constant(QQ, ast.value, T)
    if isinstance(ast, TVar):
        return t_series(QQ, T)
    if isinstance(ast, LSym):
        return one(QQ, T) * L
    if isinstance(ast, Unary) and ast.op in _UNARY:
        return _UNARY[ast.op](_eval(ast.arg, T, L))
    if isinstance(ast, Binary) and ast.op in _BINARY:
        return _BINARY[ast.op](_eval(ast.left, T, L), _eval(ast.right, T, L))
    if isinstance(ast, PowNode):
        base, e = _eval(ast.base, T, L), rational("exponent", ast.exponent)
        return base.pow_int(int(e)) if e.denominator == 1 else base.pow_field(e)
    if isinstance(ast, ComposeNode):
        return _eval(ast.outer, T, L).compose(_eval(ast.inner, T, L))
    raise DomainError(f"not an AST node: {ast!r}")
