"""Expression DSL for building series from text.

Grammar (left associative, parentheses override):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := atom | "-" factor
    atom   := INT | "t" | "L" | "(" expr ")" | FUNC "(" args ")"
    FUNC   := exp | log1p | inv | rev | pow | compose

``pow`` takes (expr, rational-literal); ``compose`` takes two expressions.
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
from operator import add, mul, sub, truediv

from .errors import CompositionOrder, DomainError, ParseError, rational
from .fields import QQ, LAMBDA
from .record import Record
from .series import Series, constant, one, t_series


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

_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([+\-*/(),])")


class _Tokens:
    def __init__(self, src: str):
        self.src = src
        self.items: list[tuple[str, str, int]] = []  # (kind, text, offset)
        pos = 0
        n = len(src)
        while True:
            while pos < n and src[pos].isspace():
                pos += 1
            if pos >= n:
                break
            m = _TOKEN_RE.match(src, pos)
            if not m:
                raise ParseError(f"unexpected character {src[pos]!r}", pos)
            if m.group(1):
                self.items.append(("INT", m.group(1), pos))
            elif m.group(2):
                self.items.append(("NAME", m.group(2), pos))
            else:
                self.items.append((m.group(3), m.group(3), pos))
            pos = m.end()
        self.items.append(("EOF", "", len(src)))
        self.i = 0

    def peek(self):
        return self.items[self.i]

    def next(self):
        tok = self.items[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, expected: tuple[str, ...]):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(
                f"unexpected {tok[0] or 'end of input'} {tok[1]!r}", tok[2], expected
            )
        return self.next()


def parse_expr(src: str):
    """Parse a DSL expression into an AST; ParseError carries the offset."""
    if not isinstance(src, str):
        raise DomainError(f"an expression must be a str, got {type(src).__name__}")
    toks = _Tokens(src)
    try:
        ast = _parse_sum(toks)
    except RecursionError:
        raise ParseError("expression nested too deeply", toks.peek()[2]) from None
    tok = toks.peek()
    if tok[0] != "EOF":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2], ("+", "-", "*", "/", "EOF"))
    return ast


def _parse_sum(toks):
    node = _parse_term(toks)
    while toks.peek()[0] in ("+", "-"):
        op = toks.next()[0]
        rhs = _parse_term(toks)
        node = Binary("add" if op == "+" else "sub", node, rhs)
    return node


def _parse_term(toks):
    node = _parse_factor(toks)
    while toks.peek()[0] in ("*", "/"):
        op = toks.next()[0]
        rhs = _parse_factor(toks)
        node = Binary("mul" if op == "*" else "div", node, rhs)
    return node


def _parse_factor(toks):
    if toks.peek()[0] == "-":
        toks.next()
        return Unary("neg", _parse_factor(toks))
    return _parse_atom(toks)


_ATOM_EXPECTED = ("INT", "t", "L", "(", *_FUNCS)


def _parse_atom(toks):
    kind, text, offset = toks.peek()
    if kind == "INT":
        toks.next()
        return Lit(Fraction(int(text)))
    if kind == "(":
        toks.next()
        node = _parse_sum(toks)
        toks.expect(")", (")",))
        return node
    if kind == "NAME":
        toks.next()
        if text == "t":
            return TVar()
        if text == "L":
            return LSym()
        if text in _FUNCS:
            toks.expect("(", ("(",))
            if text == "pow":
                base = _parse_sum(toks)
                toks.expect(",", (",",))
                expo = _parse_rational(toks)
                toks.expect(")", (")",))
                return PowNode(base, expo)
            if text == "compose":
                outer = _parse_sum(toks)
                toks.expect(",", (",",))
                inner = _parse_sum(toks)
                toks.expect(")", (")",))
                return ComposeNode(outer, inner)
            arg = _parse_sum(toks)
            toks.expect(")", (")",))
            return Unary(text, arg)
        raise ParseError(f"unknown name {text!r}", offset, _ATOM_EXPECTED)
    raise ParseError(f"unexpected {kind or 'end of input'} {text!r}", offset, _ATOM_EXPECTED)


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

_LEVEL_SUM, _LEVEL_TERM, _LEVEL_UNARY, _LEVEL_ATOM = 1, 2, 3, 4


def render(ast) -> str:
    """DSL text that parses back to ``ast``."""
    try:
        return _render(ast, 0)
    except RecursionError:
        raise DomainError("expression nested too deeply to render") from None


def _render(ast, parent_level: int) -> str:
    if isinstance(ast, Lit):
        value = rational("literal", ast.value)
        if value.denominator == 1 and value >= 0:
            text, level = str(value), _LEVEL_ATOM
        elif value < 0:
            return _render(Unary("neg", Lit(-value)), parent_level)
        else:
            text = f"{value.numerator}/{value.denominator}"
            level = _LEVEL_TERM
    elif isinstance(ast, TVar):
        text, level = "t", _LEVEL_ATOM
    elif isinstance(ast, LSym):
        text, level = "L", _LEVEL_ATOM
    elif isinstance(ast, Unary) and ast.op in _UNARY:
        if ast.op == "neg":
            text, level = "-" + _render(ast.arg, _LEVEL_UNARY), _LEVEL_UNARY
        else:
            text, level = f"{ast.op}({_render(ast.arg, 0)})", _LEVEL_ATOM
    elif isinstance(ast, Binary) and ast.op in _BINARY:
        sym = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}[ast.op]
        mine = _LEVEL_SUM if ast.op in ("add", "sub") else _LEVEL_TERM
        left = _render(ast.left, mine)
        # left associativity: the right child needs strictly tighter binding
        right = _render(ast.right, mine + 1)
        text, level = left + sym + right, mine
    elif isinstance(ast, PowNode):
        expo = rational("exponent", ast.exponent)
        es = str(expo) if expo.denominator == 1 else f"{expo.numerator}/{expo.denominator}"
        text, level = f"pow({_render(ast.base, 0)}, {es})", _LEVEL_ATOM
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


_UNARY = {"neg": Series.__neg__, "inv": Series.inverse, "exp": Series.exp,
          "log1p": _log1p, "rev": Series.revert}
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
