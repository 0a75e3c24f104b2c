"""The expression DSL: lexing, parsing, rendering, evaluation."""

import io
import itertools
import re
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbralkit import (
    CompositionOrder,
    DomainError,
    NotDelta,
    NotInvertible,
    ParseError,
    QL,
    QQ,
    UmbralError,
    eval_expr,
    exp_ct,
    log1p_series,
    parse_expr,
    render,
    t_series,
)
from umbralkit.cli import main
from umbralkit.dsl import _ATOM, _EXPR, _LEAVES, _OPS, _RATIONAL, Lit, Op, Sym
from umbralkit.fields import LAMBDA


class TestParse:
    def test_bernoulli_expression(self):
        ast = parse_expr("t/(exp(t)-1)")
        assert ast == Op(
            "div", (Sym("t"), Op("sub", (Op("exp", (Sym("t"),)), Lit(F(1)))))
        )

    def test_pow_with_rational_exponent(self):
        ast = parse_expr("pow((1+t), -1/2)")
        assert ast == Op("pow", (Op("add", (Lit(F(1)), Sym("t"))), F(-1, 2)))

    def test_error_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("t*)")
        assert exc.value.offset == 2
        assert exc.value.expected  # the expected-token set is reported

    def test_error_offsets_more(self):
        for src, offset in [("", 0), ("(1+t", 4), ("1 @ 2", 2), ("pow(t)", 5)]:
            with pytest.raises(ParseError) as exc:
                parse_expr(src)
            assert exc.value.offset == offset, src

    # what an atom may start with, as every atom error reports it
    ATOM = ("INT", "t", "L", "(", "exp", "log1p", "inv", "rev", "pow", "compose")
    ATOM_TEXT = "INT, t, L, (, exp, log1p, inv, rev, pow, compose"

    # (text, str(exc), offset, expected); deep nesting is left out, since
    # the offset where the interpreter's recursion limit stops it varies
    @pytest.mark.parametrize("src,message,offset,expected", [
        ("", f"unexpected EOF '' at offset 0 (expected {ATOM_TEXT})", 0, ATOM),
        ("(1+t", "unexpected EOF '' at offset 4 (expected ))", 4, (")",)),
        ("1 @ 2", "unexpected character '@' at offset 2", 2, ()),
        ("pow(t)", "unexpected ) ')' at offset 5 (expected ,)", 5, (",",)),
        ("t*)", f"unexpected ) ')' at offset 2 (expected {ATOM_TEXT})", 2, ATOM),
        ("pow(t, 1/0)", "zero denominator at offset 9", 9, ()),
        ("foo(t)", f"unknown name 'foo' at offset 0 (expected {ATOM_TEXT})", 0, ATOM),
        ("t t", "trailing input 't' at offset 2 (expected +, -, *, /, EOF)", 2,
         ("+", "-", "*", "/", "EOF")),
        ("pow(t, x)", "unexpected NAME 'x' at offset 7 (expected INT)", 7, ("INT",)),
        ("compose(t)", "unexpected ) ')' at offset 9 (expected ,)", 9, (",",)),
        ("exp t", "unexpected NAME 't' at offset 4 (expected ()", 4, ("(",)),
        ("-", f"unexpected EOF '' at offset 1 (expected {ATOM_TEXT})", 1, ATOM),
        ("1/", f"unexpected EOF '' at offset 2 (expected {ATOM_TEXT})", 2, ATOM),
        ("pow(1+t, -)", "unexpected ) ')' at offset 10 (expected INT)", 10, ("INT",)),
    ])
    def test_error_contract(self, src, message, offset, expected):
        with pytest.raises(ParseError) as exc:
            parse_expr(src)
        assert (str(exc.value), exc.value.offset, exc.value.expected) == (message, offset, expected)

    def test_precedence(self):
        assert parse_expr("1+2*t") == Op(
            "add", (Lit(F(1)), Op("mul", (Lit(F(2)), Sym("t"))))
        )
        # unary minus binds tighter than multiplication
        assert parse_expr("-t*2") == Op("mul", (Op("neg", (Sym("t"),)), Lit(F(2))))

    def test_left_associativity(self):
        assert parse_expr("1-2-3") == Op(
            "sub", (Op("sub", (Lit(F(1)), Lit(F(2)))), Lit(F(3)))
        )

    def test_lambda_symbol(self):
        assert parse_expr("L") == Sym("L")
        assert parse_expr("L") != Sym("t") and Sym("t") != Sym("L")

    def test_nodes_are_immutable_records(self):
        assert Lit(F(1)) == Lit(F(1)) and hash(Lit(F(1))) == hash(Lit(F(1)))
        assert Lit(F(1)) != (F(1),) and Lit(F(1)) != Lit(F(2))
        assert Op(name="neg", args=(Sym("t"),)) == Op("neg", (Sym("t"),))
        assert "Lit(" in repr(Lit(F(1))) and "value=" in repr(Lit(F(1)))
        with pytest.raises(AttributeError):
            Lit(F(1)).value = F(2)
        with pytest.raises(AttributeError):
            Op("add", (Sym("t"), Sym("L"))).args = (Sym("L"),)
        with pytest.raises(TypeError):
            Op("pow")


class TestRender:
    CORPUS = [
        "t/(exp(t) - 1)",
        "pow(1 + t, -1/2)",
        "rev(exp(t) - 1)",
        "compose(log1p(t), exp(t) - 1)",
        "inv(1 - t)",
        "(1 + t)*(1 - t)",
        "1 - 2 - 3",
        "1 - (2 - 3)",
        "2/3/4",
        "-t*3 - 4",
        "exp(2*t)",
        "(1 - L)/(exp(t) - L)",
        "pow(1 + t, 7)",
        "t*t*t",
        "-(1 + t)",
    ]

    @pytest.mark.parametrize("src", CORPUS)
    def test_round_trip(self, src):
        ast = parse_expr(src)
        text = render(ast)
        assert parse_expr(text) == ast

    def test_long_chain_is_domain_error(self):
        with pytest.raises(DomainError):
            render(parse_expr("+".join(["t"] * 3000)))

    # render checks literal values and exponents as exact rationals, and op
    # names against the operator table
    @pytest.mark.parametrize("ast", [
        Lit(0.5),
        Lit("x"),
        Op("pow", (Sym("t"), 0.5)),
        Op("pow", (Sym("t"), Sym("t"))),
        Op("foo", (Sym("t"),)),
    ], ids=["float-literal", "text-literal", "float-exponent", "binary-op", "unary-op"])
    def test_bad_node_is_domain_error(self, ast):
        with pytest.raises(DomainError):
            render(ast)

    # an Op must name a row and give it one argument per kind, in a tuple;
    # a Sym must name a leaf
    @pytest.mark.parametrize("ast", [
        Op("exp", (Sym("t"), Sym("t"))),
        Op("add", (Sym("t"),)),
        Op("neg", Sym("t")),
        Op("neg", [Sym("t")]),
        Op(["exp"], (Sym("t"),)),
        Sym("x"),
    ], ids=["too-many-args", "too-few-args", "args-not-a-tuple", "args-a-list", "name-not-a-str",
            "unknown-leaf"])
    @pytest.mark.parametrize("use", [render, lambda ast: eval_expr(ast, 3)], ids=["render", "eval"])
    def test_malformed_node_is_domain_error(self, ast, use):
        with pytest.raises(DomainError):
            use(ast)


def _asts():
    """Random ASTs of the shapes the parser builds, at most four levels deep:
    one Op per row of the operator table, its arguments of the row's kinds."""
    leaves = st.one_of(
        st.builds(Lit, st.integers(0, 3).map(F)), st.sampled_from([Sym(n) for n in _LEAVES])
    )

    def extend(sub):
        kinds = {_EXPR: sub, _RATIONAL: st.fractions(-3, 3, max_denominator=2)}
        return st.one_of(*[
            st.tuples(*[kinds[kind] for kind in row.kinds]).map(partial(Op, name))
            for name, row in _OPS.items()
        ])

    return st.recursive(leaves, extend, max_leaves=6).filter(lambda a: _depth(a) <= 4)


def _depth(ast) -> int:
    kids = [a for a in getattr(ast, "args", ()) if not isinstance(a, F)]
    return 1 + max(map(_depth, kids), default=0)


# the argument candidates of the per-row case: a unit (invertible, with
# constant term 1) and a delta series, both sums, so that an operator that
# binds tighter than + must parenthesise them
_UNIT, _DELTA = parse_expr("1 + t"), parse_expr("t + t*t")


@pytest.mark.parametrize("name", _OPS)
def test_each_row_parses_renders_and_evaluates(name):
    """Each row's Op, built from the row alone, renders to text that parses
    back to it and evaluates to the row's operation on its evaluated
    arguments; at least one choice of arguments is in the operation's domain."""
    row, T, results = _OPS[name], 5, []
    choices = [(_UNIT, _DELTA) if kind == _EXPR else (F(-1, 2),) for kind in row.kinds]
    for args in itertools.product(*choices):
        ast = Op(name, args)
        text = render(ast)
        assert parse_expr(text) == ast, text
        try:
            got = eval_expr(parse_expr(text), T)
        except UmbralError:
            continue
        want = row.run(*[eval_expr(a, T) if kind == _EXPR else a
                         for a, kind in zip(args, row.kinds)])
        assert got == want, text
        results.append(text)
    assert results, name


def test_readme_grammar_names_every_call():
    # the expand grammar paragraph writes each call with one argument per kind
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    grammar = readme[readme.index("Grammar:"):].split("\n\n")[0]
    for name, row in _OPS.items():
        if row.level == _ATOM:
            call = re.search(rf"`{re.escape(row.symbol)}\(([^`]*)\)`", grammar)
            assert call and len(call[1].split(", ")) == len(row.kinds), name


class TestFuzz:
    @given(ast=_asts(), order=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_render_parse_eval_expand(self, ast, order):
        text = render(ast)
        assert parse_expr(text) == ast
        values = []
        for lam in (F(-1, 2), None):
            try:
                values.append(eval_expr(ast, order, lam=lam))
            except UmbralError:
                values.append(None)
        # over Q(L) exactly when the AST has an L leaf and no lambda is given
        at_lam, symbolic = values
        if at_lam is not None:
            assert at_lam.field is QQ
        if symbolic is not None:
            assert symbolic.field is (QL if "L" in text else QQ)
        # where both succeed, Q(L) specialised at L = -1/2 is the Q answer there
        if at_lam is not None and symbolic is not None:
            try:
                special = [QL.coerce(c).evaluate(F(-1, 2)) for c in symbolic.coeffs]
            except UmbralError:  # a pole at -1/2
                special = None
            if special is not None:
                m = min(len(special), at_lam.trunc)
                assert special[:m] == list(at_lam.coeffs[:m])
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["expand", f"--order={order}", "--", text])
        assert code in (0, 2)
        assert (code == 0) == bool(out.getvalue()) == (not err.getvalue())


class TestEval:
    def test_bernoulli_series(self):
        got = eval_expr(parse_expr("t/(exp(t)-1)"), 4)
        assert got.coeffs == (F(1), F(-1, 2), F(1, 12))

    def test_reversion(self):
        got = eval_expr(parse_expr("rev(exp(t)-1)"), 4)
        assert got == log1p_series(QQ, 4)

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            eval_expr(parse_expr("inv(t)"), 5)

    def test_not_delta(self):
        with pytest.raises(NotDelta):
            eval_expr(parse_expr("rev(1+t)"), 5)

    def test_exp_requires_zero_constant(self):
        with pytest.raises(CompositionOrder):
            eval_expr(parse_expr("exp(1+t)"), 5)

    def test_exp_of_scaled_t(self):
        assert eval_expr(parse_expr("exp(2*t)"), 4) == exp_ct(QQ, 2, 4)

    def test_log1p_needs_delta_argument(self):
        with pytest.raises(CompositionOrder):
            eval_expr(parse_expr("log1p(1+t)"), 5)

    def test_log1p_of_t(self):
        assert eval_expr(parse_expr("log1p(t)"), 5) == log1p_series(QQ, 5)

    def test_compose_order_guard(self):
        with pytest.raises(CompositionOrder):
            eval_expr(parse_expr("compose(exp(t), 1+t)"), 5)

    def test_lambda_symbolic(self):
        got = eval_expr(parse_expr("L*t"), 3)
        assert got.coeffs == (QL.zero, LAMBDA, QL.zero)

    def test_lambda_bound(self):
        got = eval_expr(parse_expr("(1-L)/(exp(t)-L)"), 3, lam=F(-1))
        direct = 2 / (exp_ct(QQ, 1, 3) + 1)
        assert got == direct

    def test_pow_integer_and_field(self):
        assert eval_expr(parse_expr("pow(1+t, 2)"), 3).coeffs == (1, 2, 1)
        got = eval_expr(parse_expr("pow(1+t, 1/2)"), 3)
        assert (got * got).coeffs == (1, 1, 0)

    def test_rev_compose_round_trip(self):
        for src in ("exp(t)-1", "t/(1-t)", "log1p(t)", "2*t+t*t"):
            f = eval_expr(parse_expr(src), 8)
            fbar = eval_expr(parse_expr(f"rev({src})"), 8)
            assert f.compose(fbar) == t_series(QQ, 8)

    @pytest.mark.parametrize("call", [
        lambda: parse_expr(5),
        lambda: parse_expr(None),
        lambda: eval_expr("t", 3),
        lambda: eval_expr(Op("foo", (Sym("t"),)), 3),
        lambda: eval_expr(Op("pow", (Sym("t"), Sym("t"))), 3),
        lambda: eval_expr(Op("pow", (Sym("t"), 0.5)), 3),
        lambda: eval_expr(parse_expr("t"), 3, lam="x"),
        lambda: eval_expr(parse_expr("t"), 3, lam=0.5),
        lambda: render(5),
    ], ids=["parse-int", "parse-none", "eval-str", "eval-unary-op", "eval-binary-op",
            "eval-float-exponent", "eval-text-lambda-without-L", "eval-float-lambda", "render-int"])
    def test_bad_input_is_domain_error(self, call):
        with pytest.raises(DomainError):
            call()
