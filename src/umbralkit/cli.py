"""Command-line surface: series expansion, family tables, Sheffer routes,
and the identity-verification runner.

Exit codes: 0 success / all checks pass; 1 a verification failed;
2 usage, parse, or domain errors.  Exact values are always emitted as
strings ("-3/2"), never floats, in every output format.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import __version__
from .dsl import eval_expr, parse_expr, uses_lambda
from .errors import DomainError, ParseError, UmbralError, UnknownIdentity
from .families import family_polys
from .fields import QL, QQ, format_terms
from .identities import (
    _SYMBOLIC,
    IDENTITY_TAGS,
    REGISTRY,
    aggregate_pass,
    default_grid,
    integer_order,
    run_registry,
)
from .series import Poly, working_trunc
from .umbral import ShefferPair, sheffer_gf, sheffer_transfer_all


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


def _lambda_arg(text: str):
    if text in _SYMBOLIC:
        return None
    return _fraction_arg(text)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="umbralkit",
        description="Exact Sheffer-sequence kernel: expand series, tabulate "
        "polynomial families, and verify the identity registry.",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("expand", help="expand a DSL expression as a truncated series")
    p_exp.add_argument(
        "expr",
        help="the series expression; one that starts with '-' goes after '--' "
        "(expand --order 3 -- \"-t\")",
    )
    p_exp.add_argument("--order", type=int, required=True, metavar="N")
    p_exp.add_argument("--field", choices=("q", "qlambda"), default=None)
    p_exp.add_argument("--lambda", dest="lam", type=_fraction_arg, default=None, metavar="p/q")
    p_exp.add_argument("--format", choices=("csv", "json", "latex"), default="json")

    # a parameter flag not given leaves no attribute, so _cmd_family sees
    # exactly the flags on the command line
    p_fam = sub.add_parser(
        "family",
        help="tabulate a named polynomial family or a registry pair's sequence",
        argument_default=argparse.SUPPRESS,
    )
    p_fam.add_argument("name", choices=[n for n, e in REGISTRY.items() if e.pair])
    p_fam.add_argument("--order-param", dest="order", type=int, metavar="k")
    p_fam.add_argument("--lambda", dest="lam", type=_lambda_arg, metavar="p/q|symbolic")
    p_fam.add_argument("--a", type=_fraction_arg, metavar="p/q",
                       help="Poisson-Charlier parameter (nonzero)")
    p_fam.add_argument("--b", type=_fraction_arg, metavar="p/q")
    p_fam.add_argument("--c", type=_fraction_arg, metavar="p/q")
    p_fam.add_argument("--m", type=int, metavar="k")
    p_fam.add_argument("--n", type=int, required=True, metavar="N")
    p_fam.add_argument("--format", choices=("csv", "json", "latex"), default="csv")

    p_sh = sub.add_parser("sheffer", help="build a Sheffer sequence by both routes")
    p_sh.add_argument("--g", required=True, metavar="EXPR")
    p_sh.add_argument("--f", required=True, metavar="EXPR")
    p_sh.add_argument("--n", type=int, required=True, metavar="N")
    p_sh.add_argument("--field", choices=("q", "qlambda"), default=None)
    p_sh.add_argument("--lambda", dest="lam", type=_fraction_arg, default=None, metavar="p/q")
    p_sh.add_argument("--format", choices=("csv", "json", "latex"), default="json")

    p_ver = sub.add_parser("verify", help="run identity checks in exact arithmetic")
    p_ver.add_argument("id", nargs="?", default=None,
                       help=f"identity tag ({', '.join(IDENTITY_TAGS)})")
    p_ver.add_argument("--all", action="store_true", help="run the whole registry")
    p_ver.add_argument("--n-max", dest="n_max", type=int, default=6, metavar="N")
    p_ver.add_argument("--format", choices=("json",), default="json")
    return top


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def _poly_row(p: Poly) -> list[str]:
    return p.coeff_texts() or ["0"]


def _emit_rows(polys, fmt, out) -> None:
    if fmt == "csv":
        for n, p in enumerate(polys):
            out.write(",".join([str(n)] + _poly_row(p)) + "\n")
    elif fmt == "json":
        out.write(json.dumps([_poly_row(p) for p in polys]) + "\n")
    else:
        for n, p in enumerate(polys):
            terms = format_terms(p.coeff_texts(latex=True), "x", latex=True)
            out.write(f"{n} & {terms} \\\\\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _pick_field(args, asts):
    if args.field == "qlambda" and args.lam is not None:
        raise DomainError("--field qlambda keeps L symbolic; it cannot take --lambda")
    if args.field == "q" or args.lam is not None:
        return QQ
    if args.field == "qlambda":
        return QL
    return QL if any(uses_lambda(a) for a in asts) else QQ


def _cmd_expand(args, out) -> int:
    if args.order < 1:
        raise DomainError("--order must be >= 1")
    ast = parse_expr(args.expr)
    field = _pick_field(args, [ast])
    series = eval_expr(ast, args.order, field, args.lam)
    if args.format == "json":
        out.write(json.dumps(series.coeff_texts()) + "\n")
    elif args.format == "csv":
        for k, c in enumerate(series.coeff_texts()):
            out.write(f"{k},{c}\n")
    else:
        terms = format_terms(series.coeff_texts(latex=True), "t", latex=True,
                             ascending=True)
        out.write(f"{terms} + O(t^{{{series.trunc}}})\n")
    return 0


# the family command's parameter flags, by argparse dest
_FAMILY_FLAGS = {"order": "--order-param", "lam": "--lambda", "a": "--a", "b": "--b",
                 "c": "--c", "m": "--m"}


def family_flags(name: str) -> list[str]:
    """The flags of the family command that a registry name takes."""
    entry = REGISTRY[name]
    return [_FAMILY_FLAGS["order" if q.domain is integer_order else q.name] for q in entry.params]


def _cmd_family(args, out) -> int:
    if args.n < 0:
        raise DomainError("--n must be >= 0")
    given = {dest: v for dest, v in vars(args).items() if dest in _FAMILY_FLAGS}
    takes = family_flags(args.name)
    for dest in given:
        if _FAMILY_FLAGS[dest] not in takes:
            raise DomainError(f"{_FAMILY_FLAGS[dest]} does not apply to {args.name}")
    order = given.pop("order", 1)
    _emit_rows(family_polys(args.name, order, args.n, **given), args.format, out)
    return 0


def _cmd_sheffer(args, out) -> int:
    if args.n < 1:
        raise DomainError("--n must be >= 1")
    g_ast = parse_expr(args.g)
    f_ast = parse_expr(args.f)
    field = _pick_field(args, [g_ast, f_ast])
    # the transfer route's T >= 2n, with the margin DSL divisions consume
    T = working_trunc(args.n)
    pair = ShefferPair(
        eval_expr(g_ast, T, field, args.lam), eval_expr(f_ast, T, field, args.lam)
    )
    polys = sheffer_gf(pair, args.n)
    transfer = sheffer_transfer_all(pair, args.n)
    agree = all(transfer[n - 1] == polys[n] for n in range(1, args.n + 1))
    if args.format == "json":
        out.write(
            json.dumps({"agree": agree, "rows": [_poly_row(p) for p in polys]}) + "\n"
        )
    elif args.format == "csv":
        _emit_rows(polys, "csv", out)
        out.write(f"agree,{'true' if agree else 'false'}\n")
    else:
        _emit_rows(polys, "latex", out)
        out.write(f"% agree: {'true' if agree else 'false'}\n")
    return 0 if agree else 1


def _cmd_verify(args, out) -> int:
    if (args.id is None) != args.all:
        raise DomainError("verify needs exactly one of an identity tag and --all")
    if args.n_max < 1:
        raise DomainError("--n-max must be >= 1")
    grid = default_grid()
    if args.id is not None:
        if args.id not in IDENTITY_TAGS:
            raise UnknownIdentity(f"unknown identity tag {args.id!r}")
        grid = [(tag, params) for tag, params in grid if tag == args.id]
    reports = run_registry(grid, args.n_max)
    if len(reports) == 1:
        out.write(json.dumps(reports[0].to_dict(), sort_keys=True) + "\n")
    else:
        out.write(json.dumps([r.to_dict() for r in reports], sort_keys=True) + "\n")
    return 0 if aggregate_pass(reports) else 1


# a word that starts like a negative number; no option of the CLI does
_NEGATIVE = re.compile(r"-\.?\d")


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with a parameter flag and a negative value given as the next word
    ("--c", "-1/3") joined into one word ("--c=-1/3").  argparse reads only
    words like -1 and -0.5 as numbers, so it would take -1/3 for an option."""
    out = []
    for word in argv:
        if out and out[-1] in _FAMILY_FLAGS.values() and _NEGATIVE.match(word):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    out = sys.stdout
    try:
        if args.command == "expand":
            return _cmd_expand(args, out)
        if args.command == "family":
            return _cmd_family(args, out)
        if args.command == "sheffer":
            return _cmd_sheffer(args, out)
        return _cmd_verify(args, out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except UmbralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug: one line, no traceback, its own code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
