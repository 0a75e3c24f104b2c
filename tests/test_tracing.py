"""The benchmark's tracing contract: every span in perfbench/tracing.py must
still find its function, count real calls, and come off cleanly."""

import sys
from pathlib import Path

import umbralkit  # noqa: F401  (loads every module the tracer patches)
from umbralkit import LAMBDA as L, Poly, QL, dsl, umbral

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
try:
    from tracing import SPANS, Tracer
finally:
    sys.path.pop(0)


def _originals():
    out = {}
    for mod_name, cls_name, attrs, _ in SPANS:
        owner = sys.modules[f"umbralkit.{mod_name}"]
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        for attr in attrs:
            out[owner, attr] = vars(owner)[attr]
    return out


def test_tracer_counts_a_lambda_pair_and_restores_originals():
    before = _originals()
    tracer = Tracer().install()
    try:
        assert all(vars(owner)[attr] is not fn for (owner, attr), fn in before.items())
        g = dsl.eval_expr(dsl.parse_expr("(exp(t)-L)/(1-L)"), 6)
        f = dsl.eval_expr(dsl.parse_expr("t"), 6)
        pair = umbral.ShefferPair(g, f)
        polys = umbral.sheffer_gf(pair, 2)
        assert umbral.sheffer_transfer_all(pair, 2) == polys[1:]
        # the routes build their polynomials without Poly additions, so one
        # explicit sum shows that the poly.add span counts real calls
        assert polys[1] + polys[2] == Poly(QL, [2 * L / (L - 1) ** 2, (L + 1) / (L - 1), 1])
    finally:
        tracer.remove()
    calls = tracer.snapshot()["calls"]
    for span in ("series.mul", "poly.add", "fields.ratfunc_add",
                 "umbral.sheffer_gf", "umbral.sheffer_transfer_all"):
        assert calls.get(span, 0) > 0, span
    assert _originals() == before


def test_dsl_calls_count_as_series_methods():
    # the DSL runs inv, exp and rev through the Series methods the tracer
    # patches, looked up when the expression is evaluated
    tracer = Tracer().install()
    try:
        dsl.eval_expr(dsl.parse_expr("exp(t) + inv(1 + t) + rev(t + t*t)"), 6)
    finally:
        tracer.remove()
    calls = tracer.snapshot()["calls"]
    assert [calls.get(f"series.{name}") for name in ("exp", "inverse", "revert")] == [1, 1, 1]


def test_pair_builders_keep_their_span_names():
    # the benchmark calls these through the package, as here
    tracer = Tracer().install()
    try:
        umbralkit.catalog_pair(umbralkit.FamilySpec.make("bernoulli", 2), T=6)
        umbralkit.bespoke_pair("T2", 6, b=1, lam=None)
        assert tracer.snapshot()["calls"].get("families.pair_build") == 2
        umbralkit.family_polys("euler", 1, 3)
    finally:
        tracer.remove()
    assert tracer.snapshot()["calls"].get("families.polys", 0) >= 1
