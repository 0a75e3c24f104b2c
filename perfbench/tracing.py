"""Spans and counters around the public functions of each umbralkit layer.

``Tracer.install()`` replaces each traced function or method, in every
``umbralkit`` module that holds it, by a wrapper that records calls,
inclusive time and self time (its span minus the spans of traced calls made
inside it); ``remove()`` puts the originals back.  Nothing in the package
itself changes.  Spans live in memory and are read out with ``snapshot()``.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

# prefix of the stderr line on which cli_shim.py reports its spans
TRACE_MARKER = "UMBRALKIT-BENCH-TRACE "

# (module, class or None, attribute names, span name)
SPANS = [
    ("fields", "RatFunc", ("__add__", "__radd__"), "fields.ratfunc_add"),
    ("fields", "RatFunc", ("__mul__", "__rmul__"), "fields.ratfunc_mul"),
    ("fields", "RatFunc", ("__truediv__", "__rtruediv__"), "fields.ratfunc_div"),
    ("series", "Series", ("__mul__", "__rmul__"), "series.mul"),
    ("series", "Series", ("inverse",), "series.inverse"),
    ("series", "Series", ("compose",), "series.compose"),
    ("series", "Series", ("revert",), "series.revert"),
    ("series", "Series", ("exp",), "series.exp"),
    ("series", "Series", ("log",), "series.log"),
    ("series", "Series", ("pow_int",), "series.pow_int"),
    ("series", "Poly", ("__mul__", "__rmul__"), "poly.mul"),
    ("series", "Poly", ("__add__", "__radd__"), "poly.add"),
    ("umbral", None, ("sheffer_gf",), "umbral.sheffer_gf"),
    ("umbral", None, ("sheffer_transfer_all",), "umbral.sheffer_transfer_all"),
    ("umbral", None, ("orthogonality_failure",), "umbral.orthogonality_failure"),
    ("umbral", None, ("operator_apply",), "umbral.operator_apply"),
    ("umbral", None, ("functional_apply",), "umbral.functional_apply"),
    ("families", None, ("catalog_pair", "bespoke_pair"), "families.pair_build"),
    ("families", None, (
        "family_polys", "bernoulli_poly", "bernoulli_value", "bernoulli_number",
        "euler_poly", "frobenius_euler_poly", "frobenius_eulerian_poly",
        "narumi_poly", "narumi_value", "narumi_number", "poisson_charlier",
        "bernoulli_2nd", "stirling1", "stirling2",
    ), "families.polys"),
    ("identities", None, ("verify_identity",), "identities"),
    ("dsl", None, ("parse_expr",), "dsl.parse"),
    ("dsl", None, ("eval_expr",), "dsl.eval"),
]

# spans whose results are kept, so the size of their coefficients can be read
SWELL_SPANS = ("umbral.sheffer_gf", "umbral.sheffer_transfer_all")


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.incl_s = Counter()  # outermost spans of each name only
        self.not_ok = 0
        self._depth = Counter()
        self._stack = []  # one [child seconds] cell per open span
        self._patches = []  # (owner, attribute, original)
        self._outputs = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, name):
        stack, depth = self._stack, self._depth
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        keep = self._outputs if name in SWELL_SPANS else None
        by_tag = name == "identities"

        def traced(*args, **kwargs):
            span = f"identities.{args[0] if args else kwargs['tag']}" if by_tag else name
            cell = [0.0]
            stack.append(cell)
            depth[span] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                depth[span] -= 1
                calls[span] += 1
                self_s[span] += dur - cell[0]
                if not depth[span]:
                    incl_s[span] += dur
                if stack:
                    stack[-1][0] += dur
            if keep is not None:
                keep.append(result)
            if by_tag and not result.ok:
                self.not_ok += 1
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "umbralkit" or n.startswith("umbralkit.")]
        for mod_name, cls_name, attrs, span in SPANS:
            mod = sys.modules[f"umbralkit.{mod_name}"]
            for attr in attrs:
                if cls_name is not None:
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, original, self._wrap(original, span))
                    continue
                original = getattr(mod, attr)
                wrapper = self._wrap(original, span)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, key, original, wrapper)
        return self

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ read-out

    def snapshot(self) -> dict:
        """Plain-data view of everything recorded so far."""
        bits, degree = output_swell(self._outputs)
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "not_ok": self.not_ok,
            "out_max_bits": bits,
            "out_max_L_degree": degree,
            "caches": cache_counts(),
        }


def _q_bits(q: Fraction) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def output_swell(results) -> tuple[int, int]:
    """Largest bit length and L-degree over the coefficients of Poly lists,
    read from the public ``num``/``den`` of Q(L) elements."""
    bits = degree = 0
    for polys in results:
        for p in polys:
            for c in p.coeffs:
                if isinstance(c, Fraction):
                    bits = max(bits, _q_bits(c))
                    continue
                num, den = c.num, c.den
                degree = max(degree, len(num) - 1, len(den) - 1)
                for q in num + den:
                    bits = max(bits, _q_bits(q))
    return bits, degree


def cache_counts() -> dict:
    """{module: [hits, misses]} over every lru_cache'd callable found in the
    umbralkit modules, so a cache added later is counted without edits."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if not (name == "umbralkit" or name.startswith("umbralkit.")):
            continue
        hits = misses = 0
        seen = set()
        for value in vars(mod).values():
            info = getattr(value, "cache_info", None)
            if info is None or id(value) in seen or getattr(value, "__module__", None) != name:
                continue
            seen.add(id(value))
            ci = info()
            hits += ci.hits
            misses += ci.misses
        if hits or misses:
            out[name.rpartition(".")[2]] = [hits, misses]
    return out
