"""The identity registry: statuses, counterexamples, grids, determinism."""

import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from math import factorial
from pathlib import Path

import pytest

from umbralkit import (
    DomainError,
    IdentityReport,
    UmbralError,
    UnknownIdentity,
    aggregate_pass,
    b2_convolution,
    bernoulli_value,
    default_grid,
    describe,
    narumi_value,
    run_registry,
    verify_identity,
)
from umbralkit import (
    FamilySpec, bespoke_pair, catalog_pair, family_polys, orthogonality_failure, sheffer_gf,
    sheffer_transfer_all,
)
from umbralkit import (
    LAMBDA, QQ, Poly, Series, answer_trunc, bernoulli_poly, binom, euler_poly,
    frobenius_euler_poly, frobenius_eulerian_poly, gen_binom, narumi_number, poisson_charlier,
    stirling1, stirling2,
)
from umbralkit.errors import MAX_PAIR_TRUNC
from umbralkit.families import SCHEMAS, Param, Schema, build_pair, check_params
from umbralkit.identities import (
    CHECKS,
    IDENTITY_TAGS,
    _t3_coef,
    _t9_rhs,
    verify_identity_report_errors,
)

from conftest import b2_convolution_enumerated


class TestSingleIdentities:
    @pytest.mark.parametrize(
        "tag,params",
        [
            ("C5", {}),
            ("T2", {"a": 1, "b": F(1), "lam": None}),
            ("T3", {"a": 2, "b": F(1), "c": F(1)}),
            ("T4", {"a": -1}),
            ("R27", {"a": 1}),
            ("T6", {"a": 1, "c": F(-1), "lam": None}),
            ("T7", {"c": F(1, 3)}),
            ("R35", {"c": F(1)}),
            ("P8", {"a": 1, "c": F(1), "lam": None}),
            ("T9", {"c": F(-1)}),
            ("T10", {"a": 1, "b": F(2), "c": F(-1), "m": 1, "lam": None}),
            ("DAE", {"lam": None}),
            ("E14", {"a": F(2)}),
            ("E25", {}),
        ],
    )
    def test_passes(self, tag, params):
        report = verify_identity(tag, params, 4)
        assert report.status == "pass"
        assert report.counterexamples == ()
        assert report.ok

    def test_t2_first_degree_value(self):
        # S_1(x) = b H_1^(1)(x|L): hand expansion of (e^{bt}-1)/t at t=0 is b
        from umbralkit import QL, bespoke_pair, frobenius_euler_poly

        b = F(3)
        pair = bespoke_pair("T2", 8, order=1, b=b, lam=None)
        [got] = sheffer_transfer_all(pair, 1)
        assert got == frobenius_euler_poly(1, 1) * QL.coerce(b)

    def test_lambda_specialization_matches(self):
        for tag, params in [
            ("T2", {"a": 1, "b": F(2)}),
            ("T6", {"a": 2, "c": F(1, 3)}),
            ("P8", {"a": -1, "c": F(-1)}),
            ("T10", {"a": 1, "b": F(1), "c": F(1), "m": 2}),
            ("DAE", {}),
        ]:
            for lam0 in (F(-1), F(2), F(1, 2)):
                report = verify_identity(tag, {**params, "lam": lam0}, 3)
                assert report.status == "pass", (tag, lam0, report)


class TestR42:
    def test_discrepancy(self):
        report = verify_identity("R42", {}, 8)
        assert report.status == "paper_discrepancy"
        first = report.counterexamples[0]
        assert first.indices == (1, 1)
        assert first.lhs == "-1/2"
        assert first.rhs == "1/2"
        assert "Stirling-1" in report.note
        assert report.ok

    def test_corrected_form_passes(self):
        # the S1 variant agrees with the direct expansion through n = 8
        from umbralkit import binom, narumi_number, stirling1

        for n in range(1, 9):
            for l in range(n + 1):
                assert narumi_number(n, l) == stirling1(l + n, n) / binom(l + n, n)


class TestConvolutionOracles:
    def test_series_vs_enumeration(self):
        for c in (F(1), F(-2), F(1, 2)):
            for n in range(1, 4):
                for l in range(3):
                    assert b2_convolution(n, l, c) == b2_convolution_enumerated(
                        n, l, c
                    )

    def test_series_builds_no_power_table(self, monkeypatch):
        # one power of one series per (n, l): a table of powers is not needed
        def no_table(self, n):
            raise AssertionError("b2_convolution built a power table")

        monkeypatch.setattr(Series, "_power_rows", no_table)
        for c in (F(1), F(-2), F(1, 2), F(0)):
            for n in range(1, 6):
                for l in range(6):
                    assert b2_convolution(n, l, c) == b2_convolution_enumerated(n, l, c)

    # the form ``b2_convolution`` replaced: a fresh power u^n at T = l + 1
    # for every (n, l), with u = t(1+t)^c / log(1+t)
    @staticmethod
    def _fresh_power_per_l(n, l, c):
        from umbralkit.families import _narumi_base, one_plus_t_pow

        u = _narumi_base(-1, l + 1) * one_plus_t_pow(QQ, c, l + 1)
        return factorial(l) * u.pow_int(n).coeffs[l]

    def test_one_power_per_c_and_n_is_the_fresh_power_per_l(self):
        # from an empty cache, every read in the triangles' order (l < n),
        # then in reverse, then past l = n, which lengthens a kept power,
        # and the triangle again over the lengthened powers: one kept key,
        # and one first build, per (c, n)
        from umbralkit.identities import _b2_power

        _b2_power.cache_clear()
        cs = sorted({p["c"] for tag, p in default_grid() if tag in ("T7", "R35")})
        assert cs == [F(-1), F(1, 3), F(1)]
        cs += [F(-1, 2), F(3)]
        triangle = [(n, l) for n in range(1, 13) for l in range(n)]
        beyond = [(n, l) for n in range(1, 13) for l in range(n, n + 3)]
        for c in cs:
            for n, l in triangle + triangle[::-1] + beyond + triangle:
                assert b2_convolution(n, l, c) == self._fresh_power_per_l(n, l, c), (n, l, c)
        info = _b2_power.cache_info()
        assert info.currsize == info.misses == len(cs) * 12

    def test_r35_reads_the_powers_t7_made(self, monkeypatch):
        # T7's triangle keeps one power per n, at T = n (a read at the kept
        # T is the kept object itself), and R35's, on the same c, builds no
        # power and takes no positive power at all (its left side takes
        # only the negative powers of Narumi's base)
        from umbralkit.identities import _b2_power

        _b2_power.cache_clear()
        c = F(1, 3)
        assert verify_identity("T7", {"c": c}, 12).status == "pass"
        made = _b2_power.cache_info()
        assert made.currsize == made.misses == 12
        kept = {n: _b2_power(c, n, n) for n in range(1, 13)}
        powers, pow_int = [], Series.pow_int

        def counted(s, n):
            if n > 0:
                powers.append(n)
            return pow_int(s, n)

        monkeypatch.setattr(Series, "pow_int", counted)
        assert verify_identity("R35", {"c": c}, 12).status == "pass"
        assert powers == []
        info = _b2_power.cache_info()
        assert (info.misses, info.currsize) == (made.misses, made.currsize)
        assert all(_b2_power(c, n, n) is power for n, power in kept.items())

    def test_matches_bernoulli_route(self):
        c = F(1)
        assert b2_convolution(1, 1, c) == bernoulli_value(1, 1, c + 1) == F(3, 2)

    @pytest.mark.parametrize(
        "convolution,n,l",
        [
            (b2_convolution, 0, 1),
            (b2_convolution, -1, 1),
            (b2_convolution, 1, -1),
            (b2_convolution_enumerated, 0, 1),
            (b2_convolution_enumerated, 1, -1),
        ],
    )
    def test_outside_domain(self, convolution, n, l):
        with pytest.raises(DomainError, match=r"^(n must be >= 1, got (0|-1)|l must be >= 0, got -1)$"):
            convolution(n, l, 1)

    def test_matches_narumi_route(self):
        c = F(1)
        assert narumi_value(-1, 1, c) == F(3, 2)


class TestScalarSumsAsOneDot:
    """T3's and T9's coefficient sums as one dot, against the loops they
    replaced, over a grid with T3's default b = 0."""

    @staticmethod
    def _t3_coef_by_running_products(p, n, k):
        b, c = p["b"], p["c"]
        total, c_pow, nb_pow = F(0), c ** (n + k), F(1)
        for l in range(k, -1, -1):
            total += binom(k, l) * F(stirling2(l + n, n), binom(l + n, n)) * c_pow * nb_pow
            c_pow /= c
            nb_pow *= -n * b
        return total

    @staticmethod
    def _t9_rhs_by_sum(p, n, l):
        return factorial(l) * sum(
            F(factorial(n), factorial(n + k)) * stirling1(k + n, n)
            * gen_binom(-n * p["c"], l - k)
            for k in range(l + 1)
        )

    @pytest.mark.parametrize("c", [F(1), F(-1), F(1, 2), F(-2, 3)])
    def test_t3_coef_is_the_running_product_sum(self, c):
        for b in (F(0), F(1), F(2), F(1, 2), F(-1, 3)):
            p = {"b": b, "c": c}
            for n in range(1, 9):
                for k in range(n):
                    got = _t3_coef(p, n, k)
                    assert type(got) is F
                    assert got == self._t3_coef_by_running_products(p, n, k), (b, n, k)

    @pytest.mark.parametrize("c", [F(1), F(-1), F(1, 2), F(-2, 3)])
    def test_t9_rhs_is_the_term_sum(self, c):
        p = {"c": c}
        for n in range(1, 9):
            for l in range(n + 1):
                got = _t9_rhs(p, n, l)
                assert type(got) is F
                assert got == self._t9_rhs_by_sum(p, n, l), (n, l)


class TestDomainHandling:
    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentity):
            verify_identity("T99", {}, 4)
        with pytest.raises(UnknownIdentity):
            describe("nope")
        with pytest.raises(UnknownIdentity):
            verify_identity(["T2"])
        with pytest.raises(UnknownIdentity):
            describe(["T2"])
        with pytest.raises(UnknownIdentity):
            run_registry([("T2", {}), ("T99", {})], 2)

    def test_c_zero_rejected(self):
        with pytest.raises(DomainError):
            verify_identity("T6", {"a": 1, "c": F(0), "lam": None}, 4)

    def test_b_zero_rejected(self):
        with pytest.raises(DomainError):
            verify_identity("T2", {"a": 1, "b": F(0), "lam": None}, 4)

    def test_e14_zero_a_rejected(self):
        with pytest.raises(DomainError):
            verify_identity("E14", {"a": F(0)}, 4)

    def test_lambda_one_rejected(self):
        with pytest.raises(DomainError):
            verify_identity("DAE", {"lam": F(1)}, 4)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(DomainError):
            verify_identity("C5", {"c": F(1)}, 4)

    @pytest.mark.parametrize(
        "tag,params",
        [("T2", {"b": "x"}), ("T2", {"b": "1/0"}), ("T3", {"b": [1]}), ("T6", {"lam": "zz"})],
    )
    def test_unparsable_value_is_domain_error(self, tag, params):
        with pytest.raises(DomainError, match="must be an exact rational"):
            verify_identity(tag, params, 2)
        report = verify_identity_report_errors(tag, params, 2)
        assert report.status == "domain_error" and not report.ok
        assert f"{tag}: " in report.note

    @pytest.mark.parametrize(
        "tag,params",
        [("T2", {"b": 0.1}), ("T2", {"a": True}), ("T10", {"m": False}), ("T6", {"lam": 0.5}),
         ("T2", "b"), ("T2", ["b"])],
    )
    def test_float_and_bool_are_domain_errors(self, tag, params):
        # a float is a binary approximation and a bool is not a number of
        # the schema, so neither is taken as an exact parameter; params that
        # are not a mapping are refused the same way
        with pytest.raises(DomainError):
            verify_identity(tag, params, 2)
        assert verify_identity_report_errors(tag, params, 2).status == "domain_error"

    @pytest.mark.parametrize(
        "call",
        [
            lambda: sheffer_gf(catalog_pair(FamilySpec.make("bernoulli", 1), T=4), 2.0),
            lambda: sheffer_transfer_all(catalog_pair(FamilySpec.make("bernoulli", 1), T=4), 2.0),
            lambda: orthogonality_failure(catalog_pair(FamilySpec.make("bernoulli", 1), T=4), [], 2.0),
            lambda: verify_identity("T2", {}, 2.0),
            lambda: family_polys("bernoulli", 1, 2.5),
            lambda: verify_identity("C5", {}, True),
        ],
        ids=["sheffer_gf", "sheffer_transfer_all", "orthogonality_failure", "T2", "family_polys", "C5"],
    )
    def test_non_int_n_max_is_typed_error(self, call):
        with pytest.raises(UmbralError, match="n_max must be an int"):
            call()

    @pytest.mark.parametrize("tag,n_max", [("T2", 2.0), ("C5", True)])
    def test_non_int_n_max_report(self, tag, n_max):
        assert verify_identity_report_errors(tag, {}, n_max).status == "domain_error"

    def test_n_max_too_large_is_refused_before_any_work(self):
        # every tag, in a child under a 256 MiB address-space cap and a
        # timeout, so that a check which starts work before the bound ends
        # in a MemoryError or a timeout instead of taking the host's memory
        resource = pytest.importorskip("resource")
        cap = 256 * 2**20
        src = str(Path(__file__).resolve().parents[1] / "src")
        child = (
            "import json\n"
            "from umbralkit import DomainError, verify_identity\n"
            "from umbralkit.identities import IDENTITY_TAGS, verify_identity_report_errors\n"
            "out = {}\n"
            "for tag in IDENTITY_TAGS:\n"
            "    try:\n"
            "        verify_identity(tag, None, 10**20)\n"
            "        raised = None\n"
            "    except DomainError as exc:\n"
            "        raised = str(exc)\n"
            "    report = verify_identity_report_errors(tag, None, 10**20)\n"
            "    out[tag] = [raised, report.status, report.note]\n"
            "print(json.dumps(out))\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": src},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert (run.returncode, run.stderr) == (0, "")
        message = f"n_max must be <= {MAX_PAIR_TRUNC - 1}, got {10**20}"
        assert json.loads(run.stdout) == {
            tag: [message, "domain_error", message] for tag in IDENTITY_TAGS
        }

    def test_grid_entry_becomes_domain_error_report(self):
        report = verify_identity_report_errors("T6", {"a": 1, "c": F(0), "lam": None}, 4)
        assert report.status == "domain_error"
        assert "c != 0" in report.note
        assert not report.ok

    def test_registry_with_bad_entry(self):
        reports = run_registry([("T6", {"a": 1, "c": F(0), "lam": None})], 4)
        assert reports[0].status == "domain_error"
        assert not aggregate_pass(reports)
        reports = run_registry([("T2", "x")], 3)
        assert [(r.status, r.params) for r in reports] == [("domain_error", ())]
        # parameter names of mixed types are named, each as a str, and sorted
        reports = run_registry([("T2", {1: 2, "x": 3})], 2)
        assert [(r.status, r.params) for r in reports] == [
            ("domain_error", (("1", "2"), ("x", "3")))]
        with pytest.raises(DomainError, match=r"T2 does not take parameter\(s\) \[1, 'x'\]"):
            verify_identity("T2", {1: 2, "x": 3}, 2)

    @pytest.mark.parametrize(
        "grid,named",
        [([("T2",)], "('T2',)"), ([("T2", {}, 1)], "('T2', {}, 1)"), (None, "NoneType"),
         ([None], "None"), (["T2"], "'T2'"), ([("T99", {}), ["T2", {}]], "['T2', {}]"),
         (7, "int")],
        ids=["short_row", "long_row", "grid_none", "row_none", "row_str", "row_list", "grid_int"],
    )
    def test_malformed_grid_is_domain_error(self, grid, named, monkeypatch):
        # refused, naming the grid's type or the bad row, before any row is
        # checked: the unknown tag ahead of the list row is never reached
        import umbralkit.identities as identities

        def unreachable(*args):
            raise AssertionError("a row was checked")

        monkeypatch.setattr(identities, "verify_identity_report_errors", unreachable)
        with pytest.raises(DomainError) as exc:
            run_registry(grid, 2)
        assert str(exc.value).endswith(f"got {named}")


def _reference_grid():
    # the default grid written out tag by tag, as it was before default_grid
    # read each tag's parameters from SCHEMAS
    bc_pairs = [(F(1), F(1)), (F(2), F(-1)), (F(1, 2), F(1, 3))]
    orders = [1, 2, -1]
    grid = []
    for a in orders:
        for b, c in bc_pairs:
            grid.append(("T2", {"a": a, "b": b, "lam": None}))
            grid.append(("T3", {"a": a, "b": b, "c": c}))
            grid.append(("T6", {"a": a, "c": c, "lam": None}))
            grid.append(("P8", {"a": a, "c": c, "lam": None}))
            for m in (1, 2):
                grid.append(("T10", {"a": a, "b": b, "c": c, "lam": None, "m": m}))
        grid.append(("T4", {"a": a}))
        grid.append(("R27", {"a": a}))
        grid.append(("E14", {"a": F(a)}))
    for _, c in bc_pairs:
        grid.append(("T7", {"c": c}))
        grid.append(("R35", {"c": c}))
        grid.append(("T9", {"c": c}))
    grid.extend([("C5", {}), ("R42", {}), ("DAE", {"lam": None}), ("E25", {})])
    return grid


class TestRegistry:
    def test_default_grid_is_the_reference_grid(self):
        # the same rows as a multiset of (tag, canonical params); the order
        # is free, as run_registry sorts its reports
        def rows(grid):
            return Counter((tag, tuple(check_params(tag, p).items())) for tag, p in grid)

        assert rows(default_grid()) == rows(_reference_grid())
        assert len(default_grid()) == len(_reference_grid()) == 76

    def test_default_grid_covers_all_tags(self):
        tags = {tag for tag, _ in default_grid()}
        assert tags == set(IDENTITY_TAGS)

    def test_default_grid_rows_are_distinct(self):
        grid = default_grid()
        keys = {(tag, tuple(sorted((k, str(v)) for k, v in p.items()))) for tag, p in grid}
        assert len(grid) == len(keys) == 76

    def test_deterministic(self):
        grid = [("C5", {}), ("T9", {"c": F(1)}), ("R42", {})]
        a = run_registry(grid, 5)
        b = run_registry(list(reversed(grid)), 5)
        assert a == b  # sorted output order, identical reports

    def test_first_row_of_every_tag_at_n_max_20(self):
        # the registry at the routes' n, one default grid row per tag
        first = {}
        for tag, params in default_grid():
            first.setdefault(tag, params)
        reports = run_registry(list(first.items()), 20)
        assert sorted(r.id for r in reports) == sorted(IDENTITY_TAGS)
        assert [r.id for r in reports if not r.ok] == []

    # (basis P_k, coefficient c(n, l)) of each pair tag, from the paper
    BASIS_SUMS = {
        "T2": (lambda p, k: frobenius_euler_poly(p["a"], k, p["lam"]),
               lambda p, n, l: F(stirling2(l + n, n), binom(l + n, n)) * p["b"] ** (n + l)),
        "T3": (lambda p, k: bernoulli_poly(p["a"], k),
               lambda p, n, k: sum(binom(k, l) * F(stirling2(l + n, n), binom(l + n, n))
                                   * p["c"] ** (n + l) * (-n * p["b"]) ** (k - l)
                                   for l in range(k + 1))),
        "T4": (lambda p, k: euler_poly(p["a"], k), lambda p, n, l: narumi_number(n, l)),
        "R27": (lambda p, k: bernoulli_poly(p["a"], k), lambda p, n, l: narumi_number(-n, l)),
        "T6": (lambda p, k: frobenius_euler_poly(p["a"], k, p["lam"]),
               lambda p, n, l: bernoulli_value(l - n + 1, l, p["c"] * n + 1)),
        "P8": (lambda p, k: frobenius_eulerian_poly(p["a"], k, p["lam"]),
               lambda p, n, l: narumi_value(n, l, -p["c"] * n)),
        "T10": (lambda p, k: frobenius_eulerian_poly(p["a"], k, p["lam"]),
                lambda p, n, l: (-1) ** (p["m"] * n) * (n * p["c"]) ** l
                * poisson_charlier(p["m"] * n, -n * p["c"] / p["b"], x_eval=l)),
    }

    def test_basis_sum_equals_transfer_route(self):
        # the identity as one polynomial per n, the form the registry checks
        # in two halves: S_n = sum_{l<n} C(n-1, l) c(n, l) P_{n-l} against
        # the transfer route of the tag's pair, over Q(L) where lam is L
        first = {}
        for tag, params in default_grid():
            first.setdefault(tag, params)
        n_max = 10
        for tag, (basis, coef) in self.BASIS_SUMS.items():
            p = check_params(tag, first[tag])
            P = [None] + [basis(p, k) for k in range(1, n_max + 1)]
            sums = [sum((P[n - l] * (binom(n - 1, l) * coef(p, n, l)) for l in range(n)),
                        Poly(P[1].field))
                    for n in range(1, n_max + 1)]
            pair = build_pair(tag, answer_trunc(n_max), p["a"], p)
            assert sums == sheffer_transfer_all(pair, n_max), tag
        assert set(self.BASIS_SUMS) == {t for t in IDENTITY_TAGS if SCHEMAS[t].pair} - {"DAE"}

    @pytest.mark.parametrize("lam", [None, F(-1, 2), F(3)], ids=["L", "-1/2", "3"])
    def test_dae_closed_form_matches_the_two_shift_sum(self, lam, monkeypatch):
        # the closed form DAE checks against the transfer route, as the sum
        # it replaced, with two shifts per term: S_n = (1/(1-L)) sum_l
        # C(n, l) ((x+1) B(x+l+1) - L x B(x+l)), B = B_{n-1}^{(n)}, n <= 12
        import umbralkit.identities as identities

        n_max, x = 12, Poly.x(QQ)
        lam_el = LAMBDA if lam is None else lam
        want = {}
        for n in range(1, n_max + 1):
            base, out = bernoulli_poly(n, n - 1), Poly(QQ)
            for l in range(n + 1):
                term = (x + 1) * base.shift_arg(l + 1) - (x * base.shift_arg(l)) * lam_el
                out = out + term * binom(n, l)
            want[n] = out * (1 / (1 - lam_el))
        shifts, shift_arg = [], Poly.shift_arg

        def counted(self, s):
            shifts.append(s)
            return shift_arg(self, s)

        pair = build_pair("DAE", answer_trunc(n_max), 1, {"lam": lam})
        monkeypatch.setattr(Poly, "shift_arg", counted)
        triples = list(identities._check_DAE(pair, {"lam": lam}, n_max))
        for n in range(1, n_max + 1):
            got = [rhs for (m, _), _, rhs in triples if m == n]
            assert got == [want[n].coefficient(j) for j in range(len(got))], n
            assert len(got) > want[n].degree
        assert all(lhs == rhs for _, lhs, rhs in triples)
        # u(x) = sum_l C(n, l) B(x + l) is shifted once more: n + 2 shifts per n
        assert len(shifts) == sum(n + 2 for n in range(1, n_max + 1))

    def test_empty_grid(self):
        assert run_registry([], 4) == []
        assert aggregate_pass([])

    def test_report_json_schema(self):
        report = verify_identity("T9", {"c": F(1, 3)}, 3)
        data = json.loads(json.dumps(report.to_dict(), sort_keys=True))
        assert set(data) == {"id", "params", "n_max", "status", "counterexamples", "note"}
        assert data["id"] == "T9"
        assert data["params"] == {"c": "1/3"}
        assert data["n_max"] == 3
        assert data["status"] == "pass"
        assert data["counterexamples"] == []

    def test_counterexample_rendering(self):
        report = verify_identity("R42", {}, 2)
        data = report.to_dict()
        first = data["counterexamples"][0]
        assert first == {"indices": [1, 1], "lhs": "-1/2", "rhs": "1/2"}

    def test_ok_semantics(self):
        fake_fail = IdentityReport("C5", (), 4, "fail")
        undocumented = IdentityReport("C5", (), 4, "paper_discrepancy")
        assert not fake_fail.ok
        assert not undocumented.ok  # discrepancy without a note is not ok
        assert fake_fail.note == "" and fake_fail.counterexamples == ()
        assert fake_fail == IdentityReport("C5", (), 4, "fail", (), "")
        with pytest.raises(AttributeError):
            fake_fail.status = "pass"


class TestTable:
    def test_every_tag_has_schema_check_and_description(self):
        grid_tags = {tag for tag, _ in default_grid()}
        for tag in IDENTITY_TAGS:
            assert all(isinstance(q, Param) and callable(q.domain) for q in SCHEMAS[tag].params)
            check, description = CHECKS[tag]
            assert callable(check)
            assert description and describe(tag) == description
            assert tag in grid_tags

    def test_names_partition_the_table(self):
        family_names = [name for name in SCHEMAS if name not in IDENTITY_TAGS]
        assert set(IDENTITY_TAGS) <= set(SCHEMAS)
        assert IDENTITY_TAGS == tuple(CHECKS)
        assert all(SCHEMAS[name].pair for name in family_names)

    def test_parameter_names_unique_per_row(self):
        for schema in SCHEMAS.values():
            names = [q.name for q in schema.params]
            assert len(names) == len(set(names))

    def test_daehee_pair_built_once(self):
        assert SCHEMAS["daehee"].pair is SCHEMAS["DAE"].pair
        for lam in (None, F(2)):
            assert catalog_pair(FamilySpec.make("daehee", 1, lam=lam), T=9) == bespoke_pair(
                "DAE", 9, lam=lam
            )

    def test_check_params_canonical_form(self):
        assert check_params("T10", {"a": 2, "b": 1, "c": "1/2", "m": 0}) == {
            "a": 2, "b": F(1), "c": F(1, 2), "lam": None, "m": 0,
        }
        assert check_params("T3", {"a": 1, "c": 1})["b"] == 0  # the pair's default
        with pytest.raises(DomainError):
            check_params("T10", {"a": 1, "b": 1, "c": 1})  # m has no default

    def test_missing_parameter_is_named(self):
        # a parameter with no default that is not given is named as missing;
        # lam not given is the symbol L
        for params in ({"b": 1, "c": 1}, {"b": 1, "c": 1, "m": None}):
            with pytest.raises(DomainError, match=r"^T10: m must be given$"):
                verify_identity("T10", params)
        with pytest.raises(DomainError, match=r"^T10: m must be given$"):
            check_params("T10", {})
        assert check_params("T10", {"m": 1})["lam"] is None

    def test_verify_defaults(self):
        # a parameter not given to verify_identity takes its table default
        assert dict(verify_identity("T3", {}, 2).params) == {"a": "1", "b": "0", "c": "1"}
        assert dict(verify_identity("DAE", {}, 2).params) == {"lam": "L"}

    def test_one_default_per_parameter(self):
        # T3 without b: b = 0 for verify_identity as for the family command
        report = verify_identity("T3", {"c": F(1, 2)}, 3)
        assert report.status == "pass" and dict(report.params)["b"] == "0"
        assert family_polys("T3", 1, 3, c=F(1, 2)) == family_polys("T3", 1, 3, b=0, c=F(1, 2))
        for tag in IDENTITY_TAGS:
            table = {q.name: q.default for q in SCHEMAS[tag].params if q.default is not None}
            rest = {"m": 1} if tag == "T10" else {}
            assert verify_identity(tag, rest, 2) == verify_identity(tag, {**table, **rest}, 2)
        with pytest.raises(DomainError):
            verify_identity("T10", {}, 1)  # m has no default


def _wrong_at(fn, index):
    """fn, but wrong when its leading arguments are ``index``: a number is
    off by one, a polynomial doubled."""

    def wrong(*args, **kwargs):
        value = fn(*args, **kwargs)
        if args[: len(index)] != index:
            return value
        return value + 1 if isinstance(value, (int, F)) else value * 2

    return wrong


class TestMutation:
    """A wrong value in one function the checks read makes every tag that
    reads it fail, first at the n that reaches the wrong index."""

    T2 = ("T2", {"a": 1, "b": F(1, 2), "lam": None})
    T3 = ("T3", {"a": 1, "b": F(1, 2), "c": F(1)})
    T4 = ("T4", {"a": 1})
    C5 = ("C5", {})
    R27 = ("R27", {"a": 1})
    T6 = ("T6", {"a": 1, "c": F(1), "lam": None})
    T7 = ("T7", {"c": F(1)})
    R35 = ("R35", {"c": F(1)})
    P8 = ("P8", {"a": 1, "c": F(1), "lam": None})
    T9 = ("T9", {"c": F(1)})
    T10 = ("T10", {"a": 1, "b": F(2), "c": F(-1), "m": 1, "lam": None})

    @pytest.mark.parametrize(
        "name,index,rows,n",
        [
            ("stirling2", (3, 2), [T2, T3], 2),
            ("narumi_number", (2, 1), [T4, C5], 2),
            ("narumi_number", (-2, 1), [R27], 2),
            ("narumi_value", (2, 1), [P8, T9], 2),
            ("narumi_value", (-2, 1), [R35], 2),
            ("bernoulli_value", (0, 1), [T6, T7], 2),
            ("b2_convolution", (2, 1), [T7, R35], 2),
            ("bernoulli_number", (3, 1), [C5], 2),
            ("stirling1", (3, 2), [T9], 2),
            ("gen_binom", (-2, 1), [T9], 2),
            ("poisson_charlier", (2,), [T10], 2),
            ("frobenius_euler_poly", (1, 1), [T2, T6], 1),
            ("bernoulli_poly", (1, 2), [T3, R27], 2),
            ("euler_poly", (1, 1), [T4], 1),
            ("frobenius_eulerian_poly", (1, 2), [P8, T10], 2),
        ],
    )
    def test_wrong_value_fails(self, monkeypatch, name, index, rows, n):
        import umbralkit.identities as identities

        for tag, params in rows:
            assert verify_identity(tag, params, 3).status == "pass"
        monkeypatch.setattr(identities, name, _wrong_at(getattr(identities, name), index))
        for tag, params in rows:
            report = verify_identity(tag, params, 3)
            assert report.status == "fail", (name, tag)
            assert report.counterexamples[0].indices[0] == n, (name, tag)

    @pytest.mark.parametrize(
        "tag,params,n",
        [(*T2, 2), (*T3, 2), (*T4, 3), (*T6, 3), (*P8, 3), (*T10, 3), ("DAE", {"lam": None}, 3)],
    )
    def test_wrong_surjection_row_fails(self, monkeypatch, tag, params, n):
        # k! S2(3, 2) = 6 made 7 in the one table of Stirling-2 rows: T2 and
        # T3 read it through stirling2 in their scalar halves and fail at
        # n = 2; the tags whose g is a Frobenius g read it as that g's t^3
        # coefficient in their basis halves and fail at n = 3
        import umbralkit.families as families

        # a kept g built from the wrong rows would outlive the patch, so the
        # kept tables that read the rows are emptied before it and after it
        caches = (families._frobenius_g,)
        surjections = families._surjections

        def wrong(T):
            rows = surjections(T)
            if T <= 3:
                return rows
            return rows[:3] + ((0, 1, 7, 6),) + rows[4:]

        assert surjections(4)[3] == (0, 1, 6, 6)
        assert verify_identity(tag, params, 3).status == "pass"
        monkeypatch.setattr(families, "_surjections", wrong)
        try:
            for cache in caches:
                cache.cache_clear()
            report = verify_identity(tag, params, 3)
        finally:
            monkeypatch.undo()
            for cache in caches:
                cache.cache_clear()
        assert report.status == "fail", tag
        assert report.counterexamples[0].indices[0] == n, tag

    @pytest.mark.parametrize("tag,params", [T2, T3, T4, R27, T6, P8, T10])
    @pytest.mark.parametrize("member,bump,n", [("g", [1, 1], 1), ("f", [1, 0, 1], 3)])
    def test_wrong_pair_fails(self, monkeypatch, tag, params, member, bump, n):
        # a pair builder whose g is g(1+t) fails the tag's basis at n = 1; one
        # whose f is f(1+t^2) changes [t^3] f and fails its scalars at n = 3.
        # A Frobenius g's builder also returns 1/g, kept as built: for the
        # wrong g it fails its proof, and the routes invert g instead
        build = SCHEMAS[tag].pair

        def wrong(T, **kw):
            g, f, *ginv = build(T, **kw)
            factor = Series(QQ, bump, trunc=T)
            return (g * factor, f, *ginv) if member == "g" else (g, f * factor, *ginv)

        assert verify_identity(tag, params, 3).status == "pass"
        monkeypatch.setitem(SCHEMAS, tag, Schema(SCHEMAS[tag].params, wrong))
        report = verify_identity(tag, params, 3)
        assert report.status == "fail", (member, tag)
        assert report.counterexamples[0].indices[0] == n, (member, tag)


# each pair tag's base point, and the one-parameter moves away from it
_SPLIT_BASE = {"a": 1, "lam": None, "b": F(1, 2), "c": F(1, 3), "m": 1}
_SPLIT_MOVES = {"a": 2, "lam": F(1, 2), "b": F(2), "c": F(-1), "m": 2}
_SPLIT_CASES = [(tag, q.name) for tag in IDENTITY_TAGS if SCHEMAS[tag].pair
                for q in SCHEMAS[tag].params]


def _split_holds(tag, name):
    """Whether moving one parameter of a pair tag changes only its half of
    the pair at T = 9: a or lambda changes g and leaves f, and b, c or m
    changes f and leaves g and ginv."""
    base = {q.name: _SPLIT_BASE[q.name] for q in SCHEMAS[tag].params}
    moved = {**base, name: _SPLIT_MOVES[name]}
    before, after = (build_pair(tag, 9, p.get("a", 1), p) for p in (base, moved))
    if name in ("a", "lam"):
        return after.g != before.g and after.f == before.f
    return after.f != before.f and (after.g, after.ginv) == (before.g, before.ginv)


class TestGFSplit:
    """The split the default grid's g values x f values rest on: by the
    connection-constants theorem a pair tag's basis half reads g alone and
    its scalar half f alone, so g may read only a and lambda and f only b,
    c and m."""

    @pytest.mark.parametrize("tag,name", _SPLIT_CASES)
    def test_each_parameter_moves_its_own_half(self, tag, name):
        assert _split_holds(tag, name)

    def test_cases_cover_every_pair_tag(self):
        assert {tag for tag, _ in _SPLIT_CASES} == {
            "T2", "T3", "T4", "R27", "T6", "P8", "T10", "DAE"}
        assert len(_SPLIT_CASES) == 20

    def test_an_f_that_reads_a_fails(self, monkeypatch):
        build = SCHEMAS["T2"].pair

        def wrong(T, **kw):
            g, f, *ginv = build(T, **kw)
            return (g, f * kw["a"], *ginv)

        assert _split_holds("T2", "a")
        monkeypatch.setitem(SCHEMAS, "T2", Schema(SCHEMAS["T2"].params, wrong))
        assert not _split_holds("T2", "a")


@pytest.mark.parametrize("tag,params", [
    ("T2", {"a": -1, "b": F(1, 2), "lam": None}), ("T6", {"a": 2, "c": F(1, 2), "lam": None}),
    ("P8", {"a": 1, "c": F(1, 3), "lam": None}),
    ("T10", {"a": 2, "b": F(1, 2), "c": F(1, 3), "m": 2, "lam": None}), ("DAE", {"lam": None}),
])
def test_checks_over_q_lambda_take_the_pairs_reciprocal(tag, params, monkeypatch):
    # the basis half rebuilds the pair as (g, t) and keeps its ginv, so with
    # Series.inverse refused over Q(L) every lambda tag still passes
    inverse = Series.inverse

    def refused(s):
        if s.field is not QQ:
            raise AssertionError("Series.inverse over Q(L)")
        return inverse(s)

    monkeypatch.setattr(Series, "inverse", refused)
    assert verify_identity(tag, params, 8).status == "pass"
