"""The identity registry: statuses, counterexamples, grids, determinism."""

import json
from fractions import Fraction as F

import pytest

from umbralkit import (
    DomainError,
    IdentityReport,
    UmbralError,
    UnknownIdentity,
    aggregate_pass,
    b2_convolution,
    b2_convolution_enumerated,
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
from umbralkit.identities import (
    FAMILY_NAMES,
    IDENTITY_TAGS,
    REGISTRY,
    Param,
    check_params,
    verify_identity_report_errors,
)


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
        from umbralkit import QL, sheffer_transfer, bespoke_pair, frobenius_euler_poly

        b = F(3)
        pair = bespoke_pair("T2", 8, order=1, b=b, lam=None)
        got = sheffer_transfer(pair, 1)
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
        with pytest.raises(DomainError, match="needs n >= 1 and l >= 0"):
            convolution(n, l, 1)

    def test_matches_narumi_route(self):
        c = F(1)
        assert narumi_value(-1, 1, c) == F(3, 2)


class TestDomainHandling:
    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentity):
            verify_identity("T99", {}, 4)
        with pytest.raises(UnknownIdentity):
            describe("nope")

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
        [("T2", {"b": 0.1}), ("T2", {"a": True}), ("T10", {"m": False}), ("T6", {"lam": 0.5})],
    )
    def test_float_and_bool_are_domain_errors(self, tag, params):
        # a float is a binary approximation and a bool is not a number of
        # the schema, so neither is taken as an exact parameter
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

    def test_grid_entry_becomes_domain_error_report(self):
        report = verify_identity_report_errors("T6", {"a": 1, "c": F(0), "lam": None}, 4)
        assert report.status == "domain_error"
        assert "c != 0" in report.note
        assert not report.ok

    def test_registry_with_bad_entry(self):
        reports = run_registry([("T6", {"a": 1, "c": F(0), "lam": None})], 4)
        assert reports[0].status == "domain_error"
        assert not aggregate_pass(reports)


class TestRegistry:
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

    def test_empty_grid(self):
        assert run_registry([], 4) == []
        assert aggregate_pass([])

    def test_report_json_schema(self):
        report = verify_identity("T9", {"c": F(1, 3)}, 3)
        data = json.loads(report.to_json())
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


class TestTable:
    def test_every_tag_has_schema_check_and_description(self):
        grid_tags = {tag for tag, _ in default_grid()}
        for tag in IDENTITY_TAGS:
            entry = REGISTRY[tag]
            assert all(isinstance(q, Param) and callable(q.domain) for q in entry.params)
            assert callable(entry.check)
            assert entry.description and describe(tag) == entry.description
            assert tag in grid_tags

    def test_names_partition_the_table(self):
        assert set(FAMILY_NAMES) | set(IDENTITY_TAGS) == set(REGISTRY)
        assert not set(FAMILY_NAMES) & set(IDENTITY_TAGS)
        assert all(REGISTRY[name].pair for name in FAMILY_NAMES)

    def test_parameter_names_unique_per_row(self):
        for entry in REGISTRY.values():
            names = [q.name for q in entry.params]
            assert len(names) == len(set(names))

    def test_daehee_pair_built_once(self):
        assert REGISTRY["daehee"].pair is REGISTRY["DAE"].pair
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
            table = {q.name: q.default for q in REGISTRY[tag].params if q.default is not None}
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
