"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Everything is checked at zero tolerance; there are no
floats anywhere in the kernel.
"""

import random
import subprocess
import sys
from fractions import Fraction as F
from hashlib import sha256
from pathlib import Path

import pytest

from umbralkit import (
    FamilySpec,
    QQ,
    Series,
    bernoulli_value,
    bespoke_pair,
    b2_convolution,
    catalog_pair,
    default_grid,
    orthogonality_failure,
    run_registry,
    sheffer_gf,
    sheffer_transfer_all,
    stirling1,
    stirling2,
    t_series,
    verify_identity,
    working_trunc,
)

from conftest import b2_convolution_enumerated

N_MAX = 10
T = working_trunc(N_MAX)

LAMBDA_TAGS = ("T2", "T6", "P8", "T10", "DAE")


def _report(criterion: str, failures: list) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} violation(s))"
    print(f"\nACCEPTANCE {criterion}: {status}")
    for item in failures[:10]:
        print("   ", item)
    assert not failures, f"{criterion}: {failures[:10]}"


@pytest.fixture(scope="module")
def catalog():
    """Every catalog pair the criteria sweep, at truncation 2*10+2."""
    pairs = []
    for a in (-1, 1, 2):
        pairs.append((f"bernoulli[a={a}]", catalog_pair(FamilySpec.make("bernoulli", a), T=T)))
    for a in (1, 2):
        pairs.append((f"euler[a={a}]", catalog_pair(FamilySpec.make("euler", a), T=T)))
        pairs.append(
            (f"frobenius_euler[a={a}]", catalog_pair(FamilySpec.make("frobenius_euler", a), T=T))
        )
        pairs.append(
            (
                f"frobenius_eulerian[a={a}]",
                catalog_pair(FamilySpec.make("frobenius_eulerian", a), T=T),
            )
        )
        pairs.append((f"narumi[a={a}]", catalog_pair(FamilySpec.make("narumi", a), T=T)))
    pairs.append(("daehee", catalog_pair(FamilySpec.make("daehee", 1), T=T)))
    pairs.append(
        ("poisson_charlier[a=2]", catalog_pair(FamilySpec.make("poisson_charlier", 1, a=F(2)), T=T))
    )
    pairs.append(("bernoulli_2nd", catalog_pair(FamilySpec.make("bernoulli_2nd", 1), T=T)))
    for tag, params in default_grid():
        if tag not in ("T2", "T3", "T4", "T6", "P8", "T10", "R27"):
            continue
        label = tag + "".join(
            f"[{k}={v if v is not None else 'L'}]" for k, v in sorted(params.items())
        )
        pairs.append((label, bespoke_pair(tag, T, order=params.get("a", 1), **params)))
    return pairs


@pytest.fixture(scope="module")
def catalog_gf(catalog):
    return {label: sheffer_gf(pair, N_MAX) for label, pair in catalog}


def test_criterion_1_transfer_equivalence(catalog, catalog_gf):
    """Both Sheffer routes agree coefficientwise for 1 <= n <= 10."""
    failures = []
    for label, pair in catalog:
        polys = catalog_gf[label]
        transfer = sheffer_transfer_all(pair, N_MAX)
        for n in range(1, N_MAX + 1):
            if transfer[n - 1] != polys[n]:
                failures.append((label, n))
    _report("1 (transfer-formula equivalence, 74 pairs, n <= 10)", failures)


def test_criterion_2_orthogonality(catalog, catalog_gf):
    """<g f^k | S_n> = n! delta_{n,k} for 0 <= n,k <= 10, every pair."""
    failures = []
    for label, pair in catalog:
        bad = orthogonality_failure(pair, catalog_gf[label], N_MAX)
        if bad is not None:
            failures.append((label, bad[:2]))
    _report("2 (orthogonality, all catalog pairs, n,k <= 10)", failures)


def test_criterion_3_registry():
    """Default grid at n_max=6: all pass; R42 documented discrepancy; the
    lambda-carrying identities also pass at lambda in {-1, 2, 1/2}."""
    failures = []
    reports = run_registry(default_grid(), 6)
    for r in reports:
        if r.id == "R42":
            if r.status != "paper_discrepancy" or not r.note:
                failures.append(("R42-status", r.status))
        elif r.status != "pass":
            failures.append((r.id, dict(r.params), r.status))

    r42 = verify_identity("R42", {}, 8)
    if r42.status != "paper_discrepancy":
        failures.append(("R42", r42.status))
    elif r42.counterexamples[0].indices != (1, 1) or (
        r42.counterexamples[0].lhs,
        r42.counterexamples[0].rhs,
    ) != ("-1/2", "1/2"):
        failures.append(("R42-counterexample", r42.counterexamples[0]))

    for lam0 in (F(-1), F(2), F(1, 2)):
        lam_grid = [
            (tag, {**params, "lam": lam0})
            for tag, params in default_grid()
            if tag in LAMBDA_TAGS
        ]
        for r in run_registry(lam_grid, 6):
            if r.status != "pass":
                failures.append((r.id, dict(r.params), r.status))
    _report("3 (identity registry, symbolic + specialized lambda)", failures)


def test_criterion_4_corollary_extended():
    """N_l^(n)/n = B_l^(n+l)/(n+l) exactly for 1 <= n <= 12, 0 <= l <= n-1."""
    report = verify_identity("C5", {}, 12)
    failures = [] if report.status == "pass" else [report.status]
    _report("4 (Narumi/Bernoulli number ratio, n <= 12)", failures)


def test_criterion_5_convolution_slow_oracle():
    """Literal composition enumeration == series product == shifted
    higher-order Bernoulli value, for n <= 4, l <= 3, c in {1, -2, 1/2}."""
    failures = []
    for c in (F(1), F(-2), F(1, 2)):
        for n in range(1, 5):
            for l in range(4):
                enum = b2_convolution_enumerated(n, l, c)
                prod = b2_convolution(n, l, c)
                bern = bernoulli_value(l - n + 1, l, c * n + 1)
                if not (enum == prod == bern):
                    failures.append((str(c), n, l, str(enum), str(prod), str(bern)))
    _report("5 (convolution slow oracle)", failures)


def test_criterion_6_series_kernel_properties(catalog_gf):
    """Round-trips on >= 50 random series per property at T = 16, Stirling
    duality, and the Appell derivative identity."""
    failures = []
    rng = random.Random(16180339)
    Tw = 16

    def rand_series(order0=None):
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(Tw)]
        if order0 is not None:
            coeffs[0] = order0
        return Series(QQ, coeffs)

    def rand_nonzero():
        while True:
            q = F(rng.randint(-9, 9), rng.randint(1, 6))
            if q:
                return q

    one_series = Series(QQ, [1], trunc=Tw)
    t = t_series(QQ, Tw)
    for i in range(50):
        a = rand_series(order0=rand_nonzero())
        if a * a.inverse() != one_series:
            failures.append(("inverse", i))

        f = rand_series(order0=F(0))
        coeffs = list(f.coeffs)
        coeffs[1] = rand_nonzero()
        f = Series(QQ, coeffs)
        fbar = f.revert()
        if f.compose(fbar) != t or fbar.compose(f) != t:
            failures.append(("revert", i))

        inner = rand_series(order0=F(0))
        outer = rand_series()
        third = rand_series(order0=F(0))
        if outer.compose(inner).compose(third) != outer.compose(inner.compose(third)):
            failures.append(("compose-associativity", i))

        u = rand_series(order0=F(1))
        if u.log().exp() != u:
            failures.append(("log-exp", i))

    for n in range(11):
        for m in range(11):
            total = sum((stirling1(n, k) * stirling2(k, m) for k in range(n + 1)), F(0))
            if total != (1 if n == m else 0):
                failures.append(("stirling-duality", n, m))

    for label in (
        "bernoulli[a=1]",
        "euler[a=1]",
        "frobenius_euler[a=1]",
        "frobenius_eulerian[a=1]",
    ):
        polys = catalog_gf[label]
        for n in range(1, N_MAX + 1):
            if polys[n].derivative() != polys[n - 1] * polys[n].field.coerce(n):
                failures.append(("appell-derivative", label, n))
    _report("6 (series kernel property suite)", failures)


# expand with L symbolic and bound, over Q(L) from an operand over Q in a
# difference, a product, a composition and a fractional power; the CI step
# "Runtime is stdlib-only" runs the same commands
EXPAND_FIELDS = [
    ("(1-L)/(exp(t)-L)", "--order", "6", "--format", "csv"),
    ("(1-L)/(exp(t)-L)", "--order", "6", "--lambda", "-1/2", "--format", "csv"),
    ("(1-L)/(exp(t)-L)", "--order", "6", "--format", "latex"),
    ("exp(L*t)", "--order", "6", "--format", "latex"),
    ("compose(exp(t), L*t)", "--order", "6", "--format", "csv"),
    ("pow(1+L*t, 1/2)", "--order", "6", "--format", "latex"),
]


def test_criterion_7_cli_contract():
    """Documented commands byte-stable across runs, the Q(L) composition
    commands printing the bytes of tests/data/sheffer_qlambda.csv,
    tests/data/sheffer_lambda_f.csv, tests/data/sheffer_two_dens.csv and
    tests/data/sheffer_linear_power.csv, the Q one those of
    tests/data/sheffer_q.csv, the one with g over Q and f over Q(L) those
    of tests/data/sheffer_mixed_fields.csv, the n = 30 Q(L) one the SHA-256 digest in
    tests/data/sheffer_qlambda_n30.sha256; the expand commands of
    EXPAND_FIELDS print, one after another, the bytes of
    tests/data/expand_fields.txt; verify --all exits 0 and prints the bytes
    of tests/data/verify_all.json."""
    failures = []
    data = Path(__file__).parent / "data"
    documented = [
        (["expand", "t/(exp(t)-1)", "--order", "6", "--format", "json"], None),
        (["family", "bernoulli", "--order-param", "2", "--n", "5", "--format", "csv"], None),
        (["verify", "C5", "--n-max", "12", "--format", "json"], None),
        # rev, compose and a fractional pow over Q(L)
        (["sheffer", "--g", "(exp(t)-L)/(1-L)", "--f", "log1p(t)*pow(1+t, -1/2)",
          "--n", "12", "--format", "csv"], "sheffer_qlambda.csv"),
        # a delta series f that carries L, so f itself stays over Q(L)
        (["sheffer", "--g", "exp(L*t)", "--f", "t*exp(L*t)", "--n", "8", "--format", "csv"],
         "sheffer_lambda_f.csv"),
        # g with two unrelated denominator factors, 1 - L and 1 + L, so the
        # common denominators of the packed applies are not nested powers
        (["sheffer", "--g", "(exp(t)-L)/(1-L)*(exp(2*t)+L)/(1+L)",
          "--f", "log1p(t)*pow(1+t, -1/2)", "--n", "10", "--format", "csv"],
         "sheffer_two_dens.csv"),
        # denominators that are powers of 2L - 1: the exact normalisation
        # against a linear power P = aL + b with a != 1
        (["sheffer", "--g", "(exp(t)-2*L)/(1-2*L)", "--f", "log1p(t)", "--n", "10",
          "--format", "csv"], "sheffer_linear_power.csv"),
        # a pair over Q: the Q branch of the power tables and prefix sums
        (["sheffer", "--g", "pow(1+t, 1/3)*exp(t/2)", "--f", "log1p(t)*pow(1+t, -1/2)",
          "--n", "12", "--format", "csv"], "sheffer_q.csv"),
        # g free of L over Q, f carrying L over Q(L): each keeps its own field
        (["sheffer", "--g", "exp(t/2)", "--f", "t*exp(L*t)", "--n", "8", "--format", "csv"],
         "sheffer_mixed_fields.csv"),
        # the first command at n = 30, where power tables over one d^k
        # took seconds; pinned by the digest of its 239 726 bytes
        (["sheffer", "--g", "(exp(t)-L)/(1-L)", "--f", "log1p(t)*pow(1+t, -1/2)",
          "--n", "30", "--format", "csv"], "sheffer_qlambda_n30.sha256"),
    ]
    for argv, pinned in documented:
        cmd = [sys.executable, "-m", "umbralkit.cli", *argv]
        first = subprocess.run(cmd, capture_output=True, timeout=600)
        second = subprocess.run(cmd, capture_output=True, timeout=600)
        if first.returncode != 0 or second.returncode != 0:
            failures.append((argv[0], "exit", first.returncode, second.returncode))
        if first.stdout != second.stdout:
            failures.append((argv[0], "bytes differ"))
        if pinned and pinned.endswith(".sha256"):
            if sha256(first.stdout).hexdigest() != (data / pinned).read_text().strip():
                failures.append((argv[0], f"digest differs from tests/data/{pinned}"))
        elif pinned and first.stdout != (data / pinned).read_bytes():
            failures.append((argv[0], f"bytes differ from tests/data/{pinned}"))

    runs = [subprocess.run([sys.executable, "-m", "umbralkit.cli", "expand", *argv],
                           capture_output=True, timeout=600) for argv in EXPAND_FIELDS]
    if any(run.returncode for run in runs):
        failures.append(("expand", "exit", [run.returncode for run in runs]))
    if b"".join(run.stdout for run in runs) != (data / "expand_fields.txt").read_bytes():
        failures.append(("expand", "bytes differ from tests/data/expand_fields.txt"))

    all_run = subprocess.run(
        [sys.executable, "-m", "umbralkit.cli", "verify", "--all"],
        capture_output=True,
        timeout=600,
    )
    if all_run.returncode != 0:
        failures.append(("verify --all", "exit", all_run.returncode))
    # the registry's output is pinned byte for byte: a change to any report
    # shows here, and CI compares the same file under every Python version
    if all_run.stdout != (data / "verify_all.json").read_bytes():
        failures.append(("verify --all", "bytes differ from tests/data/verify_all.json"))
    _report("7 (CLI contract)", failures)
