"""Command-line surface: outputs, formats, exit codes, byte stability."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest

import umbralkit.cli as cli
from umbralkit.cli import main


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


class TestExpand:
    def test_documented_json(self):
        code, out = run_cli("expand", "t/(exp(t)-1)", "--order", "6", "--format", "json")
        assert code == 0
        assert json.loads(out) == ["1", "-1/2", "1/12", "0", "-1/720"]

    def test_csv(self):
        code, out = run_cli("expand", "1/(1-t)", "--order", "4", "--format", "csv")
        assert code == 0
        assert out == "0,1\n1,1\n2,1\n3,1\n"

    def test_latex(self):
        code, out = run_cli("expand", "t/(exp(t)-1)", "--order", "4", "--format", "latex")
        assert code == 0
        assert out == "1 - \\frac{1}{2} t + \\frac{1}{12} t^{2} + O(t^{3})\n"

    def test_csv_json_agree(self):
        _, csv_out = run_cli("expand", "exp(t)-1", "--order", "5", "--format", "csv")
        _, json_out = run_cli("expand", "exp(t)-1", "--order", "5", "--format", "json")
        csv_vals = [F(line.split(",")[1]) for line in csv_out.splitlines()]
        json_vals = [F(s) for s in json.loads(json_out)]
        assert csv_vals == json_vals

    def test_lambda_field(self):
        code, out = run_cli(
            "expand", "(1-L)/(exp(t)-L)", "--order", "3", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)[1] == "(1)/(L - 1)"

    def test_lambda_binding(self):
        code, out = run_cli(
            "expand", "(1-L)/(exp(t)-L)", "--order", "3", "--lambda", "-1",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == ["1", "-1/2", "0"]

    def test_unbound_lambda_is_usage_error(self):
        code, _ = run_cli("expand", "L*t", "--order", "3", "--field", "q")
        assert code == 2

    def test_parse_error_exit(self):
        code, _ = run_cli("expand", "t*)", "--order", "3")
        assert code == 2

    def test_leading_minus_after_double_dash(self):
        code, out = run_cli("expand", "--order", "3", "--", "-t")
        assert code == 0
        assert json.loads(out) == ["0", "-1", "0"]

    @pytest.mark.parametrize(
        "expr,order",
        [
            ("rev(t)", "1"),  # no t^1 coefficient at truncation 1
            ("pow(1+t, 1/0)", "3"),  # zero denominator in the exponent
            ("(" * 3000 + "t" + ")" * 3000, "3"),  # nested past the parser's stack
            ("+".join(["t"] * 3000), "3"),  # a chain past the evaluator's stack
        ],
        ids=["rev-order-1", "zero-denominator", "deep-nesting", "long-chain"],
    )
    def test_no_traceback(self, expr, order, capsys):
        code, _ = run_cli("expand", expr, "--order", order)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "error: " in err[0]


class TestFamily:
    @pytest.mark.parametrize("spelling", ["symbolic", "sym", "L"])
    def test_lambda_spellings(self, spelling):
        code, out = run_cli("family", "T6", "--lambda", spelling, "--n", "3")
        assert (code, out) == run_cli("family", "T6", "--n", "3")
        assert code == 0 and out

    def test_documented_bernoulli_csv(self):
        code, out = run_cli(
            "family", "bernoulli", "--order-param", "2", "--n", "5", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert lines[0] == "0,1"
        assert lines[1] == "1,-1,1"  # B_1^(2)(x) = x - 1

    def test_rows_match_library(self):
        from umbralkit import bernoulli_poly

        _, out = run_cli(
            "family", "bernoulli", "--order-param", "2", "--n", "5", "--format", "json"
        )
        rows = json.loads(out)
        for n, row in enumerate(rows):
            assert [str(c) for c in bernoulli_poly(2, n).coeffs] == row

    def test_poisson_charlier_with_a(self):
        code, out = run_cli(
            "family", "poisson_charlier", "--a", "2", "--n", "2", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[1] == "1,-1,1/2"  # C_1(x;2) = x/2 - 1

    def test_frobenius_symbolic(self):
        code, out = run_cli("family", "frobenius_euler", "--n", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == "1,(1)/(L - 1),1"

    def test_latex_rows(self):
        code, out = run_cli("family", "euler", "--n", "2", "--format", "latex")
        assert code == 0
        assert out.splitlines()[2] == "2 & x^{2} - x \\\\"

    def test_inapplicable_flag_rejected(self):
        for argv in [
            ("bernoulli", "--n", "3", "--lambda", "2"),
            ("euler", "--n", "3", "--a", "2"),
            ("DAE", "--c", "1", "--n", "2"),
            ("T4", "--lambda", "2", "--n", "2"),
            ("T2", "--b", "1", "--m", "3", "--n", "1"),
            ("T4", "--lambda", "symbolic", "--n", "2"),
            ("daehee", "--order-param", "2", "--n", "2"),
        ]:
            code, out = run_cli("family", *argv)
            assert (code, out) == (2, ""), argv

    def test_unknown_family_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("family", "hermite", "--n", "3")
        assert exc.value.code == 2

    def test_csv_json_agree(self):
        args = ("family", "narumi", "--order-param", "2", "--n", "6")
        _, csv_out = run_cli(*args, "--format", "csv")
        _, json_out = run_cli(*args, "--format", "json")
        csv_rows = [
            [F(v) for v in line.split(",")[1:]] for line in csv_out.splitlines()
        ]
        json_rows = [[F(v) for v in row] for row in json.loads(json_out)]
        assert csv_rows == json_rows

    def test_registry_pair_table(self):
        # S_1 for the T2 pair is b * H_1(x|L) = b(x + 1/(L-1)); 3x + 3 at L=2
        code, out = run_cli(
            "family", "T2", "--order-param", "1", "--b", "3", "--lambda", "2",
            "--n", "1", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[1] == "1,3,3"

    def test_registry_pair_symbolic(self):
        code, out = run_cli("family", "T6", "--c", "1", "--n", "2", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[1] == ["(1)/(L - 1)", "1"]  # S_1 = H_1(x|L)

    def test_registry_pair_requires_params(self):
        code, _ = run_cli("family", "T10", "--n", "2")
        assert code == 2

    def test_pair_flags_rejected_for_plain_families(self):
        code, _ = run_cli("family", "bernoulli", "--n", "2", "--b", "1")
        assert code == 2

    @pytest.mark.parametrize("argv", [("daehee",), ("T2", "--b", "1")], ids=["daehee", "T2"])
    def test_n_zero_prints_s0(self, argv):
        assert run_cli("family", *argv, "--n", "0") == (0, "0,1\n")


class TestNegativeValues:
    """A negative value may follow its flag as a separate word."""

    @pytest.mark.parametrize("argv", [
        ("family", "bernoulli", "--order-param", "-2", "--n", "3"),
        ("family", "frobenius_euler", "--lambda", "-1/2", "--n", "3"),
        ("family", "poisson_charlier", "--a", "-1/3", "--n", "3"),
        ("family", "T2", "--b", "-1/2", "--lambda", "2", "--n", "3"),
        ("family", "T6", "--c", "-1/3", "--n", "2"),
        ("expand", "(1-L)/(exp(t)-L)", "--order", "3", "--lambda", "-1/2"),
    ], ids=["order-param", "lambda", "a", "b", "c", "expand-lambda"])
    def test_separate_word_as_joined(self, argv):
        i = next(k for k, w in enumerate(argv) if w[0] == "-" and w[1].isdigit())
        joined = argv[:i - 1] + (f"{argv[i - 1]}={argv[i]}",) + argv[i + 1:]
        code, out = run_cli(*argv)
        assert code == 0 and out
        assert (code, out) == run_cli(*joined)

    def test_negative_m_is_domain_error(self, capsys):
        code, out = run_cli("family", "T10", "--b", "1", "--c", "1", "--m", "-1", "--n", "2")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: T10: m must be a nonnegative integer\n"


class TestSheffer:
    def test_routes_agree(self):
        code, out = run_cli(
            "sheffer", "--g", "(exp(t)+1)/2", "--f", "t", "--n", "3", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["agree"] is True
        assert data["rows"][2] == ["0", "-1", "1"]  # E_2(x) = x^2 - x

    def test_csv_has_agreement_line(self):
        code, out = run_cli(
            "sheffer", "--g", "1", "--f", "t", "--n", "2", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[-1] == "agree,true"

    def test_symbolic_pair(self):
        code, out = run_cli(
            "sheffer",
            "--g", "(exp(t)-L)/(1-L)",
            "--f", "t",
            "--n", "2",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["agree"] is True

    def test_invalid_pair_is_usage_error(self):
        code, _ = run_cli("sheffer", "--g", "t", "--f", "t", "--n", "2")
        assert code == 2


class TestVerify:
    def test_documented_c5(self):
        code, out = run_cli("verify", "C5", "--n-max", "12", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "pass"
        assert data["id"] == "C5"
        assert data["n_max"] == 12

    def test_single_with_grid_params(self):
        code, out = run_cli("verify", "T9", "--n-max", "4")
        assert code == 0
        data = json.loads(out)
        assert isinstance(data, list) and len(data) == 3
        assert all(r["status"] == "pass" for r in data)

    def test_r42_reports_discrepancy_but_exits_zero(self):
        code, out = run_cli("verify", "R42", "--n-max", "8")
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "paper_discrepancy"
        assert data["counterexamples"][0] == {
            "indices": [1, 1],
            "lhs": "-1/2",
            "rhs": "1/2",
        }

    def test_unknown_tag(self):
        code, _ = run_cli("verify", "T99")
        assert code == 2

    def test_missing_tag(self):
        code, _ = run_cli("verify")
        assert code == 2

    def test_tag_and_all_are_exclusive(self, capsys):
        code, out = run_cli("verify", "--all", "T2")
        assert (code, out) == (2, "")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_n_max_zero_is_usage_error(self, capsys):
        code, out = run_cli("verify", "T2", "--n-max", "0")
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == "error: --n-max must be >= 1\n"


@pytest.mark.parametrize(
    "argv",
    [("expand", "L*t", "--order", "3"), ("sheffer", "--g", "1", "--f", "t", "--n", "2")],
    ids=["expand", "sheffer"],
)
def test_field_qlambda_with_lambda_is_usage_error(argv, capsys):
    code, out = run_cli(*argv, "--field", "qlambda", "--lambda", "2")
    assert (code, out) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_python_m_umbralkit_version():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run(
        [sys.executable, "-m", "umbralkit", "--version"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert (run.returncode, run.stdout) == (0, "umbralkit 0.1.0\n")


def test_internal_error_exit_code(monkeypatch, capsys):
    def boom(args, out):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_expand", boom)
    code, out = run_cli("expand", "t", "--order", "3")
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


class TestLatexGolden:
    """Exact LaTeX bytes of the renderer paths, Q(L) coefficients included."""

    def test_family_frobenius_euler_rows(self):
        code, out = run_cli("family", "frobenius_euler", "--n", "3", "--format", "latex")
        assert code == 0
        assert out == (
            "0 & 1 \\\\\n"
            "1 & x + \\left(\\frac{1}{\\lambda - 1}\\right) \\\\\n"
            "2 & x^{2} + \\left(\\frac{2}{\\lambda - 1}\\right) x"
            " + \\left(\\frac{\\lambda + 1}{\\lambda^{2} - 2 \\lambda + 1}\\right) \\\\\n"
            "3 & x^{3} + \\left(\\frac{3}{\\lambda - 1}\\right) x^{2}"
            " + \\left(\\frac{3 \\lambda + 3}{\\lambda^{2} - 2 \\lambda + 1}\\right) x"
            " + \\left(\\frac{\\lambda^{2} + 4 \\lambda + 1}"
            "{\\lambda^{3} - 3 \\lambda^{2} + 3 \\lambda - 1}\\right) \\\\\n"
        )

    def test_family_frobenius_euler_degree_10(self):
        code, out = run_cli("family", "frobenius_euler", "--n", "10", "--format", "latex")
        assert code == 0
        # every exponent braced, no plain-text product sign, no doubled space
        assert "*" not in out and "  " not in out
        assert out.count("^") == out.count("^{")
        assert out.splitlines()[10].endswith(
            " + \\left(\\frac{\\lambda^{9} + 1013 \\lambda^{8} + 47840 \\lambda^{7}"
            " + 455192 \\lambda^{6} + 1310354 \\lambda^{5} + 1310354 \\lambda^{4}"
            " + 455192 \\lambda^{3} + 47840 \\lambda^{2} + 1013 \\lambda + 1}"
            "{\\lambda^{10} - 10 \\lambda^{9} + 45 \\lambda^{8} - 120 \\lambda^{7}"
            " + 210 \\lambda^{6} - 252 \\lambda^{5} + 210 \\lambda^{4} - 120 \\lambda^{3}"
            " + 45 \\lambda^{2} - 10 \\lambda + 1}\\right) \\\\"
        )

    def test_expand_lambda_series(self):
        code, out = run_cli(
            "expand", "(1-L)/(exp(t)-L)", "--order", "5", "--format", "latex"
        )
        assert code == 0
        assert out == (
            "1 + \\left(\\frac{1}{\\lambda - 1}\\right) t"
            " + \\left(\\frac{\\frac{1}{2} \\lambda + \\frac{1}{2}}"
            "{\\lambda^{2} - 2 \\lambda + 1}\\right) t^{2}"
            " + \\left(\\frac{\\frac{1}{6} \\lambda^{2} + \\frac{2}{3} \\lambda + \\frac{1}{6}}"
            "{\\lambda^{3} - 3 \\lambda^{2} + 3 \\lambda - 1}\\right) t^{3}"
            " + \\left(\\frac{\\frac{1}{24} \\lambda^{3} + \\frac{11}{24} \\lambda^{2}"
            " + \\frac{11}{24} \\lambda + \\frac{1}{24}}"
            "{\\lambda^{4} - 4 \\lambda^{3} + 6 \\lambda^{2} - 4 \\lambda + 1}\\right) t^{4}"
            " + O(t^{5})\n"
        )

    def test_expand_zero_series(self):
        code, out = run_cli("expand", "0*t", "--order", "3", "--format", "latex")
        assert (code, out) == (0, "0 + O(t^{3})\n")


def test_readme_lists_each_registry_pairs_flags():
    from umbralkit.cli import family_flags
    from umbralkit.identities import REGISTRY

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for name, entry in REGISTRY.items():
        if entry.pair and entry.check:
            flags = ", ".join(f"`{flag}`" for flag in family_flags(name)) or "none"
            assert f"| `{name}` | {flags} |" in readme


class TestByteStability:
    DOCUMENTED = [
        ("expand", "t/(exp(t)-1)", "--order", "6", "--format", "json"),
        ("family", "bernoulli", "--order-param", "2", "--n", "5", "--format", "csv"),
        ("verify", "C5", "--n-max", "12", "--format", "json"),
    ]

    @pytest.mark.parametrize("argv", DOCUMENTED, ids=lambda a: a[0])
    def test_in_process_stable(self, argv):
        code1, out1 = run_cli(*argv)
        code2, out2 = run_cli(*argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.endswith("\n")

    @pytest.mark.parametrize("argv", DOCUMENTED, ids=lambda a: a[0])
    def test_subprocess_stable(self, argv):
        # separate interpreters, separate hash seeds
        cmd = [sys.executable, "-m", "umbralkit.cli", *argv]
        runs = [
            subprocess.run(cmd, capture_output=True, timeout=300) for _ in range(2)
        ]
        assert runs[0].returncode == 0 and runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout
        _, inproc = run_cli(*argv)
        assert runs[0].stdout.decode() == inproc
