"""Seeded operation lists for the two workloads, and the code that runs one
operation and renders its canonical output.

An operation is a plain tuple, so the same description builds the digest
table (``record_digests.py``) and drives the timed loop (``worker.py``).
A run of P passes draws P sets of rational parameters from the small fixed
sets below, the same P sets for every seed; the seed deals them out to the
passes and orders each pass.  Every run of a workload therefore does the
same multiset of operations, and its latency quantiles do not depend on
which parameters a seed happened to draw.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import umbralkit as uk
from tracing import TRACE_MARKER

WORKLOADS = ("sheffer_q_lambda", "cli")

# sizes stated by the workloads
QL_N, QL_T = 10, 22

B_SET = (F(1), F(2), F(-1), F(1, 2), F(-1, 2))
C_SET = (F(1), F(-1), F(2), F(1, 2), F(1, 3))
BC_SET = ((F(1), F(1)), (F(2), F(-1)), (F(1, 2), F(1, 3)), (F(-1), F(2)), (F(-1, 2), F(1, 2)))
M_SET = (1, 2)
LAM_SET = (F(-1), F(2), F(1, 2), F(3), F(-1, 2), F(1, 3))

CLI_Q_SET = (F(1, 2), F(-1, 3), F(2, 3), F(3, 2), F(-2))
CLI_G_SET = (F(1), F(2), F(1, 2), F(-1, 3), F(3))
# R42 is the identity whose paper form fails and whose arbitration must
# report "paper_discrepancy"; its check costs about what the other commands
# cost, so start-up still dominates the workload (verify T6 took 2.5 times
# as long as any other command, and as the slowest command it set the tail
# latency, which then drifted with the host more than start-up does)
VERIFY_TAG = "R42"


def pass_rng(workload: str, seed: int, pass_index: int) -> random.Random:
    """The seeded choices of one pass (pass_index -1: of the whole run)."""
    return random.Random(f"{workload}:{seed}:{pass_index}")


def draw_rng(workload: str, draw: int) -> random.Random:
    """The parameters of draw i of a run, the same for every seed."""
    return random.Random(f"{workload}:draw:{draw}")


# ---------------------------------------------------------------------------
# operation lists
# ---------------------------------------------------------------------------
#
# Sheffer operation: ("sheffer", kind, name, order, params, n_max, T), with
# kind "catalog" or "bespoke" and params a sorted tuple of (key, value);
# lam None means the symbol L.
# CLI operation: ("cli", argv).


def _sheffer(kind, name, order, n_max, T, **params):
    return ("sheffer", kind, name, order, tuple(sorted(params.items())), n_max, T)


def _sheffer_ops(rng):
    """The Q(L) pairs of one pass, lambda the symbol L."""
    def bespoke(tag, a):
        if tag == "T2":
            return _sheffer("bespoke", tag, a, QL_N, QL_T, b=rng.choice(B_SET), lam=None)
        if tag == "T10":
            b, c = rng.choice(BC_SET)
            return _sheffer("bespoke", tag, a, QL_N, QL_T, b=b, c=c, m=rng.choice(M_SET),
                            lam=None)
        return _sheffer("bespoke", tag, a, QL_N, QL_T, c=rng.choice(C_SET), lam=None)

    ops = []
    for a in (1, 2):
        ops += [bespoke(tag, a) for tag in ("T2", "T6", "P8", "T10")]
        ops += [_sheffer("catalog", name, a, QL_N, QL_T, lam=None)
                for name in ("frobenius_euler", "frobenius_eulerian")]
    ops.append(_sheffer("catalog", "daehee", 1, QL_N, QL_T, lam=None))
    ops.append(bespoke("T2", -1))
    return ops


def _cli_ops(rng):
    q, r = rng.choice(CLI_Q_SET), rng.choice(CLI_Q_SET)
    return [
        ("cli", ("expand", f"pow(1+t, {q})*exp(({r})*t)", "--order", "12")),
        ("cli", ("expand", f"t/(exp(({rng.choice(CLI_Q_SET)})*t)-L)", "--order", "10")),
        ("cli", ("family", "frobenius_euler", "--order-param", str(rng.choice((1, 2))),
                 f"--lambda={rng.choice(LAM_SET)}", "--n", "10")),
        ("cli", ("family", "T6", f"--c={rng.choice(C_SET)}", "--lambda", "symbolic", "--n", "6")),
        ("cli", ("sheffer", "--g", _cli_g(rng.choice(CLI_G_SET)), "--f", "log1p(t)", "--n", "8")),
        ("cli", ("verify", VERIFY_TAG)),
    ]


def _cli_g(q):
    """(e^t + q)/(1 + q): invertible, with constant term 1."""
    return f"(exp(t)+({q}))/(1+({q}))"


def _draw(workload: str, rng: random.Random) -> list:
    """One pass worth of operations, parameters drawn from rng."""
    if workload == "sheffer_q_lambda":
        return _sheffer_ops(rng)
    if workload == "cli":
        return _cli_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


def build_passes(workload: str, seed: int, passes: int) -> list:
    """The operations of every pass of a run.  Draw i (i < passes) does not
    depend on the seed; the seed deals the i-th draws of each slot (say,
    "T6 at order 2") out to the passes and shuffles each pass."""
    draws = [_draw(workload, draw_rng(workload, i)) for i in range(passes)]
    rng = pass_rng(workload, seed, -1)
    slots = [list(column) for column in zip(*draws)]
    for column in slots:
        rng.shuffle(column)
    out = [list(ops) for ops in zip(*slots)]
    for ops in out:
        rng.shuffle(ops)
    return out


# ---------------------------------------------------------------------------
# every operation a seed can draw (the digest table covers all of them)
# ---------------------------------------------------------------------------


def _sheffer_universe():
    ops = []
    for a in (1, 2, -1):
        ops += [_sheffer("bespoke", "T2", a, QL_N, QL_T, b=b, lam=None) for b in B_SET]
    for a in (1, 2):
        for tag in ("T6", "P8"):
            ops += [_sheffer("bespoke", tag, a, QL_N, QL_T, c=c, lam=None) for c in C_SET]
        ops += [_sheffer("bespoke", "T10", a, QL_N, QL_T, b=b, c=c, m=m, lam=None)
                for b, c in BC_SET for m in M_SET]
        ops += [_sheffer("catalog", name, a, QL_N, QL_T, lam=None)
                for name in ("frobenius_euler", "frobenius_eulerian")]
    ops.append(_sheffer("catalog", "daehee", 1, QL_N, QL_T, lam=None))
    return ops


def _cli_universe():
    ops = []
    ops += [("cli", ("expand", f"pow(1+t, {q})*exp(({r})*t)", "--order", "12"))
            for q in CLI_Q_SET for r in CLI_Q_SET]
    ops += [("cli", ("expand", f"t/(exp(({q})*t)-L)", "--order", "10")) for q in CLI_Q_SET]
    ops += [("cli", ("family", "frobenius_euler", "--order-param", str(a),
                     f"--lambda={lam}", "--n", "10"))
            for a in (1, 2) for lam in LAM_SET]
    ops += [("cli", ("family", "T6", f"--c={c}", "--lambda", "symbolic", "--n", "6"))
            for c in C_SET]
    ops += [("cli", ("sheffer", "--g", _cli_g(q), "--f", "log1p(t)", "--n", "8"))
            for q in CLI_G_SET]
    ops.append(("cli", ("verify", VERIFY_TAG)))
    return ops


def universe(workload: str) -> list:
    if workload == "sheffer_q_lambda":
        return _sheffer_universe()
    return _cli_universe()


# ---------------------------------------------------------------------------
# running one operation
# ---------------------------------------------------------------------------


def _render(v) -> str:
    return "L" if v is None else str(v)


def op_id(op) -> str:
    """Stable text key of an operation, used by the digest table."""
    if op[0] == "sheffer":
        _, kind, name, order, params, n_max, T = op
        field = "QL" if dict(params).get("lam", 0) is None else "Q"
        text = "".join(f"[{k}={_render(v)}]" for k, v in params)
        return f"{field}:{name}[a={order}]{text}[n={n_max}][T={T}]"
    return "CLI:" + json.dumps(list(op[1]))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def build_pair(op, lam=...):
    """The ShefferPair of a Sheffer operation, optionally at another lambda."""
    _, kind, name, order, params, _, T = op
    p = dict(params)
    if lam is not ...:
        p["lam"] = lam
    if kind == "catalog":
        return uk.catalog_pair(uk.FamilySpec.make(name, order, **p), T=T)
    return uk.bespoke_pair(name, T, order=order, **p)


def run_sheffer(op):
    """Both routes plus orthogonality. Returns (gf polys, failure text or None)."""
    n_max = op[5]
    pair = build_pair(op)
    polys = uk.sheffer_gf(pair, n_max)
    transfer = uk.sheffer_transfer_all(pair, n_max)
    if any(transfer[n - 1] != polys[n] for n in range(1, n_max + 1)):
        return polys, "generating-function and transfer routes disagree"
    bad = uk.orthogonality_failure(pair, polys, n_max)
    if bad is not None:
        return polys, f"orthogonality fails at (n, k) = {bad[:2]}"
    return polys, None


def run_cli(root, argv, trace=False):
    """One fresh `python -m umbralkit.cli` process (the trace shim when traced).
    Returns ((exit code, stdout bytes), failure text or None, shim trace)."""
    if trace:
        cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "cli_shim.py"), *argv]
    else:
        cmd = [sys.executable, "-m", "umbralkit.cli", *argv]
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=120)
    error = None
    if proc.returncode != 0:
        error = f"exit code {proc.returncode}: {proc.stderr.decode()[-300:]}"
    elif argv == ("verify", "R42"):
        status = json.loads(proc.stdout).get("status")
        if status != "paper_discrepancy":
            error = f"R42 status {status!r}, expected 'paper_discrepancy'"
    shim_trace = None
    if trace:
        lines = [ln for ln in proc.stderr.decode().splitlines() if ln.startswith(TRACE_MARKER)]
        if lines:
            shim_trace = json.loads(lines[-1][len(TRACE_MARKER):])
        else:
            error = error or "trace shim wrote no trace"
    return (proc.returncode, proc.stdout), error, shim_trace


def run_op(root, op, trace=False):
    """Run one operation: (output, failure text or None, CLI shim trace)."""
    if op[0] == "sheffer":
        return (*run_sheffer(op), None)
    return run_cli(root, op[1], trace)


def canonical_text(op, output) -> str:
    """Canonical output strings of a finished operation, as digested."""
    if op[0] == "sheffer":
        return json.dumps([[p.field.to_str(c) for c in p.coeffs] for p in output])
    returncode, stdout = output
    return json.dumps({"exit": returncode, "stdout": stdout.decode()})
