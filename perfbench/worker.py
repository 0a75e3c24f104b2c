"""One pass of a workload, in a fresh interpreter so every lru_cache starts cold.

    python3 perfbench/worker.py ROOT WORKLOAD SEED PASSES PASS TRACE

The worker imports umbralkit from ROOT/src, builds the operations of pass
PASS of a PASSES-pass run with SEED and prints ``ready``; the runner times
start-up up to that line.  It then runs the operations one at a time,
checks each one, and prints one JSON line.  PASS = -1 stops after ``ready`` (a set-up sample).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
from time import perf_counter

from tracing import Tracer


def _load(root: str):
    """Import umbralkit from ROOT/src, never from an installed copy."""
    sys.path.insert(0, os.path.join(root, "src"))
    import umbralkit

    expected = os.path.join(os.path.realpath(root), "src", "umbralkit")
    if os.path.dirname(os.path.realpath(umbralkit.__file__)) != expected:
        raise SystemExit(f"umbralkit imported from {umbralkit.__file__}, not {expected}")


def main(argv) -> int:
    root, workload, seed, passes, pass_index, trace = argv
    seed, passes, pass_index, trace = int(seed), int(passes), int(pass_index), trace == "1"
    _load(root)
    import workloads as wl

    ops = wl.build_passes(workload, seed, passes)[max(pass_index, 0)]
    with open(os.path.join(os.path.dirname(__file__), "digests.json")) as fh:
        digests = json.load(fh)[workload]
    print("ready", flush=True)
    if pass_index < 0:
        return 0

    tracer = Tracer().install() if trace and workload != "cli" else None
    results, outputs, cli_traces = [], [], []
    for op in ops:
        output, cli_trace = None, None
        start = perf_counter()
        try:
            output, error, cli_trace = wl.run_op(root, op, trace)
        except Exception:
            error = traceback.format_exc(limit=3)
        latency = perf_counter() - start
        if op[0] == "cli":
            cli_traces.append(cli_trace)
        if error is None:
            want = digests.get(wl.op_id(op))
            if want != wl.digest(wl.canonical_text(op, output)):
                error = "output differs from the recorded digest" if want else "no recorded digest"
        result = {"id": wl.op_id(op), "latency": latency, "error": error}
        if op[0] == "cli":
            result["exit"] = output[0] if output else None
        results.append(result)
        outputs.append(output)

    layers = None
    if tracer is not None:
        tracer.remove()
        layers = tracer.snapshot()
    if workload == "sheffer_q_lambda":
        differential_check(wl, ops, outputs, results, seed, pass_index)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    print(json.dumps({
        "ops": results,
        "peak_rss_kib": resource.getrusage(who).ru_maxrss,
        "layers": layers,
        "cli_traces": cli_traces if trace and workload == "cli" else None,
    }), flush=True)
    return 0


def differential_check(wl, ops, outputs, results, seed, pass_index):
    """Q(L) results specialised at lambda0 with RatFunc.evaluate must equal the
    same pair computed over Q at lambda0; lambda0 at a pole is skipped."""
    uk = wl.uk
    rng = wl.pass_rng("differential", seed, pass_index)
    lams = list(wl.LAM_SET)
    rng.shuffle(lams)
    checked = 0
    for op, polys, res in zip(ops, outputs, results):
        if checked == 3:
            break
        if res["error"] or op[2] not in ("frobenius_euler", "frobenius_eulerian", "T6"):
            continue
        for lam0 in lams:
            try:
                specialised = [[c.evaluate(lam0) for c in p.coeffs] for p in polys]
            except uk.EvalPole:
                continue
            try:
                over_q = uk.sheffer_gf(wl.build_pair(op, lam=lam0), op[5])
                if any(_padded(a, b.coeffs) != _padded(b.coeffs, a)
                       for a, b in zip(specialised, over_q)):
                    res["error"] = f"Q(L) result at L={lam0} differs from the Q result"
            except Exception:
                res["error"] = traceback.format_exc(limit=3)
            checked += 1
            break


def _padded(coeffs, other):
    """coeffs with zeros appended up to the length of other (Poly drops them)."""
    return list(coeffs) + [0] * (len(other) - len(coeffs))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
