"""Closed-loop benchmark of umbralkit: one client, one operation at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass of a workload runs in a fresh worker interpreter (worker.py), so
the module lru_caches start cold, as they do for every CLI user.  A run makes
round(S / PASS_S) passes, at least three, so it measures about S seconds
(longer where three passes take longer).  The pass count does not depend on
the speed of the code or the seed, which keeps the operations, the sample
count and with them the tail percentile the same for every run of a
workload.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 the same passes run with spans installed
and it holds the per-layer metrics.  Lines before it, starting with '#',
give the machine, the tail percentile and any failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# seconds budgeted to one pass: a run makes round(seconds / PASS_S) passes,
# MIN_PASSES at least, 4 and 20 at --seconds 44.  On a 2-vCPU Intel Xeon
# virtual machine with Python 3.11.7 a sheffer_q_lambda pass took 11-18 s and
# a cli pass 0.8-2.3 s as the shared host sped up and slowed down.
PASS_S = {"sheffer_q_lambda": 11.0, "cli": 2.2}
# a run of sheffer_q_lambda sums at least three parameter draws, and its tail
# rank (p76 of 42 samples, p82 of 56) falls inside its T2/T6 group
MIN_PASSES = 3
SETUP_SAMPLES = 10
CLI_PROBES = 5
# a run gives up, without a result, when a worker is still busy this many
# seconds after the run started
DEADLINE_S = 170
IDENTITY_TAGS = ("T2", "T3", "T4", "C5", "R27", "T6", "T7", "R35",
                 "P8", "T9", "R42", "T10", "DAE", "E14", "E25")
CALL_SPANS = ("fields.ratfunc_add", "fields.ratfunc_mul", "fields.ratfunc_div",
              "series.mul", "series.inverse", "series.compose", "series.revert",
              "series.exp", "series.log", "series.pow_int", "poly.mul", "poly.add",
              "umbral.operator_apply", "umbral.functional_apply")
TIME_SPANS = ("umbral.sheffer_gf", "umbral.sheffer_transfer_all",
              "umbral.orthogonality_failure", "families.pair_build", "families.polys",
              "dsl.parse", "dsl.eval") + tuple(f"identities.{t}" for t in IDENTITY_TAGS)
CLI_COMMANDS = ("expand", "family", "sheffer", "verify")


def child_env() -> dict:
    """Workers and CLI processes keep compiled bytecode inside the checkout,
    so every start after the warm-up imports from .pyc, as an installed
    package does."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(ROOT, ".bench_build", "pycache")
    return env


def spawn(env, deadline, workload, seed, passes, pass_index, trace):
    """Run one worker; returns (seconds until it was ready, its JSON result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, workload,
           str(seed), str(passes), str(pass_index), "1" if trace else "0"]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        setup = perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
        code = proc.returncode
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != b"ready" or code != 0:
        raise RuntimeError(f"worker {workload} pass {pass_index} failed (exit {code})")
    return setup, (json.loads(rest.splitlines()[-1]) if pass_index >= 0 else None)


def tail(values):
    """(value, percentile, samples beyond) for the highest whole percentile
    with at least ten samples beyond it (nearest rank)."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100, 0
    pct = 100 * (n - 10) // n
    rank = max(1, -(-pct * n // 100))
    return xs[rank - 1], pct, n - rank


def probe(env, code):
    """Wall time and stdout of `python -c code` with umbralkit importable."""
    env = {**env, "PYTHONPATH": os.path.join(ROOT, "src")}
    start = perf_counter()
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, check=True, timeout=60)
    return perf_counter() - start, out.stdout


def cli_probes(env):
    """Median interpreter start (`python -c pass`) and, apart from it, the
    in-process time of `import umbralkit.cli`."""
    start = [probe(env, "pass")[0] for _ in range(CLI_PROBES)]
    timed_import = ("import time; s = time.perf_counter(); import umbralkit.cli; "
                    "print(time.perf_counter() - s)")
    imports = [float(probe(env, timed_import)[1]) for _ in range(CLI_PROBES)]
    return statistics.median(start), statistics.median(imports)


def _ratio(counts):
    hits, misses = counts or (0, 0)
    return hits / (hits + misses) if hits + misses else 0.0


def merge_cli_traces(traces):
    """Sum the shim traces of one pass into one snapshot."""
    out = {"calls": {}, "self_s": {}, "incl_s": {}, "not_ok": 0, "caches": {},
           "out_max_bits": 0, "out_max_L_degree": 0}
    for tr in traces:
        for key in ("calls", "self_s", "incl_s"):
            for span, v in tr[key].items():
                out[key][span] = out[key].get(span, 0) + v
        for mod, (h, m) in tr["caches"].items():
            h0, m0 = out["caches"].get(mod, (0, 0))
            out["caches"][mod] = (h0 + h, m0 + m)
        out["not_ok"] += tr["not_ok"]
        out["out_max_bits"] = max(out["out_max_bits"], tr["out_max_bits"])
        out["out_max_L_degree"] = max(out["out_max_L_degree"], tr["out_max_L_degree"])
    return out


def pass_layers(result) -> dict:
    """Per-layer values of one traced pass."""
    ops = result["ops"]
    traces = result["cli_traces"]
    snap = merge_cli_traces([t for t in traces if t]) if traces is not None else result["layers"]
    m = {}
    for span in CALL_SPANS:
        m[f"{span}.calls"] = snap["calls"].get(span, 0)
        m[f"{span}.self_s"] = snap["self_s"].get(span, 0.0)
    for span in TIME_SPANS:
        m[f"{span}.s"] = snap["incl_s"].get(span, 0.0)
    m["fields.out_max_bits"] = snap["out_max_bits"]
    m["fields.out_max_L_degree"] = snap["out_max_L_degree"]
    m["families.cache_hit_ratio"] = _ratio(snap["caches"].get("families"))
    m["identities.cache_hit_ratio"] = _ratio(snap["caches"].get("identities"))
    m["identities.not_ok"] = snap["not_ok"]
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = 0.0
    mismatch = 0
    for op, tr in zip(ops, traces or ()):
        command = json.loads(op["id"][len("CLI:"):])[0]
        m[f"cli.{command}.s"] += tr["main_s"] if tr else 0.0
        mismatch += op.get("exit") != 0
    m["cli.exit_mismatch"] = mismatch
    return m


def machine() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return f"python {platform.python_version()}, nproc {nproc}, cpu {cpu}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "umbralkit", "__init__.py")):
        print(f"no umbralkit sources under {ROOT}/src", file=sys.stderr)
        return 2

    env = child_env()
    deadline = perf_counter() + DEADLINE_S
    passes = max(MIN_PASSES, round(args.seconds / PASS_S[args.workload]))
    # warm-up, not timed: fills the bytecode cache for the worker and the CLI
    spawn(env, deadline, args.workload, args.seed, passes, -1, False)
    probe(env, "import umbralkit.cli")
    setups = []
    if not args.trace:
        setups = [spawn(env, deadline, args.workload, args.seed, passes, -1, False)[0]
                  for _ in range(SETUP_SAMPLES)]
    results = []
    for i in range(passes):
        setup, result = spawn(env, deadline, args.workload, args.seed, passes, i, args.trace)
        setups.append(setup)
        results.append(result)

    ops = [op for r in results for op in r["ops"]]
    failed = [op for op in ops if op["error"]]
    latencies = [op["latency"] for op in ops]
    ops_per_s = len(ops) / sum(latencies)
    print(f"# {machine()}")
    print(f"# {args.workload}: seed {args.seed}, {passes} passes, {len(ops)} operations, "
          f"{len(failed)} failed")
    for op in failed[:10]:
        print(f"# failed {op['id']}: {op['error'].strip().splitlines()[-1]}")

    if args.trace:
        per_pass = [pass_layers(r) for r in results]
        values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        values["cli.interp_start_s"], values["cli.import_s"] = cli_probes(env)
        values["error_rate"] = len(failed) / len(ops)
        values["trace.ops_per_s"] = ops_per_s
    else:
        value, pct, beyond = tail(latencies)
        print(f"# latency_tail_s is p{pct} of {len(ops)} samples ({beyond} beyond it)")
        values = {
            "ops_per_s": ops_per_s,
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": value,
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(r["peak_rss_kib"] for r in results) / 1024,
        }
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in sorted(values.items())}
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def _units():
    units = {"ops_per_s": "1/s", "latency_p50_s": "s", "latency_tail_s": "s",
             "setup_s": "s", "peak_rss_mib": "MiB", "error_rate": "ratio",
             "trace.ops_per_s": "1/s", "fields.out_max_bits": "bits",
             "fields.out_max_L_degree": "degree", "families.cache_hit_ratio": "ratio",
             "identities.cache_hit_ratio": "ratio", "identities.not_ok": "count",
             "cli.exit_mismatch": "count", "cli.interp_start_s": "s", "cli.import_s": "s"}
    for span in CALL_SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    for span in TIME_SPANS + tuple(f"cli.{c}" for c in CLI_COMMANDS):
        units[f"{span}.s"] = "s"
    return units


UNITS = _units()

if __name__ == "__main__":
    sys.exit(main())
