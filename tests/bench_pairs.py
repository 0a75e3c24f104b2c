"""Compare two checkouts on one benchmark workload, in alternating pairs.

Usage: ``python tests/bench_pairs.py PARENT CHANGE --workload W --pairs N``.

PARENT and CHANGE are checkouts of the repository.  Pair i (1 .. N) runs
``perfbench/run.py --workload W --seed 40+i --seconds 44 --trace 0`` once in
each, the same interpreter and settings on both sides; the side that runs
first alternates from pair to pair, so a host that drifts during the
session weighs on both alike.  Every run's metrics are printed as it ends.

At the end, for each end-to-end metric named in CHANGE's
``BENCHMARK.json``, it prints the parent's median and quartiles, the
change's median and quartiles, the ratio of the medians, and the pairs the
change won (ties count for neither side).  A gain is shown when the change
wins at least nine tenths of the pairs and the medians differ by more than
the distance between the parent's quartiles; the last column says whether
that holds.  A run that fails, or reads ``correct: false``, stops the
comparison with exit code 1.

Stdlib only; pytest does not collect it (its name does not start with
``test_``), and it writes nothing under either checkout's ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SECONDS = 44
FIRST_SEED = 40


def run(checkout: str, workload: str, seed: int) -> dict:
    """The metrics of one untraced benchmark run in ``checkout``, by name."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    out = json.loads(lines[-1])
    if not out["correct"] or out["failed"]:
        sys.exit(f"{checkout}: seed {seed}: {out['failed']} of {out['attempted']} failed\n"
                 + "\n".join(lines[:-1]))
    return {name: m["value"] for name, m in out["metrics"].items()}


def quartiles(values):
    """(q1, median, q3) of the values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args()
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        metrics = [(m["name"], m["better"]) for m in json.load(f)["end_to_end"]]

    runs = {"parent": [], "change": []}
    for i in range(1, args.pairs + 1):
        seed = FIRST_SEED + i
        order = ["parent", "change"] if i % 2 else ["change", "parent"]
        for side in order:
            runs[side].append(run(getattr(args, side), args.workload, seed))
            values = " ".join(f"{name}={runs[side][-1][name]:.6g}" for name, _ in metrics)
            print(f"pair {i} seed {seed} {side}: {values}", flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs, seeds {FIRST_SEED + 1}-"
          f"{FIRST_SEED + args.pairs}, --seconds {SECONDS}")
    print(f"{'metric':15s} {'parent q1 / median / q3':>32s} {'change q1 / median / q3':>32s}"
          f" {'ratio':>7s} {'won':>6s}  gain shown")
    for name, better in metrics:
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        sign = 1 if better == "higher" else -1
        won = sum(sign * (y - x) > 0 for x, y in zip(p, c))
        pq, cq = quartiles(p), quartiles(c)
        shown = won >= 0.9 * len(p) and sign * (cq[1] - pq[1]) > pq[2] - pq[0]
        print(f"{name:15s} {' / '.join(f'{v:.4g}' for v in pq):>32s}"
              f" {' / '.join(f'{v:.4g}' for v in cq):>32s}"
              f" {cq[1] / pq[1]:7.3f} {won:>3d}/{len(p):<2d}  {'yes' if shown else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
