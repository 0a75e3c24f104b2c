"""Record the digest of every operation's canonical output into digests.json.

    python3 perfbench/record_digests.py [WORKLOAD ...]

Run it at a commit whose outputs are trusted (the table in the repository
was recorded at the commit that added the benchmark).  It enumerates every
operation any seed can draw, runs each once, and fails if any of them fails
its own checks.  It takes a few minutes; naming workloads re-records only
those and keeps the rest of the table.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as wl  # noqa: E402


def main(names) -> int:
    path = os.path.join(HERE, "digests.json")
    table = {}
    if names and os.path.exists(path):
        with open(path) as fh:
            table = json.load(fh)
    for workload in names or wl.WORKLOADS:
        entries = {}
        for op in wl.universe(workload):
            output, error, _ = wl.run_op(ROOT, op)
            if error:
                print(f"{wl.op_id(op)}: {error}", file=sys.stderr)
                return 1
            entries[wl.op_id(op)] = wl.digest(wl.canonical_text(op, output))
        print(f"{workload}: {len(entries)} operations", flush=True)
        table[workload] = entries
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
