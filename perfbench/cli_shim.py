"""`python -m umbralkit.cli ARGS` with the benchmark's spans installed.

    python3 perfbench/cli_shim.py ARGS...

Used by traced runs of the cli workload.  Standard output and the exit code
are the CLI's own; the spans, cache counts and the in-process times of the
import and of ``main`` go to standard error as one line after TRACE_MARKER.
"""

import json
import os
import sys
from time import perf_counter

from tracing import TRACE_MARKER, Tracer

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

start = perf_counter()
import umbralkit.cli as cli  # noqa: E402

import_s = perf_counter() - start
tracer = Tracer().install()
start = perf_counter()
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:  # argparse usage errors
    code = exc.code if isinstance(exc.code, int) else 2
main_s = perf_counter() - start
tracer.remove()
sys.stdout.flush()
trace = {**tracer.snapshot(), "import_s": import_s, "main_s": main_s}
sys.stderr.write(TRACE_MARKER + json.dumps(trace) + "\n")
sys.exit(code)
