"""Check the pinned outputs of ``umbralkit.cli`` listed in tests/data/pins.txt.

Each pin is a data file in tests/data and the argvs whose joined stdout it
records (the head of pins.txt says how).  The script runs every argv as its
own ``python -S -m umbralkit.cli`` process, with the repository's ``src``
first on PYTHONPATH, and prints one line per pin with its wall time:

    python -S tests/pins.py

It exits 0 when every pin matches and 1 when any differs.  It takes no
arguments and never writes a data file: a new pin is recorded by hand at the
parent commit, before any change under ``src``.  Stdlib only; pytest does
not collect it (its name does not start with ``test_``), and
tests/test_pins.py runs the same table in process through ``differing``.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
SRC = DATA.parents[1] / "src"


def read_pins() -> dict[str, list[list[str]]]:
    """{data file: its argvs in table order}, the files in order of first line."""
    pins: dict[str, list[list[str]]] = {}
    for line in (DATA / "pins.txt").read_text().splitlines():
        words = shlex.split(line, comments=True)
        if words:
            pins.setdefault(words[0], []).append(words[1:])
    return pins


def recorded(name: str, stdout: bytes) -> bytes:
    """What the data file ``name`` holds for a pin whose joined stdout is
    ``stdout``: its SHA-256 digest and a newline for a .sha256 file, the
    bytes themselves for any other."""
    if name.endswith(".sha256"):
        return (hashlib.sha256(stdout).hexdigest() + "\n").encode()
    return stdout


def differing(outputs: dict[str, tuple[list[int], bytes]],
              expected: dict[str, bytes]) -> list[str]:
    """The pins of ``outputs`` ({data file: (exit codes, joined stdout)}), in
    its order, that do not match: an argv exited nonzero, or the stdout is
    not what ``expected`` ({data file: its bytes}) records."""
    return [name for name, (codes, stdout) in outputs.items()
            if any(codes) or recorded(name, stdout) != expected[name]]


def main() -> int:
    if sys.argv[1:]:
        print("usage: python -S tests/pins.py (it takes no arguments)", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    pins, bad = read_pins(), []
    for name, argvs in pins.items():
        start = time.perf_counter()
        runs = [subprocess.run([sys.executable, "-S", "-m", "umbralkit.cli", *argv],
                               capture_output=True, env=env) for argv in argvs]
        wall = time.perf_counter() - start
        output = ([run.returncode for run in runs], b"".join(run.stdout for run in runs))
        differs = differing({name: output}, {name: (DATA / name).read_bytes()})
        bad += differs
        print(f"{'DIFFERS' if differs else 'ok':7} {wall:7.2f} s  {name} ({len(argvs)} argv)",
              flush=True)
        for run in runs:
            if run.returncode:
                sys.stderr.write(f"  exit {run.returncode}: {run.stderr.decode(errors='replace')}")
    print(f"{len(bad)} of {len(pins)} pins differ" + "".join(f"\n  {name}" for name in bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
