"""Run the README's library quickstart and check what it prints.

The quickstart is the ```python block under "## Library quickstart".  Each
``print(...)  # text`` line in it must print ``text``.  The script uses the
standard library only, so it shows that the documented library use needs
nothing else:

    PYTHONPATH=src python -S tests/readme_quickstart.py

It exits 0 when the block runs and every print matches its comment, and 1
otherwise.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
PRINT = re.compile(r"print\(.*\)\s+# (.*)")


def quickstart(readme: Path = README) -> str:
    """The code of the quickstart block."""
    section = readme.read_text().split("## Library quickstart\n", 1)[1]
    return re.match(r"\s*```python\n(.*?)^```", section, re.S | re.M).group(1)


def expected_output(code: str) -> list[str]:
    """The comment of each print line, in order; a print line without one
    is an error, so that no print goes unchecked."""
    out = []
    for line in code.splitlines():
        if line.startswith("print("):
            match = PRINT.fullmatch(line)
            if match is None:
                raise ValueError(f"quickstart print without its output comment: {line!r}")
            out.append(match.group(1))
    return out


def run(code: str) -> list[str]:
    """The lines the code prints, run as a fresh module."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(code, f"{README.name} quickstart", "exec"), {"__name__": "quickstart"})
    return buf.getvalue().splitlines()


def main() -> int:
    code = quickstart()
    want, got = expected_output(code), run(code)
    if got != want:
        print(f"quickstart printed {got!r}, its comments say {want!r}", file=sys.stderr)
        return 1
    print(f"README quickstart: {len(want)} print(s) as documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
