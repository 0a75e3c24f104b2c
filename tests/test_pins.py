"""Every pin of tests/data/pins.txt run in process through ``cli.main``, with
the package's kept tables and caches emptied before each pin as in a new
process; and the check itself: one flipped byte of any pin's data fails
that pin and no other."""

import io
import sys
from contextlib import redirect_stdout

import pytest

from umbralkit import cli

from pins import DATA, differing, read_pins

PINS = read_pins()
EXPECTED = {name: (DATA / name).read_bytes() for name in PINS}


def _clear_tables():
    """Empty every ``series._kept`` table and every ``lru_cache`` of the
    package: all of them expose ``cache_clear()``."""
    for name, module in list(sys.modules.items()):
        if name.startswith("umbralkit."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.fixture(scope="module")
def outputs():
    """{data file: (exit codes, joined stdout)}: each pin runs once."""
    return {}


def run_pin(outputs, name):
    """(exit codes, joined stdout) of the pin's argvs through ``cli.main``."""
    if name not in outputs:
        _clear_tables()
        codes, stdout = [], io.BytesIO()
        for argv in PINS[name]:
            out = io.TextIOWrapper(stdout, encoding="utf-8", newline="\n")
            with redirect_stdout(out):
                codes.append(cli.main(argv))
            out.detach()  # flushes; stdout stays open for the next argv
        outputs[name] = codes, stdout.getvalue()
    return outputs[name]


def test_the_table_names_each_data_file_it_pins():
    # every file but the public names (tests/test_package.py) and the table
    assert sorted(PINS) == sorted(p.name for p in DATA.iterdir()
                                  if p.name not in ("pins.txt", "public_names.txt"))


@pytest.mark.parametrize("name", list(PINS))
def test_pin(outputs, name):
    assert differing({name: run_pin(outputs, name)}, EXPECTED) == []


def test_a_flipped_byte_fails_its_pin_alone(outputs):
    ran = {name: run_pin(outputs, name) for name in PINS}
    assert differing(ran, EXPECTED) == []
    for name, data in EXPECTED.items():
        i = len(data) // 2
        flipped = data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]
        assert differing(ran, {**EXPECTED, name: flipped}) == [name]
