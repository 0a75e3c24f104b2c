"""The package's public surface: its name lists, the README's library
quickstart, and the pair entries the benchmark calls."""

import json
import sys
from pathlib import Path
from types import ModuleType

import umbralkit

from readme_quickstart import expected_output, quickstart, run

ROOT = Path(__file__).resolve().parents[1]


def test_all_lists_every_public_name_and_no_other():
    # an import and its __all__ entry are removed, or added, together
    public = {name for name, value in vars(umbralkit).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert sorted(umbralkit.__all__) == sorted(public)


def test_readme_quickstart_prints_its_comments():
    code = quickstart()
    want = expected_output(code)
    assert want
    assert run(code) == want


def test_benchmark_pair_entries_build_every_operation():
    # every Sheffer operation the benchmark can draw, built through
    # umbralkit.catalog_pair or umbralkit.bespoke_pair as perfbench does,
    # gives the output its digest table records
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads as wl
    finally:
        sys.path.pop(0)
    table = json.loads((ROOT / "perfbench" / "digests.json").read_text())["sheffer_q_lambda"]
    ops = wl.universe("sheffer_q_lambda")
    assert {op[1] for op in ops} == {"catalog", "bespoke"}
    assert sorted(map(wl.op_id, ops)) == sorted(table)
    for op in ops:
        output, error, _ = wl.run_op(str(ROOT), op)
        assert error is None, wl.op_id(op)
        assert wl.digest(wl.canonical_text(op, output)) == table[wl.op_id(op)], wl.op_id(op)
