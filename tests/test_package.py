"""The package's public surface: its name lists, the README's library
quickstart, and the pair entries the benchmark calls; and the code-line
count the repository's line figures come from."""

import ast
import importlib
import json
import sys
from pathlib import Path
from types import ModuleType

import umbralkit

from code_lines import code_lines
from readme_quickstart import expected_output, quickstart, run

ROOT = Path(__file__).resolve().parents[1]
# the modules whose public names the package exports, in its import order
PUBLIC_MODULES = ("errors", "fields", "series", "umbral", "families", "identities", "dsl")


def test_all_lists_every_public_name_and_no_other():
    # the package binds no public name beyond its modules' lists
    public = {name for name, value in vars(umbralkit).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert sorted(umbralkit.__all__) == sorted(public)


def test_public_names_are_the_recorded_surface():
    recorded = (ROOT / "tests" / "data" / "public_names.txt").read_text().splitlines()
    assert sorted(umbralkit.__all__) == recorded


def _top_level_names(tree):
    """(defined, imported): the names a module binds at its top level by a
    def, a class or an assignment, and those it binds by an import."""
    defined, imported = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return defined, imported


def test_each_module_lists_only_its_own_definitions():
    # every public name is listed once, by the module that defines it, and
    # the package's list is the modules' lists joined in import order
    joined = []
    for name in PUBLIC_MODULES:
        module = importlib.import_module(f"umbralkit.{name}")
        path = ROOT / "src" / "umbralkit" / f"{name}.py"
        defined, imported = _top_level_names(ast.parse(path.read_text()))
        listed = module.__all__
        assert len(set(listed)) == len(listed), name
        assert set(listed) <= defined - imported, (name, set(listed) - (defined - imported))
        for public in listed:
            assert getattr(umbralkit, public) is getattr(module, public), (name, public)
        joined += listed
    assert len(set(joined)) == len(joined)
    assert umbralkit.__all__ == joined


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


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    source = "\n".join([
        '"""Module docstring,',
        'two lines."""',
        "",
        "# a comment",
        "class A:",
        '    """Class docstring."""',
        "",
        "    def f(self):  # a trailing comment",
        '        """Function',
        '        docstring."""',
        '        text = """a string',
        "        on three",
        '        lines"""',
        "        return text",
        "",
    ])
    # class A, def f, the three lines of the string, and return
    assert code_lines(source) == 6
