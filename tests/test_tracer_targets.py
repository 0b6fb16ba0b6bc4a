"""The benchmark tracer's targets exist in the package.

`perfbench/run.py --trace 1` wraps functions and methods named in
`perfbench/tracer.py` and checks by-name bindings listed in
`perfbench/selftest.py`; a rename or a rebinding in `topoindex` would
otherwise drop a layer from traced runs without an error.  The perfbench
files are parsed, not imported: selftest imports the benchmark runner.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _table(filename: str, name: str) -> list[tuple]:
    """Rows of the module-level list `name` in a perfbench file; string
    constants are kept and every other element reads None."""
    tree = ast.parse((PERFBENCH / filename).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name
                                                for t in node.targets):
            return [tuple(e.value if isinstance(e, ast.Constant) else None for e in row.elts)
                    for row in node.value.elts]
    raise AssertionError(f"perfbench/{filename} defines no {name}")


@pytest.mark.parametrize("module,attr", [row[1:3] for row in _table("tracer.py", "FUNCTIONS")])
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("module,cls,method", [row[1:4] for row in _table("tracer.py", "METHODS")])
def test_traced_method_exists(module, cls, method):
    # the tracer replaces cls.__dict__[method], so the class itself must define it
    assert method in vars(getattr(importlib.import_module(module), cls))


@pytest.mark.parametrize("module,attr,home", _table("selftest.py", "BY_NAME"))
def test_by_name_binding_is_the_home_object(module, attr, home):
    bound = getattr(importlib.import_module(module), attr)
    assert bound is getattr(importlib.import_module(home), attr)
