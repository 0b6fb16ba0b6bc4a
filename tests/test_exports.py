"""Every public name has a reader.

A name in `topoindex.__all__` stays only while the package itself, an
acceptance criterion or the benchmark tracer reads it.  A reader is a
reference outside the name's own definition: a name or attribute in
`src/topoindex` (the `__init__` export list aside) or
`tests/test_acceptance.py`, or a string naming it in `perfbench/tracer.py`,
which wraps its targets by name.  A mention inside its own function, such
as an error message, does not count.

Polar link factors have one home: no module but `_gauge` reads
`polar_unitary`, so the Wilson loops of `z2`, like every smooth gauge, take
their links from `_gauge.transport`.
"""

import ast
from functools import lru_cache
from pathlib import Path

import pytest

import topoindex

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [p for p in sorted((ROOT / "src" / "topoindex").glob("*.py")) if p.name != "__init__.py"]
READERS = SOURCES + [ROOT / "tests" / "test_acceptance.py"]


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text())


def _own_definitions(tree: ast.AST, name: str) -> set[int]:
    """ids of the nodes inside every def or class named `name`."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            inside.update(id(n) for n in ast.walk(node))
    return inside


def _reads(path: Path, name: str, strings: bool) -> bool:
    tree = _tree(path)
    own = _own_definitions(tree, name)
    for node in ast.walk(tree):
        if id(node) in own:
            continue
        if isinstance(node, ast.Name) and node.id == name \
                or isinstance(node, ast.Attribute) and node.attr == name \
                or strings and isinstance(node, ast.Constant) and node.value == name:
            return True
    return False


@pytest.mark.parametrize("name", topoindex.__all__)
def test_public_name_has_a_reader(name):
    readers = [p for p in READERS if _reads(p, name, strings=False)]
    if _reads(ROOT / "perfbench" / "tracer.py", name, strings=True):
        readers.append("perfbench/tracer.py")
    assert readers, f"{name} is exported but only tests read it"


@pytest.mark.parametrize("path", [p for p in sorted((ROOT / "src" / "topoindex").glob("*.py"))
                                  if p.name != "_gauge.py"], ids=lambda p: p.name)
def test_only_the_gauge_module_forms_polar_links(path):
    names = {alias.name for node in ast.walk(_tree(path)) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    assert "polar_unitary" not in names and not _reads(path, "polar_unitary", strings=False)
