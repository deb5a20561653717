"""Source checks that need no linter: only the stdlib ``ast`` module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for folder in ("src/acmcurves", "scripts", "tests")
    for path in (ROOT / folder).rglob("*.py")
)


def shadowed_definitions(body: list[ast.stmt], scope: str = "") -> list[str]:
    """`scope.name` of each `def` or `class` that rebinds a name an
    earlier `def` or `class` of the same body bound, in a module body and
    in every class body under it.  The earlier one is dead code: a
    shadowed test function or method never runs."""
    seen = set()
    found = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in seen:
                found.append(f"{scope}{node.name} (line {node.lineno})")
            seen.add(node.name)
        if isinstance(node, ast.ClassDef):
            found += shadowed_definitions(node.body, f"{scope}{node.name}.")
    return found


def test_the_sources_are_found():
    names = {path.relative_to(ROOT).as_posix() for path in SOURCES}
    assert {"src/acmcurves/classifier.py", "scripts/reproduce_all.py",
            "tests/test_source.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_definition_is_shadowed(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert shadowed_definitions(tree.body) == []


def test_a_shadowed_definition_is_found():
    tree = ast.parse(
        "def built(): pass\n"
        "class T:\n"
        "    def test_a(self): pass\n"
        "    def test_a(self): pass\n"
        "def built(): pass\n"
    )
    assert shadowed_definitions(tree.body) == ["T.test_a (line 4)", "built (line 5)"]
