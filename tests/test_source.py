"""Source checks that need no linter: only the stdlib ``ast`` module."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for folder in ("src/acmcurves", "scripts", "tests")
    for path in (ROOT / folder).rglob("*.py")
)
# the library and its scripts
LIBRARY = [path for path in SOURCES if path.relative_to(ROOT).parts[0] != "tests"]


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


def private_definitions(body: list[ast.stmt]) -> list[tuple[str, int]]:
    """(name, line) of each module-level private name (`_x`, not a
    dunder) that a `def`, a `class` or an assignment binds."""
    found = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node.lineno) for target in targets
                      for t in ast.walk(target)
                      if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]
    return [(name, line) for name, line in found
            if name.startswith("_") and not name.startswith("__")]


def dead_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """`where:name (line n)` of each module-level private name that no
    tree reads: not by name, as an attribute, nor in an import.  Such a
    helper is dead code, left behind by a simplification."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [f"{where}:{name} (line {line})"
            for where, tree in trees.items()
            for name, line in private_definitions(tree.body) if name not in read]


def module_imports(node: ast.AST):
    """Each import statement at module level: in the module body and under
    its `if`, `try`, `with` and loop statements, not in a function or a
    class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from module_imports(child)


def dead_imports(tree: ast.Module) -> list[str]:
    """`name (line n)` of each name a module-level import binds that
    nothing in the module reads, annotations included.  `from __future__`
    imports bind no name a module reads, so they are not counted."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [f"{bound} (line {node.lineno})"
            for node in module_imports(tree)
            if not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
            for bound in [alias.asname or alias.name.partition(".")[0]]
            if bound not in read]


def unchecked_builds(node: ast.AST, scope: tuple[str, ...] = (),
                     own: str | None = None) -> list[tuple[str, str, int]]:
    """(function, record, line) of each `tuple.__new__(record, ...)` call
    that skips the record's constructor: every one but those in a class's
    own `__new__` whose first argument is that method's `cls`, which build
    the record after its checks.  `function` is the dotted name of the
    enclosing definitions."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            found += unchecked_builds(child, scope + (child.name,))
            continue
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = child.args.args
            is_new = isinstance(node, ast.ClassDef) and child.name == "__new__" and params
            found += unchecked_builds(child, scope + (child.name,),
                                      params[0].arg if is_new else None)
            continue
        func = child.func if isinstance(child, ast.Call) else None
        if (isinstance(func, ast.Attribute) and func.attr == "__new__"
                and isinstance(func.value, ast.Name) and func.value.id == "tuple"):
            first = child.args[0] if child.args else None
            if not (own and isinstance(first, ast.Name) and first.id == own):
                found.append((".".join(scope), ast.unparse(first) if first else "", child.lineno))
        found += unchecked_builds(child, scope, own)
    return found


# (module, function, record) -> why that `tuple.__new__` may skip the
# record's constructor: each site establishes the constructor's fact itself
UNCHECKED_BUILDS = {
    ("resolutions", "_sorted_table", "BettiTable"):
        "each caller refuses its one nonpositive twist first and builds its twists in "
        "ascending order",
    ("classifier", "classify_quartic", "DivisorClass"):
        "DivisorClass checks nothing",
    ("classifier", "classify_quartic.emit", "CurveInvariants"):
        "_invariants refuses a degree below 1, the constructor's one check",
    ("classifier", "classify_quartic.emit", "ClassificationEntry"):
        "ClassificationEntry checks nothing, and all nine fields are given",
    ("enumeration", "enumerate_kinds", "KindSignature"):
        "KindSignature checks nothing, and both fields are given",
    ("enumeration", "enumerate_kinds", "KindEntry"):
        "KindEntry checks nothing, and all three fields are given; its representative is "
        "built by WeakAdmissiblePair, which checks the pair",
    ("liaison", "residual_invariants", "CurveInvariants"):
        "it refuses a residual degree below 1 first, the constructor's one check",
}


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


def test_no_private_name_is_dead():
    # the library and its scripts must use their own helpers: a helper
    # only a test reads is dead too
    trees = {
        path.relative_to(ROOT).as_posix(): ast.parse(path.read_text(), filename=str(path))
        for path in LIBRARY
    }
    assert "src/acmcurves/classifier.py" in trees
    assert dead_private_names(trees) == []


def test_a_dead_private_name_is_found():
    trees = {
        "m": ast.parse(
            "def _called(): pass\n"
            "def _dead(): pass\n"
            "class _Dead: pass\n"
            "_DEAD, _USED = 1, 2\n"
            "_imported = _attribute = 3\n"
            "def __dunder__(): pass\n"
            "def public(): return _called() + _USED\n"
        ),
        "n": ast.parse("from m import _imported\nimport m\nm._attribute\n"),
    }
    assert dead_private_names(trees) == ["m:_dead (line 2)", "m:_Dead (line 3)",
                                         "m:_DEAD (line 4)"]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_import_is_dead(path):
    # an import left behind by a simplification still costs start-up time
    tree = ast.parse(path.read_text(), filename=str(path))
    assert dead_imports(tree) == []


def test_a_dead_import_is_found():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import json.decoder\n"
        "from .liaison import CiProfile, residual_invariants\n"
        "TYPE_CHECKING = False\n"
        "if TYPE_CHECKING:\n"
        "    from .pairs import Pair, Unread\n"
        "def f(p: Pair) -> int:\n"
        "    import math\n"
        "    return residual_invariants(json)\n"
    )
    assert dead_imports(tree) == ["os (line 2)", "osp (line 2)", "CiProfile (line 4)",
                                  "Unread (line 7)"]


def test_every_unchecked_build_is_listed():
    # a record is built through its constructor except at the listed sites;
    # a stale entry fails too, so the list stays the sites themselves
    found = {
        (path.stem, function, record)
        for path in LIBRARY if path.relative_to(ROOT).parts[:2] == ("src", "acmcurves")
        for function, record, _ in unchecked_builds(ast.parse(path.read_text(), filename=str(path)))
    }
    assert found == set(UNCHECKED_BUILDS)


def test_an_unlisted_build_is_found():
    tree = ast.parse(
        "class R(tuple):\n"
        "    def __new__(cls, x):\n"
        "        if x < 1:\n"
        "            raise ValueError(x)\n"
        "        return tuple.__new__(cls, (x,))\n"
        "    def again(self):\n"
        "        return tuple.__new__(R, (1,))\n"
        "class S(tuple):\n"
        "    def __new__(cls, x):\n"
        "        return tuple.__new__(R, (x,))\n"
        "def outer():\n"
        "    def inner():\n"
        "        return tuple.__new__(type(R), ())\n"
        "    return [tuple.__new__(R, (k,)) for k in range(3)]\n"
        "R.__new__(R, 1), tuple(R), tuple.__new__(S, (2,))\n"
    )
    assert unchecked_builds(tree) == [("R.again", "R", 7), ("S.__new__", "R", 10),
                                      ("outer.inner", "type(R)", 13), ("outer", "R", 14),
                                      ("", "S", 15)]


# the caching decorators of `functools`
CACHING = frozenset({"lru_cache", "cache", "cached_property"})


def caches(node: ast.AST, scope: tuple[str, ...] = (), names: frozenset[str] = CACHING,
           modules: frozenset[str] = frozenset({"functools"})) -> list[tuple[str, int]]:
    """(function, line) of each decorator that is a `functools` cache:
    `lru_cache`, `cache` or `cached_property`, called or not, bare or as an
    attribute of `functools`, under any name an import bound it to.
    `function` is the dotted name of the decorated definition."""
    if isinstance(node, ast.Module):
        for child in ast.walk(node):
            if isinstance(child, ast.ImportFrom) and child.module == "functools":
                names |= {a.asname for a in child.names if a.name in CACHING and a.asname}
            elif isinstance(child, ast.Import):
                modules |= {a.asname for a in child.names if a.name == "functools" and a.asname}
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for decorator in child.decorator_list:
                expr = decorator.func if isinstance(decorator, ast.Call) else decorator
                if (isinstance(expr, ast.Name) and expr.id in names
                        or isinstance(expr, ast.Attribute) and expr.attr in CACHING
                        and isinstance(expr.value, ast.Name) and expr.value.id in modules):
                    found.append((".".join(scope + (child.name,)), decorator.lineno))
            found += caches(child, scope + (child.name,), names, modules)
        else:
            found += caches(child, scope, names, modules)
    return found


# (module, function) -> the measured traffic that pays for a `functools`
# cache there.  Empty: the caches that pay (the signature row store of
# `enumeration`, the row texts of `cli._catalog_json` and the distinct
# rows of `pairs.degree_matrix`) are plain dicts, each with its measured
# reason beside it
CACHES: dict[tuple[str, str], str] = {}


def test_every_cache_is_listed():
    # a cache is process state and code to keep: one that no traffic pays
    # for, or one that hands its callers a shared mutable value, is a cost
    found = {
        (path.stem, function)
        for path in LIBRARY
        for function, _ in caches(ast.parse(path.read_text(), filename=str(path)))
    }
    assert found == set(CACHES)


def test_an_unlisted_cache_is_found():
    tree = ast.parse(
        "import functools\n"
        "import functools as ft\n"
        "from functools import lru_cache, cache as memo, cached_property, partial\n"
        "@lru_cache(maxsize=1)\n"
        "def raw(): pass\n"
        "@functools.cache\n"
        "def kinds(): pass\n"
        "class Lattice:\n"
        "    @cached_property\n"
        "    def det(self): pass\n"
        "    @staticmethod\n"
        "    @ft.lru_cache(maxsize=None)\n"
        "    def solve(): pass\n"
        "if True:\n"
        "    @memo\n"
        "    def table(): pass\n"
        "@partial(print)\n"
        "def plain(): pass\n"
        "def outer():\n"
        "    @functools.lru_cache\n"
        "    def inner(): pass\n"
        "    return inner, tuple.cache, lru_cache\n"
    )
    assert caches(tree) == [("raw", 4), ("kinds", 6), ("Lattice.det", 9),
                            ("Lattice.solve", 12), ("table", 15), ("outer.inner", 20)]


def collector_uses(node: ast.AST, scope: tuple[str, ...] = (),
                   names: frozenset[str] = frozenset({"gc"})) -> list[tuple[str, int]]:
    """(function, line) of each place that touches the `gc` module: an
    `import gc` (under any name), a `from gc import ...` and each
    attribute read of a name an import bound to `gc`.  `function` is the
    dotted name of the enclosing definitions, "" at module level."""
    if isinstance(node, ast.Module):
        names = names | {alias.asname for child in ast.walk(node)
                         if isinstance(child, ast.Import)
                         for alias in child.names if alias.name == "gc" and alias.asname}
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += collector_uses(child, scope + (child.name,), names)
            continue
        if (isinstance(child, ast.Import) and any(a.name == "gc" for a in child.names)
                or isinstance(child, ast.ImportFrom) and child.module == "gc"
                or isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
                and child.value.id in names):
            found.append((".".join(scope), child.lineno))
        found += collector_uses(child, scope, names)
    return found


# the one site of the library and its scripts that touches the cyclic
# garbage collector: `enumerate_kinds`, which builds a catalog with the
# collector paused, and the import of its module
COLLECTOR_SITE = {("enumeration", ""), ("enumeration", "enumerate_kinds")}


def test_one_site_touches_the_collector():
    # the collector is process state: a second site could undo the
    # catalog's pause, or leave the collector off for the caller
    found = {
        (path.stem, function)
        for path in LIBRARY
        for function, _ in collector_uses(ast.parse(path.read_text(), filename=str(path)))
    }
    assert found == COLLECTOR_SITE


def test_a_second_collector_site_is_found():
    tree = ast.parse(
        "import gc\n"
        "import gc as collector\n"
        "def build():\n"
        "    gc.disable()\n"
        "class Owner:\n"
        "    def main(self):\n"
        "        from gc import freeze\n"
        "        collector.freeze()\n"
        "def unrelated(gc_count):\n"
        "    return gc_count.disable\n"
    )
    assert collector_uses(tree) == [("", 1), ("", 2), ("build", 4), ("Owner.main", 7),
                                    ("Owner.main", 8)]


def method(tree: ast.Module, cls: str, name: str) -> ast.FunctionDef:
    [node] = [node for c in tree.body if isinstance(c, ast.ClassDef) and c.name == cls
              for node in c.body if isinstance(node, ast.FunctionDef) and node.name == name]
    return node


def to_json_keys(tree: ast.Module, cls: str) -> set[str]:
    """The keys `cls.to_json` writes: those of its dict displays and of its
    `doc["key"] = ...` assignments."""
    keys = set()
    for node in ast.walk(method(tree, cls, "to_json")):
        if isinstance(node, ast.Dict):
            keys |= {k.value for k in node.keys if isinstance(k, ast.Constant)}
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            keys.add(node.slice.value)
    return keys


def writer_keys(tree: ast.Module, function: str) -> set[str]:
    """Each `"key": ` that the module-level `function` writes: in its own
    strings and in the module-level templates it reads."""
    [writer] = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == function]
    names = {node.id for node in ast.walk(writer) if isinstance(node, ast.Name)}
    templates = [node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id in names for t in node.targets)]
    text = "".join(node.value for part in [writer, *templates] for node in ast.walk(part)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str))
    return set(re.findall(r'"(\w+)": ', text))


# each streaming writer of `cli` -> the records whose `to_json` documents
# it writes from its templates
WRITERS = {
    "_catalog_json": [("enumeration", "KindCatalog"), ("enumeration", "KindEntry"),
                      ("pairs", "KindSignature"), ("pairs", "WeakAdmissiblePair")],
    "_entries_json": [("classifier", "ClassificationEntry"), ("resolutions", "BettiTable")],
}


def test_every_to_json_key_is_written():
    # a key added to a `to_json` and not to its writer would be missing from
    # the streamed JSON of `pairs enumerate` or `classify quartic`
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in LIBRARY if path.parent.name == "acmcurves"}
    for function, records in WRITERS.items():
        wanted = set().union(*(to_json_keys(trees[m], c) for m, c in records))
        assert writer_keys(trees["cli"], function) == wanted, function


def test_a_key_the_writer_lacks_is_found():
    tree = ast.parse(
        "_ROW = '{{\\n  \"a\": {},\\n  \"b\": {}\\n}}'\n"
        "class R(tuple):\n"
        "    def to_json(self):\n"
        "        doc = {'a': 1, 'b': [2]}\n"
        "        doc['c'] = 3\n"
        "        return doc\n"
        "def _r_json(r):\n"
        "    yield _ROW.format(1, 2)\n"
    )
    assert to_json_keys(tree, "R") == {"a", "b", "c"}
    assert writer_keys(tree, "_r_json") == {"a", "b"}
