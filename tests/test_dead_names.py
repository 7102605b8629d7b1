"""No dead names in the package: every top-level def, class or assignment of
a `src/music_sim` module is loaded somewhere in `src/`, `tests/` or
`perfbench/`, and every import a module makes is used by that module.

A top-level name counts as loaded where its own module loads it as a
variable, and anywhere it is loaded as an attribute (`protocols.route`) or
named in a `from ... import`. Dunder names are exempt, and so is
`__init__.py`, whose imports are the package's API.

A method (a def in a class body) counts as used where it is loaded as an
attribute, or named by a string in `perfbench/`, which is how the
benchmark's tracer names the methods it wraps."""

from __future__ import annotations

import ast
from pathlib import Path

import music_sim

PACKAGE = Path(music_sim.__file__).parent
ROOT = PACKAGE.parent.parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _variables(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _imported_or_attributes(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _sources(*dirs: str) -> list[Path]:
    return [p for d in dirs for p in (ROOT / d).rglob("*.py")]


def _loaded_from_anywhere() -> set[str]:
    files = _sources("src", "tests", "perfbench")
    assert PACKAGE / "protocols.py" in files
    return set().union(*(_imported_or_attributes(_tree(p)) for p in files))


def _strings(tree: ast.AST) -> set[str]:
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def _top_level_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _imported_names(tree: ast.Module) -> list[str]:
    """The name each import binds in its module, `from __future__` aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def test_every_top_level_name_is_loaded_somewhere():
    anywhere = _loaded_from_anywhere()
    dead = []
    for path in MODULES:
        tree = _tree(path)
        loaded = anywhere | _variables(tree)
        dead += [f"{path.stem}.{name}" for name in _top_level_names(tree)
                 if name not in loaded]
    assert dead == []


def test_every_import_is_used_by_its_module():
    unused = []
    for path in MODULES:
        tree = _tree(path)
        used = _variables(tree)
        unused += [f"{path.stem}.{name}" for name in _imported_names(tree)
                   if name not in used]
    assert unused == []


def test_every_method_is_loaded_somewhere():
    used = _loaded_from_anywhere().union(*(_strings(_tree(p)) for p in _sources("perfbench")))
    dead = []
    for path in MODULES:
        for klass in ast.walk(_tree(path)):
            if isinstance(klass, ast.ClassDef):
                dead += [f"{path.stem}.{klass.name}.{node.name}" for node in klass.body
                         if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and not (node.name.startswith("__") and node.name.endswith("__"))
                         and node.name not in used]
    assert dead == []
