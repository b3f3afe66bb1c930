"""Every imported name in the package and the tests is used, and every
name a module lists in `__all__` is bound in it."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list:
    """Names bound by import statements that nothing in the module reads.

    `from __future__` imports are skipped and names listed in `__all__`
    count as used.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def stale_exports(source: str) -> list:
    """Names listed in `__all__` that no top-level statement binds."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(t.id for t in targets if isinstance(t, ast.Name))
    return sorted(_exported(tree) - bound)


def _sources():
    return sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport math\nimport os\n" \
             "from typing import Any, List\n__all__ = ['Any']\nos.sep\n"
    assert unused_imports(source) == [(2, "math"), (4, "List")]


def test_no_unused_imports_in_src_and_tests():
    found = []
    for path in _sources():
        for line, name in unused_imports(path.read_text(encoding="utf-8")):
            found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


def test_stale_exports_are_found():
    source = "import os\nfrom math import pi as tau\nX: int = 1\nY = 2\n" \
             "def f():\n    gone = 1\nclass C:\n    pass\n" \
             "__all__ = ['os', 'tau', 'X', 'Y', 'f', 'C', 'gone', 'pi']\n"
    assert stale_exports(source) == ["gone", "pi"]


def test_every_export_is_bound():
    found = []
    for path in _sources():
        for name in stale_exports(path.read_text(encoding="utf-8")):
            found.append(f"{path.relative_to(ROOT)}: {name}")
    assert not found, "names in __all__ but not bound:\n" + "\n".join(found)
