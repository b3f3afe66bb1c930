"""Every imported name in the package and the tests is used."""

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


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport math\nimport os\n" \
             "from typing import Any, List\n__all__ = ['Any']\nos.sep\n"
    assert unused_imports(source) == [(2, "math"), (4, "List")]


def test_no_unused_imports_in_src_and_tests():
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        for line, name in unused_imports(path.read_text(encoding="utf-8")):
            found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)
