"""Every imported name in the package and the tests is used, every name a
module lists in `__all__` is bound in it, and every top-level function,
class and constant of the package is read by the package or the
benchmark."""

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


def _registered(node) -> bool:
    """True for a definition that a decorator registers (a click command);
    `dataclass` only builds its class and does not count."""
    def builds(dec) -> bool:
        target = dec.func if isinstance(dec, ast.Call) else dec
        return isinstance(target, ast.Name) and target.id == "dataclass"
    return not all(builds(dec) for dec in node.decorator_list)


def _constants(node) -> list:
    """Names a top-level assignment binds, dunder names excepted."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    names = [sub.id for target in targets for sub in ast.walk(target)
             if isinstance(sub, ast.Name)]
    return [name for name in names if not name.startswith("__")]


def unreferenced_definitions(defining: list, reading: list) -> list:
    """Top-level functions, classes and constants of the `defining`
    sources that no source in `defining` or `reading` names outside
    their own body.

    A name is read wherever it appears as an attribute, or as a name it
    is not assigned to.  Definitions that a decorator registers and
    dunder constants such as `__all__` are skipped.
    """
    read = set()
    for source in defining + reading:
        for node in ast.parse(source).body:
            owner = getattr(node, "name", None)
            read.update((sub.id if isinstance(sub, ast.Name) else sub.attr, owner)
                        for sub in ast.walk(node)
                        if isinstance(sub, ast.Attribute)
                        or isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store))
    found = []
    for source in defining:
        for node in ast.parse(source).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not _registered(node)):
                names = [node.name]
            else:
                names = _constants(node)
            found.extend(name for name in names
                         if not any(read_name == name and owner != name
                                    for read_name, owner in read))
    return sorted(found)


# Reached only by their own tests, each kept for the ROADMAP item that
# is to call it. The change that lands the item calls or deletes it, and
# drops its entry.
_UNREFERENCED = (
    "AsymptoticQ", "weight_exponents", "SourceF", "shell_pairs",  # ROADMAP item 3
    "crossing_structure_check",  # ROADMAP item 8
)


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


def test_unreferenced_definitions_are_found():
    source = "from dataclasses import dataclass\nimport click\n" \
             "@click.command()\ndef cmd():\n    pass\n" \
             "def loop():\n    return loop()\ndef used():\n    pass\n" \
             "@dataclass\nclass Box:\n    pass\nclass Kept:\n    pass\nx = used\n" \
             "__all__ = []\n_READ: int = 1\n_UNREAD = _READ\nA, B = 2, 3\n"
    found = unreferenced_definitions([source], ["Kept()\nmod.B\nprint(x)\n"])
    assert found == ["A", "Box", "_UNREAD", "loop"]


def test_every_definition_is_read_by_the_package_or_the_benchmark():
    read = [path.read_text(encoding="utf-8")
            for path in sorted((ROOT / "src").rglob("*.py"))]
    bench = [path.read_text(encoding="utf-8")
             for path in sorted((ROOT / "bench").rglob("*.py"))]
    found = unreferenced_definitions(read, bench)
    assert found == sorted(_UNREFERENCED), f"read by nothing in src/ or bench/: {found}"
