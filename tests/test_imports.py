"""Every module of the package, the scripts and the tests uses each name it imports.

No linter ships with the test dependencies, so this reads each module's syntax tree. A
name counts as used where it is read, where a string annotation names it (as one that
is imported only under ``TYPE_CHECKING``), and where ``__all__`` re-exports it.
``from __future__`` imports bind no name.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for folder in ("src/greyrisk", "scripts", "tests")
                 for p in (ROOT / folder).rglob("*.py"))


def _names(node: ast.AST) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _unused_imports(tree: ast.Module) -> list:
    """``line: name`` of each imported name that ``tree`` never uses."""
    imported, used = {}, _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used |= _names(ast.parse(part.value, mode="eval"))
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_imports_are_found_and_exempt_names_are_not():
    source = '''
from __future__ import annotations
import json, os.path
from typing import TYPE_CHECKING
from pathlib import Path as P
if TYPE_CHECKING:
    from decimal import Decimal
    from fractions import Fraction
__all__ = ["P"]
def f(x: "Decimal") -> os.path: ...
'''
    assert _unused_imports(ast.parse(source)) == ["3: json", "8: Fraction"]
