"""Every package module uses each name it imports; checked by parsing, not running it.

A name listed only in ``__all__`` counts as unused: the modules re-export
nothing they do not call.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).resolve().parents[1] / "src" / "corrobs").glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"{path.name} imports names it never uses: {sorted(imported - used)}"
