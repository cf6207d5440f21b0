"""The package's public names: __all__ and what __init__.py binds agree."""

from __future__ import annotations

import ast
import types
from pathlib import Path

import emstclust

INIT = Path(emstclust.__file__)


def bound_names() -> set[str]:
    """Names bound at the top level of emstclust/__init__.py."""
    names = set()
    for node in ast.parse(INIT.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_every_entry_of_all_resolves():
    assert len(set(emstclust.__all__)) == len(emstclust.__all__)
    missing = [name for name in emstclust.__all__ if not hasattr(emstclust, name)]
    assert missing == []


def test_every_public_binding_is_listed_in_all():
    public = {
        name
        for name in bound_names()
        if not name.startswith("_")
        and not isinstance(getattr(emstclust, name), types.ModuleType)
    }
    assert public - set(emstclust.__all__) == set()
