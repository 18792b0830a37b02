"""Each package's ``__all__`` is exactly what its relative imports bind.

A name dropped from an import but left in ``__all__`` (or the reverse) fails
here, read from the source with ``ast`` rather than from the imported module.
"""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import paramgrid

PACKAGE = Path(paramgrid.__file__).resolve().parent


def _exports(path: Path) -> tuple[list[str], list[str]]:
    """The literal ``__all__`` list, and the names the file's ``from . import`` statements bind."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, listed = [], None
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            bound.extend(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            listed = ast.literal_eval(node.value)
    assert listed is not None, f"{path} has no literal __all__"
    return listed, bound


@pytest.mark.parametrize("module", ["paramgrid", "paramgrid.solvers"])
def test_all_equals_the_imported_names(module):
    path = PACKAGE.joinpath(*module.split(".")[1:], "__init__.py")
    listed, bound = _exports(path)
    assert len(set(listed)) == len(listed), "__all__ repeats a name"
    assert sorted(listed) == sorted(bound)
    package = importlib.import_module(module)
    assert [name for name in listed if not hasattr(package, name)] == []
