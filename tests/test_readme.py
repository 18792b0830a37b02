"""The README's Python examples run as written, and its removed names stay removed.

Every ```python block of README.md runs in order in one namespace, as a reader
pasting them into one session would run them, so a renamed or removed name
fails here instead of in the documentation.  Every row of the removal table
that starts with a backticked name must name something the package no longer
has.
"""
from __future__ import annotations

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run_in_order():
    blocks = BLOCK.findall(README.read_text(encoding="utf-8"))
    assert blocks, "README.md has no python blocks"
    namespace: dict = {"__name__": "readme"}
    for number, source in enumerate(blocks, 1):
        exec(compile(source, f"README.md python block {number}", "exec"), namespace)


REMOVED_ROW = re.compile(r"^\| `([A-Za-z_][\w.]*)", re.MULTILINE)
SUBMODULES = ("engine", "fixtures", "serialization", "errors")


def _resolves(dotted: str) -> bool:
    first, *rest = dotted.split(".")
    if first in SUBMODULES:
        node, names = importlib.import_module(f"paramgrid.{first}"), rest
    else:
        node, names = importlib.import_module("paramgrid"), [first, *rest]
    for name in names:
        if not hasattr(node, name):
            return False
        node = getattr(node, name)
    return True


def test_removed_names_stay_removed():
    text = README.read_text(encoding="utf-8")
    table = text.split("### Removed from the public API", 1)[1].split("\n## ", 1)[0]
    names = REMOVED_ROW.findall(table)
    assert names, "the removal table has no backticked rows"
    assert [name for name in names if _resolves(name)] == []
