"""The README's Python examples run as written, and its removed names stay removed.

Every ```python block of README.md runs in order in one namespace, as a reader
pasting them into one session would run them, so a renamed or removed name
fails here instead of in the documentation.  Every row of the removal table
that starts with a backticked name must name something the package no longer
has, and every bound the README gives for fixture ``section3``'s ``K``, and
every exit-7 cap it names, is the one the code enforces.
"""
from __future__ import annotations

import importlib
import re
from pathlib import Path

from paramgrid.fixtures import MAX_SECTION3_K
from paramgrid.oracle import MAX_CUT_VERTICES, MAX_INDEPENDENCE_ELEMENTS, MAX_KNAPSACK_ITEMS
from paramgrid.solvers.knapsack import MAX_KNAPSACK_CELLS

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


SECTION3_BOUND = re.compile(r"K`? (?:<=|above) (\d+)")


def test_section3_bound_is_the_enforced_one():
    bounds = SECTION3_BOUND.findall(README.read_text(encoding="utf-8"))
    assert len(bounds) >= 3, f"expected the three section3 bounds, found {bounds}"
    assert {int(b) for b in bounds} == {MAX_SECTION3_K}


ENUMERATION_CAPS = re.compile(r"more than (\d+) cut vertices, (\d+) items or (\d+) elements")
CELL_CAP = re.compile(r"`10\^(\d+)` cells")


def test_exit_7_caps_are_the_enforced_ones():
    text = README.read_text(encoding="utf-8")
    assert [tuple(map(int, caps)) for caps in ENUMERATION_CAPS.findall(text)] == [
        (MAX_CUT_VERTICES, MAX_KNAPSACK_ITEMS, MAX_INDEPENDENCE_ELEMENTS)
    ]
    exponents = CELL_CAP.findall(text)
    assert len(exponents) >= 2, f"expected the exact and scheme table caps, found {exponents}"
    assert {10 ** int(e) for e in exponents} == {MAX_KNAPSACK_CELLS}
