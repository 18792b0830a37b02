"""The README's Python examples run as written.

Every ```python block of README.md runs in order in one namespace, as a reader
pasting them into one session would run them, so a renamed or removed name
fails here instead of in the documentation.
"""
from __future__ import annotations

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
