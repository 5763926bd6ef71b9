"""Source layout rules that keep one decision in one module."""

import ast
from pathlib import Path

import genret

PACKAGE = Path(genret.__file__).parent


def test_only_core_opens_files():
    # the on-disk format (atomic writes, JSON layout, decode errors) lives in
    # core.py; every other module reads and writes through its helpers
    callers = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "open"
            ):
                callers.add(path.relative_to(PACKAGE).as_posix())
    assert callers == {"core.py"}
