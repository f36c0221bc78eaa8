"""Lint: every name a module of `src/egoflux/` or `tools/` imports is used in it.

A package `__init__.py` imports to re-export, and an import statement with a
`# noqa: F401` line is exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src/egoflux", "tools") for p in (ROOT / d).glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name `source` imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            # `import a.b` binds `a`; `import a.b as c` and `from a import b as c` bind `c`.
            name = alias.asname or alias.name.split(".")[0]
            imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import csv\nimport os.path\nimport json as j\n"
              "from re import compile, escape as esc  # noqa: F401\n"
              "from typing import Any\n"
              "x: Any = os.path.join\n")
    assert unused_imports(source) == [(2, "csv"), (4, "j")]
