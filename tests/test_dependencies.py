"""The runtime dependency is numpy alone: every absolute import in the
package names a standard-library module or numpy."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "forgenet"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def absolute_imports(path: Path) -> set[str]:
    """Top-level names of the modules `path` imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_imports_are_stdlib_or_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = {
        path.name: sorted(absolute_imports(path) - ALLOWED) for path in sources
    }
    assert {name: mods for name, mods in outside.items() if mods} == {}
    assert any("numpy" in absolute_imports(path) for path in sources)
