"""The runtime dependency is numpy alone: every absolute import in the
package names a standard-library module or numpy, and pyproject.toml
admits no numpy older than the package runs on."""

import ast
import re
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


def numpy_floor() -> tuple[int, ...]:
    """The numpy version that pyproject.toml's `numpy>=X.Y` requires."""
    text = (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    floors = re.findall(r'"numpy>=([0-9.]+)"', text)
    assert len(floors) == 1, floors
    return tuple(int(part) for part in floors[0].split("."))


def test_numpy_floor_accepts_reshape_copy():
    # data.load_image calls np.reshape(..., copy=False); numpy takes that
    # keyword only from 2.1 on, and raises TypeError on every frame before.
    assert numpy_floor() >= (2, 1)
