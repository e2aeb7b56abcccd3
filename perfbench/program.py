"""Locate and import the forgenet sources of the checkout the benchmark sits in."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    pass


def import_program() -> SimpleNamespace:
    """Import forgenet from <checkout>/src, never from an installed copy.

    Raises ProgramMissing when the checkout holds no forgenet sources.
    """
    package = SRC / "forgenet" / "__init__.py"
    if not package.is_file():
        raise ProgramMissing(f"no forgenet sources at {package.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    modules = {
        name: importlib.import_module(f"forgenet.{name}")
        for name in ("data", "evaluator", "model", "optim", "trainer")
    }
    loaded_from = Path(modules["model"].__file__).resolve()
    if SRC not in loaded_from.parents:
        raise ProgramMissing(f"forgenet was imported from {loaded_from}, not from {SRC}")
    return SimpleNamespace(**modules)
