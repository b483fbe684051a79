"""The layers below the checker do not import it.

A channel's sort is decided in `syntax.py`, so parsing, printing and
running a program need nothing from `mlg.typecheck`.
"""

import ast
from pathlib import Path

import pytest

import mlg

SRC = Path(mlg.__file__).parent
BELOW_THE_CHECKER = ["parser", "pretty", "engine", "explorer", "evaluate",
                     "store"]


def imported_modules(path: Path) -> set[str]:
    """The absolute names of the mlg modules that `path` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["mlg" if node.level else "",
                                            node.module]))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module", BELOW_THE_CHECKER)
def test_module_does_not_import_the_checker(module):
    assert "mlg.typecheck" not in imported_modules(SRC / f"{module}.py")
