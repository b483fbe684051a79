"""Each module imports only the mlg modules its layer may use.

`ALLOWED` is the import graph of the package, written out: a new edge,
such as the engine importing the explorer, fails until the table says it
may. A channel's sort is decided in `syntax.py`, so parsing, printing and
running a program need nothing from `mlg.typecheck`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mlg

SRC = Path(mlg.__file__).parent
BELOW_THE_CHECKER = ["parser", "pretty", "engine", "explorer", "evaluate",
                     "store"]
ALLOWED = {
    "diagnostics": set(),
    "syntax": {"diagnostics"},
    "parser": {"diagnostics", "syntax"},
    "pretty": {"syntax"},
    "typecheck": {"diagnostics", "syntax"},
    "evaluate": {"diagnostics", "syntax"},
    "store": {"syntax", "evaluate"},
    "engine": {"diagnostics", "syntax", "evaluate", "store"},
    "explorer": {"syntax", "evaluate", "engine"},
    "prelude": {"diagnostics", "syntax", "parser", "pretty", "typecheck"},
    "cli": {"diagnostics", "parser", "pretty", "typecheck", "engine",
            "explorer", "prelude"},
    "__init__": set(),
    "__main__": {"cli"},
}


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


def test_table_lists_every_module():
    assert {path.stem for path in SRC.glob("*.py")} == set(ALLOWED)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_its_allowed_modules(module):
    imported = {name.split(".")[1] for name in
                imported_modules(SRC / f"{module}.py")
                if name.startswith("mlg.")} & set(ALLOWED)
    assert imported <= ALLOWED[module]


def test_checking_a_program_does_not_import_the_runtime():
    # the package re-exports nothing, so loading and checking a program
    # imports no layer that only running or printing it needs
    code = ("import sys, mlg, mlg.prelude, mlg.typecheck; "
            "print(sorted(set(sys.modules) & {'mlg.engine', 'mlg.explorer', "
            "'mlg.evaluate', 'mlg.store', 'mlg.pretty'}))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_engine_stays_within_its_line_budget():
    # the scheduler keeps no fact twice; a change that needs more lines
    # here should first find some to remove
    lines = (SRC / "engine.py").read_text(encoding="utf-8").splitlines()
    assert len(lines) <= 662
