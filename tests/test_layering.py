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
    "prelude": {"diagnostics", "syntax", "parser", "typecheck"},
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


def test_no_module_imports_dataclasses():
    # a dataclass generates its methods' code when its module is imported,
    # which every command would pay for at start-up
    for path in SRC.glob("*.py"):
        assert "dataclasses" not in imported_modules(path), path.stem


# modules that only running a program needs, and the code generators that
# no command should pay for at start-up
RUNTIME = ["mlg.engine", "mlg.explorer", "mlg.evaluate", "mlg.store"]
CODE_GENERATORS = ["dataclasses", "inspect"]


def loaded_modules(code: str, watched: list[str]) -> list[str]:
    """The `watched` modules loaded after `code` ran in a fresh
    interpreter."""
    code += f"; print(sorted(set(sys.modules) & {set(watched)!r}))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return ast.literal_eval(out.splitlines()[-1])


def test_checking_a_program_does_not_import_the_runtime():
    # the package re-exports nothing, so loading and checking a program
    # imports no layer that only running or printing it needs
    code = ("import sys, mlg, mlg.prelude, mlg.typecheck; "
            "mlg.typecheck.check_program(mlg.prelude.load_program("
            "'system = 0'))")
    assert loaded_modules(
        code, RUNTIME + ["mlg.pretty"] + CODE_GENERATORS) == []


@pytest.mark.parametrize("command", ["check", "fmt"])
def test_check_and_fmt_do_not_import_the_runtime(tmp_path, command):
    path = tmp_path / "input.mlg"
    path.write_text("chan c : nat\nsystem = c!(add 1 2) . 0 | c?(x) . 0\n",
                    encoding="utf-8")
    code = f"import sys, mlg.cli; mlg.cli.main([{command!r}, {str(path)!r}])"
    assert loaded_modules(code, RUNTIME + CODE_GENERATORS) == []


def test_engine_stays_within_its_line_budget():
    # the scheduler keeps no fact twice; a change that needs more lines
    # here should first find some to remove
    lines = (SRC / "engine.py").read_text(encoding="utf-8").splitlines()
    assert len(lines) <= 662


def test_explorer_stays_within_its_line_budget():
    # a member's key is kept on the member and its term, with no side
    # table; a change that needs more lines here should first find some
    # to remove
    lines = (SRC / "explorer.py").read_text(encoding="utf-8").splitlines()
    assert len(lines) <= 372
