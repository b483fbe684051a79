"""The embedded standard library and program loading."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from importlib import resources

from .diagnostics import Diagnostic, MlgError
from . import syntax as S
from .parser import parse_program, parse_type
from .typecheck import check_program


def prelude_source() -> str:
    return (
        resources.files("mlg.stdlib").joinpath("prelude.mlg").read_text()
    )


# expected types, asserted when the prelude is loaded
EXPECTED_TYPES: dict[str, str] = {
    "add": "nat -> nat -> nat",
    "mul": "nat -> nat -> nat",
    "pred": "nat -> nat",
    "monus": "nat -> nat -> nat",
    "isz": "nat -> nat",
    "le": "nat -> nat -> nat",
    "lt": "nat -> nat -> nat",
    "div_floor": "nat -> nat -> nat",
    "div_ceil": "nat -> nat -> nat",
    "blockSize": "nat",
    "blockCount": "nat -> nat",
    "indexToBlock": "nat -> nat",
    "indexOffset": "nat -> nat",
    "half": "nat -> nat",
    "pow2": "nat -> nat",
    "odd": "nat -> nat",
    "hasPermission": "nat -> nat -> nat",
}


@dataclass(frozen=True)
class PreludeDef:
    name: str
    source: str
    expected_type: S.CompType


@cache
def _parsed_prelude() -> S.Program:
    """The prelude, parsed once per process. Every program shares its
    nodes, and with them the code compiled for them on first evaluation."""
    return parse_program(prelude_source(), "<prelude>")


def prelude_program(block_size: int | None = None) -> S.Program:
    program = _parsed_prelude()
    if block_size is not None:
        program = _override_block_size(program, block_size)
    return program


def _override_block_size(program: S.Program, block_size: int) -> S.Program:
    defs = tuple(
        S.DefDef(item.name, S.NatLit(block_size), item.span)
        if isinstance(item, S.DefDef) and item.name.text == "blockSize"
        else item
        for item in program.defs
    )
    return S.Program(defs, program.entry)


def load_prelude(block_size: int | None = None) -> list[PreludeDef]:
    """Parse and check the prelude; a failure here is a build failure."""
    from .pretty import pretty_expr

    program = prelude_program(block_size)
    result = check_program(program)
    if not result.ok:
        raise MlgError(result.diagnostics)
    defs = []
    for item in program.comp_defs():
        expected = parse_type(EXPECTED_TYPES[item.name.text])
        actual = result.def_types[item.name.text]
        if actual != expected:
            raise MlgError(
                f"prelude definition '{item.name}' has type {actual}, "
                f"expected {expected}"
            )
        defs.append(
            PreludeDef(item.name.text, pretty_expr(item.body), expected)
        )
    return defs


def load_program(
    text: str,
    filename: str = "<input>",
    include_prelude: bool = True,
    block_size: int | None = None,
) -> S.Program:
    """Parse a program with the prelude definitions implicitly in scope."""
    program = parse_program(text, filename)
    if not include_prelude:
        return program
    base = prelude_program(block_size)
    base_names = {d.name.text for d in base.defs}
    clashes = [
        d.name for d in program.defs if d.name.text in base_names
    ]
    if clashes:
        raise MlgError([
            Diagnostic(
                f"'{name}' is already defined by the prelude "
                f"(pass --no-prelude to redefine it)",
                name.span, filename=filename,
            )
            for name in clashes
        ])
    return S.Program(base.defs + program.defs, program.entry)
