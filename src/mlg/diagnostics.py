"""Source spans and diagnostics shared by the parser, checkers and runtime."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class Span(NamedTuple):
    """Half-open character range into a source text, with 1-based line/col.
    The parser builds one for each token that a node or a diagnostic points
    at."""

    start: int = 0
    end: int = 0
    line: int = 1
    col: int = 1

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


DUMMY_SPAN = Span()


@dataclass(frozen=True)
class Diagnostic:
    message: str
    span: Span = DUMMY_SPAN
    severity: str = "error"
    filename: str = "<input>"

    def render(self) -> str:
        return (
            f"{self.filename}:{self.span.line}:{self.span.col}: "
            f"{self.severity}: {self.message}"
        )

    def to_record(self) -> dict:
        return {
            "file": self.filename,
            "line": self.span.line,
            "col": self.span.col,
            "severity": self.severity,
            "message": self.message,
        }


class MlgError(Exception):
    """The one fault type of the parser, the checker and the runtime. A
    bare message is placed at `span`."""

    def __init__(self, diagnostics: list[Diagnostic] | Diagnostic | str,
                 span: Span = DUMMY_SPAN):
        if isinstance(diagnostics, str):
            diagnostics = [Diagnostic(diagnostics, span)]
        elif isinstance(diagnostics, Diagnostic):
            diagnostics = [diagnostics]
        self.diagnostics = diagnostics
        super().__init__("; ".join(d.render() for d in diagnostics))
