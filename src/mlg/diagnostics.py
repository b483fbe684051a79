"""Source spans and diagnostics shared by the parser, checkers and runtime."""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import lru_cache

# A span is the offset of the first character of the token that a node or a
# diagnostic points at. Its line and column are worked out only when a
# diagnostic is rendered, from the text it points into.
Span = int

DUMMY_SPAN = -1  # no token starts here; it renders at 1:1


@lru_cache(maxsize=1)
def _newlines(text: str) -> tuple[int, ...]:
    """-1, then the offset of each newline in `text`: built once per text,
    however many of its diagnostics are rendered."""
    return (-1, *(match.start() for match in re.finditer("\n", text)))


def line_col(text: str, offset: Span) -> tuple[int, int]:
    """The 1-based line and column of `offset` in `text`."""
    offset = max(offset, 0)  # DUMMY_SPAN is placed at the start
    newlines = _newlines(text)
    line = bisect_left(newlines, offset)
    return line, offset - newlines[line - 1]


class Diagnostic:
    """A message placed at an offset; equal to a diagnostic with the same
    message at the same place, and immutable."""

    __slots__ = ("message", "span")

    def __init__(self, message: str, span: Span = DUMMY_SPAN):
        object.__setattr__(self, "message", message)
        object.__setattr__(self, "span", span)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.message, self.span) == (other.message, other.span)

    def __hash__(self) -> int:
        return hash((self.message, self.span))

    def __repr__(self) -> str:
        return f"Diagnostic(message={self.message!r}, span={self.span!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field '{name}'")

    def render(self, text: str, filename: str) -> str:
        line, col = line_col(text, self.span)
        return f"{filename}:{line}:{col}: error: {self.message}"

    def to_record(self, text: str, filename: str) -> dict:
        line, col = line_col(text, self.span)
        return {
            "file": filename,
            "line": line,
            "col": col,
            "severity": "error",
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
        # no text is known here to place them in
        super().__init__("; ".join(d.message for d in diagnostics))
