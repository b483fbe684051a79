"""Lexer and recursive-descent parser for `.mlg` sources."""

from __future__ import annotations

import re
from itertools import accumulate, compress

from .diagnostics import Diagnostic, MlgError, Span
from . import syntax as S

KEYWORDS = {
    "z", "succ", "rec", "with", "fun", "nat",
    "new", "in", "def", "chan", "proc", "system",
}
SYMBOLS = {"->", "<=", "(", ")", "[", "]", "{", "}",
           ".", ",", ":", "!", "?", "+", "|", "="}

# The most digits a numeral may have. Python reads and prints an int of at
# most 4,300 digits (`sys.get_int_max_str_digits`); this leaves room for the
# successors and sums of the largest numeral to print as well.
MAX_NUMERAL_DIGITS = 4000


# Blanks (white space and comments) or one token: a word, a number, a
# symbol, or any other character, which is bad. The matches tile the text.
# `--` starts a comment before `->` is tried. Words and digits are ASCII
# only.
_TOKEN = re.compile(r"""
    [ \t\r\n]+ | --[^\n]*
  | [A-Za-z_][A-Za-z0-9_]* | [0-9]+
  | -> | <= | [()\[\]{}.,:!?+|=]
  | .
""", re.VERBOSE | re.DOTALL)

# A match's kind, looked up by its text for keywords, symbols and a lone
# `-`, and else by its first character. Blanks, and only they, get the
# false kind "".
_KIND = {word: word for word in KEYWORDS | SYMBOLS} | {"-": "bad"}
_FIRST_KIND = (dict.fromkeys("_abcdefghijklmnopqrstuvwxyz"
                             "ABCDEFGHIJKLMNOPQRSTUVWXYZ", "ident")
               | dict.fromkeys("0123456789", "number")
               | dict.fromkeys(" \t\r\n-", ""))

class Tokens:
    """The tokens of one text, eof included, as parallel lists. A token's
    kind is "ident", "number", a keyword, a symbol or "eof"; its start is
    its offset in the text, which is also its span."""

    __slots__ = ("kinds", "texts", "starts")

    def __init__(self, kinds: list[str], texts: list[str], starts: list[int]):
        self.kinds = kinds
        self.texts = texts
        self.starts = starts

    def __len__(self) -> int:
        return len(self.kinds)


def tokenize(text: str) -> Tokens:
    matches = _TOKEN.findall(text)
    kinds = [_KIND.get(m) or _FIRST_KIND.get(m[0], "bad") for m in matches]
    starts = accumulate(map(len, matches), initial=0)
    # compressing by kind drops the blanks, whose kind is the only false one
    texts = [*compress(matches, kinds), ""]
    starts = [*compress(starts, kinds), len(text)]
    kinds = [*compress(kinds, kinds), "eof"]
    if "bad" in kinds:
        i = kinds.index("bad")
        raise MlgError(f"unexpected character {texts[i]!r}", starts[i])
    return Tokens(kinds, texts, starts)


# Tokens that may begin a computation-core atom.
_ATOM_START = {"ident", "number", "z", "succ", "("}


class Parser:
    def __init__(self, text: str):
        tokens = tokenize(text)
        self.kinds, self.texts, self.starts = (
            tokens.kinds, tokens.texts, tokens.starts)
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []
        self.proc_refs: list[S.ProcRef] = []

    # -- token plumbing ----------------------------------------------------
    # Tokens are read by index; the current one is `self.pos`, which never
    # moves past the eof token.

    def next(self) -> int:
        i = self.pos
        if self.kinds[i] != "eof":
            self.pos = i + 1
        return i

    def at(self, kind: str) -> bool:
        return self.kinds[self.pos] == kind

    def found(self, i: int) -> str:
        return self.texts[i] or "end of input"

    def expect(self, kind: str) -> int:
        i = self.pos
        if self.kinds[i] != kind:
            raise MlgError(f"expected '{kind}', found '{self.found(i)}'",
                           self.starts[i])
        if kind != "eof":
            self.pos = i + 1
        return i

    def error(self, message: str, span: Span | None = None):
        if span is None:  # offset 0 is a span too
            span = self.starts[self.pos]
        self.diagnostics.append(Diagnostic(message, span))

    def name(self) -> S.Name:
        i = self.expect("ident")
        return S.Name(self.texts[i], self.starts[i])

    # -- types and sorts ---------------------------------------------------

    def parse_type(self) -> S.CompType:
        left = self.parse_type_atom()
        if self.at("->"):
            self.next()
            return S.ArrowType(left, self.parse_type())
        return left

    def parse_type_atom(self) -> S.CompType:
        kind = self.kinds[self.pos]
        if kind == "nat":
            self.next()
            return S.NAT
        if kind == "(":
            self.next()
            ty = self.parse_type()
            self.expect(")")
            return ty
        if kind == "[":
            return S.ObjType(self.parse_field_list(":", self.parse_type,
                                                   " in signature"))
        i = self.pos
        raise MlgError(f"expected a type, found '{self.texts[i]}'",
                       self.starts[i])

    def parse_sort(self) -> S.Sort:
        if self.at("chan"):
            self.next()
            self.expect("(")
            inner = self.parse_sort()
            self.expect(")")
            return S.ChanSort(inner)
        return self.parse_type()

    # -- computation expressions -------------------------------------------

    def parse_expr(self, allow_update: bool = False) -> S.CompExpr:
        kind = self.kinds[self.pos]
        if kind == "fun":
            span = self.starts[self.next()]
            self.expect("(")
            param = self.name()
            self.expect(":")
            param_type = self.parse_type()
            self.expect(")")
            body = self.parse_expr()
            return S.Lambda(param, param_type, body, span)
        if kind == "rec":
            return self.parse_rec()
        return self.parse_app(allow_update)

    def parse_rec(self) -> S.CompExpr:
        span = self.starts[self.expect("rec")]
        scrutinee = self.parse_app()
        self.expect("{")
        self.expect("z")
        self.expect("->")
        zero_branch = self.parse_expr()
        self.expect("|")
        self.expect("succ")
        self.expect("(")
        succ_binder = self.name()
        self.expect(")")
        self.expect("with")
        rec_binder = self.name()
        if rec_binder.text == succ_binder.text:
            raise MlgError("rec binders must be distinct", rec_binder.span)
        self.expect("->")
        succ_branch = self.parse_expr()
        self.expect("}")
        return S.Rec(
            scrutinee, zero_branch, succ_binder, rec_binder, succ_branch,
            span,
        )

    def parse_app(self, allow_update: bool = False) -> S.CompExpr:
        expr = self.parse_postfix(allow_update)
        if isinstance(expr, S.UpdateObject):
            return expr
        while self.kinds[self.pos] in _ATOM_START:
            arg = self.parse_postfix()
            expr = S.App(expr, arg, expr.span)
        return expr

    def parse_postfix(self, allow_update: bool = False):
        expr = self.parse_atom()
        while self.at("."):
            if self.kinds[self.pos + 1] == "[":
                if not allow_update:
                    raise MlgError("object update is not allowed here",
                                   self.starts[self.pos])
                self.next()  # .
                updates = self.parse_field_list("<=", self.parse_expr, "")
                return S.UpdateObject(expr, updates, expr.span)
            self.next()  # .
            label = self.name()
            expr = S.FieldSel(expr, label, expr.span)
        return expr

    def parse_atom(self) -> S.CompExpr:
        i = self.pos
        kind = self.kinds[i]
        if kind == "z":
            self.pos = i + 1
            return S.NatLit(0, self.starts[i])
        if kind == "number":
            self.pos = i + 1
            if len(self.texts[i]) > MAX_NUMERAL_DIGITS:
                raise MlgError(f"numeral has more than {MAX_NUMERAL_DIGITS} "
                               f"digits", self.starts[i])
            return S.NatLit(int(self.texts[i]), self.starts[i])
        if kind == "succ":
            self.pos = i + 1
            self.expect("(")
            arg = self.parse_expr()
            self.expect(")")
            return S.succ(arg, self.starts[i])
        if kind == "ident":
            self.pos = i + 1
            span = self.starts[i]
            return S.Var(S.Name(self.texts[i], span), span)
        if kind == "(":
            self.pos = i + 1
            expr = self.parse_expr()
            self.expect(")")
            return expr
        raise MlgError(f"expected an expression, found '{self.found(i)}'",
                       self.starts[i])

    def parse_field_list(self, sep: str, item, where: str) -> tuple:
        """`[ l <sep> item, ... ]`, each item parsed by `item()`, with a
        duplicate-label diagnostic that ends in `where`."""
        self.expect("[")
        fields: list[tuple[S.Name, object]] = []
        while True:
            lab = self.name()
            self.expect(sep)
            fields.append((lab, item()))
            if not self.at(","):
                break
            self.next()
        self.expect("]")
        seen: set[str] = set()
        for lab, _ in fields:
            if lab.text in seen:
                raise MlgError(f"duplicate field label '{lab}'{where}",
                               lab.span)
            seen.add(lab.text)
        return tuple(fields)

    # -- payloads ----------------------------------------------------------

    def parse_payload(self) -> S.Payload:
        if self.at("["):
            span = self.starts[self.pos]
            fields = self.parse_field_list("=", self.parse_expr, "")
            return S.MakeObject(fields, span)
        return self.parse_expr(allow_update=True)

    # -- processes ---------------------------------------------------------

    def parse_proc(self) -> S.ProcTerm:
        operands = [self.parse_sum()]
        while self.at("|"):
            self.next()
            operands.append(self.parse_sum())
        if len(operands) == 1:
            return operands[0]
        return S.Par(tuple(operands), operands[0].span)

    def parse_sum(self) -> S.ProcTerm:
        term = self.parse_prefixed()
        if not self.at("+"):
            return term
        plus_span, operands = self.starts[self.pos], []
        while True:
            if isinstance(term, S.Sum):  # a parenthesized sum
                operands.extend(term.operands)
            elif isinstance(term, (S.Nil, S.Prefix)):
                operands.append(term)
            else:
                self.error("unguarded sum operand", term.span)
            if not self.at("+"):
                return S.Sum(tuple(operands), plus_span)
            self.next()
            term = self.parse_prefixed()

    def parse_prefixed(self) -> S.ProcTerm:
        # a chain of actions is collected, then folded from its end; a
        # prefix is spanned by its action's first token, as the action is
        kinds, actions = self.kinds, []
        while kinds[self.pos] == "[" or (
            kinds[self.pos] == "ident" and kinds[self.pos + 1] in ("!", "?")
        ):
            actions.append(self.parse_action())
            self.expect(".")
        term = self.parse_unprefixed()
        for action in reversed(actions):
            term = S.Prefix(action, term, action.span)
        return term

    def parse_unprefixed(self) -> S.ProcTerm:
        i = self.pos
        kind = self.kinds[i]
        if kind == "number":
            if self.texts[i] != "0":
                raise MlgError(
                    f"expected a process, found number '{self.texts[i]}'",
                    self.starts[i],
                )
            self.next()
            return S.Nil(self.starts[i])
        if kind == "!":
            self.next()
            return S.Repl(self.parse_prefixed(), self.starts[i])
        if kind == "new":
            self.next()
            chan = self.name()
            self.expect(":")
            sort = self.parse_sort()
            self.expect("in")
            body = self.parse_proc()
            return S.Restrict(chan, sort, body, self.starts[i])
        if kind == "(":
            self.next()
            term = self.parse_proc()
            self.expect(")")
            return term
        if kind == "ident":
            name = self.name()
            ref = S.ProcRef(name, name.span)
            self.proc_refs.append(ref)
            return ref
        raise MlgError(f"expected a process, found '{self.found(i)}'",
                       self.starts[i])

    def parse_action(self) -> S.ProcAction:
        span = self.starts[self.pos]
        if self.at("["):
            self.next()
            left = self.parse_payload()
            self.expect("=")
            right = self.parse_payload()
            self.expect("]")
            inner = self.parse_action()
            return S.Match(left, right, inner, span)
        chan = self.name()
        if self.at("!"):
            self.next()
            self.expect("(")
            payload = self.parse_payload()
            self.expect(")")
            return S.Send(chan, payload, span)
        self.expect("?")
        self.expect("(")
        binder = self.name()
        self.expect(")")
        return S.Receive(chan, binder, span)

    # -- top level ---------------------------------------------------------

    def parse_program(self) -> S.Program:
        items: list[S.TopItem] = []
        entry: S.ProcTerm | None = None
        top_names: dict[str, Span] = {}
        proc_names: set[str] = set()

        def declare(name: S.Name):
            if name.text in top_names:
                self.error(f"duplicate definition of '{name}'", name.span)
            top_names[name.text] = name.span

        def resolve_refs():  # those of the item just parsed
            for ref in self.proc_refs:
                if ref.name.text not in proc_names:
                    self.error(f"unbound process name '{ref.name}'", ref.span)
            self.proc_refs.clear()

        while not self.at("eof"):
            i = self.pos
            kind = self.kinds[i]
            if kind == "def":
                self.next()
                name = self.name()
                declare(name)
                self.expect("=")
                items.append(S.DefDef(name, self.parse_expr(), self.starts[i]))
            elif kind == "chan":
                self.next()
                name = self.name()
                declare(name)
                self.expect(":")
                sort = self.parse_sort()
                items.append(S.ChanDecl(name, sort, self.starts[i]))
            elif kind == "proc":
                self.next()
                name = self.name()
                declare(name)
                self.expect("=")
                body = self.parse_proc()
                resolve_refs()
                items.append(S.ProcDef(name, body, self.starts[i]))
                proc_names.add(name.text)
            elif kind == "system":
                self.next()
                self.expect("=")
                if entry is not None:
                    self.error("duplicate 'system' entry", self.starts[i])
                entry = self.parse_proc()
                resolve_refs()
            else:
                raise MlgError(
                    f"expected a top-level item, found '{self.found(i)}'",
                    self.starts[i],
                )
        return S.Program(tuple(items), entry)


def _run(text: str, production) -> object:
    """Parse `text` with `production`, a `Parser` method."""
    diagnostics: list[Diagnostic] = []
    try:
        parser = Parser(text)  # lexing may fail too
        diagnostics = parser.diagnostics
        try:
            result = production(parser)
        except RecursionError:  # the parser recurses once per nesting level
            raise MlgError("nesting too deep",
                           parser.starts[parser.pos]) from None
        parser.expect("eof")
    except MlgError as exc:
        raise MlgError(diagnostics + exc.diagnostics) from None
    if diagnostics:
        raise MlgError(diagnostics)
    return result


def parse_program(text: str) -> S.Program:
    return _run(text, Parser.parse_program)


def parse_comp_expr(text: str) -> S.CompExpr:
    return _run(text, Parser.parse_expr)


def parse_payload(text: str) -> S.Payload:
    return _run(text, Parser.parse_payload)


def parse_proc_term(text: str) -> S.ProcTerm:
    return _run(text, Parser.parse_proc)


def parse_type(text: str) -> S.CompType:
    return _run(text, Parser.parse_type)
