"""Lexer and recursive-descent parser for `.mlg` sources."""

from __future__ import annotations

import re
from typing import NamedTuple

from .diagnostics import Diagnostic, MlgError, Span
from . import syntax as S
from . import typecheck as T

KEYWORDS = {
    "z", "succ", "rec", "with", "fun", "nat",
    "new", "in", "def", "chan", "proc", "system",
}


class Token(NamedTuple):
    kind: str  # "ident", "number", a keyword, a symbol, or "eof"
    text: str
    span: Span


class ParseFailure(Exception):
    def __init__(self, message: str, span: Span):
        self.diagnostic = Diagnostic(message, span)
        super().__init__(message)


# One alternative per token class, tried in order; `--` starts a comment
# before `->` is tried. Words and digits are ASCII only, and any other
# character is `bad`.
_TOKEN = re.compile(r"""
    (?P<skip> [ \t\r\n]+ | --[^\n]* )
  | (?P<word> [A-Za-z_][A-Za-z0-9_]* )
  | (?P<number> [0-9]+ )
  | (?P<symbol> -> | <= | [()\[\]{}.,:!?+|=] )
  | (?P<bad> . )
""", re.VERBOSE | re.DOTALL)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    # line_start is the offset just past the last newline; a token's col
    # is counted from it
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        start, end = m.span()
        if kind == "skip":
            newlines = text.count("\n", start, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, end) + 1
            continue
        word = m.group()
        span = Span(start, end, line, start - line_start + 1)
        if kind == "word":
            append(Token(word if word in KEYWORDS else "ident", word, span))
        elif kind == "number":
            append(Token("number", word, span))
        elif kind == "symbol":
            append(Token(word, word, span))
        else:
            raise ParseFailure(f"unexpected character {word!r}", span)
    n = len(text)
    append(Token("eof", "", Span(n, n, line, n - line_start + 1)))
    return tokens


# Tokens that may begin a computation-core atom.
_ATOM_START = {"ident", "number", "z", "succ", "("}


class Parser:
    def __init__(self, text: str, filename: str = "<input>"):
        self.filename = filename
        self.tokens = tokenize(text)
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []
        self.proc_refs: list[S.ProcRef] = []

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        if not offset:
            return self.tokens[self.pos]  # never past the eof token
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def expect(self, kind: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise ParseFailure(
                f"expected '{kind}', found '{tok.text or 'end of input'}'",
                tok.span,
            )
        if kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, span: Span | None = None):
        self.diagnostics.append(
            Diagnostic(message, span or self.peek().span,
                       filename=self.filename)
        )

    def name(self, kind: str = S.VARIABLE) -> S.Name:
        tok = self.expect("ident")
        return S.Name(tok.text, kind, tok.span)

    # -- types and sorts ---------------------------------------------------

    def parse_type(self) -> S.CompType:
        left = self.parse_type_atom()
        if self.at("->"):
            self.next()
            return S.ArrowType(left, self.parse_type())
        return left

    def parse_type_atom(self) -> S.CompType:
        tok = self.peek()
        if tok.kind == "nat":
            self.next()
            return S.NAT
        if tok.kind == "(":
            self.next()
            ty = self.parse_type()
            self.expect(")")
            return ty
        if tok.kind == "[":
            self.next()
            sig: list[tuple[S.Name, S.CompType]] = []
            while True:
                lab = self.name(S.FIELD_LABEL)
                self.expect(":")
                sig.append((lab, self.parse_type()))
                if not self.at(","):
                    break
                self.next()
            self.expect("]")
            seen: set[str] = set()
            for lab, _ in sig:
                if lab.text in seen:
                    raise ParseFailure(
                        f"duplicate field label '{lab}' in signature", lab.span
                    )
                seen.add(lab.text)
            return S.ObjType(tuple(sig))
        raise ParseFailure(f"expected a type, found '{tok.text}'", tok.span)

    def parse_sort(self) -> T.ChannelSort:
        if self.at("chan"):
            self.next()
            self.expect("(")
            inner = self.parse_sort()
            self.expect(")")
            return T.CarriesChan(inner)
        return T.sort_of_type(self.parse_type())

    # -- computation expressions -------------------------------------------

    def parse_expr(self) -> S.CompExpr:
        tok = self.peek()
        if tok.kind == "fun":
            self.next()
            self.expect("(")
            param = self.name()
            self.expect(":")
            param_type = self.parse_type()
            self.expect(")")
            body = self.parse_expr()
            return S.Lambda(param, param_type, body, tok.span)
        if tok.kind == "rec":
            return self.parse_rec()
        return self.parse_app()

    def parse_rec(self) -> S.CompExpr:
        tok = self.expect("rec")
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
            raise ParseFailure(
                "rec binders must be distinct", rec_binder.span
            )
        self.expect("->")
        succ_branch = self.parse_expr()
        self.expect("}")
        return S.Rec(
            scrutinee, zero_branch, succ_binder, rec_binder, succ_branch,
            tok.span,
        )

    def parse_app(self) -> S.CompExpr:
        expr = self.parse_postfix()
        while self.peek().kind in _ATOM_START:
            arg = self.parse_postfix()
            expr = S.App(expr, arg, expr.span)
        return expr

    def parse_postfix(self, allow_update: bool = False):
        expr = self.parse_atom()
        while self.at("."):
            if self.peek(1).kind == "[":
                if not allow_update:
                    raise ParseFailure(
                        "object update is not allowed here", self.peek().span
                    )
                self.next()  # .
                updates = self.parse_field_list("<=")
                return S.UpdateObject(expr, updates, expr.span)
            self.next()  # .
            label = self.name(S.FIELD_LABEL)
            expr = S.FieldSel(expr, label, expr.span)
        return expr

    def parse_atom(self) -> S.CompExpr:
        tok = self.peek()
        if tok.kind == "z":
            self.next()
            return S.NatLit(0, tok.span)
        if tok.kind == "number":
            self.next()
            return S.NatLit(int(tok.text), tok.span)
        if tok.kind == "succ":
            self.next()
            self.expect("(")
            arg = self.parse_expr()
            self.expect(")")
            return S.succ(arg, tok.span)
        if tok.kind == "ident":
            self.next()
            return S.Var(S.Name(tok.text, S.VARIABLE, tok.span), tok.span)
        if tok.kind == "(":
            self.next()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        raise ParseFailure(
            f"expected an expression, found '{tok.text or 'end of input'}'",
            tok.span,
        )

    def parse_field_list(self, sep: str) -> tuple:
        """`[ l <sep> e, ... ]` with a duplicate-label diagnostic."""
        open_tok = self.expect("[")
        fields: list[tuple[S.Name, S.CompExpr]] = []
        while True:
            lab = self.name(S.FIELD_LABEL)
            self.expect(sep)
            fields.append((lab, self.parse_expr()))
            if not self.at(","):
                break
            self.next()
        self.expect("]")
        seen: set[str] = set()
        for lab, _ in fields:
            if lab.text in seen:
                raise ParseFailure(
                    f"duplicate field label '{lab}'", lab.span
                )
            seen.add(lab.text)
        if not fields:
            raise ParseFailure("at least one field required", open_tok.span)
        return tuple(fields)

    # -- payloads ----------------------------------------------------------

    def parse_payload(self) -> S.Payload:
        tok = self.peek()
        if tok.kind == "[":
            fields = self.parse_field_list("=")
            return S.ObjPayload(S.MakeObject(fields, tok.span), tok.span)
        expr = self.parse_payload_expr()
        if isinstance(expr, (S.MakeObject, S.UpdateObject)):
            return S.ObjPayload(expr, tok.span)
        if isinstance(expr, S.Var):
            # bare identifier: channel vs variable resolved from scope later
            return S.NamePayload(expr.name, tok.span)
        return S.CompPayload(expr, tok.span)

    def parse_payload_expr(self):
        """Like parse_expr but admitting a trailing `.[l <= e, ...]` update."""
        tok = self.peek()
        if tok.kind in ("fun", "rec"):
            return self.parse_expr()
        expr = self.parse_postfix(allow_update=True)
        if isinstance(expr, S.UpdateObject):
            return expr
        while self.peek().kind in _ATOM_START:
            arg = self.parse_postfix()
            expr = S.App(expr, arg, expr.span)
        return expr

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
        plus_span, operands = self.peek().span, []
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
        # a chain of actions is collected, then folded from its end
        heads, tok = [], self.peek()
        while tok.kind == "[" or (
            tok.kind == "ident" and self.peek(1).kind in ("!", "?")
        ):
            heads.append((self.parse_action(), tok.span))
            self.expect(".")
            tok = self.peek()
        term = self.parse_unprefixed(tok)
        for action, span in reversed(heads):
            term = S.Prefix(action, term, span)
        return term

    def parse_unprefixed(self, tok: Token) -> S.ProcTerm:
        if tok.kind == "number":
            if tok.text != "0":
                raise ParseFailure(
                    f"expected a process, found number '{tok.text}'", tok.span
                )
            self.next()
            return S.Nil(tok.span)
        if tok.kind == "!":
            self.next()
            return S.Repl(self.parse_prefixed(), tok.span)
        if tok.kind == "new":
            self.next()
            chan = self.name(S.CHANNEL)
            self.expect(":")
            sort = self.parse_sort()
            self.expect("in")
            body = self.parse_proc()
            return S.Restrict(chan, sort, body, tok.span)
        if tok.kind == "(":
            self.next()
            term = self.parse_proc()
            self.expect(")")
            return term
        if tok.kind == "ident":
            self.next()
            ref = S.ProcRef(S.Name(tok.text, S.VARIABLE, tok.span), tok.span)
            self.proc_refs.append(ref)
            return ref
        raise ParseFailure(
            f"expected a process, found '{tok.text or 'end of input'}'",
            tok.span,
        )

    def parse_action(self) -> S.ProcAction:
        tok = self.peek()
        if tok.kind == "[":
            self.next()
            left = self.parse_payload()
            self.expect("=")
            right = self.parse_payload()
            self.expect("]")
            inner = self.parse_action()
            return S.Match(left, right, inner, tok.span)
        chan = self.name(S.CHANNEL)
        if self.at("!"):
            self.next()
            self.expect("(")
            payload = self.parse_payload()
            self.expect(")")
            return S.Send(chan, payload, tok.span)
        self.expect("?")
        self.expect("(")
        binder = self.name()
        self.expect(")")
        return S.Receive(chan, binder, tok.span)

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
            tok = self.peek()
            if tok.kind == "def":
                self.next()
                name = self.name()
                declare(name)
                self.expect("=")
                items.append(S.DefDef(name, self.parse_expr(), tok.span))
            elif tok.kind == "chan":
                self.next()
                name = self.name(S.CHANNEL)
                declare(name)
                self.expect(":")
                items.append(S.ChanDecl(name, self.parse_sort(), tok.span))
            elif tok.kind == "proc":
                self.next()
                name = self.name()
                declare(name)
                self.expect("=")
                body = self.parse_proc()
                resolve_refs()
                items.append(S.ProcDef(name, body, tok.span))
                proc_names.add(name.text)
            elif tok.kind == "system":
                self.next()
                self.expect("=")
                if entry is not None:
                    self.error("duplicate 'system' entry", tok.span)
                entry = self.parse_proc()
                resolve_refs()
            else:
                raise ParseFailure(
                    f"expected a top-level item, found "
                    f"'{tok.text or 'end of input'}'",
                    tok.span,
                )
        return S.Program(tuple(items), entry)


def _run(text: str, filename: str, production) -> object:
    """Parse `text` with `production`, a `Parser` method."""
    diagnostics: list[Diagnostic] = []
    try:
        parser = Parser(text, filename)  # lexing may fail too
        diagnostics = parser.diagnostics
        result = production(parser)
        parser.expect("eof")
    except ParseFailure as exc:
        diag = Diagnostic(
            exc.diagnostic.message, exc.diagnostic.span, filename=filename,
        )
        raise MlgError(diagnostics + [diag]) from None
    if diagnostics:
        raise MlgError(diagnostics)
    return result


def parse_program(text: str, filename: str = "<input>") -> S.Program:
    return _run(text, filename, Parser.parse_program)


def parse_comp_expr(text: str, filename: str = "<input>") -> S.CompExpr:
    return _run(text, filename, Parser.parse_expr)


def parse_payload(text: str, filename: str = "<input>") -> S.Payload:
    return _run(text, filename, Parser.parse_payload)


def parse_proc_term(text: str, filename: str = "<input>") -> S.ProcTerm:
    return _run(text, filename, Parser.parse_proc)


def parse_type(text: str, filename: str = "<input>") -> S.CompType:
    return _run(text, filename, Parser.parse_type)
