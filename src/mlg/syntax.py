"""Abstract syntax for the three language cores.

Structural equality ignores source spans, so `parse(pretty_program(p)) == p`
is the round-trip law used throughout the tests. The parser alone checks
that syntax is well formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagnostics import DUMMY_SPAN, Span

# ---------------------------------------------------------------------------
# Names


@dataclass(frozen=True)
class Name:
    text: str
    span: Span = field(default=DUMMY_SPAN, compare=False)

    def __str__(self) -> str:
        return self.text


# ---------------------------------------------------------------------------
# Computation-core types


@dataclass(frozen=True)
class NatType:
    def __str__(self) -> str:
        return "nat"


@dataclass(frozen=True)
class ArrowType:
    domain: CompType
    codomain: CompType

    def __str__(self) -> str:
        dom = str(self.domain)
        if isinstance(self.domain, ArrowType):
            dom = f"({dom})"
        return f"{dom} -> {self.codomain}"


@dataclass(frozen=True)
class ObjType:
    # ordered (label, type) pairs, as parsed: labels distinct, at least one
    signature: tuple[tuple[Name, "CompType"], ...]

    def lookup(self, label: str) -> "CompType | None":
        for lab, ty in self.signature:
            if lab.text == label:
                return ty
        return None

    def labels(self) -> list[str]:
        return [lab.text for lab, _ in self.signature]

    def __str__(self) -> str:
        inner = ", ".join(f"{lab} : {ty}" for lab, ty in self.signature)
        return f"[{inner}]"


CompType = NatType | ArrowType | ObjType

NAT = NatType()


@dataclass(frozen=True)
class ChanSort:
    """The sort of a channel that carries channels of sort `inner`."""

    inner: Sort

    def __str__(self) -> str:
        return f"chan({self.inner})"


# A channel's sort: the computation type it carries, or a channel sort
Sort = CompType | ChanSort


# ---------------------------------------------------------------------------
# Computation-core expressions


@dataclass(frozen=True)
class Var:
    name: Name
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass(frozen=True)
class NatLit:
    """A natural-number literal: `z`, a decimal numeral, or `succ` of one."""

    n: int
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass(frozen=True)
class Succ:
    arg: CompExpr
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass(frozen=True)
class Rec:
    scrutinee: CompExpr
    zero_branch: CompExpr
    succ_binder: Name
    rec_binder: Name
    succ_branch: CompExpr
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass(frozen=True)
class Lambda:
    param: Name
    param_type: CompType
    body: CompExpr
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass(frozen=True)
class App:
    fn: CompExpr
    arg: CompExpr
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass(frozen=True)
class FieldSel:
    subject: CompExpr
    label: Name
    span: Span = field(default=DUMMY_SPAN, compare=False)


CompExpr = Var | NatLit | Succ | Rec | Lambda | App | FieldSel


def succ(arg: CompExpr, span: Span = DUMMY_SPAN) -> CompExpr:
    """`succ(arg)` in normal form: the successor of a literal is a literal,
    so `succ(2)`, `3` and `succ(succ(succ(z)))` are one node."""
    if isinstance(arg, NatLit):
        return NatLit(arg.n + 1, span)
    return Succ(arg, span)


# ---------------------------------------------------------------------------
# Data-core expressions


@dataclass(frozen=True)
class MakeObject:
    fields: tuple[tuple[Name, CompExpr], ...]
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass(frozen=True)
class UpdateObject:
    target: CompExpr
    updates: tuple[tuple[Name, CompExpr], ...]
    span: Span = field(default=DUMMY_SPAN, compare=False)


DataExpr = MakeObject | UpdateObject


# ---------------------------------------------------------------------------
# Coordination-core payloads and processes

# A payload is the expression it sends; a bare name is a `Var`, resolved
# as a variable or a channel from the enclosing scope
Payload = CompExpr | DataExpr


@dataclass(frozen=True)
class Send:
    chan: Name
    payload: Payload
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass(frozen=True)
class Receive:
    chan: Name
    binder: Name
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass(frozen=True)
class Match:
    left: Payload
    right: Payload
    inner: ProcAction
    span: Span = field(default=DUMMY_SPAN, compare=False)


ProcAction = Send | Receive | Match


@dataclass(frozen=True)
class Nil:
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass(frozen=True)
class Prefix:
    action: ProcAction
    continuation: ProcTerm
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass(frozen=True)
class Sum:
    """`+` is associative, so a sum is one flat node of guarded operands."""

    operands: tuple[Nil | Prefix, ...]
    span: Span = field(default=DUMMY_SPAN, compare=False)

    def __post_init__(self):
        for op in self.operands:
            if not isinstance(op, (Nil, Prefix)):
                raise ValueError("unguarded sum operand")


@dataclass(frozen=True)
class Par:
    """One node per unparenthesized `|` chain."""

    operands: tuple[ProcTerm, ...]
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass(frozen=True)
class Restrict:
    chan: Name
    chan_sort: Sort
    body: ProcTerm
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass(frozen=True)
class Repl:
    body: ProcTerm
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass(frozen=True)
class ProcRef:
    """Reference to a named top-level process definition."""

    name: Name
    span: Span = field(default=DUMMY_SPAN, compare=False)


ProcTerm = Nil | Prefix | Sum | Par | Restrict | Repl | ProcRef


# ---------------------------------------------------------------------------
# Programs


@dataclass(frozen=True)
class DefDef:
    name: Name
    body: CompExpr
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass(frozen=True)
class ChanDecl:
    name: Name
    sort: Sort
    span: Span = field(default=DUMMY_SPAN, compare=False)


@dataclass(frozen=True)
class ProcDef:
    name: Name
    body: ProcTerm
    span: Span = field(default=DUMMY_SPAN, compare=False)


TopItem = DefDef | ChanDecl | ProcDef


@dataclass(frozen=True)
class Program:
    defs: tuple[TopItem, ...]
    entry: ProcTerm | None = None

    def comp_defs(self) -> list[DefDef]:
        return [d for d in self.defs if isinstance(d, DefDef)]

    def proc_defs(self) -> list[ProcDef]:
        return [d for d in self.defs if isinstance(d, ProcDef)]

    def first_repl(self) -> Repl | None:
        """The first replication in source order, if any."""
        terms = [d.body for d in self.proc_defs()]
        if self.entry is not None:
            terms.append(self.entry)
        stack = sorted(terms, key=lambda t: t.span.start)[::-1]
        while stack:
            p = stack.pop()
            if isinstance(p, Repl):
                return p
            if isinstance(p, (Sum, Par)):
                stack.extend(reversed(p.operands))
            elif isinstance(p, Prefix):
                stack.append(p.continuation)
            elif isinstance(p, Restrict):
                stack.append(p.body)
        return None
