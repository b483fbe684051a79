"""Abstract syntax for the three language cores.

Structural equality ignores source spans, so `parse(pretty_program(p)) == p`
is the round-trip law used throughout the tests. The parser alone checks
that syntax is well formed.
"""

from __future__ import annotations

from operator import attrgetter

from .diagnostics import DUMMY_SPAN, Span

# ---------------------------------------------------------------------------
# Nodes

# a node's `__init__` stores its fields with this, past `Node.__setattr__`
_set = object.__setattr__


def _getter(fields: tuple[str, ...]):
    """A function from a node to the tuple of its `fields`' values."""
    if len(fields) > 1:
        return attrgetter(*fields)
    if fields:  # `attrgetter` of one name gives the bare value
        get = attrgetter(*fields)
        return lambda node: (get(node),)
    return lambda node: ()


class Node:
    """An immutable record whose fields are its `__init__`'s parameters,
    except `span`, read once per class when it is defined. A node equals a
    node of its own class with equal fields, whatever their spans, and
    hashes as the tuple of its fields. Each class writes its `__init__`
    out, so no code is generated for it at import.

    A subclass that overrides `__eq__` also defines `__hash__`. Instances
    keep a `__dict__`, which caches computed from a node live in."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _values = staticmethod(_getter(()))

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        init = cls.__dict__.get("__init__")
        if init is not None:
            code = init.__code__
            cls._fields = tuple(
                name for name in code.co_varnames[1:code.co_argcount]
                if name != "span")
            cls._values = staticmethod(_getter(cls._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field '{name}'")


# ---------------------------------------------------------------------------
# Names


class Name(Node):
    def __init__(self, text: str, span: Span = DUMMY_SPAN):
        _set(self, "text", text)
        _set(self, "span", span)

    def __str__(self) -> str:
        return self.text


# ---------------------------------------------------------------------------
# Computation-core types


class NatType(Node):
    def __str__(self) -> str:
        return "nat"


class ArrowType(Node):
    """Compared, hashed and printed by a loop down the codomain spine."""

    def __init__(self, domain: CompType, codomain: CompType):
        _set(self, "domain", domain)
        _set(self, "codomain", codomain)

    def _spine(self) -> tuple[CompType, ...]:
        """The domains down the codomain chain, then the last codomain."""
        ty, spine = self, []
        while isinstance(ty, ArrowType):
            spine.append(ty.domain)
            ty = ty.codomain
        return (*spine, ty)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArrowType):
            return NotImplemented
        return self is other or self._spine() == other._spine()

    def __hash__(self) -> int:
        return hash(self._spine())

    def __str__(self) -> str:
        # the last codomain is never an arrow: only domains get parentheses
        return " -> ".join(f"({t})" if isinstance(t, ArrowType) else str(t)
                           for t in self._spine())


class ObjType(Node):
    # ordered (label, type) pairs, as parsed: labels distinct, at least one
    def __init__(self, signature: tuple[tuple[Name, CompType], ...]):
        _set(self, "signature", signature)

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


class ChanSort(Node):
    """The sort of a channel that carries channels of sort `inner`."""

    def __init__(self, inner: Sort):
        _set(self, "inner", inner)

    def __str__(self) -> str:
        return f"chan({self.inner})"


# A channel's sort: the computation type it carries, or a channel sort
Sort = CompType | ChanSort


# ---------------------------------------------------------------------------
# Computation-core expressions


class Var(Node):
    def __init__(self, name: Name, span: Span = DUMMY_SPAN):
        _set(self, "name", name)
        _set(self, "span", span)


class NatLit(Node):
    """A natural-number literal: `z`, a decimal numeral, or `succ` of one."""

    def __init__(self, n: int, span: Span = DUMMY_SPAN):
        _set(self, "n", n)
        _set(self, "span", span)


class Succ(Node):
    def __init__(self, arg: CompExpr, span: Span = DUMMY_SPAN):
        _set(self, "arg", arg)
        _set(self, "span", span)


class Rec(Node):
    def __init__(self, scrutinee: CompExpr, zero_branch: CompExpr,
                 succ_binder: Name, rec_binder: Name, succ_branch: CompExpr,
                 span: Span = DUMMY_SPAN):
        _set(self, "scrutinee", scrutinee)
        _set(self, "zero_branch", zero_branch)
        _set(self, "succ_binder", succ_binder)
        _set(self, "rec_binder", rec_binder)
        _set(self, "succ_branch", succ_branch)
        _set(self, "span", span)


class Lambda(Node):
    def __init__(self, param: Name, param_type: CompType, body: CompExpr,
                 span: Span = DUMMY_SPAN):
        _set(self, "param", param)
        _set(self, "param_type", param_type)
        _set(self, "body", body)
        _set(self, "span", span)


class App(Node):
    def __init__(self, fn: CompExpr, arg: CompExpr, span: Span = DUMMY_SPAN):
        _set(self, "fn", fn)
        _set(self, "arg", arg)
        _set(self, "span", span)


class FieldSel(Node):
    def __init__(self, subject: CompExpr, label: Name,
                 span: Span = DUMMY_SPAN):
        _set(self, "subject", subject)
        _set(self, "label", label)
        _set(self, "span", span)


CompExpr = Var | NatLit | Succ | Rec | Lambda | App | FieldSel


def succ(arg: CompExpr, span: Span = DUMMY_SPAN) -> CompExpr:
    """`succ(arg)` in normal form: the successor of a literal is a literal,
    so `succ(2)`, `3` and `succ(succ(succ(z)))` are one node."""
    if isinstance(arg, NatLit):
        return NatLit(arg.n + 1, span)
    return Succ(arg, span)


# ---------------------------------------------------------------------------
# Data-core expressions


class MakeObject(Node):
    def __init__(self, fields: tuple[tuple[Name, CompExpr], ...],
                 span: Span = DUMMY_SPAN):
        _set(self, "fields", fields)
        _set(self, "span", span)


class UpdateObject(Node):
    def __init__(self, target: CompExpr,
                 updates: tuple[tuple[Name, CompExpr], ...],
                 span: Span = DUMMY_SPAN):
        _set(self, "target", target)
        _set(self, "updates", updates)
        _set(self, "span", span)


DataExpr = MakeObject | UpdateObject


# ---------------------------------------------------------------------------
# Coordination-core payloads and processes

# A payload is the expression it sends; a bare name is a `Var`, resolved
# as a variable or a channel from the enclosing scope
Payload = CompExpr | DataExpr


class Send(Node):
    def __init__(self, chan: Name, payload: Payload, span: Span = DUMMY_SPAN):
        _set(self, "chan", chan)
        _set(self, "payload", payload)
        _set(self, "span", span)


class Receive(Node):
    def __init__(self, chan: Name, binder: Name, span: Span = DUMMY_SPAN):
        _set(self, "chan", chan)
        _set(self, "binder", binder)
        _set(self, "span", span)


class Match(Node):
    def __init__(self, left: Payload, right: Payload, inner: ProcAction,
                 span: Span = DUMMY_SPAN):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "inner", inner)
        _set(self, "span", span)


ProcAction = Send | Receive | Match


class Nil(Node):
    def __init__(self, span: Span = DUMMY_SPAN):
        _set(self, "span", span)


class Prefix(Node):
    def __init__(self, action: ProcAction, continuation: ProcTerm,
                 span: Span = DUMMY_SPAN):
        _set(self, "action", action)
        _set(self, "continuation", continuation)
        _set(self, "span", span)


class Sum(Node):
    """`+` is associative, so a sum is one flat node of guarded operands."""

    def __init__(self, operands: tuple[Nil | Prefix, ...],
                 span: Span = DUMMY_SPAN):
        for op in operands:
            if not isinstance(op, (Nil, Prefix)):
                raise ValueError("unguarded sum operand")
        _set(self, "operands", operands)
        _set(self, "span", span)


class Par(Node):
    """One node per unparenthesized `|` chain."""

    def __init__(self, operands: tuple[ProcTerm, ...],
                 span: Span = DUMMY_SPAN):
        _set(self, "operands", operands)
        _set(self, "span", span)


class Restrict(Node):
    def __init__(self, chan: Name, chan_sort: Sort, body: ProcTerm,
                 span: Span = DUMMY_SPAN):
        _set(self, "chan", chan)
        _set(self, "chan_sort", chan_sort)
        _set(self, "body", body)
        _set(self, "span", span)


class Repl(Node):
    def __init__(self, body: ProcTerm, span: Span = DUMMY_SPAN):
        _set(self, "body", body)
        _set(self, "span", span)


class ProcRef(Node):
    """Reference to a named top-level process definition."""

    def __init__(self, name: Name, span: Span = DUMMY_SPAN):
        _set(self, "name", name)
        _set(self, "span", span)


ProcTerm = Nil | Prefix | Sum | Par | Restrict | Repl | ProcRef


# ---------------------------------------------------------------------------
# Programs


class DefDef(Node):
    def __init__(self, name: Name, body: CompExpr, span: Span = DUMMY_SPAN):
        _set(self, "name", name)
        _set(self, "body", body)
        _set(self, "span", span)


class ChanDecl(Node):
    def __init__(self, name: Name, sort: Sort, span: Span = DUMMY_SPAN):
        _set(self, "name", name)
        _set(self, "sort", sort)
        _set(self, "span", span)


class ProcDef(Node):
    def __init__(self, name: Name, body: ProcTerm, span: Span = DUMMY_SPAN):
        _set(self, "name", name)
        _set(self, "body", body)
        _set(self, "span", span)


TopItem = DefDef | ChanDecl | ProcDef


class Program(Node):
    def __init__(self, defs: tuple[TopItem, ...],
                 entry: ProcTerm | None = None):
        _set(self, "defs", defs)
        _set(self, "entry", entry)

    def comp_defs(self) -> list[DefDef]:
        return [d for d in self.defs if isinstance(d, DefDef)]

    def proc_defs(self) -> list[ProcDef]:
        return [d for d in self.defs if isinstance(d, ProcDef)]

    def first_repl(self) -> Repl | None:
        """The first replication in source order, if any."""
        terms = [d.body for d in self.proc_defs()]
        if self.entry is not None:
            terms.append(self.entry)
        stack = sorted(terms, key=lambda t: t.span)[::-1]
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
