"""Terminating big-step evaluator for the computation core.

Call-by-value, left to right. Steps count one per function application and
one per recursor unfolding; recursor unfolding is computed bottom-up so deep
recursions do not consume Python stack.

Each expression is compiled once, on its first evaluation, into nested Python
closures (Feeley & Lapalme, "Using closures for code generation", 1987). A
node's static scope is the parameter of its nearest enclosing `fun` and the
`rec` binders between the two; those locals are read from a frame tuple at
slots fixed at compile time (de Bruijn, 1972), and every other name from the
ValueEnv. A `fun` evaluated inside a frame copies the frame into its
closure's env.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from .diagnostics import DUMMY_SPAN, MlgError, Span
from . import syntax as S


@dataclass(frozen=True)
class NatVal:
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("naturals are non-negative")


@dataclass(frozen=True)
class Closure:
    param: S.Name
    param_type: S.CompType
    body: S.CompExpr
    env: "ValueEnv"


@dataclass(frozen=True)
class ObjRef:
    id: int


@dataclass(frozen=True)
class ChanRef:
    """A channel, the only record of it: a declaration or a restriction
    makes one, and a communication can pass it on. Refs are equal when
    their ids and sorts are; the hash is the id alone."""
    id: int
    sort: S.Sort = field(hash=False)
    name: str = field(compare=False)
    restricted: bool = field(compare=False)


Value = NatVal | Closure | ObjRef | ChanRef


class ValueEnv:
    """Persistent name->Value map; extension never mutates the parent."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: dict[str, Value] | None = None):
        self._bindings = bindings or {}

    def lookup(self, name: str) -> Value:
        try:
            return self._bindings[name]
        except KeyError:
            raise EvalFault(f"unbound variable '{name}'") from None

    def maybe(self, name: str) -> Value | None:
        return self._bindings.get(name)

    def extend(self, name: str, value: Value) -> "ValueEnv":
        child = dict(self._bindings)
        child[name] = value
        return ValueEnv(child)


EMPTY_ENV = ValueEnv()


@dataclass
class EvalResult:
    value: Value
    steps: int


class EvalFault(MlgError):
    """Runtime diagnostic; unreachable for statically checked programs,
    except for fuel exhaustion."""

    def at(self, span: Span) -> "EvalFault":
        """This fault located at `span`, unless it already has a location."""
        diag = self.diagnostics[0]
        if diag.span != DUMMY_SPAN:
            return self
        return type(self)(replace(diag, span=span))


class FuelExhausted(EvalFault):
    pass


class Fuel:
    """Step budget shared across one evaluation (and its sub-evaluations)."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        if limit <= 0:
            raise ValueError("fuel limit must be positive")
        self.limit = limit
        self.used = 0

    def tick(self, k: int = 1) -> None:
        self.used += k
        if self.used > self.limit:
            raise FuelExhausted(
                f"evaluation exceeded the {self.limit}-step budget"
            )


def eval_comp(
    env: ValueEnv,
    store,
    e: S.CompExpr,
    fuel: Fuel | None = None,
) -> EvalResult:
    """Evaluate `e`; `store` is only ever read (get), never written."""
    counter = fuel if fuel is not None else Fuel(10**9)
    value = _code(e, None)(env, (), store, counter)
    return EvalResult(value, counter.used)


# ---------------------------------------------------------------------------
# Compilation. A node's code is called as code(env, frame, store, fuel): the
# frame tuple holds the node's locals, in the order of its static scope, and
# env holds every other name.

Code = Callable[[ValueEnv, tuple, object, Fuel], Value]

_INTERNED = 256
# NatVal(n) for n < _INTERNED, shared by all compiled code; filled by the
# first compilation, since making them at import would slow every start
_NATS: list[NatVal] = []


def _nat(n: int) -> NatVal:
    """NatVal(n), shared for small n; only for compiled code."""
    return _NATS[n] if n < _INTERNED else NatVal(n)


def _code(e: S.CompExpr, param: str | None) -> Code:
    """The code of `e` as a whole expression (param None, empty frame) or as
    the body of a function of `param` (frame `(arg,)`). It is compiled on
    first use and kept on `e`, so it lives as long as the syntax tree."""
    entry = e.__dict__.get("_code")
    if entry is not None and entry[0] == param:
        return entry[1]
    if not _NATS:
        _NATS.extend(map(NatVal, range(_INTERNED)))
    code = _compile(e, () if param is None else (param,))
    object.__setattr__(e, "_code", (param, code))
    return code


def _compile(e: S.CompExpr, scope: tuple[str, ...]) -> Code:
    if isinstance(e, S.Var):
        name = e.name.text
        if name in scope:
            # the innermost binder of the name wins
            slot = len(scope) - 1 - scope[::-1].index(name)

            def local(env, frame, store, fuel):
                return frame[slot]
            return local

        def free(env, frame, store, fuel):
            return env.lookup(name)
        return free

    if isinstance(e, S.NatLit):
        value = _nat(e.n)

        def constant(env, frame, store, fuel):
            return value
        return constant

    if isinstance(e, S.Succ):
        inner = _compile(e.arg, scope)

        def succ(env, frame, store, fuel):
            v = inner(env, frame, store, fuel)
            if not isinstance(v, NatVal):
                raise EvalFault("succ applied to a non-natural")
            return _nat(v.n + 1)
        return succ

    if isinstance(e, S.Lambda):
        param, param_type, body = e.param, e.param_type, e.body

        def lam(env, frame, store, fuel):
            for name, value in zip(scope, frame):
                env = env.extend(name, value)
            return Closure(param, param_type, body, env)
        return lam

    if isinstance(e, S.App):
        fn_code = _compile(e.fn, scope)
        arg_code = _compile(e.arg, scope)

        def app(env, frame, store, fuel):
            fn = fn_code(env, frame, store, fuel)
            arg = arg_code(env, frame, store, fuel)
            if not isinstance(fn, Closure):
                raise EvalFault("applying a non-function value")
            fuel.tick()
            return _code(fn.body, fn.param.text)(fn.env, (arg,), store, fuel)
        return app

    if isinstance(e, S.Rec):
        scrutinee = _compile(e.scrutinee, scope)
        zero_branch = _compile(e.zero_branch, scope)
        succ_branch = _compile(
            e.succ_branch, scope + (e.succ_binder.text, e.rec_binder.text)
        )

        def rec(env, frame, store, fuel):
            scrut = scrutinee(env, frame, store, fuel)
            if not isinstance(scrut, NatVal):
                raise EvalFault("rec scrutinee is not a natural")
            # bottom-up unfolding: acc at i is the value of rec applied to i
            acc = zero_branch(env, frame, store, fuel)
            for i in range(scrut.n):
                fuel.tick()
                acc = succ_branch(
                    env, frame + (_NATS[i] if i < _INTERNED else NatVal(i),
                                  acc),
                    store, fuel)
            return acc

        def rec_of_var(env, frame, store, fuel):
            # a branch that only reads a variable has one value at every
            # unfolding after the first, so the unfoldings after the first
            # are ticked at once, up to the one that runs out, and the
            # branch is read once more
            scrut = scrutinee(env, frame, store, fuel)
            if not isinstance(scrut, NatVal):
                raise EvalFault("rec scrutinee is not a natural")
            acc = zero_branch(env, frame, store, fuel)
            n = scrut.n
            if n:
                fuel.tick()
                acc = succ_branch(env, frame + (_NATS[0], acc), store, fuel)
            if n > 1:
                fuel.tick(min(n - 1, fuel.limit - fuel.used + 1))
                acc = succ_branch(env, frame + (_nat(n - 1), acc), store, fuel)
            return acc

        return rec_of_var if isinstance(e.succ_branch, S.Var) else rec

    if isinstance(e, S.FieldSel):
        subject_code = _compile(e.subject, scope)
        label = e.label.text

        def field_sel(env, frame, store, fuel):
            subject = subject_code(env, frame, store, fuel)
            if not isinstance(subject, ObjRef):
                raise EvalFault("field selection on a non-object value")
            if store is None:
                raise EvalFault("field selection with no object store")
            return store.get(subject, label)
        return field_sel

    message = f"cannot evaluate {type(e).__name__}"

    def stuck(env, frame, store, fuel):
        raise EvalFault(message)
    return stuck


def value_inhabits(value: Value, ty: S.CompType, store=None) -> bool:
    """Runtime check that a value inhabits a static type (tag-level)."""
    if isinstance(ty, S.NatType):
        return isinstance(value, NatVal)
    if isinstance(ty, S.ArrowType):
        return isinstance(value, Closure) and value.param_type == ty.domain
    if isinstance(ty, S.ObjType):
        if not isinstance(value, ObjRef):
            return False
        if store is None:
            return True
        obj = store.objects.get(value.id)
        return obj is not None and (
            obj.signature is None or obj.signature == ty
        )
    return False
