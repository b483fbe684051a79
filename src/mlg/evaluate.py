"""Terminating big-step evaluator for the computation core.

Call-by-value, left to right. Steps count one per function application and
one per recursor unfolding; recursor unfolding is computed bottom-up so deep
recursions do not consume Python stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagnostics import Diagnostic, MlgError
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
    id: int


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
    """Runtime diagnostic; unreachable for statically checked programs."""


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
    value = _eval(env, store, e, counter)
    return EvalResult(value, counter.used)


def _eval(env: ValueEnv, store, e: S.CompExpr, fuel: Fuel) -> Value:
    if isinstance(e, S.Var):
        return env.lookup(e.name.text)
    if isinstance(e, S.Zero):
        return NatVal(0)
    if isinstance(e, S.Succ):
        # compact numerals: count the whole succ-chain without recursing
        n = 0
        while isinstance(e, S.Succ):
            n += 1
            e = e.arg
        inner = _eval(env, store, e, fuel)
        if not isinstance(inner, NatVal):
            raise EvalFault("succ applied to a non-natural")
        return NatVal(inner.n + n)
    if isinstance(e, S.Lambda):
        return Closure(e.param, e.param_type, e.body, env)
    if isinstance(e, S.App):
        fn = _eval(env, store, e.fn, fuel)
        arg = _eval(env, store, e.arg, fuel)
        if not isinstance(fn, Closure):
            raise EvalFault("applying a non-function value")
        fuel.tick()
        return _eval(fn.env.extend(fn.param.text, arg), store, fn.body, fuel)
    if isinstance(e, S.Rec):
        scrut = _eval(env, store, e.scrutinee, fuel)
        if not isinstance(scrut, NatVal):
            raise EvalFault("rec scrutinee is not a natural")
        # bottom-up unfolding: acc at i is the value of rec applied to i
        acc = _eval(env, store, e.zero_branch, fuel)
        for i in range(scrut.n):
            fuel.tick()
            branch_env = env.extend(e.succ_binder.text, NatVal(i)).extend(
                e.rec_binder.text, acc
            )
            acc = _eval(branch_env, store, e.succ_branch, fuel)
        return acc
    if isinstance(e, S.FieldSel):
        subject = _eval(env, store, e.subject, fuel)
        if not isinstance(subject, ObjRef):
            raise EvalFault("field selection on a non-object value")
        if store is None:
            raise EvalFault("field selection with no object store")
        return store.get(subject, e.label.text)
    raise EvalFault(f"cannot evaluate {type(e).__name__}")


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
