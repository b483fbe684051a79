"""Terminating big-step evaluator for the computation core.

Call-by-value, left to right. Steps count one per function application and
one per recursor unfolding; recursor unfolding is computed bottom-up so deep
recursions do not consume Python stack.

Each expression is compiled once, on its first evaluation, into nested Python
closures (Feeley & Lapalme, "Using closures for code generation", 1987). A
node's static scope is the parameter of its nearest enclosing `fun` and the
`rec` binders between the two; those locals are read from a frame tuple at
slots fixed at compile time (de Bruijn, 1972), and every other name from the
env dict. A `fun` evaluated inside a frame copies the frame into its
closure's env; one outside any frame shares its env. A closure carries its
body's code, compiled when the first closure of its `fun` is made.

A `rec` unfolds exactly as often as its scrutinee says, so a succ branch
that is a literal, a variable or `succ` of the rec binder has a closed form
that ticks the unfoldings at once (fused operations, Proebsting's
"superoperators", 1995). Value, fault and step count are the unfolding
loop's.
"""

from __future__ import annotations

from typing import Callable

from .diagnostics import DUMMY_SPAN, Diagnostic, MlgError, Span
from . import syntax as S

_set = object.__setattr__


class Closure(S.Node):
    """Equal only to itself, since an env dict cannot be hashed; the
    explorer keys a closure by its structure. `code` is the compiled body,
    called as code(env, (arg,), store, fuel)."""

    __slots__ = ("param", "param_type", "body", "env", "code")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, param: S.Name, param_type: S.CompType,
                 body: S.CompExpr, env: "ValueEnv", code: "Code"):
        _set(self, "param", param)
        _set(self, "param_type", param_type)
        _set(self, "body", body)
        _set(self, "env", env)
        _set(self, "code", code)


class ObjRef(S.Node):
    def __init__(self, id: int):
        _set(self, "id", id)


class ChanRef(S.Node):
    """A channel, the only record of it: a declaration or a restriction
    makes one, and a communication can pass it on. Refs are equal when
    their ids and sorts are; the hash is the id alone."""

    def __init__(self, id: int, sort: S.Sort, name: str, restricted: bool):
        _set(self, "id", id)
        _set(self, "sort", sort)
        _set(self, "name", name)
        _set(self, "restricted", restricted)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.id, self.sort) == (other.id, other.sort)

    def __hash__(self) -> int:
        return hash((self.id,))


Value = int | Closure | ObjRef | ChanRef
# a binder extends an env by copy, never in place
ValueEnv = dict[str, Value]
EMPTY_ENV: ValueEnv = {}


class EvalResult:
    __slots__ = ("value", "steps")

    def __init__(self, value: Value, steps: int):
        self.value = value
        self.steps = steps


class EvalFault(MlgError):
    """Runtime diagnostic; unreachable for statically checked programs,
    except for fuel exhaustion."""

    def at(self, span: Span) -> "EvalFault":
        """This fault located at `span`, unless it already has a location."""
        diag = self.diagnostics[0]
        if diag.span != DUMMY_SPAN:
            return self
        return type(self)(Diagnostic(diag.message, span))


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
        # running out leaves `used` where a step-by-step loop would stop
        self.used += k
        if self.used > self.limit:
            self.used = self.limit + 1
            raise FuelExhausted(
                f"evaluation exceeded the {self.limit}-step budget"
            )


def eval_comp(
    env: ValueEnv,
    store,
    e: S.CompExpr,
    fuel: Fuel,
) -> EvalResult:
    """Evaluate `e`; `store` is only ever read (get), never written."""
    value = _code(e)(env, (), store, fuel)
    return EvalResult(value, fuel.used)


# ---------------------------------------------------------------------------
# Compilation. A node's code is called as code(env, frame, store, fuel): the
# frame tuple holds the node's locals, in the order of its static scope, and
# env holds every other name.

Code = Callable[[ValueEnv, tuple, object, Fuel], Value]

def _code(e: S.CompExpr) -> Code:
    """The code of `e` as a whole expression, called with an empty frame. It
    is compiled on first use and kept on `e`, so it lives as long as the
    syntax tree."""
    code = e.__dict__.get("_code")
    if code is None:
        code = _compile(e, ())
        object.__setattr__(e, "_code", code)
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
            try:
                return env[name]
            except KeyError:
                raise EvalFault(f"unbound variable '{name}'") from None
        return free

    if isinstance(e, S.NatLit):
        value = e.n

        def constant(env, frame, store, fuel):
            return value
        return constant

    if isinstance(e, S.Succ):
        inner = _compile(e.arg, scope)

        def succ(env, frame, store, fuel):
            v = inner(env, frame, store, fuel)
            if not isinstance(v, int):
                raise EvalFault("succ applied to a non-natural")
            return v + 1
        return succ

    if isinstance(e, S.Lambda):
        param, param_type, body = e.param, e.param_type, e.body
        body_code = None

        def lam(env, frame, store, fuel):
            nonlocal body_code
            if body_code is None:
                # compiled here, so nested funs compile one level at a time
                body_code = _compile(body, (param.text,))
            if scope:
                # later binders overwrite earlier ones: the innermost wins
                env = {**env, **dict(zip(scope, frame))}
            return Closure(param, param_type, body, env, body_code)
        return lam

    if isinstance(e, S.App):
        fn_code = _compile(e.fn, scope)
        arg_code = _compile(e.arg, scope)

        def app(env, frame, store, fuel):
            fn = fn_code(env, frame, store, fuel)
            arg = arg_code(env, frame, store, fuel)
            if not isinstance(fn, Closure):
                raise EvalFault("applying a non-function value")
            fuel.used += 1
            if fuel.used > fuel.limit:
                fuel.tick(0)  # raises FuelExhausted
            return fn.code(fn.env, (arg,), store, fuel)
        return app

    if isinstance(e, S.Rec):
        scrutinee = _compile(e.scrutinee, scope)
        zero_branch = _compile(e.zero_branch, scope)
        succ_branch = _compile(
            e.succ_branch, scope + (e.succ_binder.text, e.rec_binder.text)
        )

        def rec(env, frame, store, fuel):
            scrut = scrutinee(env, frame, store, fuel)
            if not isinstance(scrut, int):
                raise EvalFault("rec scrutinee is not a natural")
            # bottom-up unfolding: acc at i is the value of rec applied to i
            acc = zero_branch(env, frame, store, fuel)
            for i in range(scrut):
                fuel.used += 1
                if fuel.used > fuel.limit:
                    fuel.tick(0)  # raises FuelExhausted
                acc = succ_branch(env, frame + (i, acc), store, fuel)
            return acc

        def rec_of_var(env, frame, store, fuel):
            # a literal, or a variable other than the succ binder, has one
            # value at every unfolding (the rec binder keeps the zero
            # branch's), so it is read once and the other unfoldings ticked
            scrut = scrutinee(env, frame, store, fuel)
            if not isinstance(scrut, int):
                raise EvalFault("rec scrutinee is not a natural")
            acc = zero_branch(env, frame, store, fuel)
            if scrut:
                fuel.tick()
                acc = succ_branch(env, frame + (0, acc), store, fuel)
                fuel.tick(scrut - 1)
            return acc

        def rec_pred(env, frame, store, fuel):
            # `succ(k) ... -> k`: the last unfolding reads scrut - 1
            scrut = scrutinee(env, frame, store, fuel)
            if not isinstance(scrut, int):
                raise EvalFault("rec scrutinee is not a natural")
            acc = zero_branch(env, frame, store, fuel)
            fuel.tick(scrut)
            return scrut - 1 if scrut else acc

        def rec_add(env, frame, store, fuel):
            # `with r -> succ(r)`: each unfolding adds one
            scrut = scrutinee(env, frame, store, fuel)
            if not isinstance(scrut, int):
                raise EvalFault("rec scrutinee is not a natural")
            acc = zero_branch(env, frame, store, fuel)
            if scrut and not isinstance(acc, int):
                fuel.tick()
                raise EvalFault("succ applied to a non-natural")
            fuel.tick(scrut)
            return acc + scrut if scrut else acc

        # the rec binder is innermost: `r` is the rec binder even when the
        # succ binder is also `r`
        k, r = S.Var(e.succ_binder), S.Var(e.rec_binder)
        return (rec_add if e.succ_branch == S.Succ(r)
                else rec_pred if e.succ_branch == k != r
                else rec_of_var if isinstance(e.succ_branch, (S.Var, S.NatLit))
                else rec)

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
        return isinstance(value, int)
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
