"""Static checking for all three cores.

Computation expressions get simple types (naturals and arrows, with a
well-founded recursor rule) extended with structural object types; object
creation/update is checked against those signatures; process terms are
checked against declared channel sorts.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, MlgError
from . import syntax as S

# The names in scope. A variable maps to its type and a channel to
# ChanSort(its sort): variables and channels share one namespace, as in
# the run-time env dict, so the innermost binder of a name wins.
TypeEnv = dict[str, S.Sort]


# ---------------------------------------------------------------------------
# Computation core


def infer_comp(env: TypeEnv, e: S.CompExpr) -> S.CompType:
    """Type of `e` under `env`; raises MlgError with a span on failure."""
    if isinstance(e, S.Var):
        ty = env.get(e.name.text)
        if ty is None or isinstance(ty, S.ChanSort):
            raise MlgError(f"unbound variable '{e.name}'", e.span)
        return ty
    if isinstance(e, S.NatLit):
        return S.NAT
    if isinstance(e, S.Succ):
        arg = infer_comp(env, e.arg)
        if not isinstance(arg, S.NatType):
            raise MlgError(f"succ expects nat, got {arg}", e.span)
        return S.NAT
    if isinstance(e, S.Rec):
        scrut = infer_comp(env, e.scrutinee)
        if not isinstance(scrut, S.NatType):
            raise MlgError(f"rec scrutinee must be nat, got {scrut}", e.span)
        zero_ty = infer_comp(env, e.zero_branch)
        body_env = {**env, e.succ_binder.text: S.NAT,
                    e.rec_binder.text: zero_ty}
        succ_ty = infer_comp(body_env, e.succ_branch)
        if succ_ty != zero_ty:
            raise MlgError(
                f"rec branches disagree: {zero_ty} vs {succ_ty}", e.span
            )
        return zero_ty
    if isinstance(e, S.Lambda):
        body_ty = infer_comp({**env, e.param.text: e.param_type}, e.body)
        return S.ArrowType(e.param_type, body_ty)
    if isinstance(e, S.App):
        fn_ty = infer_comp(env, e.fn)
        if not isinstance(fn_ty, S.ArrowType):
            raise MlgError(f"cannot apply a value of type {fn_ty}", e.span)
        arg_ty = infer_comp(env, e.arg)
        if arg_ty != fn_ty.domain:
            raise MlgError(
                f"argument type {arg_ty} does not match parameter type "
                f"{fn_ty.domain}",
                e.arg.span,
            )
        return fn_ty.codomain
    if isinstance(e, S.FieldSel):
        subj = infer_comp(env, e.subject)
        if not isinstance(subj, S.ObjType):
            raise MlgError(
                f"field selection on non-object type {subj}", e.span
            )
        ty = subj.lookup(e.label.text)
        if ty is None:
            raise MlgError(
                f"object has no field '{e.label}' (fields: "
                f"{', '.join(subj.labels())})",
                e.span,
            )
        return ty
    raise MlgError(f"unknown expression form {type(e).__name__}", e.span)


# ---------------------------------------------------------------------------
# Data core


def check_data(
    env: TypeEnv,
    d: S.DataExpr,
    annotations: dict[int, S.ObjType] | None = None,
) -> S.ObjType:
    """Object type of a creation/update expression.

    When `annotations` is given, the inferred signature of every MakeObject
    node is recorded there (keyed by node identity) so the engine can allocate
    with the statically known signature.
    """
    if isinstance(d, S.MakeObject):
        sig = tuple(
            (lab, infer_comp(env, init)) for lab, init in d.fields
        )
        obj_ty = S.ObjType(sig)
        if annotations is not None:
            annotations[id(d)] = obj_ty
        return obj_ty
    if isinstance(d, S.UpdateObject):
        target_ty = infer_comp(env, d.target)
        if not isinstance(target_ty, S.ObjType):
            raise MlgError(
                f"update target has non-object type {target_ty}", d.span
            )
        for lab, new_value in d.updates:
            declared = target_ty.lookup(lab.text)
            if declared is None:
                raise MlgError(
                    f"update writes unknown field '{lab}'", lab.span
                )
            actual = infer_comp(env, new_value)
            if actual != declared:
                raise MlgError(
                    f"update changes type of field '{lab}' from {declared} "
                    f"to {actual}",
                    new_value.span,
                )
        return target_ty
    raise MlgError(f"unknown data form {type(d).__name__}", d.span)


# ---------------------------------------------------------------------------
# Coordination core

# Payload categories for Match comparability, with their articles.
CAT_CHAN = "a channel"
CAT_NAT = "a nat"
CAT_FN = "a function"
CAT_OBJ = "an object"


def _category_of_sort(sort: S.Sort) -> str:
    if isinstance(sort, S.ChanSort):
        return CAT_CHAN
    if isinstance(sort, S.NatType):
        return CAT_NAT
    if isinstance(sort, S.ArrowType):
        return CAT_FN
    return CAT_OBJ


def _payload_sort(
    env: TypeEnv,
    payload: S.Payload,
    annotations: dict[int, S.ObjType] | None,
) -> S.Sort:
    """The sort a payload would need its channel to carry."""
    if isinstance(payload, S.Var):
        sort = env.get(payload.name.text)
        if sort is None:
            raise MlgError(f"unbound name '{payload.name}'", payload.span)
        return sort
    if isinstance(payload, S.DataExpr):
        return check_data(env, payload, annotations)
    return infer_comp(env, payload)


def _check_action(
    env: TypeEnv,
    action: S.ProcAction,
    annotations: dict[int, S.ObjType] | None,
) -> TypeEnv:
    """Check one action; returns the continuation environment."""
    if isinstance(action, S.Match):
        left = _payload_sort(env, action.left, annotations)
        right = _payload_sort(env, action.right, annotations)
        lcat, rcat = _category_of_sort(left), _category_of_sort(right)
        if lcat != rcat:
            raise MlgError(f"match compares {lcat} with {rcat}", action.span)
        if lcat == CAT_FN:
            raise MlgError("functions are not comparable in match",
                           action.span)
        if isinstance(action.left, S.DataExpr) or isinstance(
            action.right, S.DataExpr
        ):
            raise MlgError("match guards may not create or update objects",
                           action.span)
        return _check_action(env, action.inner, annotations)

    chan = env.get(action.chan.text)
    if not isinstance(chan, S.ChanSort):
        raise MlgError(f"unsorted channel '{action.chan}'", action.chan.span)
    sort = chan.inner
    if isinstance(action, S.Send):
        actual = _payload_sort(env, action.payload, annotations)
        if actual != sort:
            raise MlgError(
                f"channel '{action.chan}' carries {sort} but payload "
                f"has sort {actual}",
                action.span,
            )
        return env
    # Receive: the binder gets the channel's sort
    return {**env, action.binder.text: sort}


def check_proc(
    env: TypeEnv,
    p: S.ProcTerm,
    annotations: dict[int, S.ObjType] | None = None,
) -> list[Diagnostic]:
    """Diagnostics for a process term; empty list means ok."""
    diags: list[Diagnostic] = []
    _check_proc(env, p, diags, annotations)
    return diags


def _check_proc(
    env: TypeEnv,
    p: S.ProcTerm,
    diags: list[Diagnostic],
    annotations: dict[int, S.ObjType] | None,
) -> None:
    # prefixes, restrictions and replications extend or keep the
    # environment of the one term below them
    while True:
        if isinstance(p, S.Prefix):
            try:
                env = _check_action(env, p.action, annotations)
            except MlgError as exc:
                diags.extend(exc.diagnostics)
                return
            p = p.continuation
        elif isinstance(p, S.Restrict):
            env = {**env, p.chan.text: S.ChanSort(p.chan_sort)}
            p = p.body
        elif isinstance(p, S.Repl):
            p = p.body
        else:
            break
    # a referenced definition is checked where it is defined, in the
    # scope it runs in
    if isinstance(p, (S.Nil, S.ProcRef)):
        return
    if isinstance(p, (S.Sum, S.Par)):
        for operand in p.operands:
            _check_proc(env, operand, diags, annotations)
        return
    diags.append(Diagnostic(f"unknown process form {type(p).__name__}", p.span))


# ---------------------------------------------------------------------------
# Whole programs


class CheckResult:
    def __init__(self, def_types: dict[str, S.CompType],
                 diagnostics: list[Diagnostic],
                 obj_annotations: dict[int, S.ObjType]):
        self.def_types = def_types
        self.diagnostics = diagnostics
        # MakeObject node id -> statically inferred signature (for allocation)
        self.obj_annotations = obj_annotations

    @property
    def ok(self) -> bool:
        return not self.diagnostics


def check_program(program: S.Program) -> CheckResult:
    env: TypeEnv = {}
    def_types: dict[str, S.CompType] = {}
    diags: list[Diagnostic] = []
    annotations: dict[int, S.ObjType] = {}
    for item in program.defs:
        if isinstance(item, S.DefDef):
            try:
                ty = infer_comp(env, item.body)
            except MlgError as exc:
                diags.extend(exc.diagnostics)
                continue
            env[item.name.text] = def_types[item.name.text] = ty
        elif isinstance(item, S.ChanDecl):
            env[item.name.text] = S.ChanSort(item.sort)
        else:  # ProcDef
            diags.extend(check_proc(env, item.body, annotations))
    if program.entry is not None:
        diags.extend(check_proc(env, program.entry, annotations))
    return CheckResult(def_types, diags, annotations)
