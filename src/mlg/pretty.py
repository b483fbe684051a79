"""Pretty-printer; `parse(pretty_program(p)) == p`, spans aside."""

from __future__ import annotations

from . import syntax as S


# -- computation expressions ------------------------------------------------

# precedence contexts
_EXPR, _APP, _POSTFIX = 0, 1, 2


def _expr(e, level: int) -> str:
    if isinstance(e, S.Var):
        return e.name.text
    if isinstance(e, S.NatLit):
        return str(e.n) if e.n else "z"
    if isinstance(e, S.Succ):
        return f"succ({_expr(e.arg, _EXPR)})"
    if isinstance(e, S.Lambda):
        text = (
            f"fun ({e.param} : {e.param_type}) "
            f"{_expr(e.body, _EXPR)}"
        )
        return f"({text})" if level > _EXPR else text
    if isinstance(e, S.Rec):
        scrut = _expr(e.scrutinee, _APP)
        text = (
            f"rec {scrut} {{ z -> {_expr(e.zero_branch, _EXPR)} | "
            f"succ({e.succ_binder}) with {e.rec_binder} -> "
            f"{_expr(e.succ_branch, _EXPR)} }}"
        )
        return f"({text})" if level > _EXPR else text
    if isinstance(e, S.App):
        text = f"{_expr(e.fn, _APP)} {_expr(e.arg, _POSTFIX)}"
        return f"({text})" if level > _APP else text
    if isinstance(e, S.FieldSel):
        return f"{_expr(e.subject, _POSTFIX)}.{e.label}"
    if isinstance(e, (S.MakeObject, S.UpdateObject)):
        return pretty_data(e)
    raise TypeError(f"not an expression: {e!r}")


def pretty_expr(e: S.CompExpr) -> str:
    return _expr(e, _EXPR)


def pretty_data(d: S.DataExpr) -> str:
    if isinstance(d, S.MakeObject):
        inner = ", ".join(
            f"{lab} = {_expr(init, _EXPR)}" for lab, init in d.fields
        )
        return f"[{inner}]"
    inner = ", ".join(
        f"{lab} <= {_expr(val, _EXPR)}" for lab, val in d.updates
    )
    return f"{_expr(d.target, _POSTFIX)}.[{inner}]"


# -- processes --------------------------------------------------------------

_PAR, _SUM, _PREFIXED = 0, 1, 2


def _action(a: S.ProcAction) -> str:
    if isinstance(a, S.Send):
        return f"{a.chan}!({pretty_expr(a.payload)})"
    if isinstance(a, S.Receive):
        return f"{a.chan}?({a.binder})"
    return (
        f"[{pretty_expr(a.left)} = {pretty_expr(a.right)}] "
        f"{_action(a.inner)}"
    )


def _proc(p: S.ProcTerm, level: int) -> str:
    if isinstance(p, S.Nil):
        return "0"
    if isinstance(p, S.ProcRef):
        return p.name.text
    if isinstance(p, S.Prefix):
        actions = []
        while isinstance(p, S.Prefix):
            actions.append(_action(p.action))
            p = p.continuation
        return " . ".join(actions) + f" . {_proc(p, _PREFIXED)}"
    if isinstance(p, S.Sum):
        text = " + ".join(_proc(op, _PREFIXED) for op in p.operands)
        return f"({text})" if level > _SUM else text
    if isinstance(p, S.Par):
        # operands at sum level: restrictions extend maximally rightward,
        # and a nested par came from parentheses, so both get them
        text = " | ".join(_proc(op, _SUM) for op in p.operands)
        return f"({text})" if level > _PAR else text
    if isinstance(p, S.Repl):
        return f"!{_proc(p.body, _PREFIXED)}"
    if isinstance(p, S.Restrict):
        text = (
            f"new {p.chan} : {p.chan_sort} in "
            f"{_proc(p.body, _PAR)}"
        )
        # `new` extends maximally rightward; parenthesize in any sub-position
        return f"({text})" if level > _PAR else text
    raise TypeError(f"not a process: {p!r}")


def pretty_proc(p: S.ProcTerm) -> str:
    return _proc(p, _PAR)


# -- programs ---------------------------------------------------------------

def pretty_program(program: S.Program) -> str:
    lines: list[str] = []
    for item in program.defs:
        if isinstance(item, S.DefDef):
            lines.append(f"def {item.name} = {pretty_expr(item.body)}")
        elif isinstance(item, S.ChanDecl):
            lines.append(f"chan {item.name} : {item.sort}")
        else:
            lines.append(f"proc {item.name} = {pretty_proc(item.body)}")
    if program.entry is not None:
        lines.append(f"system = {pretty_proc(program.entry)}")
    return "\n".join(lines) + "\n"

