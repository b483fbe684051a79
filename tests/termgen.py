"""Seeded generators for closed well-typed computation terms and for
process terms, used by round-trip, termination, soundness and congruence
suites."""

from __future__ import annotations

import random

from mlg import syntax as S

MAX_NUMERAL = 5


def _fresh(rng: random.Random, prefix: str, used: set[str]) -> S.Name:
    while True:
        name = f"{prefix}{rng.randrange(1000)}"
        if name not in used:
            used.add(name)
            return S.Name(name)


def gen_type(rng: random.Random, depth: int) -> S.CompType:
    if depth <= 0 or rng.random() < 0.7:
        return S.NAT
    return S.ArrowType(gen_type(rng, depth - 1), gen_type(rng, depth - 1))


def gen_expr(
    rng: random.Random,
    target: S.CompType,
    depth: int,
    env: dict[str, S.CompType] | None = None,
) -> S.CompExpr:
    """A closed (under env) well-typed expression of the target type."""
    env = {} if env is None else env
    used = set(env)
    candidates = [n for n, ty in env.items() if ty == target]

    if depth <= 0:
        if candidates:
            return S.Var(S.Name(rng.choice(candidates)))
        if target == S.NAT:
            return S.NatLit(rng.randrange(MAX_NUMERAL + 1))
        # arrow at the leaf: smallest eta-style function
        param = _fresh(rng, "p", used)
        body_env = dict(env)
        body_env[param.text] = target.domain
        return S.Lambda(
            param, target.domain, gen_expr(rng, target.codomain, 0, body_env)
        )

    roll = rng.random()
    if candidates and roll < 0.2:
        return S.Var(S.Name(rng.choice(candidates)))

    if isinstance(target, S.ArrowType):
        param = _fresh(rng, "p", used)
        body_env = dict(env)
        body_env[param.text] = target.domain
        return S.Lambda(
            param, target.domain,
            gen_expr(rng, target.codomain, depth - 1, body_env),
        )

    # target is nat
    if roll < 0.35:
        return S.succ(gen_expr(rng, S.NAT, depth - 1, env))
    if roll < 0.6 and depth >= 2:
        # application: synthesize a function and an argument
        dom = gen_type(rng, 1)
        fn = gen_expr(rng, S.ArrowType(dom, target), depth - 1, env)
        arg = gen_expr(rng, dom, depth - 2, env)
        return S.App(fn, arg)
    if roll < 0.85 and depth >= 2:
        # recursor; scrutinee kept a small numeral so unfolding is bounded
        scrut: S.CompExpr = S.NatLit(rng.randrange(MAX_NUMERAL + 1))
        succ_binder = _fresh(rng, "n", used)
        rec_binder = _fresh(rng, "r", used | {succ_binder.text})
        branch_env = dict(env)
        branch_env[succ_binder.text] = S.NAT
        branch_env[rec_binder.text] = target
        return S.Rec(
            scrut,
            gen_expr(rng, target, depth - 1, env),
            succ_binder,
            rec_binder,
            gen_expr(rng, target, depth - 1, branch_env),
        )
    return S.NatLit(rng.randrange(MAX_NUMERAL + 1))


def gen_closed_nat_term(rng: random.Random, depth: int = 8) -> S.CompExpr:
    return gen_expr(rng, S.NAT, depth)


# ---------------------------------------------------------------------------
# Process terms (over pre-declared nat channels c1, c2, plus restrictions)

PROC_CHANNELS = ("c1", "c2")


def gen_action(
    rng: random.Random, binders: set[str], chans: tuple[str, ...]
) -> S.ProcAction:
    chan = S.Name(rng.choice(chans))
    if rng.random() < 0.5:
        payload = S.NatLit(rng.randrange(3))
        action: S.ProcAction = S.Send(chan, payload)
    else:
        binder = _fresh(rng, "v", binders)
        action = S.Receive(chan, binder)
    if rng.random() < 0.15:
        k = rng.randrange(3)
        action = S.Match(S.NatLit(k), S.NatLit(k), action)
    return action


def gen_guarded(
    rng: random.Random, depth: int, binders: set[str],
    chans: tuple[str, ...],
) -> S.ProcTerm:
    if depth <= 0 or rng.random() < 0.3:
        return S.Nil()
    if rng.random() < 0.2:
        sides = (gen_guarded(rng, depth - 1, binders, chans),
                 gen_guarded(rng, depth - 1, binders, chans))
        return S.Sum(tuple(op for side in sides for op in (
            side.operands if isinstance(side, S.Sum) else (side,))))
    return S.Prefix(
        gen_action(rng, binders, chans),
        gen_proc(rng, depth - 1, binders, chans),
    )


def gen_proc(
    rng: random.Random, depth: int,
    binders: set[str] | None = None,
    chans: tuple[str, ...] = PROC_CHANNELS,
) -> S.ProcTerm:
    binders = set(binders or set())
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        return S.Nil()
    if roll < 0.45:
        return S.Par((
            gen_proc(rng, depth - 1, binders, chans),
            gen_proc(rng, depth - 1, binders, chans),
        ))
    if roll < 0.55:
        chan = _fresh(rng, "x", binders | set(chans))
        return S.Restrict(
            chan, S.NAT,
            gen_proc(rng, depth - 1, binders, chans + (chan.text,)),
        )
    return gen_guarded(rng, depth, binders, chans)


def proc_program(term: S.ProcTerm) -> S.Program:
    decls = tuple(
        S.ChanDecl(S.Name(c), S.NAT)
        for c in PROC_CHANNELS
    )
    return S.Program(decls, term)
