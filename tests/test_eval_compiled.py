"""The compiled evaluator against the tree walker it replaced.

`walk` below is that walker, kept only as the reference: it dispatches on
the node type at every step and extends a copied env at every binder. Each
case evaluates one expression with both and compares the value (closures by
parameter, body node and env bindings), `fuel.used`, and the type and
message of any fault, fuel exhaustion included.
"""

import gc
import random
import weakref

import pytest

from mlg import syntax as S
from mlg.diagnostics import MlgError
from mlg.engine import TERMINATED, run
from mlg.evaluate import (
    EMPTY_ENV, Closure, EvalFault, Fuel, ObjRef, _compile, eval_comp,
)
from mlg.parser import parse_comp_expr
from mlg.prelude import load_program, prelude_program
from mlg.store import ObjectStore

from termgen import gen_closed_nat_term, gen_expr, gen_type


def walk(env, store, e, fuel):
    if isinstance(e, S.Var):
        if e.name.text not in env:
            raise EvalFault(f"unbound variable '{e.name.text}'")
        return env[e.name.text]
    if isinstance(e, S.NatLit):
        return e.n
    if isinstance(e, S.Succ):
        inner = walk(env, store, e.arg, fuel)
        if not isinstance(inner, int):
            raise EvalFault("succ applied to a non-natural")
        return inner + 1
    if isinstance(e, S.Lambda):
        # the walker applies a closure by its body, never by its code
        return Closure(e.param, e.param_type, e.body, env, None)
    if isinstance(e, S.App):
        fn = walk(env, store, e.fn, fuel)
        arg = walk(env, store, e.arg, fuel)
        if not isinstance(fn, Closure):
            raise EvalFault("applying a non-function value")
        fuel.tick()
        return walk({**fn.env, fn.param.text: arg}, store, fn.body, fuel)
    if isinstance(e, S.Rec):
        scrut = walk(env, store, e.scrutinee, fuel)
        if not isinstance(scrut, int):
            raise EvalFault("rec scrutinee is not a natural")
        acc = walk(env, store, e.zero_branch, fuel)
        for i in range(scrut):
            fuel.tick()
            branch_env = {**env, e.succ_binder.text: i,
                          e.rec_binder.text: acc}
            acc = walk(branch_env, store, e.succ_branch, fuel)
        return acc
    if isinstance(e, S.FieldSel):
        subject = walk(env, store, e.subject, fuel)
        if not isinstance(subject, ObjRef):
            raise EvalFault("field selection on a non-object value")
        if store is None:
            raise EvalFault("field selection with no object store")
        return store.get(subject, e.label.text)
    raise EvalFault(f"cannot evaluate {type(e).__name__}")


def compiled(env, store, e, fuel):
    return eval_comp(env, store, e, fuel).value


def outcome(evaluate, env, store, e, limit=10**7):
    fuel = Fuel(limit)
    try:
        value = evaluate(env, store, e, fuel)
    except MlgError as exc:
        return ("fault", type(exc), str(exc), fuel.used)
    return ("value", value, fuel.used)


def same_value(a, b) -> bool:
    if a is b:
        return True
    if isinstance(a, Closure) and isinstance(b, Closure):
        return (a.param == b.param and a.param_type == b.param_type
                and a.body is b.body and same_env(a.env, b.env))
    return type(a) is type(b) and a == b


def same_env(a: dict, b: dict) -> bool:
    if a is b:
        return True
    left, right = list(a.items()), list(b.items())
    return ([name for name, _ in left] == [name for name, _ in right]
            and all(same_value(u, v)
                    for (_, u), (_, v) in zip(left, right)))


def agree(env, store, e, limit=10**7):
    """The outcome of both evaluators, asserted equal."""
    want = outcome(walk, env, store, e, limit)
    got = outcome(compiled, env, store, e, limit)
    if want[0] == "value" and got[0] == "value":
        assert same_value(got[1], want[1]), (e, got, want)
        assert got[2] == want[2], (e, got, want)
    else:
        assert got == want, e
    return got


@pytest.fixture(scope="module")
def prelude_env():
    env = EMPTY_ENV
    for item in prelude_program().comp_defs():
        env = {**env, item.name.text:
               eval_comp(env, None, item.body, Fuel(10**7)).value}
    return env


def test_acceptance_1_corpus():
    rng = random.Random(20260823)  # the acceptance-1 corpus
    for _ in range(1000):
        term = gen_closed_nat_term(rng, depth=8)
        assert agree(EMPTY_ENV, None, term)[0] == "value"


def closure_terms(rng: random.Random, count: int):
    """Function-typed terms whose closures capture a frame: a function
    body, or a recursor branch, that returns a function."""
    x, n, r = S.Name("x0"), S.Name("n0"), S.Name("r0")
    for _ in range(count):
        ty = S.ArrowType(S.NAT, gen_type(rng, 1))
        if rng.random() < 0.5:
            body = gen_expr(rng, ty, 4, {"x0": S.NAT})
            yield ty, S.App(S.Lambda(x, S.NAT, body),
                            S.NatLit(rng.randrange(4)))
        else:
            yield ty, S.Rec(S.NatLit(rng.randrange(4)),
                            gen_expr(rng, ty, 3),
                            n, r, gen_expr(rng, ty, 3,
                                           {"n0": S.NAT, "r0": ty}))


def test_closures_capture_the_same_bindings():
    rng = random.Random(7)
    for ty, term in closure_terms(rng, 300):
        assert agree(EMPTY_ENV, None, term)[0] == "value"
        arg = S.NatLit(2) if ty.domain == S.NAT else S.Lambda(
            S.Name("a0"), S.NAT, S.Var(S.Name("a0")))
        agree(EMPTY_ENV, None, S.App(term, arg))


def test_acceptance_8_prelude_grid(prelude_env):
    sources = [f"{fn} {x} {y}" for x in range(21) for y in range(21)
               for fn in ("add", "mul", "monus")]
    # the grid's div_ceil cases take 17.7M steps, about 45 s for the
    # walker, so only n <= 12 and two n = 40 cases (0.8M steps) are compared
    sources += [f"div_ceil {n} {b}" for n in range(13) for b in range(1, 9)]
    sources += ["div_ceil 40 1", "div_ceil 40 8"]
    for src in sources:
        assert agree(prelude_env, None, parse_comp_expr(src))[0] == "value"


def test_field_selection_reads_the_store(prelude_env):
    store = ObjectStore()
    sig = S.ObjType(((S.Name("size"), S.NAT), (S.Name("mode"), S.NAT)))
    ref = store.alloc(sig, {"size": 9, "mode": 5})
    env = {**prelude_env, "f": ref}
    for src in ("f.size", "add f.size f.mode", "blockCount f.size",
                "(fun (g : nat) hasPermission f.mode g) 2",
                "rec f.mode { z -> f.size | succ(k) with r -> add k r }",
                "f.ghost", "ghost.size"):
        agree(env, store, parse_comp_expr(src))
    assert agree(env, None, parse_comp_expr("f.size"))[0] == "fault"


@pytest.mark.parametrize("src", [
    "blockCount 4", "hasPermission 5 1", "indexOffset 7", "lt 3 6",
    "(fun (x : nat) fun (y : nat) mul x y) 3 4",
])
def test_every_fuel_limit_runs_out_on_the_same_tick(prelude_env, src):
    e = parse_comp_expr(src)
    kind, _, steps = agree(prelude_env, None, e)
    assert kind == "value" and steps > 10
    for limit in range(1, steps):
        got = agree(prelude_env, None, e, limit)
        assert got[0] == "fault" and got[3] == limit + 1
    assert agree(prelude_env, None, e, steps)[0] == "value"


@pytest.mark.parametrize("branch", ["k", "r", "x", "7", "ghost", "add k r",
                                    "succ(r)", "succ(k)", "succ(x)", "0"])
def test_recursors_whose_branch_reads_a_variable(prelude_env, branch):
    for scrut in (0, 1, 6):
        e = parse_comp_expr(f"(fun (x : nat) rec {scrut} "
                            f"{{ z -> 9 | succ(k) with r -> {branch} }}) 4")
        for limit in range(1, 40):
            agree(prelude_env, None, e, limit)


# `succ(r) with r -> …`, which the parser rejects: the rec binder wins
R = S.Name("r")
SHADOWED = {"r": S.Var(R), "succ(r)": S.Succ(S.Var(R))}


@pytest.mark.parametrize("branch", sorted(SHADOWED))
def test_the_rec_binder_shadows_the_succ_binder(branch):
    for scrut in (0, 1, 6):
        e = S.Rec(S.NatLit(scrut), S.NatLit(9), R, R, SHADOWED[branch])
        for limit in range(1, 10):
            agree(EMPTY_ENV, None, e, limit)


def test_succ_of_a_function_faults_on_the_first_unfolding():
    e = parse_comp_expr(
        "rec 6 { z -> fun (y : nat) y | succ(k) with r -> succ(r) }")
    for limit in (*range(1, 10), 10**7):
        kind, _, message, used = agree(EMPTY_ENV, None, e, limit)
        assert (kind, used) == ("fault", 1)
        assert message == "succ applied to a non-natural"


@pytest.mark.parametrize("branch, form", [
    ("r", "rec_of_var"), ("k", "rec_pred"), ("succ(r)", "rec_add"),
    ("x", "rec_of_var"), ("ghost", "rec_of_var"), ("0", "rec_of_var"),
    ("7", "rec_of_var"), ("succ(k)", "rec"), ("succ(x)", "rec"),
    ("add k r", "rec"), ("shadowed r", "rec_of_var"),
    ("shadowed succ(r)", "rec_add"),
])
def test_each_branch_shape_compiles_to_its_form(branch, form):
    if branch.startswith("shadowed "):
        e = S.Rec(S.NatLit(6), S.NatLit(9), R, R,
                  SHADOWED[branch.removeprefix("shadowed ")])
    else:
        e = parse_comp_expr(f"rec 6 {{ z -> 9 | succ(k) with r -> {branch} }}")
    assert _compile(e, ()).__name__ == form


@pytest.mark.parametrize("branch, form", [
    ("succ(k)", "rec"), ("r", "rec_of_var"), ("k", "rec_pred"),
    ("succ(r)", "rec_add"),
])
def test_a_function_scrutinee_faults_in_every_form(branch, form):
    # the scrutinee is a function only after one application
    e = parse_comp_expr("rec (fun (x : nat) fun (y : nat) y) 1"
                        f" {{ z -> 9 | succ(k) with r -> {branch} }}")
    assert _compile(e, ()).__name__ == form
    for limit in (1, 10**7):
        kind, _, message, used = agree(EMPTY_ENV, None, e, limit)
        assert (kind, message, used) == (
            "fault", "rec scrutinee is not a natural", 1)


def test_faults_are_the_same():
    x, n, r = S.Name("x"), S.Name("n"), S.Name("r")
    one, ident = S.NatLit(1), S.Lambda(x, S.NAT, S.Var(x))
    for e in (S.Var(S.Name("ghost")), S.App(one, one), S.Succ(ident),
              S.Rec(ident, one, n, r, one),
              S.FieldSel(one, S.Name("size")),
              S.App(ident, S.Succ(S.App(one, one))),
              S.Name("x")):
        assert agree(EMPTY_ENV, None, e)[0] == "fault"


def test_a_fault_in_a_body_comes_after_its_tick():
    x, n, r = S.Name("x"), S.Name("n"), S.Name("r")
    one, ident = S.NatLit(1), S.Lambda(x, S.NAT, S.Var(x))
    succ_of_arg = S.Lambda(x, S.NAT, S.Succ(S.Var(x)))
    for e, ticks in ((S.App(succ_of_arg, ident), 1),
                     (S.App(ident, S.App(succ_of_arg, ident)), 1),
                     (S.Rec(S.NatLit(3), one, n, r, S.App(S.Var(r), one)),
                      1),
                     (S.Rec(S.NatLit(3), ident, n, r,
                            S.App(S.Var(r), S.Var(n))), 3)):
        kind, _, _, used = agree(EMPTY_ENV, None, e)
        assert kind == "fault" and used == ticks


def test_compiled_code_does_not_keep_the_syntax_tree_alive():
    program = load_program(
        "def twice = fun (x : nat) add x x\n"
        "chan c : nat\n"
        "system = c!(twice (blockCount 9)) . 0 | c?(y) . 0\n")
    twice = next(d for d in program.comp_defs() if d.name.text == "twice")
    payload = program.entry.operands[0].action.payload
    nodes = [weakref.ref(node) for node in (twice, twice.body.body, payload)]
    config, verdict, trace = run(program)
    assert verdict == TERMINATED and "c(6)" in trace[0].render()
    del program, twice, payload, config, trace
    gc.collect()
    assert [node() for node in nodes] == [None, None, None]
