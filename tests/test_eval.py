import random

import pytest

from mlg import syntax as S
from mlg.evaluate import (
    EMPTY_ENV, EvalFault, Fuel, FuelExhausted, eval_comp,
    value_inhabits,
)
from mlg.parser import parse_comp_expr
from mlg.prelude import prelude_program
from mlg.store import ObjectStore

from termgen import gen_closed_nat_term

ADD_SRC = (
    "fun (x : nat) fun (y : nat)"
    " rec x { z -> y | succ(w) with r -> succ(r) }"
)


def run(src, env=None, store=None, fuel=None):
    return eval_comp(env or EMPTY_ENV, store, parse_comp_expr(src),
                     fuel or Fuel(10**7))


def test_numerals_evaluate_to_themselves():
    assert run("0").value == 0
    assert run("17").value == 17


def test_add_two_three():
    result = run(f"({ADD_SRC}) 2 3")
    assert result.value == 5
    assert result.steps < 100


def test_mul_six_seven():
    src = (
        f"(fun (x : nat) fun (y : nat)"
        f" rec x {{ z -> z | succ(w) with r -> ({ADD_SRC}) y r }}) 6 7"
    )
    assert run(src).value == 42


def test_steps_count_applications_and_unfoldings():
    # one application
    assert run("(fun (x : nat) x) 4").steps == 1
    # recursor over 3: three unfoldings, no applications
    assert run("rec 3 { z -> z | succ(w) with r -> succ(r) }").steps == 3


def test_capture_avoidance_inner_binding_wins():
    result = run("(fun (x : nat) fun (x : nat) x) 1 2")
    assert result.value == 2


def test_closures_capture_their_environment():
    result = run("((fun (x : nat) fun (y : nat) x) 7) 9")
    assert result.value == 7


def test_field_selection_reads_store():
    store = ObjectStore()
    sig = S.ObjType(((S.Name("size"), S.NAT),))
    ref = store.alloc(sig, {"size": 0})
    env = {"f": ref}
    assert run("f.size", env=env, store=store).value == 0


def test_evaluation_never_writes_the_store():
    store = ObjectStore()
    sig = S.ObjType(((S.Name("size"), S.NAT),))
    ref = store.alloc(sig, {"size": 4})
    before = store.write_count
    env = {"f": ref}
    run(f"({ADD_SRC}) f.size f.size", env=env, store=store)
    assert store.write_count == before


def test_unbound_variable_faults():
    with pytest.raises(EvalFault):
        run("ghost")


def test_a_fault_keeps_its_first_location():
    # offset 0 is a location like any other, not the unlocated sentinel
    assert EvalFault("x").at(0).at(5).diagnostics[0].span == 0
    assert EvalFault("x").at(5).at(0).diagnostics[0].span == 5


def test_fuel_limit_must_be_positive():
    with pytest.raises(ValueError):
        Fuel(0)


def test_evaluation_has_no_budget_of_its_own():
    # the caller's Fuel is the one step budget
    with pytest.raises(TypeError):
        eval_comp(EMPTY_ENV, None, parse_comp_expr("0"))


def test_fuel_exhaustion():
    src = f"({ADD_SRC}) 50 50"
    with pytest.raises(FuelExhausted):
        run(src, fuel=Fuel(10))
    # the same term fits comfortably in a larger budget
    assert run(src, fuel=Fuel(10**4)).value == 100


def test_deep_recursor_does_not_overflow_python_stack():
    src = "rec 50000 { z -> z | succ(w) with r -> succ(r) }"
    assert run(src, fuel=Fuel(10**6)).value == 50000


def test_determinism_same_term_same_result():
    rng = random.Random(3)
    for _ in range(25):
        term = gen_closed_nat_term(rng, depth=6)
        a = eval_comp(EMPTY_ENV, None, term, Fuel(10**7))
        b = eval_comp(EMPTY_ENV, None, term, Fuel(10**7))
        assert a.value == b.value
        assert a.steps == b.steps


def test_value_inhabits_tags():
    assert value_inhabits(3, S.NAT)
    fn = run("fun (x : nat) x").value
    assert value_inhabits(fn, S.ArrowType(S.NAT, S.NAT))
    assert not value_inhabits(fn, S.NAT)
    assert not value_inhabits(0, S.ArrowType(S.NAT, S.NAT))


def test_prelude_block_count_ten_is_three():
    env = EMPTY_ENV
    for item in prelude_program().comp_defs():
        value = eval_comp(env, None, item.body, Fuel(10**7)).value
        env = {**env, item.name.text: value}
    result = run("blockCount 10", env=env, fuel=Fuel(10**7))
    assert result.value == 3
