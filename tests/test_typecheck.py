import random

import pytest

from mlg import syntax as S
from mlg import typecheck as T
from mlg.diagnostics import MlgError
from mlg.engine import run
from mlg.evaluate import EvalFault, FuelExhausted
from mlg.parser import parse_comp_expr, parse_payload, parse_proc_term
from mlg.prelude import load_program
from mlg.typecheck import check_data, check_proc, check_program, infer_comp

from termgen import gen_closed_nat_term

NAT = S.NAT
N2N = S.ArrowType(NAT, NAT)


def infer(src, env=None):
    return infer_comp(env or {}, parse_comp_expr(src))


def test_zero_is_nat():
    assert infer("z") == NAT


def test_identity_function():
    assert infer("fun (x : nat) x") == N2N


def test_add_has_curried_type():
    src = "fun (x : nat) fun (y : nat) rec x { z -> y | succ(w) with r -> succ(r) }"
    assert infer(src) == S.ArrowType(NAT, N2N)


def test_unbound_variable():
    with pytest.raises(MlgError) as exc:
        infer("ghost")
    assert "unbound variable" in str(exc.value)


def test_apply_non_arrow():
    with pytest.raises(MlgError):
        infer("z z")


def test_argument_mismatch():
    with pytest.raises(MlgError):
        infer("(fun (f : nat -> nat) f z) z")


def test_rec_branch_mismatch():
    with pytest.raises(MlgError):
        infer("rec z { z -> z | succ(x) with r -> fun (y : nat) y }")


def test_field_selection_types():
    obj = S.ObjType(((S.Name("size"), NAT), (S.Name("acl"), N2N)))
    env = {"f": obj}
    assert infer("f.size", env) == NAT
    assert infer("f.acl", env) == N2N
    with pytest.raises(MlgError) as exc:
        infer("f.missing", env)
    assert "no field" in str(exc.value)
    with pytest.raises(MlgError):
        infer("z.size", env)


FILE_SIG = S.ObjType((
    (S.Name("size"), NAT),
    (S.Name("creation"), NAT),
    (S.Name("permissions"), NAT),
))


def test_check_data_file_object():
    env = {"t": NAT, "p": NAT}
    payload = parse_payload("[size = z, creation = t, permissions = p]")
    assert check_data(env, payload) == FILE_SIG


def test_check_data_update_preserves_signature():
    env = {"f": FILE_SIG, "s": NAT, "q": NAT, "two": NAT,
           "mul": S.ArrowType(NAT, N2N)}
    payload = parse_payload("f.[size <= mul s two, permissions <= q]")
    assert check_data(env, payload) == FILE_SIG


def test_update_unknown_field():
    env = {"f": FILE_SIG}
    payload = parse_payload("f.[bogus <= z]")
    with pytest.raises(MlgError) as exc:
        check_data(env, payload)
    assert "unknown field" in str(exc.value)


def test_update_changing_type_rejected():
    env = {"f": FILE_SIG}
    payload = parse_payload("f.[size <= fun (x : nat) x]")
    with pytest.raises(MlgError):
        check_data(env, payload)


def test_check_proc_pipeline_ok():
    env = {"write": S.ChanSort(NAT), "reserve": S.ChanSort(NAT),
           "blockCount": N2N}
    term = parse_proc_term("write?(n) . reserve!(blockCount n) . 0")
    assert check_proc(env, term) == []


def test_check_nil_ok():
    assert check_proc({}, parse_proc_term("0")) == []


def test_payload_sort_mismatch():
    env = {"c": S.ChanSort(S.ChanSort(NAT))}
    diags = check_proc(env, parse_proc_term("c!(z) . 0"))
    assert diags and "payload" in diags[0].message


def test_unsorted_channel():
    diags = check_proc({}, parse_proc_term("c!(z) . 0"))
    assert diags and "unsorted channel" in diags[0].message


def test_match_across_categories_rejected():
    env = {"c": S.ChanSort(NAT), "d": S.ChanSort(NAT)}
    term = parse_proc_term("[c = z] d!(z) . 0")
    diags = check_proc(env, term)
    assert diags and "match compares" in diags[0].message


def test_match_on_functions_rejected():
    env = {"f": N2N, "c": S.ChanSort(NAT)}
    diags = check_proc(env, parse_proc_term("[f = f] c!(z) . 0"))
    assert diags and "not comparable" in diags[0].message


def test_receive_binder_bound_at_sort_type():
    env = {"c": S.ChanSort(S.ChanSort(NAT))}
    # x arrives as a channel carrying nat, so x!(z) is fine
    assert check_proc(env, parse_proc_term("c?(x) . x!(z) . 0")) == []
    # and sending it again requires a chan(nat)-carrying channel
    diags = check_proc(env, parse_proc_term("c?(x) . c!(x) . 0"))
    assert diags == []  # c carries chan(nat); x has exactly that sort


def test_restrict_introduces_sort():
    term = parse_proc_term("new c : nat in c!(2) . 0")
    assert check_proc({}, term) == []


def test_infer_is_deterministic():
    env = {}
    e = parse_comp_expr("fun (x : nat) succ(x)")
    assert infer_comp(env, e) == infer_comp(env, e)


@pytest.mark.parametrize("seed", range(40))
def test_weakening(seed):
    rng = random.Random(seed)
    term = gen_closed_nat_term(rng, depth=6)
    base = {}
    widened = {"unused_binding_zz": NAT}
    try:
        ty = infer_comp(base, term)
    except MlgError:
        pytest.fail("generated term should be well-typed")
    assert infer_comp(widened, term) == ty


def test_diagnostics_carry_spans():
    src = "fun (x : nat) ghost"
    with pytest.raises(MlgError) as exc:
        infer(src)
    span = exc.value.diagnostics[0].span
    assert span == src.index("ghost")


# Variables and channels share one namespace, and the innermost binder of
# a name wins. (binder, what it shadows) -> (program, whether `check`
# accepts it): each program uses the name after the binder.
SHADOWING = {
    ("receive", "channel"): ("chan c : nat\nchan d : nat\n"
                             "system = d!(1) . 0 | d?(c) . c!(2) . 0 "
                             "| c?(y) . 0\n", False),
    ("receive", "variable"): ("def x = 1\nchan c : chan(nat)\nchan d : nat\n"
                              "system = c!(d) . 0 | c?(x) . d!(succ(x)) . 0 "
                              "| d?(y) . 0\n", False),
    ("new", "channel"): ("chan c : nat\nchan d : nat\n"
                         "system = new c : chan(nat) in "
                         "(c!(d) . 0 | c?(x) . x!(2) . 0) | d?(y) . 0\n",
                         True),
    ("new", "variable"): ("def x = 1\nchan c : nat\n"
                          "system = new x : nat in "
                          "(c!(succ(x)) . 0 | c?(y) . 0)\n", False),
    ("fun", "channel"): ("chan c : nat\n"
                         "system = c!((fun (c : nat) succ(c)) 1) . 0 "
                         "| c?(y) . 0\n", True),
    ("fun", "variable"): ("def x = fun (n : nat) n\nchan c : nat\n"
                          "system = c!((fun (x : nat) succ(x)) 1) . 0 "
                          "| c?(y) . 0\n", True),
    ("rec", "channel"): ("chan c : nat\n"
                         "system = c!(rec 2 { z -> 0 | succ(c) with r -> "
                         "succ(c) }) . 0 | c?(y) . 0\n", True),
    ("rec", "variable"): ("def r = fun (n : nat) n\nchan c : nat\n"
                          "system = c!(rec 2 { z -> 0 | succ(k) with r -> "
                          "succ(r) }) . 0 | c?(y) . 0\n", True),
    # a process definition runs in the scope it is defined in, whatever
    # binders surround its reference
    ("new above a process name", "variable"): (
        "def x = 1\nchan c : nat\nproc P = c!(x) . 0\n"
        "system = (new x : nat in P) | c?(y) . 0\n", True),
    ("receive above a process name", "channel"): (
        "chan c : nat\nchan e : nat\nproc P = c!(1) . 0\n"
        "system = e!(5) . 0 | e?(c) . P | c?(y) . 0\n", True),
}


@pytest.mark.parametrize("binder, shadowed", sorted(SHADOWING))
def test_check_scopes_names_as_run_does(binder, shadowed):
    text, accepted = SHADOWING[binder, shadowed]
    program = load_program(text)
    result = check_program(program)
    assert result.ok == accepted, [d.render(text, "<input>")
                                   for d in result.diagnostics]
    # a program `check` accepts runs without a fault other than fuel
    # exhaustion; each one it rejects here does fault when run unchecked
    faults = []
    for seed in range(5):
        try:
            run(program, seed=seed, annotations=result.obj_annotations)
        except FuelExhausted:
            pass
        except EvalFault as fault:
            faults.append(fault)
    assert result.ok == (not faults), faults
