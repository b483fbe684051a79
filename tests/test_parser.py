import random

import pytest

from mlg import syntax as S
from mlg.diagnostics import MlgError
from mlg.parser import (
    parse_comp_expr, parse_payload, parse_proc_term, parse_program,
)
from mlg.pretty import pretty_expr, pretty_proc, pretty_program

from termgen import gen_closed_nat_term, gen_proc


def test_zero_parses():
    assert parse_comp_expr("z") == S.NatLit(0)


def test_numeral_desugars_to_iterated_succ():
    # iterated succ of a literal folds into one literal node
    for text in ("3", "succ(2)", "succ(succ(succ(z)))", "succ(succ(1))"):
        assert parse_comp_expr(text) == S.NatLit(3)
    assert parse_comp_expr("0") == S.NatLit(0)
    x = S.Var(S.Name("x"))
    assert parse_comp_expr("succ(succ(x))") == S.Succ(S.Succ(x))


def test_file_object_literal():
    make = parse_payload("[size = z, creation = t, permissions = p]")
    assert isinstance(make, S.MakeObject)
    assert [lab.text for lab, _ in make.fields] == [
        "size", "creation", "permissions"
    ]
    assert make.fields[0][1] == S.NatLit(0)


def test_write_reserve_pipeline():
    term = parse_proc_term("write?(n) . reserve!(blockCount n) . 0")
    assert isinstance(term, S.Prefix)
    assert term.action == S.Receive(S.Name("write"), S.Name("n"))
    inner = term.continuation
    assert isinstance(inner, S.Prefix)
    assert isinstance(inner.action, S.Send)
    assert inner.action.chan.text == "reserve"
    payload = inner.action.payload
    assert payload == S.App(
        S.Var(S.Name("blockCount")), S.Var(S.Name("n"))
    )
    assert inner.continuation == S.Nil()


def test_pretty_trivia():
    assert pretty_expr(S.NatLit(0)) == "z"
    assert pretty_proc(S.Par((S.Nil(), S.Nil()))) == "0 | 0"


def test_update_payload():
    upd = parse_payload("f.[size <= mul s two, permissions <= q]")
    assert isinstance(upd, S.UpdateObject)
    assert upd.target == S.Var(S.Name("f"))
    assert [lab.text for lab, _ in upd.updates] == ["size", "permissions"]


def test_bare_identifier_payload_is_name():
    assert parse_payload("c") == S.Var(S.Name("c"))


def test_duplicate_label_rejected_with_span():
    text = "[a = z, a = z]"
    with pytest.raises(MlgError) as exc:
        parse_payload(text)
    diag = exc.value.diagnostics[0]
    assert "duplicate field label" in diag.message
    assert diag.span == text.rindex("a")


def test_duplicate_definition_rejected():
    with pytest.raises(MlgError) as exc:
        parse_program("def a = z\ndef a = z\n")
    assert any("duplicate" in d.message for d in exc.value.diagnostics)


def test_unbound_process_name_rejected():
    with pytest.raises(MlgError) as exc:
        parse_program("system = Ghost\n")
    assert any("unbound process" in d.message for d in exc.value.diagnostics)


def test_unguarded_sum_rejected():
    with pytest.raises(MlgError) as exc:
        parse_proc_term("(a!(1) . 0 | 0) + b!(1) . 0")
    assert any("unguarded sum" in d.message for d in exc.value.diagnostics)


def test_unguarded_sum_operand_reported_once_at_its_span():
    text = "a!(1) . 0 + (b!(1) . 0 | 0) + c!(1) . 0 + d!(1) . 0"
    with pytest.raises(MlgError) as exc:
        parse_proc_term(text)
    diags = [d for d in exc.value.diagnostics if "unguarded sum" in d.message]
    assert [d.span for d in diags] == [text.index("b!")]


def test_an_unguarded_operand_at_offset_0_is_reported_there():
    # offset 0 is a span like any other, not a missing one
    with pytest.raises(MlgError) as exc:
        parse_proc_term("!a!(1) . 0 + b!(1) . 0")
    assert [(d.message, d.span) for d in exc.value.diagnostics] == [
        ("unguarded sum operand", 0)]


def test_sums_are_flat():
    a, b, c = "a!(1) . 0", "b?(x) . 0", "[1 = 1] c!(2) . 0"
    flat = parse_proc_term(f"{a} + {b} + {c}")
    assert isinstance(flat, S.Sum) and len(flat.operands) == 3
    assert parse_proc_term(f"({a} + {b}) + {c}") == flat
    assert parse_proc_term(f"{a} + ({b} + {c})") == flat


def test_sum_operands_must_be_guarded():
    with pytest.raises(ValueError, match="unguarded sum operand"):
        S.Sum((S.Par((S.Nil(), S.Nil())), S.Nil()))
    with pytest.raises(ValueError, match="unguarded sum operand"):
        S.Sum((S.Nil(), S.Sum((S.Nil(), S.Nil()))))


def test_fmt_drops_the_parentheses_around_a_nested_sum():
    program = parse_program(
        "chan c : nat\nsystem = c!(1) . 0 + (c!(2) . 0 + c?(x) . 0)\n")
    assert pretty_program(program) == (
        "chan c : nat\nsystem = c!(1) . 0 + c!(2) . 0 + c?(x) . 0\n")


def test_a_par_chain_is_one_node_and_parentheses_nest():
    flat = parse_proc_term("0 | a!(1) . 0 | b?(x) . 0")
    assert isinstance(flat, S.Par) and len(flat.operands) == 3
    nested = parse_proc_term("(0 | a!(1) . 0) | b?(x) . 0")
    assert nested == S.Par((S.Par(flat.operands[:2]), flat.operands[2]))
    assert pretty_proc(nested) == "(0 | a!(1) . 0) | b?(x) . 0"
    assert pretty_proc(flat) == "0 | a!(1) . 0 | b?(x) . 0"


def test_rec_binders_must_differ():
    with pytest.raises(MlgError):
        parse_comp_expr("rec z { z -> z | succ(x) with x -> z }")


def test_comments_and_whitespace():
    program = parse_program(
        "-- a program\ndef a = z -- trailing\n\nsystem = 0\n"
    )
    assert program.comp_defs()[0].name.text == "a"
    assert program.entry == S.Nil()


def test_spans_point_into_input():
    text = "def a = succ(w)\n"
    program = parse_program(text)
    body = program.comp_defs()[0].body
    assert isinstance(body, S.Succ)
    var = body.arg
    assert var.span == text.index("w")


def test_diagnostic_spans_inside_text():
    text = "def a = succ(\n"
    with pytest.raises(MlgError) as exc:
        parse_program(text)
    diag = exc.value.diagnostics[0]
    assert 0 <= diag.span <= len(text)


def test_restriction_and_replication_roundtrip():
    src = "new c : nat in !c?(x) . 0 | c!(1) . 0"
    term = parse_proc_term(src)
    assert isinstance(term, S.Restrict)
    assert parse_proc_term(pretty_proc(term)) == term


def test_match_guard_roundtrip():
    src = "[n = 0] c!(n) . 0"
    term = parse_proc_term(src)
    assert isinstance(term, S.Prefix)
    assert isinstance(term.action, S.Match)
    assert parse_proc_term(pretty_proc(term)) == term


def test_chan_sorts_roundtrip():
    program = parse_program(
        "chan a : chan(nat)\n"
        "chan b : nat -> nat\n"
        "chan c : [size : nat, acl : nat -> nat]\n"
    )
    sorts = [d.sort for d in program.defs]
    assert sorts[0] == S.ChanSort(S.NAT)
    assert sorts[1] == S.ArrowType(S.NAT, S.NAT)
    assert isinstance(sorts[2], S.ObjType)
    assert parse_program(pretty_program(program)) == program


@pytest.mark.parametrize("text, sort", [
    ("nat", S.NAT),
    ("nat -> nat", S.ArrowType(S.NAT, S.NAT)),
    ("[a : nat]", S.ObjType(((S.Name("a"), S.NAT),))),
    ("chan(nat)", S.ChanSort(S.NAT)),
    ("chan(chan(nat -> nat))",
     S.ChanSort(S.ChanSort(S.ArrowType(S.NAT, S.NAT)))),
])
def test_sort_roundtrip(text, sort):
    program = parse_program(f"chan c : {text}")
    (decl,) = program.defs
    assert decl.sort == sort
    assert str(sort) == text
    assert pretty_program(program) == f"chan c : {text}\n"


def test_program_roundtrip_filesystem_demo():
    from conftest import demo_text

    program = parse_program(demo_text("filesystem.mlg"))
    assert parse_program(pretty_program(program)) == program


@pytest.mark.parametrize("seed", range(60))
def test_random_comp_expr_roundtrip(seed):
    rng = random.Random(seed)
    term = gen_closed_nat_term(rng, depth=8)
    assert parse_comp_expr(pretty_expr(term)) == term


@pytest.mark.parametrize("seed", range(60))
def test_random_proc_roundtrip(seed):
    rng = random.Random(1000 + seed)
    term = gen_proc(rng, depth=5)
    assert parse_proc_term(pretty_proc(term)) == term


def test_fmt_idempotent_on_random_programs():
    rng = random.Random(7)
    for _ in range(20):
        term = gen_proc(rng, depth=4)
        program = S.Program(
            tuple(
                S.ChanDecl(S.Name(c), S.NAT)
                for c in ("c1", "c2")
            ),
            term,
        )
        once = pretty_program(program)
        assert pretty_program(parse_program(once)) == once


def test_roundtrip_over_500_generated_terms():
    rng = random.Random(2024)
    for _ in range(500):
        term = gen_closed_nat_term(rng, depth=8)
        assert parse_comp_expr(pretty_expr(term)) == term
