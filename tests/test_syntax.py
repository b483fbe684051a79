"""The contract of `syntax.Node`, which every syntax node and immutable
runtime record shares: fields from `__init__`, equality and hashing that
ignore spans, and immutability."""

import inspect

import pytest

from mlg import engine, evaluate, explorer, prelude, store
from mlg import syntax as S
from mlg.parser import parse_program

NODE_CLASSES = sorted(
    {cls for module in (S, evaluate, store, engine, explorer, prelude)
     for cls in vars(module).values()
     if isinstance(cls, type) and issubclass(cls, S.Node)
     and cls is not S.Node},
    key=lambda cls: (cls.__module__, cls.__name__))


def test_every_syntax_class_is_a_node():
    classes = {cls for cls in vars(S).values() if isinstance(cls, type)
               and cls.__module__ == S.__name__}
    assert classes - set(NODE_CLASSES) == {S.Node}


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
def test_fields_are_the_init_parameters_but_span(cls):
    params = [name for name in inspect.signature(cls).parameters
              if name != "span"]
    assert list(cls._fields) == params


def test_equal_nodes_at_other_spans_are_equal_and_hash_equal():
    text = "chan c : nat\nsystem = c!(succ(x)) . 0 | [1 = 1] c?(y) . 0\n"
    here, there = parse_program(text), parse_program("\n  " + text)
    assert here.defs[0].span != there.defs[0].span
    assert here == there
    assert hash(here) == hash(there)
    assert here != parse_program(text.replace("succ(x)", "succ(y)"))


def test_nodes_of_two_classes_with_equal_fields_differ():
    name = S.Name("p")
    assert S.Var(name) != S.ProcRef(name)
    assert S.Repl(S.Nil()) != S.Nil()


@pytest.mark.parametrize("node, field", [
    (S.Name("x", 3), "text"),
    (S.Name("x", 3), "span"),
    (S.NatLit(1), "n"),
    (S.NAT, "anything"),
    (S.ArrowType(S.NAT, S.NAT), "domain"),
    (evaluate.ObjRef(0), "id"),
])
def test_a_field_cannot_be_set_or_deleted(node, field):
    with pytest.raises(AttributeError):
        setattr(node, field, None)
    with pytest.raises(AttributeError):
        delattr(node, field)


def test_records_that_keep_their_own_equality():
    # a channel ref is equal on id and sort and hashed by id; a closure is
    # equal only to itself
    ref = evaluate.ChanRef(1, S.NAT, "c", restricted=False)
    assert ref == evaluate.ChanRef(1, S.NAT, "d", restricted=True)
    other_sort = evaluate.ChanRef(1, S.ChanSort(S.NAT), "c", False)
    assert ref != other_sort and hash(ref) == hash(other_sort)
    closure = evaluate.Closure(S.Name("x"), S.NAT, S.NatLit(0), {}, None)
    twin = evaluate.Closure(S.Name("x"), S.NAT, S.NatLit(0), {}, None)
    assert closure == closure and closure != twin
    assert not hasattr(closure, "__dict__")
