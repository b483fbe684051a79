import pytest

from mlg.evaluate import EMPTY_ENV, Fuel, eval_comp
from mlg.parser import parse_comp_expr, parse_type
from mlg.prelude import (
    EXPECTED_TYPES, load_prelude, load_program, prelude_program,
)
from mlg.diagnostics import MlgError
from mlg.typecheck import check_program


def prelude_env(block_size=None):
    env = EMPTY_ENV
    for item in prelude_program(block_size).comp_defs():
        value = eval_comp(env, None, item.body, Fuel(10**7)).value
        env = {**env, item.name.text: value}
    return env


ENV = prelude_env()


def ev(src, env=ENV):
    return eval_comp(env, None, parse_comp_expr(src), Fuel(10**7)).value


def test_every_definition_has_its_documented_type():
    defs = load_prelude()
    assert {d.name for d in defs} == set(EXPECTED_TYPES)
    for d in defs:
        assert d.expected_type == parse_type(EXPECTED_TYPES[d.name])


def test_add_and_mul():
    assert ev("add 2 3") == 5
    assert ev("mul 6 7") == 42


def test_pred_and_monus_truncate_at_zero():
    assert ev("pred 0") == 0
    assert ev("pred 5") == 4
    assert ev("monus 5 2") == 3
    assert ev("monus 2 5") == 0


def test_comparisons_return_booleans_as_naturals():
    assert ev("isz 0") == 1
    assert ev("isz 3") == 0
    assert ev("le 2 2") == 1
    assert ev("le 3 2") == 0
    assert ev("lt 2 2") == 0
    assert ev("lt 1 2") == 1


def test_division():
    assert ev("div_floor 10 4") == 2
    assert ev("div_ceil 10 4") == 3
    assert ev("div_ceil 8 4") == 2
    assert ev("div_ceil 0 4") == 0


def test_block_arithmetic():
    assert ev("blockSize") == 4
    assert ev("blockCount 10") == 3
    assert ev("blockCount 0") == 0
    assert ev("indexToBlock 9") == 2
    assert ev("indexOffset 9") == 1


def test_block_size_override():
    env = prelude_env(block_size=8)
    assert ev("blockSize", env) == 8
    assert ev("blockCount 10", env) == 2


def test_misc_helpers():
    assert ev("half 9") == 4
    assert ev("pow2 5") == 32
    assert ev("odd 3") == 1
    assert ev("odd 4") == 0


def test_has_permission_checks_a_bit():
    # permission words are sums of powers of two; bit k set means granted
    assert ev("hasPermission 7 0") == 1
    assert ev("hasPermission 7 2") == 1
    assert ev("hasPermission 4 0") == 0
    assert ev("hasPermission 4 2") == 1


def test_prelude_program_checks_clean():
    assert check_program(prelude_program()).ok


def test_load_program_brings_prelude_into_scope():
    program = load_program("def n = add 1 2\nsystem = 0\n")
    assert check_program(program).ok


def test_prelude_name_clash_is_reported():
    with pytest.raises(MlgError) as exc:
        load_program("def add = z\n")
    assert "already defined by the prelude" in exc.value.diagnostics[0].message


def test_no_prelude_allows_redefinition():
    program = load_program("def add = z\nsystem = 0\n",
                           include_prelude=False)
    assert check_program(program).ok


def test_programs_share_the_prelude_parsed_once():
    first = load_program("def n = add 1 2\nsystem = 0\n")
    second = load_program("system = 0\n")
    count = len(prelude_program().defs)
    assert count and all(a is b for a, b in zip(first.defs[:count],
                                                   second.defs[:count]))
    resized = load_program("system = 0\n", block_size=8)
    shared = [a is b for a, b in zip(first.defs[:count], resized.defs)]
    names = [d.name.text for d in resized.defs]
    assert shared.count(False) == 1 and not shared[names.index("blockSize")]
    assert ev("blockCount 10", prelude_env(8)) == 2
