"""No walker recurses once per operand, per action or per arrow.

Every stage runs here on a 5,000-action chain, a 5,000-operand `|`, a
5,000-operand `+`, two equal 5,000-action chains and two equal
5,000-operand `|`s under prefixes, with the recursion limit lowered to about
100 frames above the test's own depth. A walker that recursed per prefix or
per operand, or a member key that nested once per action or per operand,
would need thousands of frames and raise RecursionError.
"""

import sys

import pytest

from mlg.cli import main
from mlg.engine import initial_configuration, run
from mlg.explorer import canonicalize, explore
from mlg.parser import parse_program
from mlg.pretty import pretty_program
from mlg.typecheck import check_program

N = 5000
HEADROOM = 100
DECLS = "chan c : nat\nchan d : nat\n"

PROGRAMS = {
    # two chains that talk to each other step by step
    "chain": DECLS + "system = {} . 0 | {} . 0\n".format(
        " . ".join(["c!(1) . d?(x)"] * (N // 2)),
        " . ".join(["c?(y) . d!(2)"] * (N // 2))),
    # a wide `|` under a prefix, so that the member keys walk it too
    "par": DECLS + "system = c!(1) . 0 | c?(x) . ({})\n".format(
        " | ".join(["d!(x) . 0"] * N)),
    "sum": DECLS + "system = {} | c?(x) . 0\n".format(
        " + ".join(f"c!({i}) . 0" for i in range(N))),
    # the same chain written twice: two equal member keys that compare
    "twin": DECLS + "system = {0} . 0 | {0} . 0\n".format(
        " . ".join(["c!(1)"] * N)),
    # the same wide `|` under a prefix, written twice
    "twin-par": DECLS + "system = c!(1) . ({0}) | c!(1) . ({0})\n".format(
        " | ".join(["d!(1) . 0"] * N)),
}


def _depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("shape", sorted(PROGRAMS))
def test_walkers_need_no_recursion_per_operand_or_action(shape):
    text = PROGRAMS[shape]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + HEADROOM)
    try:
        program = parse_program(text)
        assert check_program(program).ok
        printed = pretty_program(program)
        _, verdict, trace = run(program, max_steps=10)
        graph = explore(program, max_depth=2)
        state = canonicalize(initial_configuration(program))
    finally:
        sys.setrecursionlimit(limit)
    # equality of the deep syntax trees, or of keys interned in two
    # different caches, would itself recurse; text and hashes do not
    assert printed == text.replace("c!(0)", "c!(z)")
    assert trace[-1].kind == verdict
    assert hash(graph.initial) == hash(state)


def _arrows(n: int, send: bool) -> str:
    """A channel of `n` nats chained by arrows, received alone or from a
    payload of `n - 1` nested funs."""
    text = "chan c : " + " -> ".join(["nat"] * n) + "\nsystem = "
    if send:
        text += "c!(" + "fun (x : nat) " * (n - 1) + "x) . 0 | "
    return text + "c?(f) . 0\n"


@pytest.mark.parametrize("command", ["check", "fmt", "run", "explore"])
@pytest.mark.parametrize("send", [False, True], ids=["receive", "send"])
@pytest.mark.parametrize("n", [400, 800])
def test_long_arrow_chains_end_in_a_verdict(capsys, tmp_path, n, send,
                                            command):
    text = _arrows(n, send)
    path = tmp_path / "arrows.mlg"
    path.write_text(text, encoding="utf-8")
    code = main([command, str(path)])
    out, err = capsys.readouterr()
    assert err == ""
    assert code == (3 if command in ("run", "explore") and not send else 0)
    if command == "fmt":
        assert out == text


def test_nested_funs_are_compiled_one_level_per_closure(capsys, tmp_path):
    path = tmp_path / "funs.mlg"
    path.write_text("chan c : nat\nsystem = c!(" + "fun (x : nat) " * 800
                    + "x) . 0 | c?(y) . 0\n", encoding="utf-8")
    assert main(["run", "--unchecked", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"{path}:2:13: error: payload <fun(x : nat)> does not inhabit sort "
        "nat of channel 'c'\n")
