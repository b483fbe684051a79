"""No process walker recurses once per operand or per action.

Every stage runs here on a 5,000-action chain, a 5,000-operand `|`, a
5,000-operand `+`, two equal 5,000-action chains and two equal
5,000-operand `|`s under prefixes, with the recursion limit lowered to about
100 frames above the test's own depth. A walker that recursed per prefix or
per operand, or a member key that nested once per action or per operand,
would need thousands of frames and raise RecursionError.
"""

import sys

import pytest

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
