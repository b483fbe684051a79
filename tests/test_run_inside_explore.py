"""Differential test: a seeded `run` stays inside the graph `explore` builds.

For a replication-free program, `explore` expands every enabled redex of
every reachable state, so each configuration a `run` passes through must be
a state of the graph, each of its steps an edge of it, and its verdict a
deadlock or terminal state of it. A state the explorer keys too coarsely
(two configurations with different futures given one state) shows up as a
run step the graph has no edge for, or a run deadlock the graph does not
flag.
"""

from __future__ import annotations

import pytest

from conftest import DEMOS
from test_explore_golden import HANDWRITTEN, _checked

from mlg import engine
from mlg import syntax as S
from mlg.explorer import canonicalize, explore
from mlg.parser import parse_program

# objects holding different functions: only the identity lets `d?(y)`
# pass its guard, so the other choice deadlocks
CLOSURES_IN_OBJECTS = """
chan c : [f : nat -> nat]
chan d : nat
chan e : nat
system = (c!([f = fun (x : nat) x]) . 0 + c!([f = fun (x : nat) succ(x)]) . 0)
       | c?(o) . d!(o.f 1) . 0 | d?(y) . [y = 1] e!(0) . 0 | e?(w) . 0
"""

# P runs in the scope of its definition, where x is 1, not in that of
# its reference, where the receive bound x to 5 or 6: so e!(x) never
# passes e's guard, and every run deadlocks
DEFINITION_SCOPE = """
def x = 1
chan c : nat
chan d : nat
chan e : nat
chan f : nat
proc P = e!(x) . 0
system = (c!(5) . 0 + c!(6) . 0) | c?(x) . d?(u) . P | d!(0) . 0
       | e?(w) . [w = 5] f!(0) . 0 | f?(q) . 0
"""

SEEDS = range(20)


def _replicates(term) -> bool:
    if isinstance(term, S.Repl):
        return True
    if isinstance(term, S.Prefix):
        return _replicates(term.continuation)
    if isinstance(term, (S.Sum, S.Par)):
        return any(map(_replicates, term.operands))
    if isinstance(term, S.Restrict):
        return _replicates(term.body)
    return False


def _replication_free() -> dict[str, str]:
    """The demos, the explorer's hand-written golden programs and the two
    above, less those with a replication, which `run` unfolds past any
    budget `explore` is given."""
    texts = {f"demo/{p.name}": p.read_text(encoding="utf-8")
             for p in sorted(DEMOS.glob("*.mlg"))}
    texts.update((f"hand/{name}", text) for name, text in HANDWRITTEN.items())
    texts["closures-in-objects"] = CLOSURES_IN_OBJECTS
    texts["definition-scope"] = DEFINITION_SCOPE
    free = {}
    for name, text in texts.items():
        program = parse_program(text)
        terms = [program.entry, *(d.body for d in program.defs
                                  if isinstance(d, S.ProcDef))]
        if not any(map(_replicates, terms)):
            free[name] = text
    return free


PROGRAMS = _replication_free()


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_run_stays_inside_explored_graph(monkeypatch, name):
    program, annotations = _checked(PROGRAMS[name])
    graph = explore(program, annotations=annotations)
    assert not graph.frontier
    # an edge's label names a restricted channel by the binder of the
    # configuration that found it, which the state does not record
    edges = {(src, dst) for src, _, dst in graph.edges}

    states = []  # the canonical state of each configuration a run passes
    original_step = engine.step

    def recording_step(config, redex):
        states.append(canonicalize(config))
        return original_step(config, redex)

    monkeypatch.setattr(engine, "step", recording_step)
    for seed in SEEDS:
        states.clear()
        final, verdict, _ = engine.run(program, seed, annotations=annotations)
        states.append(canonicalize(final))
        assert all(state in graph.states for state in states), seed
        for i, edge in enumerate(zip(states, states[1:])):
            assert edge in edges, (seed, i)
        ends_in = {engine.DEADLOCK: graph.deadlocks,
                   engine.TERMINATED: graph.terminals}[verdict]
        assert states[-1] in ends_in, (seed, verdict)
