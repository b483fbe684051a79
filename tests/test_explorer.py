import itertools
import random

import pytest

from conftest import DEMOS, demo_text

from mlg import engine as E
from mlg import explorer as X
from mlg import syntax as S
from mlg import typecheck as T
from mlg.evaluate import EMPTY_ENV
from mlg.engine import TERMINATED, initial_configuration, run
from mlg.explorer import canonicalize, explore, find_deadlocks
from mlg.prelude import load_program
from mlg.typecheck import check_program

from termgen import gen_proc, proc_program


def load(src, prelude=False):
    program = load_program(src, include_prelude=prelude)
    result = check_program(program)
    assert result.ok, [d.render(src, "<input>") for d in result.diagnostics]
    return program, result.obj_annotations


def canon_of(src, prelude=False):
    program, ann = load(src, prelude)
    return canonicalize(initial_configuration(program, ann))


def canon_of_term(term: S.ProcTerm):
    program = proc_program(term)
    return canonicalize(initial_configuration(program))


def test_canonical_state_drops_nil():
    assert canon_of("system = 0\n").soup == ()
    base = "chan c : nat\nsystem = c!(1) . 0\n"
    with_nil = "chan c : nat\nsystem = c!(1) . 0 | 0\n"
    assert canon_of(base) == canon_of(with_nil)


def test_par_is_commutative_and_associative():
    a = "chan c : nat\nchan d : nat\n"
    left = a + "system = (c!(1) . 0 | d!(2) . 0) | c?(x) . 0\n"
    right = a + "system = c?(x) . 0 | (d!(2) . 0 | c!(1) . 0)\n"
    assert canon_of(left) == canon_of(right)
    # also in a member's key, under a prefix
    left = a + "system = c!(1) . ((d!(1) . 0 | d!(2) . 0) | d!(3) . 0)\n"
    right = a + "system = c!(1) . (d!(1) . 0 | (d!(3) . 0 | d!(2) . 0))\n"
    assert canon_of(left) == canon_of(right)


def test_sum_is_commutative():
    a = "chan c : nat\nchan d : nat\n"
    left = a + "system = c!(1) . 0 + d!(2) . 0\n"
    right = a + "system = d!(2) . 0 + c!(1) . 0\n"
    assert canon_of(left) == canon_of(right)


def test_restriction_is_alpha_invariant():
    left = "system = new c : nat in c!(1) . 0 | c?(x) . 0\n"
    right = "system = new other : nat in other!(1) . 0 | other?(x) . 0\n"
    assert canon_of(left) == canon_of(right)


def test_distinct_restricted_channels_distinguished():
    one = "system = new a : nat in (a!(1) . 0 | a?(x) . 0)\n"
    two = (
        "system = new a : nat in new b : nat in"
        " (a!(1) . 0 | b?(x) . 0)\n"
    )
    assert canon_of(one) != canon_of(two)


def test_restricted_channels_numbered_in_sorted_operand_order():
    # the inner `|`'s operands sort by key, and their channels are
    # numbered in that order, not in the order the program writes them
    src = ("chan c : nat\nsystem = new x : nat in new y : nat in"
           " (c?(w) . ({}) | {}?(a) . 0)\n")
    first = canon_of(src.format("x!(1) . 0 | y!(2) . 0", "x"))
    swapped = canon_of(src.format("y!(2) . 0 | x!(1) . 0", "x"))
    assert first == swapped
    # the receiver now waits on the channel of 2, not of 1
    other = canon_of(src.format("y!(2) . 0 | x!(1) . 0", "y"))
    assert first != other


GRID = (
    "chan g0 : nat\nsystem = g0?(x1) . g0?(x2) . g0?(x3) . 0"
    " | new b : nat in (b!(1) . b!(1) . b!(1) . 0"
    " | b?(x1) . b?(x2) . b?(x3) . 0)"
    " | g0!(0) . g0!(0) . g0!(0) . 0"
    " | new b : nat in (b!(1) . b!(1) . b!(1) . 0"
    " | b?(x1) . b?(x2) . b?(x3) . 0)\n"
)


def test_each_member_is_keyed_once(monkeypatch):
    import mlg.explorer as E

    calls = []
    walk = E._walk

    def counting_walk(term, env):
        calls.append(term)
        return walk(term, env)

    monkeypatch.setattr(E, "_walk", counting_walk)
    program, ann = load(GRID)
    graph = explore(program, annotations=ann)
    assert len(graph.states) == 4 * 10
    # 126 members, built from 18 terms and the values they look up
    assert len(calls) == 18
    # the keys stay on the program's terms: exploring it again walks none
    calls.clear()
    assert list(explore(program, annotations=ann).states) == list(graph.states)
    assert calls == []


REPLICATED_SERVER = (
    "chan req : nat\nchan done : nat\n"
    "system = !req?(x) . (new r : nat in (r!(x) . 0 | r?(y) . done!(y) . 0))"
    " | !req!(1) . 0 | !done?(a) . 0\n"
)
# its members look up a closure-valued def and hold restricted channels;
# each `c!(twice y) . 0` is reached with two values of y
CLOSURE_OVER_RESTRICTED = (
    "chan c : nat\nchan d : nat\ndef twice = fun (x : nat) succ(succ(x))\n"
    "system = new a : nat in"
    " ((a!(twice 1) . 0 + a!(twice 2) . 0) | a?(y) . c!(twice y) . 0)"
    " | new b : nat in (b!(1) . 0 | b?(y) . c!(twice y) . 0)"
    " | c?(p) . d!(p) . 0\n"
)


def outcome(graph):
    """What `mlg explore` reports of a graph: its summary and DOT text."""
    return (len(graph.states), len(graph.edges), len(find_deadlocks(graph)),
            len(graph.terminals), len(graph.frontier), graph.to_dot())


@pytest.mark.parametrize("src, runs", [
    # (budget, states, edges, deadlocks, terminals, frontier)
    (REPLICATED_SERVER, [(1, 8, 8, 0, 0, 6), (2, 33, 57, 0, 0, 19),
                         (1, 8, 8, 0, 0, 6)]),
    (CLOSURE_OVER_RESTRICTED, [(2, 13, 18, 4, 0, 0), (2, 13, 18, 4, 0, 0)]),
], ids=["replicated-server", "closure-over-restricted"])
def test_keys_kept_on_a_program_are_reused_only_for_equal_inputs(src, runs):
    # the keys that earlier explorations left on the program's terms give
    # what a fresh parse of the same text gives
    program, ann = load(src)
    for budget, *summary in runs:
        fresh, fresh_ann = load(src)
        kept = outcome(explore(program, repl_budget=budget, annotations=ann))
        assert kept == outcome(explore(fresh, repl_budget=budget,
                                       annotations=fresh_ann))
        assert list(kept[:5]) == summary


def test_states_of_two_explorations_are_equal_and_hash_equal():
    for program, ann in (load(demo_text("race.mlg"), prelude=True),
                         load(GRID)):
        one = list(explore(program, annotations=ann).states)
        two = list(explore(program, annotations=ann).states)
        assert one == two
        assert [hash(s) for s in one] == [hash(s) for s in two]


def test_states_do_not_record_which_restricted_channels_were_sent():
    # sending r over a or 1 over b leaves the same soup, r?(v) . 0 with r
    # still restricted: one state, whichever branch extruded r
    program, ann = load(
        "chan a : chan(nat)\nchan b : nat\n"
        "system = new r : nat in ((a!(r) . 0 + b!(1) . 0) | r?(v) . 0)"
        " | (a?(x) . 0 + b?(y) . 0)\n")
    graph = explore(program, annotations=ann)
    assert (len(graph.states), len(graph.deadlocks)) == (2, 1)


def test_siblings_giving_one_id_to_two_sorts_stay_apart():
    # unchecked: both branches of the sum restrict r, one at nat and one at
    # chan(nat), and give it the same id, so after c carries r the one term
    # s?(v) . 0 reads a channel of that id at either sort
    program = load_program(
        "chan a : nat\nchan c : chan(nat)\n"
        "system = a!(1) . 0 | (a?(x) . (new r : nat in c!(r) . 0)"
        " + a?(x) . (new r : chan(nat) in c!(r) . 0)) | c?(s) . s?(v) . 0\n",
        include_prelude=False)
    graph = explore(program)
    assert len(graph.states) == 5
    assert len(graph.deadlocks) == 2


def test_operand_order_of_restricted_channels_of_two_sorts_is_one_state():
    system = ("chan c : nat\nsystem = new x : nat in new y : chan(nat) in"
              " c?(w) . ({})\n")
    assert (canon_of(system.format("x?(a) . 0 | y?(a) . 0"))
            == canon_of(system.format("y?(a) . 0 | x?(a) . 0")))


def test_permuting_par_operands_that_hold_restricted_channels():
    # metamorphic: every order of the `|` operands gives one initial state
    # and the same exploration
    system = ("chan c : nat\nsystem = new x : nat in new y : chan(nat) in"
              " new q : nat in c?(w) . ({})\n")
    operands = ["x?(a) . 0", "y?(a) . 0", "q!(1) . 0"]
    states, counts = set(), set()
    for order in itertools.permutations(operands):
        program, ann = load(system.format(" | ".join(order)))
        graph = explore(program, annotations=ann)
        states.add(graph.initial)
        counts.add((len(graph.states), len(graph.edges),
                    len(graph.deadlocks), len(graph.terminals)))
    assert len(states) == 1
    assert len(counts) == 1


def test_randomized_par_commutativity():
    rng = random.Random(11)
    for _ in range(50):
        p = gen_proc(rng, depth=4)
        q = gen_proc(rng, depth=4)
        assert (
            canon_of_term(S.Par((p, q))) == canon_of_term(S.Par((q, p)))
        )
        assert (
            canon_of_term(S.Par((p, S.Nil()))) == canon_of_term(p)
        )


def test_explore_deadlocked_receiver():
    program, ann = load(demo_text("deadlock_recv.mlg"))
    graph = explore(program, annotations=ann)
    assert len(graph.states) == 1
    assert graph.deadlocks == {graph.initial}
    assert graph.terminals == set()
    witnesses = find_deadlocks(graph)
    assert witnesses == [(graph.initial, [])]


def test_explore_filesystem_no_deadlocks():
    program, ann = load(demo_text("filesystem.mlg"), prelude=True)
    graph = explore(program, annotations=ann)
    assert graph.deadlocks == set()
    assert len(graph.terminals) == 1
    assert not graph.frontier
    # write(10) precedes reserve on every path: no edge out of a state
    # whose incoming history lacks the write can be a reserve comm
    reserve_src = {src for src, lab, _ in graph.edges if lab == "comm(reserve)"}
    write_dst = {dst for _, lab, dst in graph.edges if lab == "comm(write)"}
    reachable_before_write = set()
    stack = [graph.initial]
    blocked = write_dst
    while stack:
        state = stack.pop()
        if state in reachable_before_write:
            continue
        reachable_before_write.add(state)
        for src, lab, dst in graph.edges:
            if src == state and lab != "comm(write)":
                stack.append(dst)
    assert not (reserve_src & reachable_before_write)


def test_sum_branches_exclusive():
    program, ann = load(
        "chan c : nat\nchan d : nat\n"
        "system = (c!(1) . 0 + d!(2) . 0) | c?(x) . 0 | d?(y) . 0\n"
    )
    graph = explore(program, annotations=ann)
    # each resolution strands the other branch's receiver, a stuck soup
    assert graph.terminals == set()
    assert len(graph.deadlocks) == 2
    for state in graph.deadlocks:
        assert len(state.soup) == 1


def test_self_sum_cannot_communicate():
    program, ann = load(
        "chan c : nat\n"
        "system = c!(0) . 0 + c?(x) . 0\n"
    )
    graph = explore(program, annotations=ann)
    assert len(graph.states) == 1
    assert graph.deadlocks == {graph.initial}


def test_find_deadlocks_shortest_witness():
    program, ann = load(
        "chan c : nat\nchan d : nat\n"
        "system = c!(1) . d?(y) . 0 | c?(x) . 0\n"
    )
    graph = explore(program, annotations=ann)
    witnesses = find_deadlocks(graph)
    assert len(witnesses) == 1
    _, path = witnesses[0]
    assert path == ["comm(c)"]


def test_race_demo_state_count_and_no_deadlock():
    program, ann = load(demo_text("race.mlg"), prelude=True)
    graph = explore(program, annotations=ann)
    assert graph.deadlocks == set()
    assert len(graph.states) <= 1000
    assert len(graph.terminals) >= 1


def test_repl_budget_marks_frontier():
    program, ann = load(
        "chan c : nat\n"
        "system = !c?(x) . 0 | !c!(1) . 0\n"
    )
    graph = explore(program, repl_budget=1, annotations=ann)
    assert "repl-budget" in set().union(*graph.frontier.values())


def test_explore_depth_cut_marks_frontier():
    program, ann = load(
        "chan c : nat\n"
        "system = c!(1) . c!(2) . c!(3) . 0 | c?(x) . c?(y) . c?(w) . 0\n"
    )
    graph = explore(program, max_depth=1, annotations=ann)
    assert graph.frontier


def test_engine_runs_land_in_explored_states():
    program, ann = load(demo_text("filesystem.mlg"), prelude=True)
    graph = explore(program, annotations=ann)
    for seed in range(5):
        config, verdict, _ = run(program, seed=seed, annotations=ann)
        assert verdict == TERMINATED
        assert canonicalize(config) in graph.states


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.mlg")))
def test_run_and_explore_change_no_env_in_place(monkeypatch, demo):
    # a binder extends an env by copy: the initial members' envs, and the
    # empty env every program starts from, read the same afterwards
    program, ann = load(demo_text(demo), prelude=True)
    built = []

    def recording(*args, **kwargs):
        config = initial_configuration(*args, **kwargs)
        built.append([(m, dict(m.env)) for m in config.soup])
        return config
    monkeypatch.setattr(E, "initial_configuration", recording)
    monkeypatch.setattr(X, "initial_configuration", recording)
    run(program, annotations=ann)
    explore(program, annotations=ann)
    assert len(built) == 2 and all(built)
    for members in built:
        for member, env in members:
            assert member.env == env
    assert EMPTY_ENV == {}


def test_equal_closures_are_one_state():
    # the two senders' closures are distinct objects with equal bodies
    # and envs: sending either one reaches the same state
    program, ann = load(
        "chan c : nat -> nat\nchan d : nat\n"
        "system = c!(fun (x : nat) x) . 0 | c!(fun (x : nat) x) . 0"
        " | c?(f) . d!(f 1) . 0 | d?(y) . 0\n")
    graph = explore(program, annotations=ann)
    assert (len(graph.states), len(graph.edges), len(graph.deadlocks),
            len(graph.terminals), len(graph.frontier)) == (3, 3, 1, 0, 0)
    assert [path for _, path in find_deadlocks(graph)] == [
        ["comm(c)", "comm(d)"]]


def test_to_dot_mentions_deadlocks():
    program, ann = load(demo_text("deadlock_recv.mlg"))
    graph = explore(program, annotations=ann)
    dot = graph.to_dot()
    assert dot.startswith("digraph states {")
    assert "deadlock" in dot


@pytest.mark.parametrize("src, budgets, dot", [
    ("system = c!(1) . 0 | c?(x) . 0 | c?(x) . c!(2) . 0", {},
     'digraph states {\n'
     '  s0 [label="s0"];\n'
     '  s1 [label="s1 [deadlock]" color="red"];\n'
     '  s2 [label="s2"];\n'
     '  s3 [label="s3 [terminal]"];\n'
     '  s0 -> s1 [label="comm(c)"];\n'
     '  s0 -> s2 [label="comm(c)"];\n'
     '  s2 -> s3 [label="comm(c)"];\n'
     '}\n'),
    ("system = c!(1) . 0 | c?(x) . 0 | c?(x) . c!(2) . 0", {"max_depth": 1},
     'digraph states {\n'
     '  s0 [label="s0"];\n'
     '  s1 [label="s1 [deadlock]" color="red"];\n'
     '  s2 [label="s2 [frontier]"];\n'
     '  s0 -> s1 [label="comm(c)"];\n'
     '  s0 -> s2 [label="comm(c)"];\n'
     '}\n'),
    ("system = !c!(1) . 0 | c?(x) . c?(y) . 0", {"repl_budget": 1},
     'digraph states {\n'
     '  s0 [label="s0"];\n'
     '  s1 [label="s1"];\n'
     '  s2 [label="s2 [frontier]"];\n'
     '  s0 -> s1 [label="spawn(pid0)"];\n'
     '  s1 -> s2 [label="comm(c)"];\n'
     '}\n'),
])
def test_to_dot_bytes_with_edges_and_flags(src, budgets, dot):
    program, ann = load(f"chan c : nat\n{src}\n")
    assert explore(program, annotations=ann, **budgets).to_dot() == dot


# ---------------------------------------------------------------------------
# Small brute-force cross-check (a miniature of the acceptance oracle)


def _mini_oracle_deadlock(program) -> bool:
    """Uncanonicalized search for a reachable stuck non-empty soup."""
    from mlg.engine import enabled_redexes, initial_configuration, step

    start = initial_configuration(program)
    seen = set()
    stack = [start]
    found = False
    while stack:
        config = stack.pop()
        key = (
            tuple(sorted(
                (m.pid, id(m.term)) for m in config.soup
            )),
            config.step_count,
        )
        redexes = enabled_redexes(config)
        if not redexes:
            if config.soup:
                found = True
            continue
        for redex in redexes:
            stack.append(step(config, redex))
    return found


def test_explorer_agrees_with_mini_oracle():
    sources = [
        "chan c1 : nat\nchan c2 : nat\nsystem = c1!(0) . 0 | c1?(x) . 0\n",
        "chan c1 : nat\nchan c2 : nat\nsystem = c1!(0) . 0 | c2?(x) . 0\n",
        "chan c1 : nat\nchan c2 : nat\n"
        "system = c1!(0) . c2?(y) . 0 | c1?(x) . 0 | c2!(1) . 0\n",
        "chan c1 : nat\nchan c2 : nat\n"
        "system = c1!(0) . 0 + c1?(x) . 0\n",
    ]
    for src in sources:
        program, ann = load(src)
        graph = explore(program, annotations=ann)
        assert bool(graph.deadlocks) == _mini_oracle_deadlock(program), src
