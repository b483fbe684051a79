"""Deadlock witnesses against a second search over the edge list.

`find_deadlocks` reads each witness off the edges `explore` recorded: a
state's first incoming edge is the one that discovered it. The reference
here is a BFS of its own over `graph.edges`, and every deadlock's witness,
not only the first one the golden fixture pins, must be the path that BFS
finds. Each witness must also be an edge path from the initial state that
can end at its deadlock. The programs are the golden fixture's demos,
handwritten cases, grid shapes and generated terms, explored whole and
under a state cap or a depth cut, which leave edges out.
"""

from __future__ import annotations

import json
from collections import deque

import pytest

from test_explore_golden import FIXTURE, _case

from mlg.explorer import explore, find_deadlocks

CASES = [name for name in json.loads(FIXTURE.read_text(encoding="utf-8"))
         if not name.startswith("family/")]
CUTS = {"whole": {}, "states=3": {"max_states": 3},
        "states=10": {"max_states": 10}, "depth=2": {"max_depth": 2}}


def reference_paths(graph) -> dict:
    """One shortest edge path from the initial state to each state."""
    paths = {graph.initial: []}
    adjacency: dict = {}
    for src, label, dst in graph.edges:
        adjacency.setdefault(src, []).append((label, dst))
    queue = deque([graph.initial])
    while queue:
        state = queue.popleft()
        for label, dst in adjacency.get(state, []):
            if dst not in paths:
                paths[dst] = paths[state] + [label]
                queue.append(dst)
    return paths


def ends_at(graph, path: list[str], state) -> bool:
    """Whether following `path`'s labels from the initial state can reach
    `state`; two edges out of one state can carry one label."""
    at = {graph.initial}
    for label in path:
        at = {dst for src, lab, dst in graph.edges
              if src in at and lab == label}
    return state in at


@pytest.mark.parametrize("cut", sorted(CUTS))
def test_witnesses_match_a_second_search(cut):
    checked = 0
    for name in CASES:
        program, annotations, budget = _case(name)
        graph = explore(program, repl_budget=budget,
                        annotations=annotations, **CUTS[cut])
        witnesses = find_deadlocks(graph)
        paths = reference_paths(graph)
        assert {state for state, _ in witnesses} == graph.deadlocks, name
        assert witnesses == sorted(witnesses,
                                   key=lambda pair: (len(pair[1]), pair[1]))
        for state, path in witnesses:
            assert path == paths[state], name
            assert ends_at(graph, path, state), name
            checked += 1
    assert checked > len(CASES) // 4
