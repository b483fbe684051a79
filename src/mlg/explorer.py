"""Bounded explicit-state exploration: deadlock detection and reachability.

States are quotiented by structural congruence: the top-level parallel
composition (the soup) is flattened and its nils dropped; in each member's
key, env-bound free names become their values, a `|` nested directly in
another is spliced into it, and sum and par operands are sorted; a key
names a restricted channel by its sort, and top-level restricted channels
are numbered by first occurrence in the members ordered by key, then by
pid, and within a member in the order of its sorted sum and par operands.
Scope extrusion is a law, so a state does not record which restricted
channels were sent, and the declared channels, the same in every state,
are not part of it. Binder names inside continuations are still compared
by name. The object store is part of state identity, so data-dependent
coordination is explored correctly: each object's fields are keyed as the
soup's values are, so objects holding different functions differ, and
restricted channels held in fields are numbered after the soup's.
Deadlock witnesses are read off the edges `explore` records.

A member's key, its restricted channels and its numbered entries are
computed once and kept on the member, so a successor pays only for the
members its step made; a state's hash is built from its members' cached
ones. They are also kept on the member's term, under the budget and the
values of the names the term's key looked up: members that steps rebuild
from one term and equal values, in this exploration or a later one of the
same program, share them, and the term is walked once per such input.
"""

from __future__ import annotations

import sys
from collections import deque
from operator import itemgetter

from . import syntax as S
from .evaluate import ChanRef, Closure, EMPTY_ENV, ObjRef, ValueEnv
from .engine import (
    Configuration, Redex, ReplSpawn, SoupMember, enabled_redexes,
    initial_configuration, step,
)

_set = object.__setattr__

# ---------------------------------------------------------------------------
# Canonicalization


def _walk(term: S.ProcTerm, env: ValueEnv):
    """(structural key of `term`, or of a value, under `env`, restricted
    channels in order of occurrence, names looked up in env). The operands
    of a `|` or `+` are met in the order of their sorted keys, and operands
    with equal keys in the order written.

    Every key is a tuple headed by a string tag, so any two keys compare.
    """
    occurs: list[ChanRef] = []
    looked_up: dict[str, None] = {}

    def walk(node, env: ValueEnv, bound: frozenset[str]):
        if isinstance(node, S.Name):
            if node.text not in bound:
                looked_up[node.text] = None
                value = env.get(node.text)
                if value is not None:
                    return walk(value, env, bound)
            return ("v", node.text)
        if isinstance(node, S.Prefix):
            # one flat key per chain: equal long chains then compare
            # without recursing once per action
            heads = []
            while isinstance(node, S.Prefix):
                action, guards = node.action, []
                while isinstance(action, S.Match):
                    guards.append((walk(action.left, env, bound),
                                   walk(action.right, env, bound)))
                    action = action.inner
                chan = walk(action.chan, env, bound)
                if isinstance(action, S.Send):
                    heads.append(("!", tuple(guards), chan,
                                  walk(action.payload, env, bound)))
                else:
                    binder = action.binder.text
                    heads.append(("?", tuple(guards), chan, binder))
                    bound = bound | {binder}
                node = node.continuation
            return (".", tuple(heads), walk(node, env, bound))
        if isinstance(node, (S.Sum, S.Par)):
            # `+` and `|` commute, and `|` is associative: one flat key per
            # `|`, with nested `|` operands spliced in
            tag = "|" if isinstance(node, S.Par) else "+"
            operands, todo = [], list(reversed(node.operands))
            while todo:
                operand = todo.pop()
                if tag == "|" and isinstance(operand, S.Par):
                    todo.extend(reversed(operand.operands))
                else:
                    operands.append(operand)
            start, keys, marks = len(occurs), [], []
            for operand in operands:
                marks.append(len(occurs))
                keys.append(walk(operand, env, bound))
            order = sorted(range(len(keys)), key=keys.__getitem__)
            if len(occurs) > start:
                # each operand's restricted occurrences move with its key;
                # the sort is stable, so equal keys keep walk order
                marks.append(len(occurs))
                occurs[start:] = [ref for i in order
                                  for ref in occurs[marks[i]:marks[i + 1]]]
            return (tag, tuple([keys[i] for i in order]))
        if isinstance(node, S.Nil):
            return ("0",)
        if isinstance(node, S.Restrict):
            return ("new", str(node.chan_sort),
                    walk(node.body, env, bound | {node.chan.text}))
        if isinstance(node, S.Repl):
            return ("repl", walk(node.body, env, bound))
        if isinstance(node, S.ProcRef):
            return ("ref", node.name.text)
        if isinstance(node, S.Var):
            return walk(node.name, env, bound)
        if isinstance(node, S.MakeObject):
            return ("obj", tuple((lab.text, walk(e, env, bound))
                                 for lab, e in node.fields))
        if isinstance(node, S.UpdateObject):
            return ("upd", walk(node.target, env, bound),
                    tuple((lab.text, walk(e, env, bound))
                          for lab, e in node.updates))
        if isinstance(node, S.NatLit):
            return ("lit", node.n)
        if isinstance(node, S.Succ):
            return ("s", walk(node.arg, env, bound))
        if isinstance(node, S.Rec):
            inner = bound | {node.succ_binder.text, node.rec_binder.text}
            return ("rec", walk(node.scrutinee, env, bound),
                    walk(node.zero_branch, env, bound),
                    node.succ_binder.text, node.rec_binder.text,
                    walk(node.succ_branch, env, inner))
        if isinstance(node, S.Lambda):
            return ("lam", node.param.text, str(node.param_type),
                    walk(node.body, env, bound | {node.param.text}))
        if isinstance(node, S.App):
            return ("app", walk(node.fn, env, bound),
                    walk(node.arg, env, bound))
        if isinstance(node, S.FieldSel):
            return ("sel", walk(node.subject, env, bound), node.label.text)
        if isinstance(node, int):
            return ("n", node)
        if isinstance(node, ChanRef):
            if node.restricted:
                occurs.append(node)
                return ("r", str(node.sort))
            return ("c", node.id)
        if isinstance(node, ObjRef):
            return ("o", node.id)
        if isinstance(node, Closure):
            return ("fun", node.param.text, str(node.param_type),
                    walk(node.body, node.env, frozenset({node.param.text})))
        raise TypeError(f"no structural key for {node!r}")

    key = walk(term, env, frozenset())
    return key, tuple(occurs), tuple(looked_up)


def _member_entry(member: SoupMember) -> tuple:
    """(key, restricted channels, entry) of a member, kept on the member.

    A member's term, env and budget never change, so this is computed on
    first use and serves every configuration that shares the member. The
    entry is `(key, ())` with its hash when the member holds no restricted
    channel; otherwise it maps each numbering of its channels to
    `(key, numbers)` with its hash.

    Members built from one term share the memos kept on the term under
    `_keys`: the names its first walk looked up, and a dict from the budget
    and those names' values to the memo. Channel refs are equal only when
    their ids and sorts are, so configurations that give one id to
    restricted channels of two sorts get separate memos."""
    memo = member.__dict__.get("_canon")
    if memo is not None:
        return memo
    term, env = member.term, member.env
    keys = term.__dict__.get("_keys")
    if keys is not None:
        memo = keys[1].get((member.repl_budget, *map(env.get, keys[0])))
    if memo is None:
        key, occurs, names = _walk(term, env)
        if member.repl_budget is not None:
            key += (member.repl_budget,)
        if keys is None:
            keys = (names, {})
            _set(term, "_keys", keys)
        memo = (key, occurs, {} if occurs else ((key, ()), hash((key, ()))))
        keys[1][(member.repl_budget, *map(env.get, keys[0]))] = memo
    _set(member, "_canon", memo)
    return memo


class CanonicalState(S.Node):
    def __init__(self, soup: tuple[tuple, ...], store: tuple, key_hash: int):
        _set(self, "soup", soup)
        _set(self, "store", store)
        # tuples do not cache their hashes, so `canonicalize` builds the
        # hash from its members' cached ones; equal states still hash
        # equal, since every part of it comes from structure
        _set(self, "key_hash", key_hash)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.soup == other.soup and self.store == other.store

    def __hash__(self) -> int:
        return self.key_hash


def canonicalize(config: Configuration) -> CanonicalState:
    """Quotient a configuration by structural congruence.

    Its tuples are built from lists or by zip, at their exact size. A tuple
    built from an iterator of unknown length is made larger, then shrunk,
    and once freed it stays in a free list that such builds never draw
    from: that raised an exploration's traced peak memory by a third."""
    memos = [_member_entry(member) for member in config.soup]
    # stable, and the soup is in pid order: equal keys stay in pid order
    memos.sort(key=itemgetter(0))
    # restricted channel id -> its number
    alias: dict[int, int] = {}
    soup = []
    for key, occurs, entry in memos:
        if occurs:
            numbers = tuple([alias.setdefault(ref.id, len(alias))
                             for ref in occurs])
            numbered = entry.get(numbers)
            if numbered is None:
                numbered = entry[numbers] = ((key, numbers),
                                             hash((key, numbers)))
            entry = numbered
        soup.append(entry)
    if alias:  # else `memos` was sorted by these keys already
        soup.sort()
    # each object: (id, version, its fields' keys, the numbers of the
    # restricted channels met in them)
    store = []
    for obj in config.store.snapshot():
        fields, numbers = [], []
        for lab, value in sorted(obj.fields.items()):
            key, occurs, _ = _walk(value, EMPTY_ENV)
            fields.append((lab, key))
            numbers += [alias.setdefault(ref.id, len(alias))
                        for ref in occurs]
        store.append((obj.id, obj.version, tuple(fields), tuple(numbers)))
    store = tuple(store)
    keys, hashes = zip(*soup) if soup else ((), ())
    return CanonicalState(keys, store, hash((hashes, store)))


# ---------------------------------------------------------------------------
# State graph


class StateGraph:
    def __init__(self, initial: CanonicalState):
        self.initial = initial
        # insertion-ordered: states in discovery order, which numbers DOT
        # nodes; each state maps to itself, so that edges share its object
        self.states: dict[CanonicalState, CanonicalState] = {}
        self.edges: list[tuple[CanonicalState, str, CanonicalState]] = []
        self.deadlocks: set[CanonicalState] = set()
        self.terminals: set[CanonicalState] = set()
        # each state left wholly or partly unexpanded, with the budgets
        # that cut it: "depth", "states" or "repl-budget"
        self.frontier: dict[CanonicalState, set[str]] = {}

    def to_dot(self) -> str:
        index = {s: i for i, s in enumerate(self.states)}
        lines = ["digraph states {"]
        for state, i in index.items():
            flags = []
            if state in self.deadlocks:
                flags.append("deadlock")
            if state in self.terminals:
                flags.append("terminal")
            if state in self.frontier:
                flags.append("frontier")
            label = f"s{i}" + (f" [{','.join(flags)}]" if flags else "")
            attrs = f'label="{label}"'
            if state in self.deadlocks:
                attrs += ' color="red"'
            lines.append(f"  s{i} [{attrs}];")
        for src, label, dst in self.edges:
            lines.append(
                f'  s{index[src]} -> s{index[dst]} [label="{label}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def _edge_label(redex: Redex) -> str:
    """The edge's label, interned: a graph has many edges but few labels."""
    if isinstance(redex, ReplSpawn):
        return sys.intern(f"spawn(pid{redex.member.pid})")
    return sys.intern(f"comm({redex.send.chan.name})")


def explore(
    program: S.Program,
    max_depth: int | None = None,
    max_states: int = 10**5,
    repl_budget: int = 2,
    annotations: dict[int, S.ObjType] | None = None,
) -> StateGraph:
    """BFS over canonical states, expanding every enabled redex."""
    config = initial_configuration(program, annotations,
                                   repl_budget=repl_budget)
    config.trace = None  # traces are per path; explored states keep none
    initial = canonicalize(config)
    graph = StateGraph(initial)
    graph.states[initial] = initial
    queue: deque[tuple[Configuration, CanonicalState, int]] = deque(
        [(config, initial, 0)]
    )
    while queue:
        current, state, depth = queue.popleft()
        redexes = enabled_redexes(current)
        if current.budget_cut:
            graph.frontier[state] = {"repl-budget"}
        if not redexes:
            if not current.soup:
                graph.terminals.add(state)
            elif state not in graph.frontier:
                graph.deadlocks.add(state)
            continue
        if max_depth is not None and depth >= max_depth:
            graph.frontier.setdefault(state, {"depth"})
            continue
        for redex in redexes:
            succ = step(current, redex)
            succ_state = canonicalize(succ)
            known = graph.states.get(succ_state)
            if known is not None:
                succ_state = known
            elif len(graph.states) >= max_states:
                # no room for the successor: this state stays partly
                # unexpanded
                graph.frontier.setdefault(state, set()).add("states")
                continue
            else:
                graph.states[succ_state] = succ_state
                queue.append((succ, succ_state, depth + 1))
            graph.edges.append((state, _edge_label(redex), succ_state))
    return graph


def find_deadlocks(
    graph: StateGraph,
) -> list[tuple[CanonicalState, list[str]]]:
    """Each deadlock state with one shortest edge path from the initial.

    `explore` appends edges in BFS order, so a state's first incoming edge
    is the one that discovered it; following first edges back from a state
    reaches the initial along a shortest path."""
    first: dict[CanonicalState, tuple[CanonicalState, str]] = {}
    for src, label, dst in graph.edges:
        first.setdefault(dst, (src, label))
    result = []
    for state in graph.deadlocks:
        path, at = [], state
        while at != graph.initial:
            at, label = first[at]
            path.append(label)
        result.append((state, path[::-1]))
    result.sort(key=lambda pair: (len(pair[1]), pair[1]))
    return result
