"""Golden explorer counts.

`explore_golden.json` holds, for every case named below, the state, edge,
deadlock, terminal and frontier counts of `explore` and the labels of the
first deadlock witness. Any change to how states are told apart that is not
meant to change the quotient must leave every entry as it is. A change that
alters the quotient on purpose says so and re-records the file:

    PYTHONPATH=src python3 tests/test_explore_golden.py

The cases cover every demo, a seeded sample of the acceptance-5 family,
programs shaped like the benchmark's explore-grid workload, generated
process terms that take at least one step, and hand-written programs for
what the generators miss: forwarded receives, sums whose operands differ
only in received values, closures and objects as payloads, scope
extrusion, restrictions inside continuations and budgeted replication.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from conftest import DEMOS, demo_text
from termgen import gen_proc, proc_program
from test_acceptance import _family, _instance_program

from mlg.explorer import explore, find_deadlocks
from mlg.prelude import load_program
from mlg.typecheck import check_program

FIXTURE = Path(__file__).with_name("explore_golden.json")

HANDWRITTEN = {
    "forwarded-receive": """
chan c : nat
chan d : nat
system = c!(1) . 0 | c!(2) . 0 | c?(x) . d!(x) . 0 | c?(y) . d!(y) . 0
       | d?(a) . d?(b) . 0
""",
    # the two sums differ only in which received value went to which binder
    "sum-values-12": """
chan c : nat
chan d : nat
system = c!(1) . c!(2) . 0 | c?(x) . c?(y) . (d!(x) . 0 + d!(y) . 0)
       | d?(a) . 0
""",
    "sum-values-21": """
chan c : nat
chan d : nat
system = c!(2) . c!(1) . 0 | c?(x) . c?(y) . (d!(x) . 0 + d!(y) . 0)
       | d?(a) . 0
""",
    "sum-values-both": """
chan c : nat
chan d : nat
system = c!(1) . 0 | c!(2) . 0 | c?(x) . c?(y) . (d!(x) . 0 + d!(y) . 0)
       | c!(2) . 0 | c!(1) . 0 | c?(u) . c?(w) . (d!(w) . 0 + d!(u) . 0)
       | d?(a) . d?(b) . 0
""",
    "closure-payload": """
chan f : nat -> nat
chan d : nat
def inc = fun (x : nat) succ(x)
system = f!(inc) . 0 | f!(fun (y : nat) y) . 0
       | f?(g) . d!(g 1) . 0 | f?(h) . d!(h 2) . 0 | d?(a) . d?(b) . 0
""",
    "object-payload": """
chan o : [v : nat]
chan d : nat
system = o!([v = 1]) . 0 | o!([v = 2]) . 0
       | o?(r) . d!(r.v) . o!(r.[v <= 3]) . 0 | o?(s) . d!(s.v) . 0
       | o?(t) . d?(a) . d?(b) . 0
""",
    "scope-extrusion": """
chan k : chan(nat)
chan d : nat
system = (new a : nat in (k!(a) . a!(1) . 0 | a!(2) . 0))
       | (new b : nat in k!(b) . b!(3) . 0)
       | k?(x) . x?(y) . d!(y) . 0 | k?(q) . q?(w) . 0 | d?(v) . 0
""",
    # two received private names, used in a par and in a sum
    "private-names-in-par-and-sum": """
chan k : chan(nat)
system = (new a : nat in k!(a) . a?(u) . 0) | (new b : nat in k!(b) . b?(w) . 0)
       | (new e : nat in k!(e) . e?(s) . 0) | (new f : nat in k!(f) . f?(t) . 0)
       | k?(x) . k?(y) . (x!(1) . 0 | y!(2) . 0)
       | k?(p) . k?(q) . (p!(3) . 0 + q!(3) . 0)
""",
    "nested-new": """
chan c : nat
chan d : nat
system = c!(1) . 0 | c!(2) . 0
       | c?(x) . (new a : nat in (a!(x) . 0 | a?(y) . d!(y) . 0))
       | c?(x) . (new b : nat in (b!(x) . 0 | b?(y) . d!(y) . 0))
       | d?(p) . d?(q) . 0
""",
    "replicated-forwarder": """
chan c : nat
chan d : nat
system = !c?(x) . d!(x) . 0 | c!(1) . c!(2) . 0 | !d?(y) . 0
""",
    "replicated-private-server": """
chan req : nat
chan done : nat
system = !req?(x) . (new r : nat in (r!(x) . 0 | r?(y) . done!(y) . 0))
       | req!(1) . req!(1) . 0 | done?(a) . done?(b) . 0
""",
}

BUDGETS = (1, 2, 3)
FAMILY_SAMPLE = 240
GRID_SIZES = [(1, (1,)), (1, (2, 1)), (2, (1,)), (0, (2, 2)), (2, (2, 1))]
TERMGEN_SEEDS = range(10000)


def _checked(text: str, prelude: bool = True):
    program = load_program(text, include_prelude=prelude)
    result = check_program(program)
    assert result.ok, [d.render(text, "<input>") for d in result.diagnostics]
    return program, result.obj_annotations


def _grid_text(seed: int, g: int, classes: tuple[int, ...]) -> str:
    """g global and sum(classes) restricted 3-message pairs, seeded like
    the explore-grid workload: short global receivers, shuffled members."""
    rng = random.Random(seed)
    values = rng.sample(range(g + len(classes)), g + len(classes))
    members = []
    for i in range(g):
        c, v = f"g{i}", values[i]
        members.append(f"{c}!({v}) . {c}!({v}) . {c}!({v}) . 0")
        extra = f" . {c}?(x4)" if rng.random() < 0.5 else ""
        members.append(f"{c}?(x1) . {c}?(x2) . {c}?(x3){extra} . 0")
    for j, count in enumerate(classes):
        v = values[g + j]
        members += [
            f"new b : nat in (b!({v}) . b!({v}) . b!({v}) . 0 "
            f"| b?(x1) . b?(x2) . b?(x3) . 0)"
        ] * count
    rng.shuffle(members)
    return "\n".join(
        [f"chan g{i} : nat" for i in range(g)]
        + ["system = " + " | ".join(members)]
    ) + "\n"


def _case(name: str):
    """(program, annotations, repl budget) for a case name."""
    kind, _, rest = name.partition("/")
    if kind in ("demo", "hand"):
        what, _, budget = rest.rpartition("/budget=")
        text = demo_text(what) if kind == "demo" else HANDWRITTEN[what]
        return (*_checked(text), int(budget))
    if kind == "family":
        return _instance_program(_FAMILY[int(rest)]), {}, 2
    if kind == "grid":
        seed, g, classes = json.loads(rest)
        return (*_checked(_grid_text(seed, g, tuple(classes))), 2)
    term = gen_proc(random.Random(int(rest)), depth=5)
    return proc_program(term), {}, 2


_FAMILY = list(_family())


def _candidate_names() -> list[str]:
    names = [
        f"demo/{path.name}/budget={b}"
        for path in sorted(DEMOS.glob("*.mlg")) for b in BUDGETS
    ]
    names += [f"hand/{h}/budget={b}" for h in HANDWRITTEN for b in BUDGETS]
    sample = random.Random(5).sample(range(len(_FAMILY)), FAMILY_SAMPLE)
    names += [f"family/{i}" for i in sorted(sample)]
    names += [
        f"grid/{json.dumps([seed, g, list(classes)])}"
        for seed, (g, classes) in enumerate(GRID_SIZES)
    ]
    names += [f"termgen/{seed}" for seed in TERMGEN_SEEDS]
    return names


def summary(name: str) -> dict:
    program, annotations, budget = _case(name)
    graph = explore(program, repl_budget=budget, annotations=annotations)
    deadlocks = find_deadlocks(graph)
    return {
        "states": len(graph.states), "edges": len(graph.edges),
        "deadlocks": len(graph.deadlocks), "terminals": len(graph.terminals),
        "frontier": len(graph.frontier),
        "witness": deadlocks[0][1] if deadlocks else None,
    }


def record() -> None:
    """Write the fixture: every candidate except the generated terms that
    never leave their initial state, which are most of them."""
    entries = {}
    for name in _candidate_names():
        entry = summary(name)
        if entry["edges"] or not name.startswith("termgen/"):
            entries[name] = entry
    lines = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in entries.items()]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def test_explorer_counts_match_golden_fixture():
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    kinds = {name.partition("/")[0] for name in golden}
    assert kinds == {"demo", "hand", "family", "grid", "termgen"}
    mismatches = {
        name: (got, want) for name, want in golden.items()
        if (got := summary(name)) != want
    }
    assert not mismatches, mismatches


if __name__ == "__main__":
    record()
