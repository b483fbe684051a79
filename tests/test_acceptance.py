"""End-to-end acceptance suite.

Each test exercises one headline property of the language at desk scale and
prints a one-line verdict, so the suite output doubles as a release report:

  1. termination       every generated well-typed computation term halts
  2. soundness         result values inhabit the statically inferred types
  3. golden scenario   the file-system demo orders write before reserve and
                       its communication multiset is seed-independent
  4. atomicity         racing multi-field updates are never seen half-applied
  5. oracle agreement  explorer deadlock verdicts match a brute-force search
  6. determinism       repeated seeded runs produce byte-identical traces
  7. congruence        canonical states respect the structural laws
  8. prelude algebra   the arithmetic library satisfies its specifications
"""

import itertools
import random
import time

import pytest

from mlg import syntax as S
from mlg.engine import TERMINATED, run, render_trace
from mlg.evaluate import EMPTY_ENV, Fuel, eval_comp, value_inhabits
from mlg.explorer import canonicalize, explore
from mlg.engine import initial_configuration
from mlg.parser import parse_comp_expr
from mlg.prelude import load_program, prelude_program
from mlg.typecheck import TypeEnv, check_program, infer_comp

from conftest import demo_text
from termgen import gen_closed_nat_term, gen_proc

CORPUS_SIZE = 1000
FUEL_BOUND = 10**7


def report(capsys, number, name, ok, detail=""):
    with capsys.disabled():
        verdict = "pass" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"\nacceptance {number} {name}: {verdict}{suffix}")
    assert ok, f"acceptance criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20260823)
    return [gen_closed_nat_term(rng, depth=8) for _ in range(CORPUS_SIZE)]


def test_acceptance_1_termination(capsys, corpus):
    start = time.monotonic()
    failures = 0
    for term in corpus:
        result = eval_comp(EMPTY_ENV, None, term, Fuel(FUEL_BOUND))
        if not isinstance(result.value, int):
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 60.0
    report(capsys, 1, "termination", ok,
           f"{CORPUS_SIZE} terms in {elapsed:.1f}s, {failures} failures")


def test_acceptance_2_type_soundness(capsys, corpus):
    violations = 0
    for term in corpus:
        ty = infer_comp(TypeEnv(), term)
        value = eval_comp(EMPTY_ENV, None, term, Fuel(FUEL_BOUND)).value
        if not value_inhabits(value, ty):
            violations += 1
    report(capsys, 2, "type soundness", violations == 0,
           f"{violations} violations in {CORPUS_SIZE} terms")


def _filesystem():
    program = load_program(demo_text("filesystem.mlg"), block_size=4)
    result = check_program(program)
    assert result.ok
    return program, result.obj_annotations


def _comm_multiset(trace):
    return tuple(sorted(
        (e.chan, e.payload) for e in trace if e.kind == "comm"
    ))


def test_acceptance_3_golden_scenario(capsys):
    program, ann = _filesystem()
    _, verdict, trace = run(program, seed=42, annotations=ann)
    comms = [(e.chan, e.payload) for e in trace if e.kind == "comm"]
    ordered = (
        verdict == TERMINATED
        and ("write", "10") in comms
        and ("reserve", "3") in comms
        and comms.index(("write", "10")) < comms.index(("reserve", "3"))
    )
    multisets = set()
    for seed in range(50):
        _, v, tr = run(program, seed=seed, annotations=ann)
        multisets.add((_comm_multiset(tr), v))
    stable = len(multisets) == 1
    report(capsys, 3, "golden scenario", ordered and stable,
           f"ordered={ordered}, {len(multisets)} distinct multisets")


# allowed field states of the raced object: u1 writes fx=1,fy=1 and u2
# writes fy=2,fz=2, each as one transaction, so a version-k state must
# show exactly k fully applied updates
RACE_ALLOWED = {
    0: {(0, 0, 0)},
    1: {(1, 1, 0), (0, 2, 2)},
    2: {(1, 2, 2), (1, 1, 2)},
}


def test_acceptance_4_atomicity(capsys):
    program = load_program(demo_text("race.mlg"))
    result = check_program(program)
    assert result.ok
    graph = explore(program, annotations=result.obj_annotations)
    bad = 0
    for state in graph.states:
        # store rows: (id, version, ((label, ("n", value)), ...), numbers)
        for _, version, fields, _ in state.store:
            values = dict(fields)
            combo = tuple(values[lab][1] for lab in ("fx", "fy", "fz"))
            if combo not in RACE_ALLOWED.get(version, set()):
                bad += 1
    ok = bad == 0 and len(graph.states) <= 1000 and not graph.deadlocks
    report(capsys, 4, "atomicity", ok,
           f"{len(graph.states)} states, {bad} partial-update states")


# ---------------------------------------------------------------------------
# criterion 5: explorer vs brute force on an exhaustive family


def _family():
    """Every multiset of 1..3 components, each a chain of 1..3 prefixes
    over two channels."""
    actions = [("!", 0), ("!", 1), ("?", 0), ("?", 1)]
    seqs = []
    for k in (1, 2, 3):
        seqs.extend(itertools.product(actions, repeat=k))
    for k in (1, 2, 3):
        yield from itertools.combinations_with_replacement(seqs, k)


def _instance_program(instance):
    chans = [S.Name("c1"), S.Name("c2")]
    decls = tuple(S.ChanDecl(n, S.NAT) for n in chans)

    def chain(seq):
        term = S.Nil()
        for op, c in reversed(seq):
            if op == "!":
                action = S.Send(chans[c], S.NatLit(0))
            else:
                action = S.Receive(chans[c], S.Name("v"))
            term = S.Prefix(action, term)
        return term

    entry = chain(instance[0])
    for seq in instance[1:]:
        entry = S.Par((entry, chain(seq)))
    return S.Program(decls, entry)


def _oracle_deadlock(state, memo):
    """state: sorted tuple of non-empty action sequences. True when a stuck
    non-empty configuration is reachable. No canonicalization beyond
    multiset ordering; successors computed from raw pairs."""
    cached = memo.get(state)
    if cached is not None:
        return cached
    memo[state] = False  # cycles are impossible; placeholder for reentry
    successors = []
    for i, a in enumerate(state):
        if a[0][0] != "!":
            continue
        for j, b in enumerate(state):
            if i == j or b[0][0] != "?" or a[0][1] != b[0][1]:
                continue
            rest = [s for k, s in enumerate(state) if k not in (i, j)]
            for s in (a[1:], b[1:]):
                if s:
                    rest.append(s)
            successors.append(tuple(sorted(rest)))
    if not successors:
        result = bool(state)
    else:
        result = any(_oracle_deadlock(s, memo) for s in successors)
    memo[state] = result
    return result


def test_acceptance_5_explorer_oracle_equivalence(capsys):
    start = time.monotonic()
    memo: dict = {}
    mismatches = 0
    total = 0
    for instance in _family():
        total += 1
        program = _instance_program(instance)
        graph = explore(program)
        explorer_verdict = bool(graph.deadlocks)
        oracle_verdict = _oracle_deadlock(tuple(sorted(instance)), memo)
        if explorer_verdict != oracle_verdict:
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 120.0
    report(capsys, 5, "explorer oracle equivalence", ok,
           f"{total} instances, {mismatches} mismatches, {elapsed:.1f}s")


def test_acceptance_6_determinism(capsys):
    program, ann = _filesystem()
    outputs = set()
    for _ in range(10):
        _, _, trace = run(program, seed=42, annotations=ann)
        outputs.add(render_trace(trace, "text"))
    report(capsys, 6, "determinism", len(outputs) == 1,
           f"{len(outputs)} distinct trace renderings in 10 runs")


# ---------------------------------------------------------------------------
# criterion 7: structural congruence laws


def _canon(term):
    decls = tuple(
        S.ChanDecl(S.Name(c), S.NAT) for c in ("c1", "c2")
    )
    return canonicalize(initial_configuration(S.Program(decls, term)))


def _rename_chan(term, old, new):
    def name(n):
        return S.Name(new) if n.text == old else n

    def action(a):
        if isinstance(a, S.Send):
            return S.Send(name(a.chan), a.payload)
        if isinstance(a, S.Receive):
            return S.Receive(name(a.chan), a.binder)
        return S.Match(a.left, a.right, action(a.inner))

    if isinstance(term, S.Nil):
        return term
    if isinstance(term, S.Prefix):
        return S.Prefix(action(term.action), _rename_chan(
            term.continuation, old, new))
    if isinstance(term, (S.Sum, S.Par)):
        return type(term)(tuple(_rename_chan(op, old, new)
                                for op in term.operands))
    if isinstance(term, S.Restrict):
        if term.chan.text == old:
            return term  # shadowed; nothing free to rename below
        return S.Restrict(term.chan, term.chan_sort,
                          _rename_chan(term.body, old, new))
    if isinstance(term, S.Repl):
        return S.Repl(_rename_chan(term.body, old, new))
    return term


def test_acceptance_7_congruence_laws(capsys):
    rng = random.Random(424242)
    counterexamples = 0
    pairs = 10000
    for i in range(pairs):
        p = gen_proc(rng, depth=4)
        q = gen_proc(rng, depth=4)
        checks = [
            _canon(S.Par((p, S.Nil()))) == _canon(p),  # unit
            _canon(S.Par((p, q))) == _canon(S.Par((q, p))),  # commutativity
        ]
        if i % 5 == 0:
            r = gen_proc(rng, depth=3)
            checks.append(  # associativity
                _canon(S.Par((S.Par((p, q)), r)))
                == _canon(S.Par((p, S.Par((q, r)))))
            )
            # idempotence: canonicalizing a configuration twice agrees
            checks.append(_canon(p) == _canon(p))
        if isinstance(p, S.Restrict):  # alpha-equivalence
            fresh = f"renamed{i}"
            variant = S.Restrict(
                S.Name(fresh), p.chan_sort,
                _rename_chan(p.body, p.chan.text, fresh),
            )
            checks.append(_canon(variant) == _canon(p))
        if not all(checks):
            counterexamples += 1
    report(capsys, 7, "congruence laws", counterexamples == 0,
           f"{pairs} pairs, {counterexamples} counterexamples")


# ---------------------------------------------------------------------------
# criterion 8: prelude algebra


def test_acceptance_8_prelude_algebra(capsys):
    start = time.monotonic()
    env = EMPTY_ENV
    for item in prelude_program().comp_defs():
        value = eval_comp(env, None, item.body, Fuel(FUEL_BOUND)).value
        env = {**env, item.name.text: value}

    def ev(src):
        result = eval_comp(env, None, parse_comp_expr(src), Fuel(FUEL_BOUND))
        return result.value

    violations = 0
    for x in range(21):
        for y in range(21):
            if ev(f"add {x} {y}") != x + y:
                violations += 1
            if ev(f"mul {x} {y}") != x * y:
                violations += 1
            if ev(f"monus {x} {y}") != max(x - y, 0):
                violations += 1
            if ev(f"add {x} {y}") != ev(f"add {y} {x}"):
                violations += 1
    for n in range(41):
        for b in range(1, 9):
            if ev(f"div_ceil {n} {b}") != -(-n // b):
                violations += 1
    elapsed = time.monotonic() - start
    report(capsys, 8, "prelude algebra", violations == 0,
           f"{violations} violations, {elapsed:.1f}s")
