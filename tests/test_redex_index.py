"""The scheduler's redex index against a reference enumerator.

`reference_redexes` is the scheduler's definition spelled out the slow way:
every sender x receiver pair, and a spawn for each replication whose
unfolding, next to one real unfolding of every other replication, adds a
comm on a channel that has none. Each unfolding also unfolds the
replications it brings, in turn. On configurations taken along seeded runs
and one branching step beyond, the index must count the same redexes, build
the same i-th redex for every i and flag the same replication-budget cuts.
The index `run` carries from step to step must equal a fresh one after
every step, and keep no channel that no live member offers on.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest
from termgen import gen_proc, proc_program
from test_run_golden import FIXTURE, wide_text

from mlg import engine as E
from mlg import syntax as S
from mlg.engine import (
    Comm, ReplSpawn, initial_configuration, member_offers, run, step,
)
from mlg.prelude import load_program
from mlg.typecheck import check_program


def reference_comms(config) -> list[Comm]:
    members = {m.pid: m for m in config.soup
               if not isinstance(m.term, S.Repl)}
    offers = {pid: member_offers(config, m) for pid, m in members.items()}
    comms = []
    for spid in sorted(offers):
        for soff in offers[spid]:
            if not isinstance(soff.action, S.Send):
                continue
            for rpid in sorted(offers):
                if rpid == spid:
                    continue
                for roff in offers[rpid]:
                    if (isinstance(roff.action, S.Receive)
                            and roff.chan.id == soff.chan.id):
                        comms.append(Comm(members[spid], soff, members[rpid],
                                          roff, config.step_count))
    # canonical order: sender pid, receiver pid, send path, receive path
    return sorted(comms, key=lambda c: (c.sender.pid, c.receiver.pid,
                                        c.send.path, c.receive.path))


def unfold(trial, member):
    """`trial` after spawning `member`, and each replication that the
    spawn brings, in turn."""
    first = trial.next_pid
    trial = step(trial, ReplSpawn(member, trial.step_count))
    for new in trial.soup:
        if new.pid >= first and isinstance(new.term, S.Repl):
            trial = unfold(trial, new)
    return trial


def reference_redexes(config) -> tuple[list, bool]:
    """(enabled redexes in canonical order, whether a budget cut one)."""
    comms = reference_comms(config)
    enabled = {comm.send.chan.id for comm in comms}
    repls = [m for m in config.soup if isinstance(m.term, S.Repl)]
    spawns, cut = [], False
    for member in repls:
        trial = config.clone()
        trial.trace = None
        trial = unfold(trial, member)
        own = range(config.next_pid, trial.next_pid)
        for other in repls:
            if other.pid != member.pid:
                trial = unfold(trial, other)
        if not any(
            (comm.sender.pid in own or comm.receiver.pid in own)
            and comm.send.chan.id not in enabled
            for comm in reference_comms(trial)
        ):
            continue
        if member.repl_budget is not None and member.repl_budget <= 0:
            cut = True
        else:
            spawns.append(ReplSpawn(member, config.step_count))
    return comms + spawns, cut


def assert_index_matches(config) -> None:
    want, want_cut = reference_redexes(config)
    config.budget_cut = False
    index = E._Index(config)
    assert index.count == len(want)
    assert [index.redex(i) for i in range(index.count)] == want
    assert config.budget_cut == want_cut
    assert E.enabled_redexes(config) == want


def walk(config, seed: int, steps: int) -> None:
    """Check the index along a seeded run, and on every successor of each
    configuration on it; successors share the run's caches and reuse its
    pids for different members."""
    rng = random.Random(seed)
    config.trace = None
    for _ in range(steps):
        assert_index_matches(config)
        redexes = E.enabled_redexes(config)
        if not redexes:
            return
        for redex in redexes:
            assert_index_matches(step(config, redex))
        config = step(config, rng.choice(redexes))


def _checked(text: str):
    program = load_program(text, include_prelude=False)
    result = check_program(program)
    assert result.ok, [d.render(text, "<input>") for d in result.diagnostics]
    return program, result.obj_annotations


SNIPPETS = [
    "c!(1) . 0",
    "c?(x) . d!(x) . 0",
    "(c!(2) . 0 + c?(y) . 0)",
    "(d!(3) . 0 + d?(y) . c!(y) . 0)",
    "(c!(1) . 0 + [2 = 2] d?(u) . 0)",
    "[1 = 1] d?(w) . 0",
    "[1 = 2] c?(w) . 0",
    "d?(a) . d?(b) . 0",
    "!c?(x) . 0",
    "!d!(4) . 0",
    "!(c!(0) . 0 | c?(x) . 0)",
    "!(d!(0) . 0 + d?(x) . 0)",
    "!(new r : nat in (r!(0) . 0 | r?(x) . d!(x) . 0))",
    "!(new r : nat in r!(0) . 0)",
    "!(new s : nat in s?(x) . 0)",
    "!(c?(x) . 0 | !d!(1) . 0)",
    "new k : nat in (!k?(x) . c!(x) . 0 | k!(1) . 0)",
    "o!([v = 0]) . 0",
    "o?(q) . ([q.v = 0] d!(5) . 0 | o!(q.[v <= 1]) . 0 "
    "| [q.v = 1] c!(6) . 0)",
    "o?(q) . (!([q.v = 1] d!(7) . 0) | o!(q.[v <= 1]) . 0)",
    "o?(q) . 0",
]


def soup_text(snippets: list[str]) -> str:
    return ("chan c : nat\nchan d : nat\nchan o : [v : nat]\n"
            "system = " + " | ".join(snippets) + "\n")


def test_index_matches_reference_on_hand_built_soups():
    for seed in range(150):
        rng = random.Random(seed)
        snippets = rng.choices(SNIPPETS, k=rng.randint(1, 6))
        budget = rng.choice([None, 0, 1, 2])
        program, annotations = _checked(soup_text(snippets))
        config = initial_configuration(program, annotations,
                                       repl_budget=budget)
        walk(config, seed, steps=8)


# sums with several sends or receives, where send-path order and
# receiver-pid order can disagree
SUMS = [
    "(c!(8) . 0 + d!(9) . 0)",
    "(c?(p) . 0 + d?(q) . 0)",
    "(d!(1) . 0 + c!(2) . 0 + c?(r) . 0)",
]


def test_index_keeps_canonical_order_on_sums():
    for seed in range(100):
        rng = random.Random(seed)
        snippets = rng.choices(SNIPPETS + SUMS * 4, k=rng.randint(2, 6))
        budget = rng.choice([None, 0, 1, 2])
        program, annotations = _checked(soup_text(snippets))
        walk(initial_configuration(program, annotations, repl_budget=budget),
             seed, steps=6)
        assert_carried_matches_fresh(
            initial_configuration(program, annotations, repl_budget=budget),
            seed, steps=20)


def termgen_seeds() -> list[int]:
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    return [int(name.split("/")[1]) for name in golden
            if name.startswith("termgen/")]


def test_index_matches_reference_on_generated_terms():
    seeds = termgen_seeds()
    assert len(seeds) >= 200
    for seed in seeds:
        term = gen_proc(random.Random(seed), depth=5)
        walk(initial_configuration(proc_program(term)), seed, steps=6)


def test_index_matches_reference_on_wide_soups():
    for seed, (k, chans) in enumerate([(6, 1), (10, 2), (12, 3)]):
        program, annotations = _checked(wide_text(seed, k, chans))
        walk(initial_configuration(program, annotations), seed, steps=4)


def carried(config, seed: int):
    """Step a seeded run the way `run` does, yielding each configuration
    with the index carried over to it."""
    rng = random.Random(seed)
    config.trace = None
    index = E._Index(config)
    while index.count:
        redex = index.redex(rng.randrange(index.count))
        config = step(config, redex)
        index.advance(config, redex)
        yield config, index


def assert_carried_matches_fresh(config, seed: int, steps: int) -> None:
    for config, index in itertools.islice(carried(config, seed), steps):
        cut, config.budget_cut = config.budget_cut, False
        fresh = E._Index(config)
        assert config.budget_cut == cut
        assert index.count == fresh.count
        assert index.spawns == fresh.spawns
        assert ([index.redex(i) for i in range(index.count)]
                == [fresh.redex(i) for i in range(fresh.count)])


# an update that turns one guarded send off and another on, while both
# have partners, and a guarded replication
GUARD_FLIP = [
    "o!([v = 0]) . 0", "o?(q) . 0", "d?(a) . 0", "c?(b) . 0", "c?(e) . 0",
    "o?(q) . ([q.v = 0] d!(5) . 0 | o!(q.[v <= 1]) . 0 | [q.v = 1] c!(6) . 0"
    " | !([q.v = 1] c!(7) . 0))",
]


def test_carried_index_matches_fresh_on_hand_built_soups():
    for seed in range(150):
        rng = random.Random(seed)
        snippets = rng.choices(SNIPPETS, k=rng.randint(1, 6))
        if seed < 20:
            snippets = GUARD_FLIP + snippets[:1]
        budget = rng.choice([None, 0, 1, 2])
        program, annotations = _checked(soup_text(snippets))
        config = initial_configuration(program, annotations,
                                       repl_budget=budget)
        assert_carried_matches_fresh(config, seed, steps=30)


def test_carried_index_matches_fresh_on_generated_terms():
    for seed in termgen_seeds():
        term = gen_proc(random.Random(seed), depth=5)
        assert_carried_matches_fresh(
            initial_configuration(proc_program(term)), seed, steps=20)


def test_carried_index_matches_fresh_on_wide_soups():
    for seed, (k, chans) in enumerate([(6, 1), (10, 2), (12, 3), (24, 4)]):
        program, annotations = _checked(wide_text(seed, k, chans))
        assert_carried_matches_fresh(
            initial_configuration(program, annotations), seed, steps=k)


REPLICATED_SERVER = (
    "chan req : nat\nchan done : nat\n"
    "system = !req?(x) . (new r : nat in (r!(x) . 0 | r?(y) . done!(y)"
    " . 0)) | !req!(1) . 0 | !done?(a) . 0\n")


def test_carried_index_keeps_only_live_channels():
    # every unfolding restricts a fresh channel r, used by two members for
    # a few steps; the index must let go of it when they are gone
    program, annotations = _checked(REPLICATED_SERVER)
    config = initial_configuration(program, annotations)
    for config, index in itertools.islice(carried(config, 0), 4000):
        pass
    assert config.step_count == 4000 and config.next_chan > 600
    live = {off.chan.id for m in config.soup
            if not isinstance(m.term, S.Repl)
            for off in member_offers(config, m)}
    assert set(index.receivers) | set(index.sends) <= live
    assert list(index.members) == [m.pid for m in config.soup
                                   if not isinstance(m.term, S.Repl)]


def _count_offer_calls(monkeypatch) -> list:
    calls = []

    def counting(config, member):
        calls.append(member.pid)
        return member_offers(config, member)

    monkeypatch.setattr(E, "member_offers", counting)
    return calls


def test_run_computes_each_members_offers_once(monkeypatch):
    calls = _count_offer_calls(monkeypatch)
    k = 60
    program, annotations = _checked(wide_text(3, k, 1))
    _, verdict, trace = run(program, seed=3, annotations=annotations)
    assert verdict == E.TERMINATED and len(trace) == k + 1
    assert len(calls) <= 2 * k


@pytest.mark.parametrize("text, max_steps", [
    (wide_text(3, 60, 1), 10**5), (REPLICATED_SERVER, 4000),
], ids=["wide", "replicated-server"])
def test_run_builds_one_comm_per_comm_step(monkeypatch, text, max_steps):
    built = []

    class CountingComm(Comm):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(E, "Comm", CountingComm)
    program, annotations = _checked(text)
    _, _, trace = run(program, seed=3, max_steps=max_steps,
                      annotations=annotations)
    comms = sum(event.kind == "comm" for event in trace)
    assert comms >= 60 and len(built) == comms
