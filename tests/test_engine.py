from conftest import demo_text

import pytest

from mlg import engine as E
from mlg import syntax as S
from mlg.diagnostics import MlgError
from mlg.engine import (
    Comm, DEADLOCK, ReplSpawn, STEP_LIMIT, TERMINATED, enabled_redexes,
    initial_configuration, render_trace, run, step,
)
from mlg.evaluate import ChanRef, EvalFault
from mlg.prelude import load_program
from mlg.typecheck import check_program


def load(src, prelude=False):
    program = load_program(src, include_prelude=prelude)
    result = check_program(program)
    assert result.ok, [d.render(src, "<input>") for d in result.diagnostics]
    return program, result.obj_annotations


def test_empty_soup_has_no_redexes():
    program, ann = load("system = 0\n")
    config = initial_configuration(program, ann)
    assert config.soup == []
    assert enabled_redexes(config) == []


def test_single_comm_redex():
    program, ann = load(
        "chan write : nat\n"
        "system = write!(10) . 0 | write?(n) . 0\n"
    )
    config = initial_configuration(program, ann)
    redexes = enabled_redexes(config)
    assert len(redexes) == 1
    assert isinstance(redexes[0], Comm)


def test_comm_requires_matching_channel():
    program, ann = load(
        "chan a : nat\nchan b : nat\n"
        "system = a!(1) . 0 | b?(n) . 0\n"
    )
    config = initial_configuration(program, ann)
    assert enabled_redexes(config) == []


def test_sum_cannot_communicate_with_itself():
    program, ann = load(
        "chan c : nat\n"
        "system = c!(0) . 0 + c?(x) . 0\n"
    )
    config = initial_configuration(program, ann)
    assert enabled_redexes(config) == []


def test_match_guard_passes_on_equal_naturals():
    program, ann = load(
        "chan c : nat\n"
        "system = [z = 0] c!(1) . 0 | c?(x) . 0\n"
    )
    config = initial_configuration(program, ann)
    assert len(enabled_redexes(config)) == 1


def test_match_guard_blocks_on_unequal_naturals():
    program, ann = load(
        "chan c : nat\n"
        "system = [z = 1] c!(1) . 0 | c?(x) . 0\n"
    )
    config = initial_configuration(program, ann)
    assert enabled_redexes(config) == []


def test_step_transfers_payload_value():
    program, ann = load(
        "chan c : nat\nchan d : nat\n"
        "system = c!(4) . 0 | c?(x) . d!(x) . 0 | d?(y) . 0\n"
    )
    config = initial_configuration(program, ann)
    config = step(config, enabled_redexes(config)[0])
    # the receiver's continuation now offers d!(4)
    (redex,) = enabled_redexes(config)
    config = step(config, redex)
    assert config.trace[-1].chan == "d"
    assert config.trace[-1].payload == "4"


def test_stale_redex_rejected():
    program, ann = load(
        "chan c : nat\n"
        "system = c!(1) . 0 | c?(x) . 0\n"
    )
    config = initial_configuration(program, ann)
    (redex,) = enabled_redexes(config)
    later = step(config, redex)
    with pytest.raises(MlgError):
        step(later, redex)


def test_redex_from_a_sibling_configuration_rejected():
    # both siblings carry the same step count and give pid4 to the
    # continuation of their sender: d!(1) . 0 in one, d!(2) . 0 in the other
    program, ann = load(
        "chan c : nat\n"
        "chan d : nat\n"
        "system = c!(1) . d!(1) . 0 | c?(x) . 0 | c!(2) . d!(2) . 0"
        " | d?(y) . 0\n"
    )
    config = initial_configuration(program, ann)
    config.trace = None
    first, second = (step(config, r) for r in enabled_redexes(config))
    assert first.step_count == second.step_count
    (redex,) = enabled_redexes(first)
    with pytest.raises(MlgError, match="participant no longer present"):
        step(second, redex)


def test_redex_whose_participant_lies_past_the_soup_rejected():
    # the first sibling gives pid5 to d!(1) . 0; the second ends with pid2,
    # so pid5 lies past its last member
    program, ann = load(
        "chan c : nat\n"
        "chan d : nat\n"
        "chan e : nat\n"
        "system = c!(1) . d!(1) . 0 | c?(x) . 0 | d?(y) . 0 | e!(2) . 0"
        " | e?(w) . 0\n"
    )
    config = initial_configuration(program, ann)
    config.trace = None
    first, second = (step(config, r) for r in enabled_redexes(config))
    assert [m.pid for m in second.soup] == [0, 1, 2]
    (redex,) = [r for r in enabled_redexes(first) if r.sender.pid == 5]
    with pytest.raises(MlgError, match="participant no longer present"):
        step(second, redex)


def test_spawn_from_a_sibling_configuration_rejected():
    # a budgeted spawn replaces the replication with a copy of smaller
    # budget, which the sibling that took the same spawn does not hold
    program, ann = load(
        "system = !(new r : nat in (r!(1) . 0 | r?(x) . 0))\n"
    )
    config = initial_configuration(program, ann, repl_budget=2)
    config.trace = None
    (spawn,) = enabled_redexes(config)
    first, second = step(config, spawn), step(config, spawn)
    (again,) = [r for r in enabled_redexes(first) if isinstance(r, ReplSpawn)]
    with pytest.raises(MlgError, match="replication no longer present"):
        step(second, again)


def test_name_mobility_substitutes_channels():
    program, ann = load(demo_text("mobility.mlg"))
    _, verdict, trace = run(program, seed=0, annotations=ann)
    assert verdict == TERMINATED
    comms = [e for e in trace if e.kind == "comm"]
    assert [e.chan for e in comms] == ["a", "c"]
    assert comms[0].payload.startswith("chan#")


def test_replication_spawns_lazily():
    program, ann = load(
        "chan c : nat\n"
        "system = !c?(x) . 0 | c!(1) . 0 | c!(2) . 0\n"
    )
    config = initial_configuration(program, ann)
    redexes = enabled_redexes(config)
    assert len(redexes) == 1
    assert isinstance(redexes[0], ReplSpawn)
    config = step(config, redexes[0])
    # now a real receiver exists: two comm redexes, no further spawn needed
    redexes = enabled_redexes(config)
    assert all(isinstance(r, Comm) for r in redexes)
    assert len(redexes) == 2


def test_replication_without_partner_stays_quiet():
    program, ann = load(
        "chan c : nat\n"
        "system = !c?(x) . 0\n"
    )
    config = initial_configuration(program, ann)
    assert enabled_redexes(config) == []


def test_replication_with_faulting_guard_faults():
    # unchecked: the guard compares a natural with a channel. Its unfolding
    # faults as the guard would after a spawn, at the guard's span
    text = ("chan c : nat\n"
            "system = !([1 = c] c!(0) . 0) | !c?(x) . 0 | c!(5) . 0\n")
    program = load_program(text, include_prelude=False)
    with pytest.raises(EvalFault) as caught:
        run(program)
    assert caught.value.diagnostics[0].render(text, "<input>") == (
        "<input>:2:12: error: match on incomparable values")


def test_run_nil_terminates_in_zero_steps():
    program, ann = load("system = 0\n")
    config, verdict, trace = run(program, annotations=ann)
    assert verdict == TERMINATED
    assert config.step_count == 0


def test_run_lone_receiver_deadlocks():
    program, ann = load(demo_text("deadlock_recv.mlg"))
    config, verdict, trace = run(program, annotations=ann)
    assert verdict == DEADLOCK
    assert config.step_count == 0


def test_run_step_limit():
    program, ann = load(
        "chan c : nat\n"
        "system = !c?(x) . 0 | !c!(1) . 0\n"
    )
    config, verdict, trace = run(program, seed=0, max_steps=10,
                                 annotations=ann)
    assert verdict == STEP_LIMIT
    assert config.step_count == 10


def test_filesystem_demo_seed_42_orders_write_before_reserve():
    program, ann = load(demo_text("filesystem.mlg"), prelude=True)
    config, verdict, trace = run(program, seed=42, annotations=ann)
    assert verdict == TERMINATED
    comms = [(e.chan, e.payload) for e in trace if e.kind == "comm"]
    write_at = comms.index(("write", "10"))
    reserve_at = comms.index(("reserve", "3"))
    assert write_at < reserve_at
    # the committed file records the written size, in one atomic update
    (obj,) = config.store.objects.values()
    assert obj.fields["size"] == 10
    assert obj.version == 1


def test_trace_byte_identical_for_same_seed():
    program, ann = load(demo_text("filesystem.mlg"), prelude=True)
    texts = set()
    for _ in range(3):
        _, _, trace = run(program, seed=7, annotations=ann)
        texts.add(render_trace(trace, "text"))
    assert len(texts) == 1


def test_comm_multiset_stable_across_seeds():
    program, ann = load(demo_text("filesystem.mlg"), prelude=True)
    multisets = set()
    for seed in range(8):
        _, verdict, trace = run(program, seed=seed, annotations=ann)
        assert verdict == TERMINATED
        multisets.add(tuple(sorted(
            (e.chan, e.payload) for e in trace if e.kind == "comm"
        )))
    assert len(multisets) == 1


def test_sort_preserved_on_restricted_channels():
    program, ann = load(
        "system = new c : chan(nat) in"
        " (new d : nat in c!(d) . 0 | c?(x) . x!(3) . 0 | d?(v) . 0)\n"
    )
    config, verdict, trace = run(program, seed=1, annotations=ann)
    assert verdict == TERMINATED
    comms = [e for e in trace if e.kind == "comm"]
    assert comms[0].payload.startswith("chan#")
    assert comms[1].payload == "3"


def test_scope_extrusion_marks_channel():
    # c is restricted, so sending it over a extrudes its scope: the
    # receiver's x!(0) then talks to c?(v) on the restricted channel
    src = (
        "chan a : chan(nat)\n"
        "system = new c : nat in"
        " (a!(c) . 0 | c?(v) . 0) | a?(x) . x!(0) . 0\n"
    )
    program, ann = load(src)
    _, verdict, trace = run(program, seed=0, annotations=ann)
    assert verdict == TERMINATED
    comms = [(e.chan, e.payload, e.pids) for e in trace if e.kind == "comm"]
    # a is channel 0 and c channel 1; x!(0) is pid 3, c?(v) pid 1
    assert comms == [("a", "chan#1", (0, 2)), ("c", "0", (3, 1))]


LONG_RUN = (
    "chan req : nat\n"
    "chan done : nat\n"
    "system = !req?(x) . (new r : nat in (r!(x) . 0 | r?(y) . done!(y) . 0))"
    " | !req!(1) . 0 | !done?(a) . 0\n"
)


def test_clone_of_a_long_run_shares_all_but_soup_and_store():
    # every step restricts a fresh channel, and none is kept per configuration
    program, ann = load(LONG_RUN)
    config, verdict, _ = run(program, max_steps=4000, annotations=ann)
    assert verdict == STEP_LIMIT
    copy = config.clone()
    for name in vars(config):
        if name not in ("soup", "store", "budget_cut"):
            assert getattr(copy, name) is getattr(config, name), name


def test_render_trace_records_is_json_lines():
    import json

    program, ann = load(
        "chan c : nat\n"
        "system = c!(2) . 0 | c?(x) . 0\n"
    )
    _, _, trace = run(program, annotations=ann)
    lines = render_trace(trace, "records").strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[0]["kind"] == "comm"
    assert records[0]["chan"] == "c"
    assert records[-1]["kind"] == TERMINATED
