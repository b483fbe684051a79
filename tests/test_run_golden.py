"""Golden run traces.

`run_golden.json` holds, for every case named below, the verdict of `run`,
the sha256 of its rendered text trace and the pids left in the final soup
(or the message of the fault that stopped the run). A change to how the
scheduler finds or picks redexes that is not meant to change what runs must
leave every entry as it is. A change that alters traces on purpose says so
and re-records the file:

    PYTHONPATH=src python3 tests/test_run_golden.py

The cases cover every demo, programs shaped like the benchmark's run-wide
and run-service workloads, generated process terms that take at least one
step, and hand-written programs for what the generators miss: sums that
offer both polarities on one channel, guards that read a field a previous
step updated, guard faults, replications that talk to themselves, nested
and guarded replications, and step-limit cuts.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from conftest import DEMOS, demo_text
from termgen import gen_proc, proc_program

from mlg.engine import render_trace, run
from mlg.evaluate import EvalFault
from mlg.prelude import load_program
from mlg.typecheck import check_program

FIXTURE = Path(__file__).with_name("run_golden.json")

# name -> (program text, max steps)
HANDWRITTEN = {
    "sum-both-polarities": ("""
chan c : nat
system = (c!(0) . 0 + c?(x) . 0) | c!(1) . 0 | c?(y) . 0
       | (c!(2) . 0 + c?(u) . c!(3) . 0) | c?(w) . 0
""", 10**5),
    # the two guards read r.v, which the comm on o updates while they wait
    "guard-reads-updated-field": ("""
chan o : [v : nat]
chan go : nat
chan d : nat
system = o!([v = 0]) . 0
       | o?(r) . (go?(k) . o!(r.[v <= 1]) . 0 | [r.v = 1] d!(5) . 0
                 | [r.v = 0] d!(7) . 0 | go!(0) . 0 | o?(s) . 0
                 | d?(y) . d?(w) . 0)
""", 10**5),
    "guarded-replication": ("""
chan o : [v : nat]
chan go : nat
chan d : nat
system = o!([v = 0]) . 0
       | o?(r) . (!([r.v = 1] d!(1) . 0) | go!(0) . o!(r.[v <= 1]) . 0
                 | go?(k) . 0 | o?(s) . 0 | d?(a) . d?(b) . 0)
""", 10**5),
    # a guard comparing a natural with a channel faults at run time; the
    # checker rejects such programs, so these two run unchecked
    "guard-fault": ("""
chan c : nat
system = c!(1) . 0 | c?(x) . [x = c] c!(x) . 0 | c?(y) . 0
""", 10**5),
    "replicated-guard-fault": ("""
chan c : nat
system = !([1 = c] c!(0) . 0) | c?(y) . 0
""", 10**5),
    "repl-self-talk": ("""
chan c : nat
system = !(c!(0) . 0 | c?(x) . 0)
""", 40),
    "repl-self-talk-with-partner": ("""
chan c : nat
system = !(c!(0) . 0 | c?(x) . 0) | c?(y) . 0 | c!(7) . 0
""", 40),
    "repl-private-self-talk": ("""
chan c : nat
system = !(new r : nat in (r!(0) . 0 | r?(x) . c!(x) . 0))
       | c?(a) . c?(b) . 0
""", 30),
    "replicated-server": ("""
chan req : nat
chan resp : nat
system = !(req?(x) . resp!(x) . 0)
       | req!(1) . resp?(a) . req!(2) . resp?(b) . 0 | req!(3) . resp?(c) . 0
""", 10**5),
    "replicated-private-server": ("""
chan req : nat
chan done : nat
system = !req?(x) . (new r : nat in (r!(x) . 0 | r?(y) . done!(y) . 0))
       | req!(1) . req!(1) . 0 | done?(a) . done?(b) . 0
""", 10**5),
    "replication-under-restriction": ("""
system = new k : nat in (!k?(x) . 0 | k!(1) . k!(2) . 0)
""", 10**5),
    "nested-replication": ("""
chan c : nat
chan d : nat
system = !(c?(x) . d!(x) . 0 | !c!(1) . 0) | c!(5) . 0 | d?(a) . 0
""", 30),
    "two-replications-step-limit": ("""
chan c : nat
system = !c?(x) . 0 | !c!(1) . 0
""", 25),
    "filesystem-step-limit": (demo_text("filesystem.mlg"), 3),
}

UNCHECKED = {"guard-fault", "replicated-guard-fault"}
HAND_SEEDS = range(5)
DEMO_SEEDS = range(10)
WIDE_SIZES = [(8, 1), (24, 2), (48, 3), (96, 4), (96, 1)]
SERVICE_SIZES = [[(8, 0), (9, 1)], [(3, 2), (10, 0), (13, 1)],
                 [(5, 1), (6, 0), (7, 2), (12, 1)]]
SEEDS = range(5)
TERMGEN_SEEDS = range(12000)


def wide_text(seed: int, k: int, n_chans: int) -> str:
    """k independent c!(v) . 0 | c?(x) . 0 pairs over n_chans channels,
    shuffled, as in the run-wide workload."""
    rng = random.Random(seed)
    chans = [f"c{j % n_chans}" for j in range(k)]
    rng.shuffle(chans)
    members = [f"{c}!({rng.randrange(100)}) . 0" for c in chans]
    members += [f"{c}?(x{i}) . 0" for i, c in enumerate(chans)]
    rng.shuffle(members)
    return "\n".join(
        [f"chan c{j} : nat" for j in range(n_chans)]
        + ["system = " + " | ".join(members)]
    ) + "\n"


def service_text(seed: int, requests: list) -> str:
    """A replicated file-system server and storage under a stream of
    (size, permission bit) writes, as in the run-service workload."""
    rng = random.Random(seed)
    requests = list(requests)
    rng.shuffle(requests)
    sort = "[size : nat, blocks : nat, perm : nat]"
    lines = [
        "chan write : [size : nat, bit : nat]",
        "chan reserve : nat",
        "chan ack : nat",
        f"chan fchan : {sort}",
        f"chan commit : {sort}",
        "proc Server = !(write?(q) . reserve!(blockCount q.size) . ack?(m) . "
        "fchan?(f) . commit!(f.[size <= q.size, blocks <= blockCount q.size, "
        "perm <= hasPermission q.size q.bit]) . 0)",
        "proc Storage = !(reserve?(m) . ack!(m) . 0)",
    ]
    members = ["Server", "Storage"]
    for n, bit in requests:
        members += [
            f"write!([size = {n}, bit = {bit}]) . 0",
            "fchan!([size = 0, blocks = 0, perm = 0]) . 0",
            "commit?(g) . 0",
        ]
    rng.shuffle(members)
    return "\n".join(lines + ["system = " + " | ".join(members)]) + "\n"


def _checked(text: str):
    program = load_program(text)
    result = check_program(program)
    assert result.ok, [d.render(text, "<input>") for d in result.diagnostics]
    return program, result.obj_annotations


def _case(name: str):
    """(source text, program, annotations, run seed, max steps) for a case
    name. A generated term is built as syntax: its text is empty, and its
    nodes have no offsets into one."""
    kind, _, rest = name.partition("/")
    what, _, seed = rest.rpartition("/seed=")
    seed, max_steps = int(seed), 10**5
    if kind == "demo":
        text = demo_text(what)
    elif kind == "hand":
        text, max_steps = HANDWRITTEN[what]
        if what in UNCHECKED:
            return text, load_program(text), {}, seed, max_steps
    elif kind == "wide":
        text = wide_text(seed, *json.loads(what))
    elif kind == "service":
        text = service_text(seed, json.loads(what))
    else:
        term = gen_proc(random.Random(int(what)), depth=5)
        return "", proc_program(term), {}, seed, max_steps
    return (text, *_checked(text), seed, max_steps)


def _candidate_names() -> list[str]:
    names = [f"demo/{path.name}/seed={s}"
             for path in sorted(DEMOS.glob("*.mlg")) for s in DEMO_SEEDS]
    names += [f"hand/{h}/seed={s}" for h in HANDWRITTEN for s in HAND_SEEDS]
    names += [f"wide/{json.dumps(list(size))}/seed={s}"
              for size in WIDE_SIZES for s in SEEDS]
    names += [f"service/{json.dumps(requests)}/seed={s}"
              for requests in SERVICE_SIZES for s in SEEDS]
    names += [f"termgen/{t}/seed={t % 10}" for t in TERMGEN_SEEDS]
    return names


def summary(name: str) -> dict:
    source, program, annotations, seed, max_steps = _case(name)
    try:
        config, verdict, trace = run(program, seed=seed, max_steps=max_steps,
                                     annotations=annotations)
    except EvalFault as exc:
        return {"fault": "; ".join(d.render(source, "<input>")
                                   for d in exc.diagnostics)}
    text = render_trace(trace, "text")
    return {
        "verdict": verdict,
        "trace_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "soup": [m.pid for m in config.soup],
        "steps": config.step_count,
    }


def record() -> None:
    """Write the fixture: every candidate except the generated terms that
    take no step, which are most of them."""
    entries = {}
    for name in _candidate_names():
        entry = summary(name)
        if entry.get("steps") or not name.startswith("termgen/"):
            entries[name] = entry
    lines = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in entries.items()]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def test_run_traces_match_golden_fixture():
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    kinds = {name.partition("/")[0] for name in golden}
    assert kinds == {"demo", "hand", "wide", "service", "termgen"}
    assert sum(name.startswith("termgen/") for name in golden) >= 200
    mismatches = {
        name: (got, want) for name, want in golden.items()
        if (got := summary(name)) != want
    }
    assert not mismatches, mismatches


if __name__ == "__main__":
    record()
