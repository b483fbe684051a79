"""Seeded input generators and mlg-free oracles for the four workloads.

Every generator takes a `random.Random` and a size dict and returns an
`Instance`: the `.mlg` source text mlg sees, plus the answer the oracle
expects, computed here in plain Python. Nothing in this file imports mlg.

The seed chooses payloads, names, member order, the scheduler seed and
which receivers are short; the sizes that set the amount of work are fixed
per workload, so one instance costs about the same as the next and the
median of a run does not depend on the luck of the draw.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

# Numerals are succ-chains today, and the checker recurses once per succ:
# from about 980 up a numeral overflows Python's default stack depth, and the
# exact point moves with the caller's own depth. Ordinary instances stay
# below this so that the harness frames never decide the outcome; the
# robustness probes go well above 1000.
MAX_NUMERAL = 900
PROBE_EVERY = 8  # check-large: instance i is a probe when i % 8 == 7


@dataclass
class Instance:
    command: str  # "check", "run" or "explore"
    text: str
    expect: dict
    seed: int = 0  # scheduler seed for `run`
    probe: str = ""  # check-large robustness probe kind, "" otherwise


# ---------------------------------------------------------------------------
# check-large: many defs over the prelude, long prefix chains, sums,
# restrictions and object sorts; checked only.


def gen_check_large(rng, size, index: int = 0) -> Instance:
    n_chans, n_objs = size["chans"], size["objs"]
    lines = [f"chan n{j} : nat" for j in range(n_chans)]
    lines += [f"chan o{j} : [size : nat, perm : nat]" for j in range(n_objs)]

    def big():
        return rng.randrange(MAX_NUMERAL)

    def small():
        return rng.randrange(10)

    fns = []
    for i in range(size["defs"]):
        kind = i % 3
        if kind == 0:
            body = (f"fun (x : nat) add (mul x {big()}) "
                    f"(monus {big()} x)")
        elif kind == 1:
            body = (f"fun (x : nat) fun (y : nat) rec x {{ z -> {big()} "
                    f"| succ(p) with r -> add r (blockCount y) }}")
        else:
            body = f"fun (x : nat) le (half x) {big()}"
        lines.append(f"def f{i} = {body}")
        fns.append((f"f{i}", kind))

    def call(fn):
        name, kind = fn
        args = f"{small()} {small()}" if kind == 1 else f"{small()}"
        return f"{name} {args}"

    procs = []
    for i in range(size["chains"]):
        c = f"n{rng.randrange(n_chans)}"
        acts = []
        for k in range(size["chain_len"]):
            if k % 4 == 3:
                acts.append(f"{c}!({call(rng.choice(fns))})")
            elif k % 2:
                acts.append(f"{c}?(y{k})")
            else:
                acts.append(f"{c}!({small()})")
        procs.append(f"proc Chain{i} = " + " . ".join(acts) + " . 0")
    for i in range(size["objs"]):
        o, c = f"o{i}", f"n{rng.randrange(n_chans)}"
        procs.append(f"proc Make{i} = {o}!([size = {small()}, "
                     f"perm = {small()}]) . 0")
        procs.append(f"proc Use{i} = {o}?(g) . {c}!(g.size) . "
                     f"{o}!(g.[size <= add g.size 1, perm <= g.perm]) . 0")
    for i in range(size["sums"]):
        a, b = (f"n{rng.randrange(n_chans)}" for _ in range(2))
        procs.append(f"proc Pick{i} = {a}!({small()}) . 0 "
                     f"+ {b}?(w) . {a}!(w) . 0 + {a}?(w) . 0")
    for i in range(size["restricts"]):
        c = f"n{rng.randrange(n_chans)}"
        procs.append(f"proc Priv{i} = new r : nat in "
                     f"(r!({small()}) . 0 | r?(v) . {c}!(v) . 0)")
    names = [p.split()[1] for p in procs]
    rng.shuffle(names)

    probe = ""
    if index % PROBE_EVERY == PROBE_EVERY - 1:
        if rng.random() < 0.5:
            probe = "numeral"
            lines.append(f"def probe = add {rng.randrange(1000, 2000)} 1")
        else:
            probe = "chain"
            c = f"n{rng.randrange(n_chans)}"
            length = rng.randrange(1501, 2000)
            procs.append("proc Probe = " + " . ".join(
                f"{c}!({small()})" for _ in range(length)) + " . 0")
            names.append("Probe")
    text = "\n".join(lines + procs + ["system = " + " | ".join(names)]) + "\n"
    return Instance("check", text, {"ok": True}, probe=probe)


def oracle_check(inst: Instance, out: dict) -> str:
    """"" when the checker's verdict is the expected one, else why not."""
    if out["ok"] != inst.expect["ok"]:
        return f"check ok={out['ok']}, expected {inst.expect['ok']}"
    return ""


# ---------------------------------------------------------------------------
# run-wide: k independent c!(v).0 | c?(x).0 pairs over a few shared channels


def gen_run_wide(rng, size, index: int = 0) -> Instance:
    k, n_chans = size["pairs"], size["chans"]
    chans = [f"c{j % n_chans}" for j in range(k)]  # the same load per channel
    rng.shuffle(chans)
    sends = [(c, rng.randrange(100)) for c in chans]
    members = [f"{c}!({v}) . 0" for c, v in sends]
    members += [f"{c}?(x{i}) . 0" for i, c in enumerate(chans)]
    rng.shuffle(members)
    text = "\n".join(
        [f"chan c{j} : nat" for j in range(n_chans)]
        + ["system = " + " | ".join(members)]
    ) + "\n"
    return Instance("run", text,
                    {"verdict": "terminated", "comms": sorted(sends)},
                    seed=rng.getrandbits(32))


_COMM = re.compile(r"#\d+ comm (\w+)\((\d+)\) pid\d+->pid\d+$")


def oracle_run_wide(inst: Instance, out: dict) -> str:
    if out["verdict"] != inst.expect["verdict"]:
        return f"verdict {out['verdict']}"
    comms = []
    for line in out["trace"].splitlines():
        if " comm " in line:
            m = _COMM.match(line)
            if not m:
                return f"unexpected comm line {line!r}"
            comms.append((m.group(1), int(m.group(2))))
    if sorted(comms) != inst.expect["comms"]:
        return (f"{len(comms)} comms do not match the "
                f"{len(inst.expect['comms'])} sends")
    return ""


# ---------------------------------------------------------------------------
# run-service: a replicated file-system server under a stream of writes

SERVICE_SORT = "[size : nat, blocks : nat, perm : nat]"
BLOCK_SIZE = 4  # the prelude's blockSize


def gen_run_service(rng, size, index: int = 0) -> Instance:
    requests = list(size["requests"])  # (bytes, permission bit) pairs
    rng.shuffle(requests)
    lines = [
        "chan write : [size : nat, bit : nat]",
        "chan reserve : nat",
        "chan ack : nat",
        f"chan fchan : {SERVICE_SORT}",
        f"chan commit : {SERVICE_SORT}",
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
    text = "\n".join(lines + ["system = " + " | ".join(members)]) + "\n"
    files = sorted(
        (n, math.ceil(n / BLOCK_SIZE), (n >> bit) & 1) for n, bit in requests
    )
    return Instance("run", text,
                    {"verdict": "deadlock", "files": files, "servers": 2},
                    seed=rng.getrandbits(32))


_COMMIT = re.compile(
    r"#\d+ comm commit\(obj#\d+\) .* ; "
    r"obj#\d+\{blocks=(\d+),perm=(\d+),size=(\d+)\}@v1$"
)


def oracle_run_service(inst: Instance, out: dict) -> str:
    if out["verdict"] != inst.expect["verdict"]:
        return f"verdict {out['verdict']}"
    files = []
    for line in out["trace"].splitlines():
        if " comm commit(" in line:
            m = _COMMIT.match(line)
            if not m:
                return f"unexpected commit line {line!r}"
            blocks, perm, n = map(int, m.groups())
            files.append((n, blocks, perm))
    if sorted(files) != inst.expect["files"]:
        return f"committed files {sorted(files)} != {inst.expect['files']}"
    if out["left"] != ["Repl"] * inst.expect["servers"]:
        return f"left in the soup: {out['left']}"
    return ""


# ---------------------------------------------------------------------------
# explore-grid: g global and r restricted 3-message pairs


def gen_explore_grid(rng, size, index: int = 0) -> Instance:
    g, classes = size["globals"], size["classes"]
    short = [rng.random() < 0.5 for _ in range(g)]
    # small distinct payloads: the explorer renders numerals as succ-chains,
    # so large ones would swamp canonicalize with string building
    values = rng.sample(range(g + len(classes)), g + len(classes))
    members = []
    for i in range(g):
        c, v = f"g{i}", values[i]
        members.append(f"{c}!({v}) . {c}!({v}) . {c}!({v}) . 0")
        extra = f" . {c}?(x4)" if short[i] else ""
        members.append(f"{c}?(x1) . {c}?(x2) . {c}?(x3){extra} . 0")
    for j, count in enumerate(classes):
        v = values[g + j]
        members += [
            f"new b : nat in (b!({v}) . b!({v}) . b!({v}) . 0 "
            f"| b?(x1) . b?(x2) . b?(x3) . 0)"
        ] * count
    rng.shuffle(members)
    text = "\n".join(
        [f"chan g{i} : nat" for i in range(g)]
        + ["system = " + " | ".join(members)]
    ) + "\n"
    return Instance("explore", text, grid_oracle(g, classes, any(short)))


def grid_oracle(g: int, classes, short: bool) -> dict:
    """Counts from a search over progress counters (0..3 messages per pair).

    A state is the tuple of global counters plus, per restricted payload
    class, the sorted counters of its pairs: pairs of one class differ only
    in a restricted name, which structural congruence renames away. Every
    unfinished pair is one enabled communication, so one edge.
    """
    initial = ((0,) * g, tuple((0,) * n for n in classes))
    seen, queue, edges = {initial}, [initial], 0
    while queue:
        glob, cls = queue.pop()
        succs = []
        for i, p in enumerate(glob):
            if p < 3:
                succs.append((glob[:i] + (p + 1,) + glob[i + 1:], cls))
        for j, counters in enumerate(cls):
            for i, p in enumerate(counters):
                if p < 3:
                    moved = tuple(sorted(
                        counters[:i] + (p + 1,) + counters[i + 1:]))
                    succs.append((glob, cls[:j] + (moved,) + cls[j + 1:]))
        edges += len(succs)
        for s in succs:
            if s not in seen:
                seen.add(s)
                queue.append(s)
    closed = 4 ** g * math.prod(math.comb(n + 3, 3) for n in classes)
    assert len(seen) == closed, (len(seen), closed)
    pairs = g + sum(classes)
    return {
        "states": len(seen), "edges": edges,
        "deadlocks": 1 if short else 0, "terminals": 0 if short else 1,
        "witness": 3 * pairs if short else None, "frontier": 0,
    }


def oracle_explore_grid(inst: Instance, out: dict) -> str:
    got = {k: out[k] for k in inst.expect}
    if got != inst.expect:
        return f"graph {got} != expected {inst.expect}"
    return ""


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    generate: object
    oracle: object
    size: dict  # the benchmark's size
    tiny: dict  # the self-test's size
    traced: int  # instances in one traced run


WORKLOADS = {
    w.name: w for w in [
        Workload(
            "check-large", gen_check_large, oracle_check,
            size={"chans": 8, "objs": 24, "defs": 96, "chains": 48,
                  "chain_len": 60, "sums": 32, "restricts": 32},
            tiny={"chans": 2, "objs": 1, "defs": 3, "chains": 2,
                  "chain_len": 8, "sums": 1, "restricts": 1},
            traced=8,
        ),
        Workload(
            "run-wide", gen_run_wide, oracle_run_wide,
            size={"pairs": 96, "chans": 4},
            tiny={"pairs": 6, "chans": 2},
            traced=10,
        ),
        Workload(
            "run-service", gen_run_service, oracle_run_service,
            size={"requests": [(8, 0), (9, 1), (10, 2), (11, 0), (12, 1),
                               (13, 2), (14, 0), (15, 1), (16, 2), (17, 0)]},
            tiny={"requests": [(3, 0), (5, 1)]},
            traced=6,
        ),
        Workload(
            "explore-grid", gen_explore_grid, oracle_explore_grid,
            size={"globals": 2, "classes": (2, 1)},
            tiny={"globals": 1, "classes": (2, 1)},
            traced=6,
        ),
    ]
}

