"""Deterministic, seeded reduction engine for the coordination core.

A configuration holds a soup of sequential process members, a channel scope
table and the object store. One reduction step is either a synchronous
communication (Comm) or a lazy replication unfolding (ReplSpawn). The
scheduler picks uniformly among the canonically ordered enabled redexes with
a seeded generator, so identical (program, seed, maxSteps) triples produce
byte-identical traces.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace

from .diagnostics import MlgError
from . import syntax as S
from . import typecheck as T
from .evaluate import (
    ChanRef, Closure, EMPTY_ENV, EvalFault, Fuel, NatVal, ObjRef, Value,
    ValueEnv, eval_comp, value_inhabits,
)
from .store import ObjectStore, render_value

DEFAULT_FUEL = 10**7


# ---------------------------------------------------------------------------
# Configuration pieces


@dataclass(frozen=True)
class ChannelInfo:
    id: int
    name: str
    sort: T.ChannelSort
    restricted: bool
    depth: int = 0
    extruded: bool = False


@dataclass(frozen=True)
class SoupMember:
    pid: int
    term: S.ProcTerm  # normalized: Prefix, Sum or Repl
    env: ValueEnv
    repl_budget: int | None = None  # only meaningful for Repl members


@dataclass
class TraceEvent:
    kind: str  # comm, spawn, update, eval, deadlock, terminated, step-limit
    step: int
    pids: tuple[int, ...] = ()
    chan: str = ""
    payload: str = ""
    store_delta: tuple[str, ...] = ()
    detail: str = ""

    def render(self) -> str:
        parts = [f"#{self.step}", self.kind]
        if self.kind == "comm":
            parts.append(f"{self.chan}({self.payload})")
            parts.append(f"pid{self.pids[0]}->pid{self.pids[1]}")
        elif self.kind == "spawn":
            parts.append(f"pid{self.pids[0]}=>pid{self.pids[1]}")
        elif self.kind == "update":
            parts.append(self.store_delta[0])
        elif self.kind == "eval":
            parts.append(self.detail)
        if self.kind == "comm" and self.detail:
            parts.append(self.detail)
        if self.kind == "comm" and self.store_delta:
            parts.append(";")
            parts.extend(self.store_delta)
        return " ".join(parts)

    def to_record(self) -> dict:
        return {
            "step": self.step,
            "kind": self.kind,
            "pids": list(self.pids),
            "chan": self.chan,
            "payload": self.payload,
            "storeDelta": list(self.store_delta),
            "detail": self.detail,
        }


@dataclass
class Configuration:
    soup: list[SoupMember]
    chan_scopes: dict[int, ChannelInfo]
    store: ObjectStore
    step_count: int = 0
    trace: list[TraceEvent] = field(default_factory=list)
    next_pid: int = 0
    next_chan: int = 0
    # plumbing shared by all configurations of one run
    annotations: dict[int, S.ObjType] = field(default_factory=dict)
    proc_defs: dict[str, S.ProcTerm] = field(default_factory=dict)
    default_repl_budget: int | None = None
    budget_cut: bool = False  # a spawn was suppressed by the repl budget
    token: int = 0  # bumped every step; guards against stale redexes
    # the explorer's canonical-key cache, shared like proc_defs: term ids
    # to their member keys, plus interned key tuples
    canon_cache: dict = field(default_factory=dict)

    def clone(self) -> "Configuration":
        return Configuration(
            soup=list(self.soup),
            chan_scopes=dict(self.chan_scopes),
            store=self.store.clone(),
            step_count=self.step_count,
            trace=list(self.trace),
            next_pid=self.next_pid,
            next_chan=self.next_chan,
            annotations=self.annotations,
            proc_defs=self.proc_defs,
            default_repl_budget=self.default_repl_budget,
            budget_cut=False,
            token=self.token,
            canon_cache=self.canon_cache,
        )

    def member(self, pid: int) -> SoupMember | None:
        for m in self.soup:
            if m.pid == pid:
                return m
        return None


# ---------------------------------------------------------------------------
# Redexes


@dataclass(frozen=True)
class Comm:
    sender_pid: int
    sender_path: tuple[str, ...]
    receiver_pid: int
    receiver_path: tuple[str, ...]
    chan_id: int
    token: int

    def sort_key(self):
        return (0, self.sender_pid, self.receiver_pid, self.sender_path,
                self.receiver_path, self.chan_id)


@dataclass(frozen=True)
class ReplSpawn:
    pid: int
    token: int

    def sort_key(self):
        return (1, self.pid, 0, (), (), 0)


Redex = Comm | ReplSpawn


# ---------------------------------------------------------------------------
# Building the initial configuration


def eval_payload(
    config: Configuration,
    env: ValueEnv,
    payload: S.Payload,
    mutate: bool,
    events: list[TraceEvent] | None = None,
) -> tuple[Value, int]:
    """Evaluate a payload to a Value; returns (value, computation steps).

    With mutate=False (guard evaluation) object creation/update is refused.
    """
    if isinstance(payload, S.NamePayload):
        return env.lookup(payload.name.text), 0
    if isinstance(payload, S.CompPayload):
        result = eval_comp(env, config.store, payload.expr,
                           Fuel(DEFAULT_FUEL))
        return result.value, result.steps
    # ObjPayload
    if not mutate:
        raise EvalFault("object creation/update is not allowed in a guard")
    return _eval_data(config, env, payload.data, events)


def _eval_data(
    config: Configuration,
    env: ValueEnv,
    d: S.DataExpr,
    events: list[TraceEvent] | None,
) -> tuple[Value, int]:
    fuel = Fuel(DEFAULT_FUEL)
    if isinstance(d, S.MakeObject):
        initial: dict[str, Value] = {}
        for lab, init in d.fields:
            initial[lab.text] = eval_comp(env, config.store, init, fuel).value
        signature = config.annotations.get(id(d))
        ref = config.store.alloc(signature, initial)
        if events is not None:
            obj = config.store.objects[ref.id]
            events.append(TraceEvent(
                "update", config.step_count, store_delta=(obj.render(),)
            ))
        return ref, fuel.used
    # UpdateObject: all right-hand sides are fully evaluated before any
    # write commits, then store.update applies them as one transaction
    target = eval_comp(env, config.store, d.target, fuel).value
    if not isinstance(target, ObjRef):
        raise EvalFault("update target is not an object")
    writes = [
        (lab.text, eval_comp(env, config.store, val, fuel).value)
        for lab, val in d.updates
    ]
    config.store.update(target, writes)
    if events is not None:
        obj = config.store.objects[target.id]
        events.append(TraceEvent(
            "update", config.step_count, store_delta=(obj.render(),)
        ))
    return target, fuel.used


def insert_term(
    config: Configuration,
    term: S.ProcTerm,
    env: ValueEnv,
    depth: int = 0,
) -> None:
    """Normalize a term into soup members (splitting pars, allocating
    restrictions, dropping nils, inlining process references)."""
    if isinstance(term, S.Nil):
        return
    if isinstance(term, S.Par):
        insert_term(config, term.left, env, depth)
        insert_term(config, term.right, env, depth)
        return
    if isinstance(term, S.Restrict):
        cid = config.next_chan
        config.next_chan += 1
        config.chan_scopes[cid] = ChannelInfo(
            cid, term.chan.text, term.chan_sort, restricted=True, depth=depth
        )
        insert_term(
            config, term.body, env.extend(term.chan.text, ChanRef(cid)),
            depth + 1,
        )
        return
    if isinstance(term, S.ProcRef):
        body = config.proc_defs.get(term.name.text)
        if body is None:
            raise MlgError(f"unbound process name '{term.name}'")
        insert_term(config, body, env, depth)
        return
    budget = config.default_repl_budget if isinstance(term, S.Repl) else None
    config.soup.append(SoupMember(config.next_pid, term, env, budget))
    config.next_pid += 1


def initial_configuration(
    program: S.Program,
    annotations: dict[int, S.ObjType] | None = None,
    repl_budget: int | None = None,
) -> Configuration:
    """Evaluate definitions, allocate global channels, normalize the entry."""
    config = Configuration(
        soup=[], chan_scopes={}, store=ObjectStore(),
        annotations=annotations or {}, default_repl_budget=repl_budget,
    )
    env = EMPTY_ENV
    for item in program.defs:
        if isinstance(item, S.DefDef):
            value = eval_comp(env, config.store, item.body,
                              Fuel(DEFAULT_FUEL)).value
            env = env.extend(item.name.text, value)
        elif isinstance(item, S.ChanDecl):
            cid = config.next_chan
            config.next_chan += 1
            config.chan_scopes[cid] = ChannelInfo(
                cid, item.name.text, item.sort, restricted=False
            )
            env = env.extend(item.name.text, ChanRef(cid))
        else:
            config.proc_defs[item.name.text] = item.body
    if program.entry is not None:
        insert_term(config, program.entry, env)
    return config


# ---------------------------------------------------------------------------
# Enabled redexes


@dataclass(frozen=True)
class Offer:
    path: tuple[str, ...]
    action: S.ProcAction  # Send or Receive (guards already passed)
    chan_id: int
    continuation: S.ProcTerm


def _action_offer(
    config: Configuration, env: ValueEnv, action: S.ProcAction,
    path: tuple[str, ...], continuation: S.ProcTerm,
) -> Offer | None:
    while isinstance(action, S.Match):
        left, _ = eval_payload(config, env, action.left, mutate=False)
        right, _ = eval_payload(config, env, action.right, mutate=False)
        if not _values_comparable(left, right):
            raise EvalFault("match on incomparable values")
        if left != right:
            return None
        action = action.inner
    chan_val = env.maybe(action.chan.text)
    if not isinstance(chan_val, ChanRef):
        raise EvalFault(f"'{action.chan}' is not a channel in this scope")
    return Offer(path, action, chan_val.id, continuation)


def _values_comparable(a: Value, b: Value) -> bool:
    if isinstance(a, Closure) or isinstance(b, Closure):
        return False
    return type(a) is type(b)


def _term_offers(
    config: Configuration, term: S.ProcTerm, env: ValueEnv,
    path: tuple[str, ...] = (),
) -> list[Offer]:
    if isinstance(term, S.Prefix):
        offer = _action_offer(config, env, term.action, path,
                              term.continuation)
        return [offer] if offer is not None else []
    if isinstance(term, S.Sum):
        return (
            _term_offers(config, term.left, env, path + ("L",))
            + _term_offers(config, term.right, env, path + ("R",))
        )
    return []


def member_offers(config: Configuration, member: SoupMember) -> list[Offer]:
    return _term_offers(config, member.term, member.env)


def _spawn_members(
    config: Configuration, member: SoupMember, pid_base: int | None = None
) -> list[SoupMember]:
    """Members a ReplSpawn of `member` would add (speculative: restricted
    channels get placeholder ids that cannot match any existing channel)."""
    spec = Configuration(
        soup=[], chan_scopes=dict(config.chan_scopes),
        store=config.store, annotations=config.annotations,
        proc_defs=config.proc_defs,
        default_repl_budget=config.default_repl_budget,
    )
    spec.next_chan = -1_000_000  # placeholder ids, never equal to real ones
    spec.next_pid = config.next_pid if pid_base is None else pid_base
    insert_term(spec, member.term.body, member.env)
    return spec.soup


def _spawn_enables_comm(
    config: Configuration,
    member: SoupMember,
    enabled_chans: frozenset[int] = frozenset(),
) -> bool:
    """True when unfolding `member` once would enable a communication on a
    channel where none is currently enabled. Offers of other replications'
    one-step unfoldings count as potential partners, so two replications
    that can only talk to each other still make progress."""
    try:
        new_members = _spawn_members(config, member)
        new_offers: list[tuple[int, Offer]] = []
        for m in new_members:
            for off in _term_offers(config, m.term, m.env):
                new_offers.append((m.pid, off))
        existing: list[tuple[int, Offer]] = []
        for m in config.soup:
            if m.pid == member.pid:
                continue
            if isinstance(m.term, S.Repl):
                # exhausted replications still count as potential partners:
                # under the unbounded semantics they could unfold, and the
                # budget-cut flag depends on seeing that possibility
                # distinct negative pids keep speculative members from the
                # two unfoldings from ever looking like the same process
                base = -1_000_000 * (m.pid + 1)
                for spec in _spawn_members(config, m, pid_base=base):
                    for off in _term_offers(config, spec.term, spec.env):
                        existing.append((spec.pid, off))
                continue
            for off in member_offers(config, m):
                existing.append((m.pid, off))
        for pid_a, off_a in new_offers:
            if off_a.chan_id in enabled_chans:
                continue
            for pid_b, off_b in existing + new_offers:
                if pid_a == pid_b or off_a.chan_id != off_b.chan_id:
                    continue
                if isinstance(off_a.action, S.Send) and isinstance(
                    off_b.action, S.Receive
                ):
                    return True
                if isinstance(off_a.action, S.Receive) and isinstance(
                    off_b.action, S.Send
                ):
                    return True
        return False
    except EvalFault:
        return False


def enabled_redexes(config: Configuration) -> list[Redex]:
    """All enabled redexes in canonical order (deterministic)."""
    offers: dict[int, list[Offer]] = {}
    for member in config.soup:
        if isinstance(member.term, S.Repl):
            continue
        offers[member.pid] = member_offers(config, member)
    redexes: list[Redex] = []
    pids = sorted(offers)
    for spid in pids:
        for soff in offers[spid]:
            if not isinstance(soff.action, S.Send):
                continue
            for rpid in pids:
                if rpid == spid:
                    continue
                for roff in offers[rpid]:
                    if (
                        isinstance(roff.action, S.Receive)
                        and roff.chan_id == soff.chan_id
                    ):
                        redexes.append(Comm(
                            spid, soff.path, rpid, roff.path,
                            soff.chan_id, config.token,
                        ))
    enabled_chans = frozenset(
        r.chan_id for r in redexes if isinstance(r, Comm)
    )
    for member in config.soup:
        if not isinstance(member.term, S.Repl):
            continue
        if member.repl_budget is not None and member.repl_budget <= 0:
            # would-be spawn suppressed; record for the explorer's frontier
            if _spawn_enables_comm(config, member, enabled_chans):
                config.budget_cut = True
            continue
        if _spawn_enables_comm(config, member, enabled_chans):
            redexes.append(ReplSpawn(member.pid, config.token))
    redexes.sort(key=lambda r: r.sort_key())
    return redexes


# ---------------------------------------------------------------------------
# Stepping


def _select_branch(term: S.ProcTerm, path: tuple[str, ...]) -> S.Prefix:
    for step in path:
        assert isinstance(term, S.Sum)
        term = term.left if step == "L" else term.right
    assert isinstance(term, S.Prefix)
    return term


def _strip_guards(action: S.ProcAction) -> S.ProcAction:
    while isinstance(action, S.Match):
        action = action.inner
    return action


def step(config: Configuration, redex: Redex) -> Configuration:
    """Apply one redex, returning the successor configuration."""
    if redex.token != config.token:
        raise MlgError("stale redex applied to a later configuration")
    new = config.clone()
    new.token += 1
    if isinstance(redex, ReplSpawn):
        member = new.member(redex.pid)
        if member is None or not isinstance(member.term, S.Repl):
            raise MlgError("stale redex: replication no longer present")
        if member.repl_budget is not None:
            idx = new.soup.index(member)
            new.soup[idx] = replace(member,
                                    repl_budget=member.repl_budget - 1)
        first_new_pid = new.next_pid
        insert_term(new, member.term.body, member.env)
        new.trace.append(TraceEvent(
            "spawn", new.step_count, pids=(redex.pid, first_new_pid)
        ))
        new.step_count += 1
        return new

    sender = new.member(redex.sender_pid)
    receiver = new.member(redex.receiver_pid)
    if sender is None or receiver is None:
        raise MlgError("stale redex: participant no longer present")
    send_prefix = _select_branch(sender.term, redex.sender_path)
    recv_prefix = _select_branch(receiver.term, redex.receiver_path)
    send_action = _strip_guards(send_prefix.action)
    recv_action = _strip_guards(recv_prefix.action)
    if not isinstance(send_action, S.Send) or not isinstance(
        recv_action, S.Receive
    ):
        raise MlgError("stale redex: action shape changed")

    update_events: list[TraceEvent] = []
    value, eval_steps = eval_payload(
        new, sender.env, send_action.payload, mutate=True,
        events=update_events,
    )
    info = new.chan_scopes.get(redex.chan_id)
    if info is None:
        raise MlgError(f"unknown channel id {redex.chan_id}")
    _assert_sort(new, value, info)
    if isinstance(value, ChanRef):
        target = new.chan_scopes.get(value.id)
        if target is not None and target.restricted and not target.extruded:
            # scope extrusion: the restricted name escapes through a comm
            new.chan_scopes[value.id] = replace(target, extruded=True)

    new.soup = [m for m in new.soup
                if m.pid not in (sender.pid, receiver.pid)]
    insert_term(new, send_prefix.continuation, sender.env)
    insert_term(new, recv_prefix.continuation,
                receiver.env.extend(recv_action.binder.text, value))

    new.trace.extend(update_events)
    detail = f"eval={eval_steps}" if eval_steps else ""
    new.trace.append(TraceEvent(
        "comm", new.step_count,
        pids=(sender.pid, receiver.pid),
        chan=info.name, payload=render_value(value),
        store_delta=tuple(e.store_delta[0] for e in update_events),
        detail=detail,
    ))
    new.step_count += 1
    return new


def _assert_sort(config: Configuration, value: Value,
                 info: ChannelInfo) -> None:
    """Redundant dynamic check that the payload inhabits the channel sort."""
    sort = info.sort
    ok = True
    if isinstance(sort, T.CarriesChan):
        ok = isinstance(value, ChanRef)
    elif isinstance(sort, T.CarriesNat):
        ok = isinstance(value, NatVal)
    elif isinstance(sort, T.CarriesFn):
        ok = value_inhabits(value, sort.fn_type)
    elif isinstance(sort, T.CarriesObj):
        ok = value_inhabits(value, sort.signature, config.store)
    if not ok:
        raise EvalFault(
            f"payload {render_value(value)} does not inhabit sort "
            f"{sort} of channel '{info.name}'"
        )


# ---------------------------------------------------------------------------
# Running whole systems

TERMINATED = "terminated"
DEADLOCK = "deadlock"
STEP_LIMIT = "step-limit"


def run(
    program: S.Program,
    seed: int = 0,
    max_steps: int = 10**5,
    annotations: dict[int, S.ObjType] | None = None,
) -> tuple[Configuration, str, list[TraceEvent]]:
    """Run to termination/deadlock/step-limit under the seeded scheduler."""
    rng = random.Random(seed)
    config = initial_configuration(program, annotations)
    while True:
        if config.step_count >= max_steps:
            verdict = STEP_LIMIT
            break
        redexes = enabled_redexes(config)
        if not redexes:
            verdict = TERMINATED if not config.soup else DEADLOCK
            break
        config = step(config, redexes[rng.randrange(len(redexes))])
    config.trace.append(TraceEvent(verdict, config.step_count))
    return config, verdict, config.trace


def render_trace(trace: list[TraceEvent], fmt: str = "text") -> str:
    if fmt == "records":
        return "\n".join(
            json.dumps(e.to_record(), sort_keys=True) for e in trace
        ) + "\n"
    return "\n".join(e.render() for e in trace) + "\n"
