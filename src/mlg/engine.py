"""Deterministic, seeded reduction engine for the coordination core.

A configuration holds a soup of sequential process members, in pid order,
and the object store; a channel is a ChanRef value that carries its own
name and sort. A reduction step is a synchronous communication (Comm) or a
lazy replication unfolding (ReplSpawn). The scheduler picks uniformly among
the canonically ordered enabled redexes with a seeded generator, so equal
(program, seed, maxSteps) triples give byte-identical traces. It indexes
each member's offers by channel and counts the redexes per channel; a run
carries the index from step to step and builds only the redex the seed
picks, from one sender's sorted offer pairs. A step applies the members
and offers its redex carries, finding each member by pid. So a step costs
the members it removes and inserts, those whose offers wait on a guard and
one sender's pairs, plus O(senders) and O(replications) for the walk to
the picked sender and the spawn decision."""

from __future__ import annotations

import itertools
import json
import random
from bisect import bisect_left
from collections import Counter
from operator import attrgetter

from .diagnostics import MlgError, Span
from . import syntax as S
from .evaluate import (
    ChanRef, Closure, EMPTY_ENV, EvalFault, Fuel, ObjRef, Value, ValueEnv,
    eval_comp, value_inhabits,
)
from .store import ObjectStore, render_value

DEFAULT_FUEL = 10**7
_set = object.__setattr__
_pid = attrgetter("pid")


# ---------------------------------------------------------------------------
# Configuration pieces


class SoupMember(S.Node):
    def __init__(self, pid: int, term: S.ProcTerm, env: ValueEnv,
                 repl_budget: int | None = None):
        _set(self, "pid", pid)
        _set(self, "term", term)  # normalized: Prefix, Sum or Repl
        _set(self, "env", env)
        _set(self, "repl_budget", repl_budget)  # only for Repl members


class TraceEvent:
    def __init__(self, kind: str, step: int, pids: tuple[int, ...] = (),
                 chan: str = "", payload: str = "",
                 store_delta: tuple[str, ...] = (), detail: str = ""):
        self.kind = kind  # comm spawn update deadlock terminated step-limit
        self.step = step
        self.pids = pids
        self.chan = chan
        self.payload = payload
        self.store_delta = store_delta
        self.detail = detail

    def render(self) -> str:
        parts = [f"#{self.step}", self.kind]
        if self.kind == "comm":
            parts.append(f"{self.chan}({self.payload})")
            parts.append(f"pid{self.pids[0]}->pid{self.pids[1]}")
            if self.detail:
                parts.append(self.detail)
            if self.store_delta:
                parts.append(";")
                parts.extend(self.store_delta)
        elif self.kind == "spawn":
            parts.append(f"pid{self.pids[0]}=>pid{self.pids[1]}")
        elif self.kind == "update":
            parts.append(self.store_delta[0])
        return " ".join(parts)

    def to_record(self) -> dict:
        return {"kind": self.kind, "step": self.step, "pids": self.pids,
                "chan": self.chan, "payload": self.payload,
                "storeDelta": self.store_delta, "detail": self.detail}


class Configuration:
    def __init__(self, soup: list[SoupMember], store: ObjectStore,
                 annotations: dict[int, S.ObjType],
                 default_repl_budget: int | None):
        self.soup = soup  # in pid order
        self.store = store
        self.step_count = 0  # redexes carry it too: a stale one is refused
        # append-only and shared by clones, so step appends to its input's
        # trace too; a caller that steps one configuration twice sets None
        self.trace: list[TraceEvent] | None = []
        self.next_pid = 0
        self.next_chan = 0
        # plumbing shared by all configurations of one run
        self.annotations = annotations
        self.proc_defs: dict[str, tuple] = {}  # (body, env)
        self.default_repl_budget = default_repl_budget
        self.budget_cut = False  # a spawn was suppressed by the repl budget

    def clone(self) -> "Configuration":
        """A copy that shares every field but its own soup list and store,
        with budget_cut cleared."""
        new = Configuration.__new__(Configuration)
        new.__dict__.update(self.__dict__)
        new.soup = list(self.soup)
        new.store = self.store.clone()
        new.budget_cut = False
        return new


# ---------------------------------------------------------------------------
# Redexes


class Offer(S.Node):
    def __init__(self, path: tuple[int, ...], action: S.ProcAction,
                 chan: ChanRef, continuation: S.ProcTerm):
        _set(self, "path", path)  # () for a prefix, (i,) for operand i
        _set(self, "action", action)  # Send or Receive, guards passed
        _set(self, "chan", chan)
        _set(self, "continuation", continuation)


class Comm(S.Node):
    def __init__(self, sender: SoupMember, send: Offer,
                 receiver: SoupMember, receive: Offer, step_count: int):
        _set(self, "sender", sender)
        _set(self, "send", send)
        _set(self, "receiver", receiver)
        _set(self, "receive", receive)
        _set(self, "step_count", step_count)


class ReplSpawn(S.Node):
    def __init__(self, member: SoupMember, step_count: int):
        _set(self, "member", member)
        _set(self, "step_count", step_count)


Redex = Comm | ReplSpawn


# ---------------------------------------------------------------------------
# Building the initial configuration


def eval_payload(config: Configuration, env: ValueEnv, payload: S.Payload,
                 mutate: bool) -> tuple[Value, int]:
    """Evaluate a payload to a Value; returns (value, computation steps).

    With mutate=False (guard evaluation) object creation/update is refused.
    A fault, fuel exhaustion included, is located at the payload's span.
    """
    try:
        if isinstance(payload, S.Var) and payload.name.text in env:
            return env[payload.name.text], 0
        if not isinstance(payload, S.DataExpr):
            result = eval_comp(env, config.store, payload, Fuel(DEFAULT_FUEL))
            return result.value, result.steps
        if not mutate:
            raise EvalFault(
                "object creation/update is not allowed in a guard")
        return _eval_data(config, env, payload)
    except EvalFault as fault:
        raise fault.at(payload.span) from None


def _eval_data(config: Configuration, env: ValueEnv,
               d: S.DataExpr) -> tuple[Value, int]:
    fuel = Fuel(DEFAULT_FUEL)
    if isinstance(d, S.MakeObject):
        initial: dict[str, Value] = {}
        for lab, init in d.fields:
            initial[lab.text] = eval_comp(env, config.store, init, fuel).value
        signature = config.annotations.get(id(d))
        return config.store.alloc(signature, initial), fuel.used
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
    return target, fuel.used


def _normalize(
    config: Configuration,
    term: S.ProcTerm,
    env: ValueEnv,
    fresh: itertools.count,
    out: list | None = None,
) -> list[tuple[S.ProcTerm, ValueEnv]]:
    """The (term, env) of each soup member `term` normalizes into: pars
    split, nils dropped, references inlined in their definition's scope,
    and each restricted name bound to a ChanRef numbered from `fresh`."""
    out = [] if out is None else out
    if isinstance(term, S.Par):
        for operand in term.operands:
            _normalize(config, operand, env, fresh, out)
    elif isinstance(term, S.Restrict):
        env = {**env, term.chan.text: ChanRef(
            next(fresh), term.chan_sort, term.chan.text, restricted=True)}
        _normalize(config, term.body, env, fresh, out)
    elif isinstance(term, S.ProcRef):
        body, env = config.proc_defs[term.name.text]
        _normalize(config, body, env, fresh, out)
    elif not isinstance(term, S.Nil):
        out.append((term, env))
    return out


def insert_term(config: Configuration, term: S.ProcTerm,
                env: ValueEnv) -> None:
    """Normalize a term into soup members, allocating its restrictions."""
    fresh = itertools.count(config.next_chan)
    for member, member_env in _normalize(config, term, env, fresh):
        budget = (config.default_repl_budget
                  if isinstance(member, S.Repl) else None)
        config.soup.append(SoupMember(config.next_pid, member, member_env,
                                      budget))
        config.next_pid += 1
    config.next_chan = next(fresh)


def initial_configuration(
    program: S.Program,
    annotations: dict[int, S.ObjType] | None = None,
    repl_budget: int | None = None,
) -> Configuration:
    """Evaluate definitions, allocate global channels, normalize the entry.
    Definitions are evaluated once per program, kept on it as `_defined`, so
    its runs and explorations share their closures and the keys kept for
    them."""
    config = Configuration([], ObjectStore(), annotations or {}, repl_budget)
    if "_defined" not in program.__dict__:
        env = EMPTY_ENV
        for item in program.defs:
            if isinstance(item, S.DefDef):
                try:  # on an empty store: a definition reads no object
                    value = eval_comp(env, config.store, item.body,
                                      Fuel(DEFAULT_FUEL)).value
                except EvalFault as fault:
                    raise fault.at(item.span) from None
                env = {**env, item.name.text: value}
            elif isinstance(item, S.ChanDecl):
                env = {**env, item.name.text: ChanRef(
                    config.next_chan, item.sort, item.name.text,
                    restricted=False)}
                config.next_chan += 1
            else:
                config.proc_defs[item.name.text] = (item.body, env)
        _set(program, "_defined", (env, config.proc_defs, config.next_chan))
    env, config.proc_defs, config.next_chan = program._defined
    if program.entry is not None:
        insert_term(config, program.entry, env)
    return config


# ---------------------------------------------------------------------------
# Enabled redexes


def _action_offer(
    config: Configuration, env: ValueEnv, action: S.ProcAction,
    path: tuple[int, ...], continuation: S.ProcTerm,
) -> Offer | None:
    while isinstance(action, S.Match):
        left, _ = eval_payload(config, env, action.left, mutate=False)
        right, _ = eval_payload(config, env, action.right, mutate=False)
        if type(left) is not type(right) or isinstance(left, Closure):
            raise EvalFault("match on incomparable values").at(action.span)
        if left != right:
            return None
        action = action.inner
    chan_val = env.get(action.chan.text)
    if not isinstance(chan_val, ChanRef):
        raise EvalFault(f"'{action.chan}' is not a channel in this scope"
                        ).at(action.chan.span)
    return Offer(path, action, chan_val, continuation)


def _term_offers(
    config: Configuration, term: S.ProcTerm, env: ValueEnv,
) -> list[Offer]:
    if isinstance(term, S.Prefix):
        offer = _action_offer(config, env, term.action, (), term.continuation)
        return [offer] if offer is not None else []
    offers = []
    for i, op in enumerate(term.operands if isinstance(term, S.Sum) else ()):
        if isinstance(op, S.Prefix):
            offer = _action_offer(config, env, op.action, (i,),
                                  op.continuation)
            if offer is not None:
                offers.append(offer)
    return offers


def member_offers(config: Configuration, member: SoupMember) -> list[Offer]:
    return _term_offers(config, member.term, member.env)


def _guarded(term: S.ProcTerm) -> bool:
    """True when one of the term's offers waits on a match guard; a guard
    can read object fields, so its outcome can change when the store does."""
    if isinstance(term, S.Sum):
        return any(map(_guarded, term.operands))
    return isinstance(term, S.Prefix) and isinstance(term.action, S.Match)


class Unfolding(S.Node):
    """What one unfolding of a replication, with the replications it
    brings unfolded in turn, would offer if it spawned now.

    `offers` holds (channel id, is a send) for the channels that already
    exist. `talks` holds the channels on which two members of the unfolding
    could talk to each other, with None for a channel the unfolding itself
    restricts: such a channel is private to that one unfolding.
    """

    def __init__(self, offers: frozenset, talks: frozenset):
        _set(self, "offers", offers)
        _set(self, "talks", talks)


def _unfolding(config: Configuration,
               parts: list[tuple[S.ProcTerm, ValueEnv]]) -> Unfolding:
    polarity: dict[int, tuple[set[int], set[int]]] = {}
    for i, (term, env) in enumerate(parts):
        for off in _term_offers(config, term, env):
            sends, receives = polarity.setdefault(off.chan.id, (set(), set()))
            (sends if isinstance(off.action, S.Send) else receives).add(i)
    existing = config.next_chan  # the unfolding's own channels come after
    return Unfolding(
        frozenset((cid, send) for cid, pair in polarity.items()
                  if cid < existing
                  for send, who in zip((True, False), pair) if who),
        frozenset(cid if cid < existing else None
                  for cid, (sends, receives) in polarity.items()
                  if sends and receives and len(sends | receives) > 1),
    )


def _offers(config: Configuration,
            member: SoupMember) -> list[Offer] | Unfolding:
    """A member's offers, or a replication's Unfolding, kept on the member.

    A member's term and env never change, so they are computed on first
    use and live as long as the member, in every configuration that shares
    it. Offers that wait on a match guard are computed again on every
    call, since a guard can read the store.
    """
    value = member.__dict__.get("_offers")
    if value is not None:
        return value
    if isinstance(member.term, S.Repl):
        fresh = itertools.count(config.next_chan)
        parts = _normalize(config, member.term.body, member.env, fresh)
        for term, env in parts:  # the replications it brings unfold too
            if isinstance(term, S.Repl):
                _normalize(config, term.body, env, fresh, parts)
        value = _unfolding(config, parts)
        guarded = any(_guarded(term) for term, _ in parts)
    else:
        value = member_offers(config, member)
        guarded = _guarded(member.term)
    if not guarded:
        object.__setattr__(member, "_offers", value)
    return value


class _Index:
    """The enabled redexes of one configuration, counted per channel, so
    that the i-th in canonical order can be built without the others.
    `insert` and `remove` keep it up to date member by member, so `run`
    carries one index from step to step; `finish` counts from it."""
    __slots__ = ("step_count", "next_pid", "members", "receivers", "sends",
                 "guarded", "repls", "spawns", "count")

    def __init__(self, config: Configuration):
        # pid -> (member, send offers, Counter of its own receive offers'
        # channel ids or None, receive offers), in pid order
        self.members: dict[int, tuple] = {}
        # channel id -> {(pid, path): (member, receive offer)}
        self.receivers: dict[int, dict] = {}
        # channel id -> [send offers, (send, receive) offer pairs within
        # one member]; the latter never talk: a sum cannot talk to itself
        self.sends: dict[int, list[int]] = {}
        self.guarded: dict[int, SoupMember] = {}  # pid -> member
        self.repls: dict[int, SoupMember] = {}  # pid -> member
        for member in config.soup:
            self.insert(config, member)
        self.finish(config)

    def _drop(self, entry: tuple) -> None:
        member, sends, own, receives = entry
        for off in receives:
            table = self.receivers[off.chan.id]
            del table[member.pid, off.path]
            if not table:
                del self.receivers[off.chan.id]
        for off in sends:
            counts = self.sends[off.chan.id]
            counts[0] -= 1
            if not counts[0]:  # then no pair within a member is left either
                del self.sends[off.chan.id]
            elif own:
                counts[1] -= own[off.chan.id]

    def insert(self, config: Configuration, member: SoupMember) -> None:
        """Add a member. One whose pid is in already keeps its slot; the
        caller drops the offers of the entry it replaces first."""
        pid = member.pid
        if isinstance(member.term, S.Repl):
            self.repls[pid] = member
            return
        offers = _offers(config, member)
        if "_offers" not in member.__dict__:  # _offers keeps no guarded ones
            self.guarded[pid] = member
        sends, receives = [], []
        for off in offers:
            if isinstance(off.action, S.Send):
                sends.append(off)
            else:
                receives.append(off)
                self.receivers.setdefault(off.chan.id, {})[pid, off.path] = (
                    member, off)
        own = (Counter(off.chan.id for off in receives)
               if sends and receives else None)
        for off in sends:
            counts = self.sends.setdefault(off.chan.id, [0, 0])
            counts[0] += 1
            if own:
                counts[1] += own[off.chan.id]
        self.members[pid] = (member, sends, own, receives)

    def remove(self, member: SoupMember) -> None:
        self._drop(self.members.pop(member.pid))
        self.guarded.pop(member.pid, None)

    def advance(self, config: Configuration, redex: Redex) -> "_Index":
        """Carry the index over to `config`, the successor that applying
        `redex` to the indexed configuration gave."""
        if isinstance(redex, Comm):
            self.remove(redex.sender)
            self.remove(redex.receiver)
        elif redex.member.repl_budget is not None:
            # the spawn decremented the budget on a new member, same pid
            i = bisect_left(config.soup, redex.member.pid, key=_pid)
            self.insert(config, config.soup[i])
        # a guard can read the store: evaluate it again, in its pid's slot
        for pid, member in self.guarded.items():
            self._drop(self.members[pid])
            self.insert(config, member)
        # the step's new members come last, with pids from next_pid on
        added = config.next_pid - self.next_pid
        for member in config.soup[len(config.soup) - added:]:
            self.insert(config, member)
        self.finish(config)
        return self

    def finish(self, config: Configuration) -> None:
        """Count the redexes of `config`, whose members are all inserted.
        Sets config.budget_cut when an exhausted replication's spawn would
        be enabled."""
        self.step_count, self.next_pid = config.step_count, config.next_pid
        pairs = {cid: n * len(self.receivers[cid]) - within
                 for cid, (n, within) in self.sends.items()
                 if cid in self.receivers}
        enabled = {cid for cid, n in pairs.items() if n}
        self.spawns = self._spawns(config, enabled) if self.repls else []
        self.count = sum(pairs.values()) + len(self.spawns)

    def _spawns(self, config: Configuration, enabled: set) -> list:
        unfoldings = [(member, _offers(config, member))
                      for member in self.repls.values()]
        repl_offers = Counter(o for _, u in unfoldings for o in u.offers)

        def enables_comm(u: Unfolding) -> bool:
            """A spawn must enable a comm on a channel that has none yet.
            Other replications, exhausted ones too, count as partners: they
            could unfold as well."""
            if any(cid is None or cid not in enabled for cid in u.talks):
                return True
            for cid, send in u.offers:
                partner = (cid, not send)
                if cid not in enabled and (
                    cid in (self.receivers if send else self.sends)
                    or repl_offers[partner] > (partner in u.offers)
                ):
                    return True
            return False

        spawns = []
        for member, unfolding in unfoldings:
            if not enables_comm(unfolding):
                continue
            if member.repl_budget is not None and member.repl_budget <= 0:
                config.budget_cut = True  # suppressed; the explorer's frontier
            else:
                spawns.append(member)
        return spawns

    def comms(self, member: SoupMember, sends: list[Offer]) -> list[tuple]:
        """A sender's comms in canonical order, as tuples (receiver pid,
        send path, receive path, send, receiver, receive): the first three
        are unique for one sender, so the sort compares no offer."""
        return sorted([(rpid, off.path, rpath, off, partner, roff)
                       for off in sends
                       for (rpid, rpath), (partner, roff)
                       in self.receivers.get(off.chan.id, {}).items()
                       if partner is not member])

    def redex(self, i: int) -> Redex:
        receivers = self.receivers
        for member, sends, own, _ in self.members.values():  # in pid order
            n = 0
            for off in sends:
                n += len(receivers.get(off.chan.id, ()))
                if own:
                    n -= own[off.chan.id]
            if i < n:
                return Comm(member, *self.comms(member, sends)[i][3:],
                            self.step_count)
            i -= n
        return ReplSpawn(self.spawns[i], self.step_count)

    def redexes(self) -> list[Redex]:
        comms = [Comm(member, *comm[3:], self.step_count)
                 for member, sends, _, _ in self.members.values()
                 if sends for comm in self.comms(member, sends)]
        return comms + [ReplSpawn(m, self.step_count) for m in self.spawns]


def enabled_redexes(config: Configuration) -> list[Redex]:
    """All enabled redexes in canonical order (deterministic)."""
    return _Index(config).redexes()


# ---------------------------------------------------------------------------
# Stepping


def _slot(soup: list[SoupMember], member: SoupMember, what: str) -> int:
    i = bisect_left(soup, member.pid, key=_pid)  # a soup is in pid order
    if i == len(soup) or soup[i] is not member:
        raise MlgError(f"stale redex: {what} no longer present")
    return i


def step(config: Configuration, redex: Redex) -> Configuration:
    """Apply one redex, returning the successor configuration.

    The successor appends its events to the trace list it shares with
    `config`; a caller that applies several redexes to one configuration
    sets `config.trace = None` first."""
    if redex.step_count != config.step_count:
        raise MlgError("stale redex applied to a later configuration")
    new = config.clone()
    if isinstance(redex, ReplSpawn):
        member = redex.member
        idx = _slot(new.soup, member, "replication")
        if member.repl_budget is not None:
            new.soup[idx] = SoupMember(member.pid, member.term, member.env,
                                       member.repl_budget - 1)
        first_new_pid = new.next_pid
        insert_term(new, member.term.body, member.env)
        if new.trace is not None:
            new.trace.append(TraceEvent("spawn", new.step_count,
                                        pids=(member.pid, first_new_pid)))
        new.step_count += 1
        return new

    sender, send, receiver, receive = (redex.sender, redex.send,
                                       redex.receiver, redex.receive)
    for member in (sender, receiver):
        del new.soup[_slot(new.soup, member, "participant")]

    payload = send.action.payload
    value, eval_steps = eval_payload(new, sender.env, payload, mutate=True)
    _assert_sort(new, value, send.chan, payload.span)
    insert_term(new, send.continuation, sender.env)
    insert_term(new, receive.continuation,
                {**receiver.env, receive.action.binder.text: value})

    if new.trace is not None:
        delta = ()
        if isinstance(payload, S.DataExpr):  # it wrote the object it names
            delta = (new.store.objects[value.id].render(),)
            new.trace.append(TraceEvent("update", new.step_count,
                                        store_delta=delta))
        new.trace.append(TraceEvent(
            "comm", new.step_count,
            pids=(sender.pid, receiver.pid),
            chan=send.chan.name, payload=render_value(value),
            store_delta=delta,
            detail=f"eval={eval_steps}" if eval_steps else "",
        ))
    new.step_count += 1
    return new


def _assert_sort(config: Configuration, value: Value,
                 chan: ChanRef, span: Span) -> None:
    """Redundant dynamic check that the payload at `span` inhabits the
    channel sort."""
    sort = chan.sort
    if not (isinstance(value, ChanRef) if isinstance(sort, S.ChanSort)
            else value_inhabits(value, sort, config.store)):
        raise EvalFault(
            f"payload {render_value(value)} does not inhabit sort "
            f"{sort} of channel '{chan.name}'"
        ).at(span)


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
    index = redex = None
    while True:
        if config.step_count >= max_steps:
            verdict = STEP_LIMIT
            break
        index = (_Index(config) if redex is None
                 else index.advance(config, redex))
        if not index.count:
            verdict = TERMINATED if not config.soup else DEADLOCK
            break
        redex = index.redex(rng.randrange(index.count))
        config = step(config, redex)
    config.trace.append(TraceEvent(verdict, config.step_count))
    return config, verdict, config.trace


def render_trace(trace: list[TraceEvent], fmt: str = "text") -> str:
    if fmt == "records":
        return "\n".join(
            json.dumps(e.to_record(), sort_keys=True) for e in trace
        ) + "\n"
    return "\n".join(e.render() for e in trace) + "\n"
