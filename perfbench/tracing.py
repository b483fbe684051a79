"""Per-layer spans and counts, recorded from outside mlg.

`Tracer.install` replaces each layer's public entry points with wrappers,
in every module that holds a reference to them (`mlg.prelude` imports
`parse_program`, `mlg.explorer` imports `step` and `enabled_redexes`), and
`uninstall` puts the originals back. A wrapper records one span (instance,
name, start, end, parent) and bumps the layer's counts. Spans stay in memory
until the run ends. A layer's self time is its spans' durations less the
durations of their direct child spans; what no span covers is reported as
unattributed.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

# span name -> the modules whose global of that name is replaced
FUNCTIONS = {
    "parser.parse": ("parse_program", ["mlg.parser", "mlg.prelude"]),
    "parser.tokenize": ("tokenize", ["mlg.parser"]),
    "prelude.load": ("load_program", ["mlg.prelude"]),
    "typecheck.check": ("check_program", ["mlg.typecheck", "mlg.prelude"]),
    "evaluate.eval_comp": ("eval_comp", ["mlg.engine"]),
    "engine.run": ("run", ["mlg.engine"]),
    "engine.enabled": ("enabled_redexes", ["mlg.engine", "mlg.explorer"]),
    "engine.step": ("step", ["mlg.engine", "mlg.explorer"]),
    "engine.render": ("render_trace", ["mlg.engine"]),
    "explorer.canonicalize": ("canonicalize", ["mlg.explorer"]),
    "explorer.explore": ("explore", ["mlg.explorer"]),
    "explorer.deadlocks": ("find_deadlocks", ["mlg.explorer"]),
}
STORE_METHODS = ("alloc", "update", "clone", "snapshot")


def _fuel_used(env, store, e, fuel=None):
    return fuel.used if fuel is not None else 0


class Tracer:
    def __init__(self):
        self.spans: list = []  # (instance, name, start, end, parent index)
        self.counts: Counter = Counter()
        self.instance = 0
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._undo: list = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, count=None, before=None):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            active[name] += 1
            token = before(*args, **kwargs) if before is not None else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                spans[index] = (self.instance, name, start, end, parent)
            if count is not None:
                count(result, token, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap the entry points; `modules` maps module name -> module."""
        hooks = self._count_hooks()
        for name, (attr, owners) in FUNCTIONS.items():
            original = getattr(modules[owners[0]], attr)
            wrapped = self._wrap(name, original, hooks.get(name),
                                 _fuel_used if name == "evaluate.eval_comp"
                                 else None)
            for owner in owners:
                module = modules[owner]
                self._undo.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapped)
        store_cls = modules["mlg.store"].ObjectStore
        for method in STORE_METHODS:
            original = getattr(store_cls, method)
            self._undo.append((store_cls, method, original))
            setattr(store_cls, method, self._wrap(
                f"store.{method}", original, hooks[f"store.{method}"]))
        engine = modules["mlg.engine"]
        offers = engine.member_offers
        self._undo.append((engine, "member_offers", offers))

        def member_offers(config, member):
            # counted, not timed: one span per soup member per step would
            # cost more than the call; its time stays in engine.enabled
            self.counts["engine.offers"] += 1
            return offers(config, member)

        engine.member_offers = member_offers

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _count_hooks(self) -> dict:
        counts, active = self.counts, self._active

        def parse(result, _, text, *args, **kwargs):
            counts["parser.calls"] += 1
            if active["prelude.load"]:
                counts["prelude.parses"] += 1

        def tokenize(result, _, *args, **kwargs):
            counts["parser.tokens"] += len(result)

        def load(result, _, *args, **kwargs):
            counts["prelude.loads"] += 1

        def check(result, _, *args, **kwargs):
            counts["typecheck.calls"] += 1

        def eval_comp(result, used_before, *args, **kwargs):
            # a Fuel shared by several calls makes EvalResult.steps
            # cumulative, so count only the steps this call used
            counts["evaluate.calls"] += 1
            counts["evaluate.steps"] += result.steps - used_before

        def enabled(result, _, config):
            counts["engine.enabled_calls"] += 1
            counts["engine.redexes"] += len(result)
            repl = sum(type(m.term).__name__ == "Repl" for m in config.soup)
            counts["engine.repl_members"] += repl
            counts["engine.peak_soup"] = max(counts["engine.peak_soup"],
                                             len(config.soup))

        def step(result, _, config, redex):
            counts["engine.steps"] += 1
            if type(redex).__name__ == "ReplSpawn":
                counts["engine.spawns"] += 1

        def canonicalize(result, _, config):
            counts["explorer.canonicalize_calls"] += 1

        def explore(graph, _, *args, **kwargs):
            counts["explorer.states"] += len(graph.states)
            counts["explorer.edges"] += len(graph.edges)

        def write(result, _, *args, **kwargs):
            counts["store.writes"] += 1

        def clone(result, _, store):
            counts["store.clones"] += 1
            counts["store.objects_copied"] += len(store.objects)

        def snapshot(result, _, store):
            counts["store.snapshots"] += 1

        return {
            "parser.parse": parse, "parser.tokenize": tokenize,
            "prelude.load": load, "typecheck.check": check,
            "evaluate.eval_comp": eval_comp, "engine.enabled": enabled,
            "engine.step": step, "explorer.canonicalize": canonicalize,
            "explorer.explore": explore, "store.alloc": write,
            "store.update": write, "store.clone": clone,
            "store.snapshot": snapshot,
        }

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (_, name, start, end, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return dict(totals)

    def total_times(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for _, name, start, end, _ in self.spans:
            totals[name] += end - start
        return dict(totals)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
