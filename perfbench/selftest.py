"""Self-test of the benchmark, at tiny sizes.

    python3 perfbench/selftest.py

For every workload it checks that:
  - every regular instance passes its oracle;
  - each oracle fails an instance whose expected answer is deliberately
    wrong, one part of the answer at a time, so fail_ratio rises;
  - the machine-independent counts of two traced runs are identical;
  - per-layer self times add up to the traced spans' total, and
    uninstalling the tracer restores mlg's functions;
  - the golden instances still produce the digests in digests.json.
It prints what the check-large robustness probes end in today. Exit code 0
means every check held.
"""

from __future__ import annotations

import copy
import random
import sys

import run as bench
from tracing import FUNCTIONS, STORE_METHODS, Tracer
from workloads import PROBE_EVERY, WORKLOADS

COUNTS = ["evaluate.steps", "engine.steps", "engine.redexes",
          "explorer.states", "explorer.edges", "store.writes",
          "prelude.parses"]


def wrong_answers(expect: dict):
    """One copy of `expect` per key, with that key's value made wrong."""
    for key, value in expect.items():
        bad = copy.deepcopy(expect)
        if isinstance(value, bool):
            bad[key] = not value
        elif isinstance(value, int):
            bad[key] = value + 1
        elif isinstance(value, str):
            bad[key] = value + "?"
        elif isinstance(value, list):
            bad[key] = value[:-1]
        else:
            bad[key] = 0
        yield key, bad


def traced_counts(M, workload, instances):
    tracer = Tracer()
    tracer.install(M)
    try:
        for i, inst in enumerate(instances):
            tracer.instance = i
            bench.attempt(M, workload, inst)
    finally:
        tracer.uninstall()
    return tracer


def main() -> int:
    M = bench.import_mlg()
    originals = {(M[owner], attr): getattr(M[owner], attr)
                 for attr, owners in FUNCTIONS.values() for owner in owners}
    store_cls = M["mlg.store"].ObjectStore
    originals.update({(store_cls, attr): getattr(store_cls, attr)
                      for attr in STORE_METHODS})
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for name, workload in WORKLOADS.items():
        instances = [
            workload.generate(random.Random(f"selftest/{name}/{i}"),
                              workload.tiny, i)
            for i in range(PROBE_EVERY)
        ]
        regular = [inst for inst in instances if not inst.probe]
        for inst in instances:
            if inst.probe:
                failure = bench.attempt(M, workload, inst)[2]
                print(f"note {name}: {inst.probe} probe ends in "
                      f"{failure[:60] or 'ok'}")
        failures = [bench.attempt(M, workload, inst)[2] for inst in regular]
        expect(not any(failures),
               f"{name}: {len(regular)} tiny instances pass their oracle "
               f"{[f for f in failures if f][:1]}")

        inst = regular[0]
        for key, bad in wrong_answers(inst.expect):
            wrong = copy.copy(inst)
            wrong.expect = bad
            failure = bench.attempt(M, workload, wrong)[2]
            expect(bool(failure),
                   f"{name}: a wrong '{key}' in the expected answer fails")

        first = traced_counts(M, workload, regular)
        second = traced_counts(M, workload, regular)
        same = all(first.counts[k] == second.counts[k] for k in COUNTS)
        expect(same and first.counts == second.counts,
               f"{name}: counts repeat exactly "
               f"({', '.join(f'{k}={first.counts[k]}' for k in COUNTS)})")
        top = sum(end - start for _, _, start, end, parent in first.spans
                  if parent < 0)
        total = sum(first.self_times().values())
        expect(abs(top - total) < 1e-6,
               f"{name}: self times add up to the top-level spans")

        mismatch = bench.recorded_mismatches(M, workload)
        expect(not any(mismatch.values()),
               f"{name}: golden outputs match digests.json {mismatch}")

    restored = all(getattr(owner, attr) is fn
                   for (owner, attr), fn in originals.items())
    expect(restored, "uninstalling the tracer restores mlg's functions")
    print(f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
