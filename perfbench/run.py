"""mlg's benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload run-wide --seed 1 --seconds 25 --trace 0

`--workload all` runs the four workloads in turn. The load is closed-loop:
one client, one instance at a time, as one user waiting for one
`mlg check|run|explore` verdict. Each instance goes through mlg's public
functions in the order `cli.py` calls them, and its verdict is checked
against an oracle in `workloads.py` that does not use mlg.

With `--trace 0` the run reports the end-to-end metrics, with tracing off;
with `--trace 1` it reports the per-layer metrics from a separate traced
pass. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402
from tracing import Tracer  # noqa: E402

MODULES = ["mlg.parser", "mlg.prelude", "mlg.typecheck", "mlg.evaluate",
           "mlg.store", "mlg.engine", "mlg.explorer"]
MIN_SAMPLES = 11  # the tail needs ten samples beyond it
SETUP_RUNS = 5
PEAK_RUNS = 2
GOLDEN = 3  # fixed instances per workload whose output digests are recorded
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import mlg; "
    "from mlg.prelude import load_program; "
    "from mlg.typecheck import check_program; "
    "sys.exit(0 if check_program(load_program('system = 0')).ok else 1)"
)


class BenchError(Exception):
    """The benchmark cannot run here: no mlg sources next to it."""


def log(line: str) -> None:
    print(line, flush=True)


def import_mlg() -> dict:
    if not (SRC / "mlg" / "__init__.py").is_file():
        raise BenchError(f"no mlg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(name) for name in MODULES}
    origin = Path(modules["mlg.parser"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"imported mlg from {origin}, not from {SRC}")
    return modules


# ---------------------------------------------------------------------------
# One instance: source text to rendered verdict, as cli.py does it


def verdict(M: dict, inst) -> tuple[float, float, dict]:
    """(check seconds, verdict seconds, output for the oracle)."""
    start = time.perf_counter()
    program = M["mlg.prelude"].load_program(inst.text)
    result = M["mlg.typecheck"].check_program(program)
    checked = time.perf_counter()
    out: dict = {"ok": result.ok}
    if inst.command == "run" and result.ok:
        engine = M["mlg.engine"]
        config, outcome, trace = engine.run(
            program, seed=inst.seed, annotations=result.obj_annotations)
        out.update(verdict=outcome, trace=engine.render_trace(trace))
    elif inst.command == "explore" and result.ok:
        explorer = M["mlg.explorer"]
        graph = explorer.explore(program, annotations=result.obj_annotations)
        deadlocks = explorer.find_deadlocks(graph)
        witness = deadlocks[0][1] if deadlocks else []
        out["report"] = "\n".join(
            [f"states={len(graph.states)} edges={len(graph.edges)} "
             f"deadlocks={len(deadlocks)} terminals={len(graph.terminals)} "
             f"frontier={len(graph.frontier)}"]
            + [f"#{i} {label}" for i, label in enumerate(witness)])
    done = time.perf_counter()
    if inst.command == "run" and result.ok:
        out["left"] = [type(m.term).__name__ for m in config.soup]
    elif inst.command == "explore" and result.ok:
        out.update(
            states=len(graph.states), edges=len(graph.edges),
            deadlocks=len(deadlocks), terminals=len(graph.terminals),
            frontier=len(graph.frontier),
            witness=len(witness) if deadlocks else None,
            labels=sorted(Counter(label for _, label, _ in graph.edges)
                          .items()),
            path=witness,
        )
    return checked - start, done - start, out


def attempt(M: dict, workload, inst) -> tuple[float, float, str]:
    """Run and judge one instance: (check s, verdict s, failure or "")."""
    try:
        check_s, verdict_s, out = verdict(M, inst)
    except Exception as exc:  # any crash is a failed instance, not a stop
        return 0.0, 0.0, f"{type(exc).__name__}: {exc}"
    return check_s, verdict_s, workload.oracle(inst, out)


def digest(out: dict) -> str:
    if "trace" in out:
        data = out["trace"]
    else:
        data = json.dumps({k: out.get(k) for k in (
            "states", "edges", "deadlocks", "terminals", "frontier",
            "labels", "path")}, sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Instance streams


def stream(workload, seed: int):
    """The run's instances, from its seed alone."""
    rng = random.Random(f"{workload.name}/{seed}")
    index = 0
    while True:
        inst_rng = random.Random(rng.getrandbits(64))
        yield workload.generate(inst_rng, workload.size, index)
        index += 1


def golden(workload):
    """Fixed instances, the same in every run, for the output digests."""
    return [
        workload.generate(random.Random(f"golden/{workload.name}/{j}"),
                          workload.size, j)
        for j in range(GOLDEN)
    ]


# ---------------------------------------------------------------------------
# Statistics


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with ten samples beyond it: (value, pct)."""
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# End-to-end run (tracing off)


def measure_setup() -> list[float]:
    """Cold start of `mlg`: a fresh interpreter imports it and loads and
    checks the prelude. One child at a time; the first only warms caches."""
    times = []
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        # no timeout: with one, Popen.wait polls in steps of up to 50 ms,
        # which would round every sample up to the next step
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                       check=True)
        if i:
            times.append(time.perf_counter() - start)
    return times


def end_to_end(M: dict, workload, seed: int, seconds: float) -> dict:
    setup = measure_setup()
    attempt(M, workload, golden(workload)[0])  # warm lazy imports and caches
    checks, verdicts, failures, probes = [], [], [], []
    instances = stream(workload, seed)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or (
            len(verdicts) < MIN_SAMPLES and len(failures) < MIN_SAMPLES):
        inst = next(instances)
        check_s, verdict_s, failure = attempt(M, workload, inst)
        if inst.probe:
            probes.append(failure)
            continue
        if failure:
            failures.append(failure)
        else:
            checks.append(check_s)
            verdicts.append(verdict_s)
    peaks = []
    instances = stream(workload, seed)
    while len(peaks) < PEAK_RUNS:
        inst = next(instances)
        if inst.probe:
            continue
        tracemalloc.start()
        attempt(M, workload, inst)
        peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        tracemalloc.stop()

    attempted = len(verdicts) + len(failures)
    if len(verdicts) < MIN_SAMPLES:  # mostly failures: correct is false
        verdicts = checks = [0.0] * MIN_SAMPLES
    tail_s, pct = tail(verdicts)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "verdict_s": metric(statistics.median(verdicts), "s"),
        "verdict_s.tail": metric(tail_s, "s"),
        "check_s": metric(statistics.median(checks), "s"),
        "peak_mb": metric(statistics.median(peaks), "MB"),
    }
    fail_ratio = (len(failures) + sum(bool(p) for p in probes)) / (
        attempted + len(probes))
    log(f"{workload.name}: {attempted} instances, {len(failures)} failed; "
        f"{len(probes)} robustness probes, "
        f"{sum(bool(p) for p in probes)} failed")
    counts = {"setup_s": len(setup), "verdict_s": len(verdicts),
              "check_s": len(checks), "peak_mb": len(peaks)}
    for name, m in metrics.items():
        extra = f"p{pct:.1f} of {len(verdicts)} samples" \
            if name == "verdict_s.tail" else f"{counts[name]} samples"
        log(f"  {name:<16} {m['value']:12.6f} {m['unit']:<5} ({extra})")
    log(f"  {'fail_ratio':<16} {fail_ratio:12.6f} ratio "
        f"({attempted + len(probes)} attempted)")
    for failure in (failures + [p for p in probes if p])[:5]:
        log(f"  failure: {failure[:300]}")
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


# ---------------------------------------------------------------------------
# Per-layer run (tracing on)


def per_layer(M: dict, workload, seed: int) -> dict:
    attempt(M, workload, golden(workload)[0])
    instances = []
    for inst in stream(workload, seed):
        if len(instances) == workload.traced:
            break
        instances.append(inst)
    plain, failures = [], []
    for inst in instances:
        _, verdict_s, failure = attempt(M, workload, inst)
        if failure:
            failures.append((inst, failure))
        elif not inst.probe:
            plain.append(verdict_s)

    # probes are left out of the traced pass: a probe that fails today ends
    # inside its spans and would bill a partial parse to the parser
    regular = [inst for inst in instances if not inst.probe]
    tracer = Tracer()
    tracer.install(M)
    traced = []
    try:
        for i, inst in enumerate(regular):
            tracer.instance = i
            _, verdict_s, failure = attempt(M, workload, inst)
            if not failure:
                traced.append(verdict_s)
    finally:
        tracer.uninstall()
    mismatch = recorded_mismatches(M, workload)

    self_s = tracer.self_times()
    total_s = tracer.total_times()
    n = len(regular)
    c = tracer.counts

    def per(name):
        return c[name] / n

    def s(*names):
        return sum(self_s.get(name, 0.0) for name in names) / n

    engine_s = s("engine.run", "engine.enabled", "engine.step",
                 "engine.render")
    layers = {
        "parser.s": s("parser.parse", "parser.tokenize"),
        "prelude.s": s("prelude.load"),
        "typecheck.s": s("typecheck.check"),
        "evaluate.s": s("evaluate.eval_comp"),
        "store.s": s("store.alloc", "store.update", "store.clone",
                     "store.snapshot"),
        "engine.s": engine_s,
        "explorer.s": s("explorer.canonicalize", "explorer.explore",
                        "explorer.deadlocks"),
    }
    traced_mean = sum(traced) / max(len(traced), 1)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    metrics = {
        "parser.s": metric(layers["parser.s"], "s"),
        "parser.calls": metric(per("parser.calls"), "count"),
        "parser.tokens": metric(per("parser.tokens"), "count"),
        "parser.tokens_per_s": metric(
            rate(per("parser.tokens"), layers["parser.s"]), "1/s"),
        "prelude.s": metric(layers["prelude.s"], "s"),
        "prelude.parses": metric(
            rate(c["prelude.parses"], c["prelude.loads"]), "count"),
        "typecheck.s": metric(layers["typecheck.s"], "s"),
        "typecheck.calls": metric(per("typecheck.calls"), "count"),
        "evaluate.s": metric(layers["evaluate.s"], "s"),
        "evaluate.calls": metric(per("evaluate.calls"), "count"),
        "evaluate.steps": metric(per("evaluate.steps"), "count"),
        "evaluate.steps_per_s": metric(
            rate(per("evaluate.steps"), layers["evaluate.s"]), "1/s"),
        "store.s": metric(layers["store.s"], "s"),
        "store.writes": metric(per("store.writes"), "count"),
        "store.clones": metric(per("store.clones"), "count"),
        "store.snapshots": metric(per("store.snapshots"), "count"),
        "store.objects_copied": metric(
            per("store.objects_copied"), "count"),
        "engine.s": metric(engine_s, "s"),
        "engine.enabled_s": metric(s("engine.enabled"), "s"),
        "engine.enabled_calls": metric(
            per("engine.enabled_calls"), "count"),
        "engine.offers": metric(per("engine.offers"), "count"),
        "engine.redexes": metric(per("engine.redexes"), "count"),
        "engine.repl_members": metric(
            per("engine.repl_members"), "count"),
        "engine.peak_soup": metric(c["engine.peak_soup"], "count"),
        "engine.step_s": metric(s("engine.step"), "s"),
        "engine.run_s": metric(s("engine.run"), "s"),
        "engine.steps": metric(per("engine.steps"), "count"),
        "engine.spawns": metric(per("engine.spawns"), "count"),
        "engine.steps_per_s": metric(
            rate(per("engine.steps"), engine_s), "1/s"),
        "engine.render_s": metric(s("engine.render"), "s"),
        "engine.trace_mismatch": metric(mismatch["run"], "count"),
        "explorer.s": metric(layers["explorer.s"], "s"),
        "explorer.canonicalize_s": metric(s("explorer.canonicalize"), "s"),
        "explorer.canonicalize_calls": metric(
            per("explorer.canonicalize_calls"), "count"),
        "explorer.graph_s": metric(s("explorer.explore"), "s"),
        "explorer.deadlocks_s": metric(s("explorer.deadlocks"), "s"),
        "explorer.states": metric(per("explorer.states"), "count"),
        "explorer.edges": metric(per("explorer.edges"), "count"),
        "explorer.new_state_ratio": metric(rate(
            c["explorer.states"], c["explorer.canonicalize_calls"]),
            "ratio"),
        "explorer.states_per_s": metric(rate(
            per("explorer.states"),
            total_s.get("explorer.explore", 0.0) / n), "1/s"),
        "explorer.graph_mismatch": metric(mismatch["explore"], "count"),
        "trace.verdict_s": metric(traced_mean, "s"),
        "trace.unattributed_s": metric(
            traced_mean - sum(layers.values()), "s"),
        "trace.overhead_s": metric(
            statistics.median(traced) - statistics.median(plain)
            if traced and plain else 0.0, "s"),
        "fail_ratio": metric(len(failures) / len(instances), "ratio"),
    }
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}.jsonl")
    bad = [f for inst, f in failures if not inst.probe]
    log(f"{workload.name} traced: {len(instances)} instances "
        f"({len(traced)} timed), {len(failures)} failed, "
        f"{len(tracer.spans)} spans")
    for name, m in metrics.items():
        log(f"  {name:<28} {m['value']:14.6f} {m['unit']}")
    for _, failure in failures[:5]:
        log(f"  failure: {failure[:300]}")
    attempted = sum(not inst.probe for inst in instances)
    # a digest mismatch is reported, not failed: traces may change on purpose
    return {"correct": not bad, "attempted": attempted, "failed": len(bad),
            "metrics": metrics}


def recorded_mismatches(M: dict, workload) -> dict:
    """Golden instances whose output digest differs from the recorded one."""
    recorded = json.loads(DIGESTS.read_text()).get(workload.name, [])
    mismatch = {"run": 0, "explore": 0}
    for inst, want in zip(golden(workload), recorded):
        if inst.command not in mismatch:
            continue
        try:
            _, _, out = verdict(M, inst)
            got = digest(out)
        except Exception as exc:  # a crash is a mismatch too
            got = repr(exc)
        mismatch[inst.command] += got != want
    return mismatch


def record_digests(M: dict) -> None:
    table = {}
    for name, workload in WORKLOADS.items():
        instances = golden(workload)
        if instances[0].command != "check":
            table[name] = [digest(verdict(M, inst)[2]) for inst in instances]
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all"] + list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from this commit's "
                             "outputs (run only after a deliberate change "
                             "of trace bytes or graphs)")
    args = parser.parse_args(argv)
    try:
        M = import_mlg()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests(M)
        return 0

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        workload = WORKLOADS[name]
        if args.trace:
            results[name] = per_layer(M, workload, args.seed)
        else:
            results[name] = end_to_end(M, workload, args.seed, args.seconds)
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
