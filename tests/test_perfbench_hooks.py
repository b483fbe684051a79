"""The benchmark's tracer still finds every mlg name it patches.

`perfbench/tracing.py` replaces mlg's entry points by name, so a refactor
that renames or inlines one of them would only show in the traced
benchmark. Here the tracer is installed on mlg's modules for one small run
and one small exploration with its deadlock search; its counts must move,
and `uninstall` must put every original back. A parse under the tracer
must count one call and as many tokens as the reference lexer finds, which
holds only while the parser lexes through the `tokenize` global that the
tracer replaces.
"""

import importlib
import importlib.util

from conftest import REPO_ROOT

from mlg.prelude import load_program
from mlg.typecheck import check_program
from test_lexer import char_tokenize

TEXT = "chan c : nat\nsystem = c!(1) . 0 | c?(x) . 0 | !c!(2) . 0\n"


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO_ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _modules(tracing):
    """The mlg modules the tracer patches, by name."""
    names = {"mlg.store", "mlg.engine"} | {
        owner for _, owners in tracing.FUNCTIONS.values() for owner in owners}
    return {name: importlib.import_module(name) for name in names}


def test_tracer_counts_and_restores_every_patched_name():
    tracing = _tracing()
    modules = _modules(tracing)
    patched = [(modules[owner], attr)
               for attr, owners in tracing.FUNCTIONS.values()
               for owner in owners]
    patched += [(modules["mlg.store"].ObjectStore, method)
                for method in tracing.STORE_METHODS]
    patched.append((modules["mlg.engine"], "member_offers"))
    originals = [getattr(owner, attr) for owner, attr in patched]

    program = load_program(TEXT, include_prelude=False)
    annotations = check_program(program).obj_annotations
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        modules["mlg.engine"].run(program, seed=7, max_steps=20,
                                  annotations=annotations)
        graph = modules["mlg.explorer"].explore(program, max_depth=3,
                                                annotations=annotations)
        modules["mlg.explorer"].find_deadlocks(graph)
    finally:
        tracer.uninstall()

    for name in ("engine.offers", "engine.steps", "store.clones",
                 "engine.enabled_calls", "explorer.states"):
        assert tracer.counts[name] > 0, name
    # uncut, the exploration canonicalizes its initial state and the
    # successor at the end of every edge, each once
    assert not graph.frontier
    assert tracer.counts["explorer.canonicalize_calls"] == 1 + len(graph.edges)
    assert any(span[1] == "explorer.deadlocks" for span in tracer.spans)
    restored = [getattr(owner, attr) for owner, attr in patched]
    assert all(now is then for now, then in zip(restored, originals))


def test_traced_parse_counts_its_calls_and_tokens():
    tracing = _tracing()
    modules = _modules(tracing)
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        modules["mlg.parser"].parse_program(TEXT)
    finally:
        tracer.uninstall()
    assert tracer.counts["parser.calls"] == 1
    assert tracer.counts["parser.tokens"] == len(char_tokenize(TEXT))
