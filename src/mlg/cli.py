"""Command-line driver: check, run, explore, fmt.

Exit codes are part of the stable interface:
  0 success / property holds     3 deadlock (run or explore)
  1 usage error                  4 step limit reached
  2 check failure                5 exploration budget cut, no verdict
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from collections import Counter

from .diagnostics import MlgError
from .parser import parse_program
from .prelude import load_program
from .pretty import pretty_program
from .typecheck import check_program

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK = 2
EXIT_DEADLOCK = 3
EXIT_STEP_LIMIT = 4
EXIT_BUDGET_CUT = 5

# the budget that cut a frontier state, and the flag that raises it
CUT_FLAGS = {"depth": "--depth", "states": "--states",
             "repl-budget": "--repl-budget"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mlg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, loads=True):
        p.add_argument("input", help="source file path, or - for stdin")
        if loads:  # how a program is loaded before it is checked or run
            p.add_argument("--unchecked", action="store_true",
                           help="skip static checking")
            p.add_argument("--no-prelude", action="store_true",
                           help="do not bring the prelude into scope")
            p.add_argument("--no-repl", action="store_true",
                           help="reject programs that use replication")
            p.add_argument("--block-size", type=_positive, default=None,
                           help="override the prelude's blockSize constant")
        p.add_argument("--format", choices=["text", "records"],
                       default="text", dest="fmt")

    p_check = sub.add_parser("check", help="statically check a program")
    common(p_check)

    p_run = sub.add_parser("run", help="run a program with the seeded engine")
    common(p_run)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--max-steps", type=_positive, default=10**5)

    p_explore = sub.add_parser(
        "explore", help="bounded exploration for deadlocks"
    )
    common(p_explore)
    p_explore.add_argument("--depth", type=_positive, default=32)
    p_explore.add_argument("--states", type=_positive, default=10**5)
    p_explore.add_argument("--repl-budget", type=_positive, default=2)
    p_explore.add_argument("--dot", default=None,
                           help="write the state graph in DOT form "
                                "(path, or - for stdout)")

    p_fmt = sub.add_parser("fmt", help="pretty-print a program")
    common(p_fmt, loads=False)
    return parser


def _read_input(path: str) -> tuple[str, str]:
    # bytes that are not UTF-8 are kept as lone surrogates, which the lexer
    # reports as unexpected characters, and a comment may hold; stdin is
    # decoded as a file is, "\r\n" and a bare "\r" read as "\n"
    if path == "-":
        stdin = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8",
                                 errors="surrogateescape")
        text = stdin.read()
        stdin.detach()  # so that closing the wrapper leaves stdin open
        return text, "<stdin>"
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            return handle.read(), path
    except OSError as exc:
        print(f"mlg: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


def _load_checked(args, text: str):
    """Parse + check per the flags; returns (program, annotations)."""
    program = load_program(
        text,
        include_prelude=not args.no_prelude,
        block_size=args.block_size,
    )
    if args.no_repl and (repl := program.first_repl()):
        raise MlgError("replication is disabled (--no-repl)", repl.span)
    annotations = {}
    if not args.unchecked:
        result = check_program(program)
        if not result.ok:
            raise MlgError(result.diagnostics)
        annotations = result.obj_annotations
    return program, annotations


def cmd_check(args, text: str) -> int:
    _load_checked(args, text)
    return EXIT_OK


def cmd_run(args, text: str) -> int:
    # the runtime is imported here and in cmd_explore, so that `check` and
    # `fmt` do not load it
    from .engine import DEADLOCK, TERMINATED, render_trace, run

    program, annotations = _load_checked(args, text)
    _, verdict, trace = run(
        program, seed=args.seed, max_steps=args.max_steps,
        annotations=annotations,
    )
    sys.stdout.write(render_trace(trace, args.fmt))
    if verdict == TERMINATED:
        return EXIT_OK
    if verdict == DEADLOCK:
        return EXIT_DEADLOCK
    return EXIT_STEP_LIMIT


def cmd_explore(args, text: str) -> int:
    from .explorer import explore, find_deadlocks

    program, annotations = _load_checked(args, text)
    graph = explore(
        program, max_depth=args.depth, max_states=args.states,
        repl_budget=args.repl_budget, annotations=annotations,
    )
    records = args.fmt == "records"
    if args.dot:
        dot = graph.to_dot()
        if args.dot == "-" and records:  # stdout stays one record a line
            print(json.dumps({"kind": "dot", "text": dot}, sort_keys=True))
        elif args.dot == "-":
            sys.stdout.write(dot)
        else:
            try:
                with open(args.dot, "w", encoding="utf-8") as handle:
                    handle.write(dot)
            except OSError as exc:
                print(f"mlg: cannot write {args.dot}: {exc}", file=sys.stderr)
                return EXIT_USAGE
    deadlocks = find_deadlocks(graph)
    witness = deadlocks[0][1] if deadlocks else []
    summary = {
        "states": len(graph.states), "edges": len(graph.edges),
        "deadlocks": len(deadlocks), "terminals": len(graph.terminals),
        "frontier": len(graph.frontier),
    }
    if records:
        print(json.dumps({"kind": "summary", **summary}, sort_keys=True))
    else:
        print(" ".join(f"{key}={value}" for key, value in summary.items()))
        if deadlocks:
            print(f"deadlock witness (length {len(witness)}):")
    for i, label in enumerate(witness):
        print(json.dumps({"kind": "witness", "step": i, "label": label},
                         sort_keys=True) if records else f"#{i} {label}")
    if deadlocks:
        return EXIT_DEADLOCK
    cuts = Counter(cause for causes in graph.frontier.values()
                   for cause in causes)
    for cause, flag in CUT_FLAGS.items():
        if cause in cuts:
            message = (f"exploration budget cut before a verdict: the "
                       f"{cause} limit cut {cuts[cause]} frontier state(s); "
                       f"raise {flag}")
            print(json.dumps({"kind": "warning", "cause": cause, "flag": flag,
                              "states": cuts[cause], "message": message},
                             sort_keys=True) if records
                  else f"warning: {message}", file=sys.stderr)
    return EXIT_BUDGET_CUT if cuts else EXIT_OK


def cmd_fmt(args, text: str) -> int:
    sys.stdout.write(pretty_program(parse_program(text)))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text, filename = _read_input(args.input)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handler = {
        "check": cmd_check,
        "run": cmd_run,
        "explore": cmd_explore,
        "fmt": cmd_fmt,
    }[args.command]
    try:
        return handler(args, text)
    except MlgError as exc:
        # every fault in the input, static or at run time, is reported
        # here, placed in its file, line and column
        for diag in exc.diagnostics:
            print(json.dumps(diag.to_record(text, filename), sort_keys=True)
                  if args.fmt == "records" else diag.render(text, filename),
                  file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    raise SystemExit(main())
