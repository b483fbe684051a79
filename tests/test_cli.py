import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import demo_path, demo_text
from test_run_golden import HANDWRITTEN, UNCHECKED
from test_run_inside_explore import CLOSURES_IN_OBJECTS, DEFINITION_SCOPE

import mlg
from mlg import cli, engine
from mlg.cli import build_parser, main
from mlg.diagnostics import MlgError
from mlg.parser import MAX_NUMERAL_DIGITS


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, text):
    path = tmp_path / "input.mlg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_check_filesystem_demo_ok(capsys):
    code, out, err = invoke(capsys, "check", str(demo_path("filesystem.mlg")))
    assert code == 0
    assert err == ""


def test_check_reports_type_errors_with_exit_2(capsys, tmp_path):
    path = write(tmp_path, "def a = z z\n")
    code, out, err = invoke(capsys, "check", path)
    assert code == 2
    assert "error" in err


def test_usage_error_exit_1(capsys):
    code, out, err = invoke(capsys, "run")
    assert code == 1


def test_missing_file_exit_1(capsys):
    code, out, err = invoke(capsys, "check", "/nonexistent/path.mlg")
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize("command, flag", [
    ("run", "--max-steps"), ("explore", "--depth"), ("explore", "--states"),
    ("explore", "--repl-budget"), ("check", "--block-size"),
])
def test_a_count_flag_of_zero_is_a_usage_error(capsys, tmp_path, command,
                                               flag):
    path = write(tmp_path, "system = 0\n")
    code, out, err = invoke(capsys, command, path, flag, "0")
    assert (code, out) == (1, "")
    assert err.endswith(f"error: argument {flag}: must be positive\n")


def test_run_filesystem_seed_42(capsys):
    code, out, err = invoke(
        capsys, "run", str(demo_path("filesystem.mlg")), "--seed", "42"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].endswith("terminated")
    write_at = next(i for i, l in enumerate(lines) if "write(10)" in l)
    reserve_at = next(i for i, l in enumerate(lines) if "reserve(3)" in l)
    assert write_at < reserve_at


def test_run_trace_byte_identical(capsys):
    outputs = set()
    for _ in range(3):
        code, out, _ = invoke(
            capsys, "run", str(demo_path("filesystem.mlg")), "--seed", "9"
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_run_deadlock_exit_3(capsys):
    code, out, err = invoke(capsys, "run", str(demo_path("deadlock_recv.mlg")))
    assert code == 3
    assert out.strip().splitlines()[-1].endswith("deadlock")


def test_run_step_limit_exit_4(capsys, tmp_path):
    path = write(
        tmp_path,
        "chan c : nat\nsystem = !c?(x) . 0 | !c!(1) . 0\n",
    )
    code, out, err = invoke(capsys, "run", path, "--max-steps", "5")
    assert code == 4
    assert out.strip().splitlines()[-1].endswith("step-limit")


def test_run_records_format_is_json_lines(capsys):
    code, out, err = invoke(
        capsys, "run", str(demo_path("filesystem.mlg")),
        "--format", "records",
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert records[-1]["kind"] == "terminated"
    assert any(r["kind"] == "comm" and r["chan"] == "write" for r in records)


def test_explore_ok_exit_0(capsys):
    code, out, err = invoke(capsys, "explore", str(demo_path("filesystem.mlg")))
    assert code == 0
    assert out.startswith("states=")
    assert "deadlocks=0" in out


def test_explore_deadlock_exit_3_with_witness(capsys):
    code, out, err = invoke(
        capsys, "explore", str(demo_path("deadlock_recv.mlg"))
    )
    assert code == 3
    assert "deadlocks=1" in out
    assert "deadlock witness (length 0):" in out


def test_a_definition_runs_in_the_scope_it_was_checked_in(capsys, tmp_path):
    path = write(tmp_path, DEFINITION_SCOPE)
    assert invoke(capsys, "check", path) == (0, "", "")
    for seed in range(6):
        code, out, err = invoke(capsys, "run", path, "--seed", str(seed))
        assert (code, err) == (3, "")
        assert "comm e(1)" in out
        assert out.endswith(" deadlock\n")
    assert invoke(capsys, "explore", path) == (3, (
        "states=4 edges=4 deadlocks=1 terminals=0 frontier=0\n"
        "deadlock witness (length 3):\n"
        "#0 comm(c)\n#1 comm(d)\n#2 comm(e)\n"), "")


def test_explore_merges_operand_orders_of_restricted_channels(capsys,
                                                             tmp_path):
    # the two branches differ only in the order of `|` operands that hold
    # restricted channels of different sorts: one successor state
    branch = "d?(u) . (new x : nat in new y : chan(nat) in c?(w) . ({}))"
    path = write(tmp_path, (
        "chan c : nat\nchan d : nat\nsystem = d!(0) . 0 | "
        + branch.format("x?(a) . 0 | y?(a) . 0") + " + "
        + branch.format("y?(a) . 0 | x?(a) . 0") + "\n"))
    assert invoke(capsys, "check", path) == (0, "", "")
    assert invoke(capsys, "explore", path) == (3, (
        "states=2 edges=2 deadlocks=1 terminals=0 frontier=0\n"
        "deadlock witness (length 1):\n#0 comm(d)\n"), "")


def test_explore_tells_objects_apart_by_the_functions_they_hold(capsys,
                                                               tmp_path):
    path = write(tmp_path, CLOSURES_IN_OBJECTS)
    code, out, err = invoke(capsys, "run", path, "--seed", "0")
    assert code == 3
    code, out, err = invoke(capsys, "explore", path)
    assert code == 3
    assert out == (
        "states=6 edges=5 deadlocks=1 terminals=1 frontier=0\n"
        "deadlock witness (length 2):\n#0 comm(c)\n#1 comm(d)\n"
    )


def test_explore_budget_cut_exit_5(capsys, tmp_path):
    path = write(
        tmp_path,
        "chan c : nat\nsystem = !c?(x) . 0 | !c!(1) . 0\n",
    )
    code, out, err = invoke(capsys, "explore", path, "--repl-budget", "1")
    assert code == 5
    assert "budget cut" in err


@pytest.mark.parametrize("cause, argv", [
    ("depth", ["--depth", "1"]),
    ("states", ["--states", "2"]),
    ("repl-budget", ["--repl-budget", "1"]),
])
def test_explore_budget_cut_names_cause_and_flag(capsys, tmp_path, cause,
                                                 argv):
    path = write(
        tmp_path,
        "chan c : nat\nsystem = !c?(x) . 0 | !c!(1) . 0\n",
    )
    code, out, err = invoke(capsys, "explore", path, *argv)
    assert code == 5
    assert err.count("warning:") == 1
    assert f"the {cause} limit cut" in err
    assert f"raise --{cause}" in err


# 40 sends on c, then 40 receives: one path of 40 steps
CHAIN_40 = ("chan c : nat\nsystem = "
            + " . ".join(f"c!({i})" for i in range(40)) + " . 0 | "
            + " . ".join(f"c?(x{i})" for i in range(40)) + " . 0\n")


def test_explore_has_no_depth_cap_by_default(capsys, tmp_path):
    path = write(tmp_path, CHAIN_40)
    assert invoke(capsys, "explore", path) == (
        0, "states=41 edges=40 deadlocks=0 terminals=1 frontier=0\n", "")
    code, out, err = invoke(capsys, "explore", path, "--depth", "32")
    assert code == 5
    assert out == "states=33 edges=32 deadlocks=0 terminals=0 frontier=1\n"
    assert "the depth limit cut 1 frontier state(s)" in err


@pytest.mark.parametrize("states", [1, 2, 3, 5])
def test_explore_never_holds_more_states_than_the_cap(capsys, tmp_path,
                                                     states):
    path = write(
        tmp_path,
        "chan c : nat\nsystem = !c?(x) . 0 | !c!(1) . 0\n",
    )
    code, out, err = invoke(capsys, "explore", path, "--states", str(states))
    assert code == 5
    assert f"states={states} " in out
    assert "the states limit cut" in err and "raise --states" in err


def test_explore_reports_a_states_cut_on_a_repl_budget_frontier_state(
        capsys, tmp_path):
    # both states the cap admits are cut by the replication budget; their
    # shared successor is then dropped by the state cap
    path = write(
        tmp_path,
        "chan c : nat\nsystem = !c?(x) . 0 | !c!(1) . 0\n",
    )
    code, out, err = invoke(capsys, "explore", path, "--repl-budget", "1",
                            "--states", "3")
    assert code == 5
    assert "states=3 " in out
    assert "the repl-budget limit cut" in err and "raise --repl-budget" in err
    assert "the states limit cut" in err and "raise --states" in err


# two replications that each unfold a private channel: neither unfolding
# has a partner, so neither may spawn
PRIVATE_PAIR = ("system = !(new r : nat in r!(0) . 0) "
                "| !(new s : nat in s?(x) . 0)\n")


def test_run_replications_with_private_channels_deadlock(capsys, tmp_path):
    path = write(tmp_path, PRIVATE_PAIR)
    code, out, err = invoke(capsys, "run", path, "--max-steps", "50")
    assert code == 3
    assert out == "#0 deadlock\n"


def test_explore_replications_with_private_channels_deadlock(capsys,
                                                            tmp_path):
    path = write(tmp_path, PRIVATE_PAIR)
    code, out, err = invoke(capsys, "explore", path)
    assert code == 3
    assert out.startswith("states=1 edges=0 deadlocks=1 ")
    assert err == ""


# a replication that an unfolding brings is unfolded with it, so a spawn
# whose comm waits one replication deeper is enabled
NESTED_REPLICATIONS = {
    "repl-of-repl": (
        "chan c : nat\nsystem = !!c!(1) . 0 | c?(x) . 0\n",
        "#0 spawn pid0=>pid2\n#1 spawn pid2=>pid3\n"
        "#2 comm c(1) pid3->pid1\n#3 deadlock\n",
        "#0 spawn(pid0)\n#1 spawn(pid2)\n#2 comm(c)\n"),
    "repl-in-a-repl": (
        "chan a : nat\nchan b : nat\n"
        "system = !(a!(1) . 0 | !b!(1) . 0) | b?(x) . 0\n",
        "#0 spawn pid0=>pid2\n#1 spawn pid3=>pid4\n"
        "#2 comm b(1) pid4->pid1\n#3 deadlock\n",
        "#0 spawn(pid0)\n#1 spawn(pid3)\n#2 comm(b)\n"),
}


@pytest.mark.parametrize("case", sorted(NESTED_REPLICATIONS))
def test_nested_replications_unfold_to_a_comm(capsys, tmp_path, case):
    text, trace, witness = NESTED_REPLICATIONS[case]
    path = write(tmp_path, text)
    assert invoke(capsys, "check", path) == (0, "", "")
    assert invoke(capsys, "run", path) == (3, trace, "")
    assert invoke(capsys, "explore", path) == (
        3, "states=7 edges=7 deadlocks=2 terminals=0 frontier=1\n"
           "deadlock witness (length 3):\n" + witness, "")


@pytest.mark.parametrize("command", ["run", "explore"])
def test_a_faulting_unfolding_is_a_diagnostic(capsys, tmp_path, command):
    # unchecked: the guard compares a natural with a channel
    path = write(tmp_path, "chan c : nat\n"
                           "system = !([1 = c] c!(0) . 0) | c?(y) . 0\n")
    assert invoke(capsys, command, path, "--unchecked") == (
        2, "", f"{path}:2:12: error: match on incomparable values\n")


def test_explore_records_deadlock_witness(capsys, tmp_path):
    path = write(tmp_path, "chan c : nat\nsystem = c!(1) . c?(x) . 0 "
                           "| c?(y) . 0\n")
    code, out, err = invoke(capsys, "explore", path, "--format", "records")
    assert code == 3
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert records == [
        {"kind": "summary", "states": 2, "edges": 1, "deadlocks": 1,
         "terminals": 0, "frontier": 0},
        {"kind": "witness", "step": 0, "label": "comm(c)"},
    ]
    assert err == ""


def test_explore_records_budget_cut(capsys, tmp_path):
    path = write(
        tmp_path,
        "chan c : nat\nsystem = !c?(x) . 0 | !c!(1) . 0\n",
    )
    code, out, err = invoke(capsys, "explore", path, "--repl-budget", "1",
                            "--format", "records")
    assert code == 5
    summary = json.loads(out)
    assert summary["kind"] == "summary" and summary["frontier"] > 0
    warning = json.loads(err)
    assert warning["kind"] == "warning"
    assert warning["cause"] == "repl-budget"
    assert warning["flag"] == "--repl-budget"
    assert warning["states"] == summary["frontier"]


def test_explore_dot_output(capsys, tmp_path):
    code, out, err = invoke(
        capsys, "explore", str(demo_path("deadlock_recv.mlg")), "--dot", "-"
    )
    assert code == 3
    assert "digraph states {" in out


def test_explore_dot_under_records_is_one_record(capsys):
    path = str(demo_path("deadlock_recv.mlg"))
    _, text, _ = invoke(capsys, "explore", path, "--dot", "-")
    code, out, err = invoke(capsys, "explore", path, "--dot", "-",
                            "--format", "records")
    assert code == 3
    lines = [json.loads(line) for line in out.splitlines()]
    assert [r["kind"] for r in lines[:2]] == ["dot", "summary"]
    # the record's text is the DOT text mode prints before its summary
    dot = lines[0]["text"]
    assert dot.startswith("digraph states {") and dot.endswith("}\n")
    assert text.startswith(dot) and text[len(dot):].startswith("states=")


def test_explore_dot_to_a_path_writes_what_stdout_gets(capsys, tmp_path):
    demo = str(demo_path("deadlock_recv.mlg"))
    dot = tmp_path / "graph.dot"
    _, text, _ = invoke(capsys, "explore", demo, "--dot", "-")
    code, out, err = invoke(capsys, "explore", demo, "--dot", str(dot))
    assert (code, err) == (3, "")
    # stdout gets the graph, then what the run without --dot prints
    assert text == dot.read_text(encoding="utf-8") + out
    assert out.startswith("states=")


def test_explore_dot_to_an_unwritable_path_is_a_diagnostic(capsys, tmp_path):
    dot = str(tmp_path / "missing" / "x.dot")
    code, out, err = invoke(
        capsys, "explore", str(demo_path("deadlock_recv.mlg")), "--dot", dot
    )
    assert code == 1
    assert err.startswith(f"mlg: cannot write {dot}: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_fmt_idempotent(capsys):
    code, once, _ = invoke(capsys, "fmt", str(demo_path("filesystem.mlg")))
    assert code == 0
    import sys

    path_again = demo_path("filesystem.mlg")
    # feed the formatted output back through fmt via stdin
    import io

    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(once.encode()))
    try:
        code2, twice, _ = invoke(capsys, "fmt", "-")
    finally:
        sys.stdin = stdin
    assert code2 == 0
    assert twice == once


def test_fmt_records_is_one_program_record(capsys):
    path = str(demo_path("filesystem.mlg"))
    _, text, _ = invoke(capsys, "fmt", path)
    code, out, err = invoke(capsys, "fmt", path, "--format", "records")
    assert (code, err) == (0, "")
    assert [json.loads(line) for line in out.splitlines()] == [
        {"kind": "program", "text": text}]


def test_fmt_round_trips_field_selection(capsys, tmp_path):
    text = ("chan c : [size : nat]\nchan d : nat\n"
            "system = c?(o) . [o.size = 1] d!((fun (y : nat) y) o.size) . 0"
            " | c!([size = 1]) . 0 | d?(x) . 0\n")
    # formats to itself, so its output is a fixed point of fmt
    assert invoke(capsys, "fmt", write(tmp_path, text)) == (0, text, "")


# a definition may use only the process names defined above it
UNBOUND_PROCS = [
    ("chan c : nat\nproc P = c!(1) . P\n",
     "2:18: error: unbound process name 'P'"),
    ("chan c : nat\nproc P = Q\nproc Q = c!(1) . 0\n",
     "2:10: error: unbound process name 'Q'"),
]


@pytest.mark.parametrize("text, diagnostic", [
    ("chan c : 5\n", "1:10: error: expected a type, found '5'"),
    ("chan c : [a : nat, a : nat]\n",
     "1:20: error: duplicate field label 'a' in signature"),
    ("chan c : nat\nsystem = c!(f o.[a <= 1]) . 0\n",
     "2:16: error: object update is not allowed here"),
    ("system = 0\nsystem = 0\n", "2:1: error: duplicate 'system' entry"),
    ("foo\n", "1:1: error: expected a top-level item, found 'foo'"),
    ("system = 5\n", "1:10: error: expected a process, found number '5'"),
    ("chan c : nat\nsystem = [[a = 1] = [a = 2]] c!(1) . 0\n",
     "2:10: error: match guards may not create or update objects"),
    ("chan c : nat\ndef f = fun (x : nat) x\nsystem = [f = f] c!(1) . 0\n",
     "3:10: error: functions are not comparable in match"),
    ("system = [[a = 1] = 1] c!(1) . 0\n",
     "1:10: error: match compares an object with a nat"),
    ("chan c : nat\nsystem = c!(1) . )\n",
     "2:18: error: expected a process, found ')'"),
    ("def f = succ(fun (x : nat) x)\n",
     "1:9: error: succ expects nat, got nat -> nat"),
    ("def f = rec (fun (x : nat) x) { z -> z | succ(p) with r -> r }\n",
     "1:9: error: rec scrutinee must be nat, got nat -> nat"),
    ("def f = z\nchan c : [a : nat]\nsystem = c!(f.[a <= 1]) . 0\n",
     "3:13: error: update target has non-object type nat"),
    ("chan c : nat\nsystem = c!(x) . 0\n", "2:13: error: unbound name 'x'"),
    # a payload's span is its expression's, inside any parentheses
    ("chan c : nat\nsystem = c!((x)) . 0\n", "2:14: error: unbound name 'x'"),
    *UNBOUND_PROCS,
    # the parser alone rejects ill-formed syntax: no later stage checks
    # these again
    ("def f = rec z { z -> z | succ(x) with x -> z }\n",
     "1:39: error: rec binders must be distinct"),
    ("chan c : [a : nat]\nsystem = c!([a = 1, a = 2]) . 0\n",
     "2:21: error: duplicate field label 'a'"),
    ("chan c : [a : nat]\nsystem = c?(o) . c!(o.[a <= 1, a <= 2]) . 0\n",
     "2:32: error: duplicate field label 'a'"),
    ("chan c : []\n", "1:11: error: expected 'ident', found ']'"),
    ("chan c : nat\nsystem = c!([]) . 0\n",
     "2:14: error: expected 'ident', found ']'"),
])
def test_check_diagnostic_text(capsys, tmp_path, text, diagnostic):
    path = write(tmp_path, text)
    code, out, err = invoke(capsys, "check", path)
    assert (code, err) == (2, f"{path}:{diagnostic}\n")


# the parser is the one resolver of process names, so skipping the
# checker skips no report of them
@pytest.mark.parametrize("command", ["run", "explore"])
@pytest.mark.parametrize("text, diagnostic", UNBOUND_PROCS)
def test_unbound_process_names_are_reported_unchecked(capsys, tmp_path,
                                                      text, diagnostic,
                                                      command):
    path = write(tmp_path, text)
    code, out, err = invoke(capsys, command, path, "--unchecked")
    assert (code, out, err) == (2, "", f"{path}:{diagnostic}\n")


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_fmt_reports_a_parse_fault_in_the_file(capsys, tmp_path, fmt):
    path = write(tmp_path, "chan c nat\n")
    code, out, err = invoke(capsys, "fmt", path, "--format", fmt)
    assert (code, out) == (2, "")
    if fmt == "records":
        assert json.loads(err) == {
            "file": path, "line": 1, "col": 8, "severity": "error",
            "message": "expected ':', found 'nat'"}
    else:
        assert err == f"{path}:1:8: error: expected ':', found 'nat'\n"


def test_parenthesized_arrow_domain_formats_and_runs(capsys, tmp_path):
    text = (
        "chan c : (nat -> nat) -> nat\n"
        "chan d : nat\n"
        "def apply = fun (f : nat -> nat) f 1\n"
        "system = c!(apply) . 0 | c?(g) . d!(g (fun (x : nat) succ(x))) . 0"
        " | d?(y) . 0\n"
    )
    code, out, _ = invoke(capsys, "fmt", write(tmp_path, text))
    assert (code, out) == (0, text)
    code, out, _ = invoke(capsys, "run", write(tmp_path, text))
    assert code == 0
    assert out.splitlines()[1:] == ["#1 comm d(2) pid3->pid2 eval=2",
                                    "#2 terminated"]


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin",
                        io.TextIOWrapper(io.BytesIO(b"system = 0\n")))
    code, out, err = invoke(capsys, "run", "-")
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("terminated")


def test_no_repl_rejects_replication(capsys, tmp_path):
    # reported once, at the first `!` in the source
    path = write(tmp_path, "chan c : nat\n"
                           "system = c!(1) . 0 | !c?(x) . 0 | !c!(2) . 0\n")
    code, out, err = invoke(capsys, "check", path, "--no-repl")
    assert code == 2
    assert err == f"{path}:2:22: error: replication is disabled (--no-repl)\n"
    code, out, err = invoke(capsys, "check", path, "--no-repl",
                            "--format", "records")
    assert code == 2
    record = json.loads(err)
    assert (record["file"], record["line"], record["col"]) == (path, 2, 22)
    assert record["message"] == "replication is disabled (--no-repl)"


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_no_repl_finds_a_replication_under_new(capsys, tmp_path, fmt):
    path = write(tmp_path, "chan c : nat\nsystem = c!(1) . 0 | c?(x) . 0\n")
    assert invoke(capsys, "check", path, "--no-repl", "--format", fmt) == (
        0, "", "")
    path = write(tmp_path, "chan c : nat\n"
                           "system = new r : nat in (!r!(1) . 0 | c!(1) . 0)\n")
    code, out, err = invoke(capsys, "check", path, "--no-repl",
                            "--format", fmt)
    assert (code, out) == (2, "")
    if fmt == "records":
        assert json.loads(err) == {
            "file": path, "line": 2, "col": 26, "severity": "error",
            "message": "replication is disabled (--no-repl)"}
    else:
        assert err == (f"{path}:2:26: error: replication is disabled"
                       " (--no-repl)\n")


def test_no_prelude_hides_stdlib_names(capsys, tmp_path):
    path = write(tmp_path, "def n = add 1 2\nsystem = 0\n")
    code, out, err = invoke(capsys, "check", path, "--no-prelude")
    assert code == 2


def test_block_size_flag_changes_block_count(capsys, tmp_path):
    path = write(
        tmp_path,
        "chan c : nat\nsystem = c!(blockCount 10) . 0 | c?(x) . 0\n",
    )
    code, out, err = invoke(capsys, "run", path)
    assert code == 0 and "c(3)" in out
    code, out, err = invoke(capsys, "run", path, "--block-size", "8")
    assert code == 0 and "c(2)" in out


def test_unchecked_skips_static_checking(capsys, tmp_path):
    # ill-sorted payload passes parsing; --unchecked defers it to runtime
    path = write(tmp_path, "chan c : chan(nat)\nsystem = c!(4) . 0\n")
    code, out, err = invoke(capsys, "check", path, "--unchecked")
    assert code == 0
    code, out, err = invoke(capsys, "check", path)
    assert code == 2


def test_unchecked_runtime_fault_reported(capsys, tmp_path):
    path = write(
        tmp_path,
        "chan c : chan(nat)\nsystem = c!(4) . 0 | c?(x) . 0\n",
    )
    code, out, err = invoke(capsys, "run", path, "--unchecked")
    assert code == 2
    assert "does not inhabit sort" in err


@pytest.mark.parametrize("command", ["run", "explore"])
def test_unchecked_object_sort_fault_points_at_the_payload(capsys, tmp_path,
                                                           command):
    path = write(tmp_path,
                 "chan c : [a : nat]\nsystem = c!(1) . 0 | c?(o) . 0\n")
    assert invoke(capsys, command, path, "--unchecked") == (2, "", (
        f"{path}:2:13: error: payload 1 does not inhabit sort [a : nat] "
        f"of channel 'c'\n"))


def test_a_large_step_count_is_reported_exactly(capsys, tmp_path):
    text = demo_text("filesystem.mlg").replace("write!(10)", "write!(100)")
    code, out, err = invoke(capsys, "run", write(tmp_path, text))
    assert (code, err) == (0, "")
    assert "#2 comm reserve(25) pid6->pid3 eval=1765023" in out.splitlines()


def test_a_payload_past_the_step_budget_is_a_diagnostic(capsys, tmp_path):
    path = write(tmp_path, "chan c : nat\n"
                           "system = c!(blockCount 1000) . 0 | c?(x) . 0\n")
    assert invoke(capsys, "run", path) == (2, "", (
        f"{path}:2:13: error: evaluation exceeded the 10000000-step budget\n"))


def test_check_records_format_diagnostics(capsys, tmp_path):
    path = write(tmp_path, "def a = z z\n")
    code, out, err = invoke(capsys, "check", path, "--format", "records")
    assert code == 2
    record = json.loads(err.strip().splitlines()[0])
    assert record["severity"] == "error"


# each program faults at run time at the payload, guard or def it names
RUNTIME_FAULTS = {
    "payload": ("chan c : nat\nsystem = c!(blockCount 300) . 0 | c?(y) . 0\n",
                "2:13", "evaluation exceeded the 1000-step budget"),
    "guard": ("chan c : nat\n"
              "system = [blockCount 300 = 1] c!(1) . 0 | c?(y) . 0\n",
              "2:11", "evaluation exceeded the 1000-step budget"),
    "def": ("chan c : nat\ndef big = blockCount 300\n"
            "system = c!(big) . 0 | c?(y) . 0\n",
            "2:1", "evaluation exceeded the 1000-step budget"),
    "sort": ("chan c : chan(nat)\nsystem = c!(4) . 0 | c?(x) . 0\n",
             "2:13", "payload 4 does not inhabit sort chan(nat)"),
    # a payload's span is its expression's, inside any parentheses
    "sort-parenthesized": ("chan c : chan(nat)\n"
                           "system = c!((4)) . 0 | c?(x) . 0\n",
                           "2:14", "payload 4 does not inhabit sort chan(nat)"),
    "update-target": ("def f = z\nchan c : [a : nat]\n"
                      "system = c!(f.[a <= 1]) . 0 | c?(y) . 0\n",
                      "3:13", "update target is not an object"),
    "object-in-guard": ("chan c : nat\n"
                        "system = [[a = 1] = c] c!(1) . 0 | c?(y) . 0\n",
                        "2:11", "object creation/update is not allowed in "
                                "a guard"),
    # a fault in the object store is placed as any other
    "store-payload": ("chan c : [a : nat]\nchan d : nat\n"
                      "system = c!([a = 1]) . 0 | c?(o) . d!(o.b) . 0"
                      " | d?(y) . 0\n",
                      "3:39", "object #0 has no field 'b'"),
    "store-guard": ("chan c : [a : nat]\nchan d : nat\n"
                    "system = c!([a = 1]) . 0 | c?(o) . [o.b = 1] d!(1) . 0"
                    " | d?(y) . 0\n",
                    "3:37", "object #0 has no field 'b'"),
    "store-update": ("chan c : [a : nat]\nchan d : [a : nat]\n"
                     "system = c!([a = 1]) . 0 | c?(o) . d!(o.[b <= 1]) . 0"
                     " | d?(y) . 0\n",
                     "3:39", "object #0 has no field 'b'"),
}


@pytest.mark.parametrize("command", ["run", "explore"])
@pytest.mark.parametrize("case", sorted(RUNTIME_FAULTS))
def test_runtime_faults_point_at_their_source(capsys, tmp_path, monkeypatch,
                                              command, case):
    # a small budget keeps the fuel faults fast
    monkeypatch.setattr(engine, "DEFAULT_FUEL", 1000)
    text, location, message = RUNTIME_FAULTS[case]
    path = write(tmp_path, text)
    code, out, err = invoke(capsys, command, path, "--unchecked")
    assert code == 2
    assert err.startswith(f"{path}:{location}: error: {message}")


def test_guard_comparison_fault_points_at_the_guard(capsys, tmp_path):
    path = write(tmp_path, "chan c : nat\n"
                           "system = c!(1) . 0 | c?(x) . [x = c] c!(x) . 0 "
                           "| c?(y) . 0\n")
    code, out, err = invoke(capsys, "run", path, "--unchecked",
                            "--seed", "1")
    assert code == 2
    assert err == f"{path}:2:30: error: match on incomparable values\n"


# variables and channels share one namespace: the innermost binder of a
# name wins, in `check` as at run time
SHADOWED = {
    # the receive rebinds c to a natural, so c!(2) names no channel
    "receive-rebinds-channel": (
        "chan c : nat\nsystem = c!(1) . 0 | c?(c) . c!(2) . 0 | c?(y) . 0\n",
        "2:30: error: unsorted channel 'c'"),
    # the restriction rebinds x to a channel, so succ(x) names no variable
    "new-rebinds-variable": (
        "def x = 1\nchan c : nat\n"
        "system = new x : nat in (c!(succ(x)) . 0 | c?(y) . 0)\n",
        "3:34: error: unbound variable 'x'"),
    # the receive rebinds c to a natural, which e carries
    "receive-binds-a-natural": (
        "chan c : nat\nchan e : nat\n"
        "system = e!(1) . 0 | e?(c) . e!(c) . 0 | e?(y) . 0\n", None),
}


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("case", sorted(SHADOWED))
def test_the_innermost_binder_wins(capsys, tmp_path, case, command):
    text, diagnostic = SHADOWED[case]
    path = write(tmp_path, text)
    argv = [command, path] + (["--seed", "1"] if command == "run" else [])
    code, out, err = invoke(capsys, *argv)
    if diagnostic is not None:
        assert (code, out, err) == (2, "", f"{path}:{diagnostic}\n")
    elif command == "check":
        assert (code, out, err) == (0, "", "")
    else:
        assert (code, err) == (0, "")
        assert out == ("#0 comm e(1) pid0->pid1\n#1 comm e(1) pid3->pid2\n"
                       "#2 terminated\n")


# programs that the checker rejects, run unchecked: (text, the seeds of
# 0-4 whose run faults, where each fault sits). A replication whose
# unfolding faults in a guard does not spawn, so its run never faults.
UNCHECKED_FAULTS = {
    "scope": (SHADOWED["receive-rebinds-channel"][0], {1, 2, 3, 4}, (2, 30)),
    "guard-fault": (HANDWRITTEN["guard-fault"][0], {1, 2, 3, 4}, (3, 30)),
    "replicated-guard-fault": (HANDWRITTEN["replicated-guard-fault"][0],
                               {0, 1, 2, 3, 4}, (3, 12)),
}


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("case", ["scope", *sorted(UNCHECKED)])
def test_unchecked_runtime_faults_point_at_their_source(capsys, tmp_path,
                                                        case, fmt):
    text, faulting, where = UNCHECKED_FAULTS[case]
    path = write(tmp_path, text)
    faulted = set()
    for seed in range(5):
        code, out, err = invoke(capsys, "run", path, "--unchecked",
                                "--seed", str(seed), "--format", fmt)
        if code != 2:
            continue
        faulted.add(seed)
        if fmt == "records":
            record = json.loads(err)
            assert (record["line"], record["col"]) == where
        else:
            assert err.startswith(f"{path}:{where[0]}:{where[1]}: error: ")
    assert faulted == faulting


def test_runtime_fault_records_name_the_file_and_span(capsys, tmp_path,
                                                      monkeypatch):
    monkeypatch.setattr(engine, "DEFAULT_FUEL", 1000)
    path = write(tmp_path, RUNTIME_FAULTS["payload"][0])
    code, out, err = invoke(capsys, "run", path, "--format", "records")
    assert code == 2
    record = json.loads(err)
    assert (record["file"], record["line"], record["col"]) == (path, 2, 13)


# no token holds a character outside ASCII, not even a Unicode letter or digit
@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("text, col", [
    ("def a = ²\n", 9), ("def café = z\n", 8), ("def a = ٣\n", 9),
], ids=["superscript-digit", "letter", "arabic-indic-digit"])
def test_non_ascii_is_an_unexpected_character(capsys, tmp_path, text, col,
                                              fmt):
    path = write(tmp_path, text)
    code, out, err = invoke(capsys, "check", path, "--format", fmt)
    assert code == 2
    if fmt == "records":
        record = json.loads(err)
        assert (record["file"], record["line"], record["col"]) == (path, 1,
                                                                    col)
        assert record["message"].startswith("unexpected character")
    else:
        assert err.startswith(f"{path}:1:{col}: error: unexpected character")


@pytest.mark.parametrize("command", ["check", "run", "explore"])
def test_static_check_diagnostics_name_the_file(capsys, tmp_path, command):
    path = write(tmp_path, "chan c : nat\nsystem = c!(add 1) . 0\n")
    code, out, err = invoke(capsys, command, path)
    assert code == 2
    assert err.startswith(f"{path}:2:10: error: channel 'c' carries nat")


BIG_NUMERAL = "chan c : nat\nsystem = c!(1000000) . 0 | c?(x) . 0\n"


@pytest.mark.parametrize("command, expected", [
    ("check", ""),
    ("fmt", BIG_NUMERAL),
    ("run", "#0 comm c(1000000) pid0->pid1\n#1 terminated\n"),
    ("explore", "states=2 edges=1 deadlocks=0 terminals=1 frontier=0\n"),
])
def test_big_numerals_are_one_literal(capsys, tmp_path, command, expected):
    path = write(tmp_path, BIG_NUMERAL)
    assert invoke(capsys, command, path) == (0, expected, "")


def test_big_numeral_argument_checks(capsys, tmp_path):
    path = write(tmp_path, "def a = add 100000 1\nsystem = 0\n")
    assert invoke(capsys, "check", path) == (0, "", "")


def _numeral_program(digits):
    numeral = "9" * digits
    return numeral, (f"chan c : nat\n"
                     f"system = c!(succ({numeral})) . 0 | c?(x) . 0\n")


@pytest.mark.parametrize("command", ["check", "fmt", "run", "explore"])
def test_a_numeral_at_the_digit_limit_runs(capsys, tmp_path, command):
    # its successor has one digit more, and prints too
    numeral, text = _numeral_program(MAX_NUMERAL_DIGITS)
    result = str(int(numeral) + 1)
    expected = {
        "check": "",
        "fmt": text.replace(f"succ({numeral})", result),
        "run": f"#0 comm c({result}) pid0->pid1\n#1 terminated\n",
        "explore": "states=2 edges=1 deadlocks=0 terminals=1 frontier=0\n",
    }[command]
    assert invoke(capsys, command, write(tmp_path, text)) == (0, expected, "")


@pytest.mark.parametrize("command", ["check", "fmt", "run", "explore"])
@pytest.mark.parametrize("text, col", [
    (_numeral_program(MAX_NUMERAL_DIGITS + 1)[1], 18),
    # past Python's own limit on reading an int, and under `succ`, which
    # `fmt` printed as one literal
    ("def a = " + "9" * 5000 + "\nsystem = 0\n", 9),
    ("def a = succ(" + "9" * 4300 + ")\nsystem = 0\n", 14),
])
def test_a_numeral_past_the_digit_limit_is_a_diagnostic(capsys, tmp_path,
                                                        command, text, col):
    path = write(tmp_path, text)
    line = 2 if text.startswith("chan") else 1
    assert invoke(capsys, command, path) == (2, "", (
        f"{path}:{line}:{col}: error: numeral has more than "
        f"{MAX_NUMERAL_DIGITS} digits\n"))


# long chains and wide `|` and `+` are walked by loops in every command
CD = "chan c : nat\nchan d : nat\n"


def _chain(n):
    sends = " . ".join(["c!(1) . d?(x)"] * (n // 2))
    receives = " . ".join(["c?(y) . d!(2)"] * (n // 2))
    return f"{CD}system = {sends} . 0 | {receives} . 0\n"


def _wide_par(n):
    inner = " | ".join(["d!(x) . 0"] * n)
    return f"{CD}system = c!(1) . 0 | c?(x) . ({inner})\n"


def _wide_sum(n):
    inner = " + ".join(f"c!({i}) . 0" for i in range(1, n + 1))
    return f"{CD}system = {inner} | c?(x) . 0\n"


def _twin_chains(n):
    # two members with equal keys, which explore compares
    chain = " . ".join(["c!(1)"] * n)
    return f"{CD}system = {chain} . 0 | {chain} . 0\n"


def _twin_pars(n):
    # two members with equal keys that each hold a wide `|`
    inner = " | ".join(["d!(1) . 0"] * n)
    return f"{CD}system = c!(1) . ({inner}) | c!(1) . ({inner})\n"


BIG_INPUTS = {
    "chain-2000": (_chain(2000), {"run": 0, "explore": 5}),
    "par-3000": (_wide_par(3000), {"run": 3, "explore": 3}),
    "sum-3000": (_wide_sum(3000), {"run": 0, "explore": 0}),
    "twin-1500": (_twin_chains(1500), {"run": 3, "explore": 3}),
    "twin-par-3000": (_twin_pars(3000), {"run": 3, "explore": 3}),
}


@pytest.mark.parametrize("command", ["check", "fmt", "run", "explore"])
@pytest.mark.parametrize("case", sorted(BIG_INPUTS))
def test_big_inputs_need_no_deep_recursion(capsys, tmp_path, case, command):
    text, codes = BIG_INPUTS[case]
    path = write(tmp_path, text)
    argv = [command, path] + (["--depth", "4"] if command == "explore" else [])
    code, out, err = invoke(capsys, *argv)
    assert code == codes.get(command, 0)
    assert "Traceback" not in err and "error" not in err
    if command == "fmt":
        assert out == text


# The parser recurses once per level of nested expressions, parentheses,
# `new` and `!`. Nesting deeper than that allows is a diagnostic at the
# token where parsing stopped, which is one of the nesting's own tokens.
NESTED = {
    "succ-250": (f"{CD}system = c!({'succ(' * 250}z{')' * 250}) . 0"
                 f" | c?(x) . 0\n", ("succ(", "(")),
    "parens-1500": (f"{CD}system = {'(' * 1500}c!(1) . 0{')' * 1500}"
                    f" | c?(x) . 0\n", ("(",)),
    "new-1500": (f"{CD}system = {'new e : nat in ' * 1500}c!(1) . 0"
                 f" | c?(x) . 0\n", ("new", "e", ":", "nat", "in")),
    "repl-1500": (f"{CD}system = {'!' * 1500}c!(1) . 0 | c?(x) . 0\n",
                  ("!",)),
}


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("case", sorted(NESTED))
def test_too_deep_nesting_is_a_diagnostic(capsys, tmp_path, case, command,
                                          fmt):
    text, stops = NESTED[case]
    path = write(tmp_path, text)
    code, out, err = invoke(capsys, command, path, "--format", fmt)
    assert (code, out) == (2, "")
    if fmt == "records":
        record = json.loads(err)
        assert record["file"] == path
        line, col, message = record["line"], record["col"], record["message"]
    else:
        where, message = err.rstrip("\n").split(": error: ")
        file, line, col = where.rsplit(":", 2)
        assert file == path
        line, col = int(line), int(col)
    assert (line, message) == (3, "nesting too deep")
    assert text.splitlines()[line - 1][col - 1:].startswith(stops)


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_an_unlocated_diagnostic_is_placed_at_the_start(capsys, tmp_path,
                                                        monkeypatch, fmt):
    def fail(program):
        raise MlgError("unlocated")

    monkeypatch.setattr(cli, "check_program", fail)
    path = write(tmp_path, "\n\nsystem = 0\n")
    code, out, err = invoke(capsys, "check", path, "--format", fmt)
    assert code == 2
    if fmt == "records":
        assert json.loads(err) == {"file": path, "line": 1, "col": 1,
                                   "severity": "error",
                                   "message": "unlocated"}
    else:
        assert err == f"{path}:1:1: error: unlocated\n"


# bytes that are not UTF-8: (input, exit code, what is printed on stderr)
NOT_UTF8 = {
    "bad-byte": (b"system = 0 \xff", 2,
                 "{file}:1:12: error: unexpected character '\\udcff'\n"),
    "latin-1-comment": (b"-- caf\xe9\nsystem = 0\n", 0, ""),
}


@pytest.mark.parametrize("case", sorted(NOT_UTF8))
def test_bytes_that_are_not_utf8_end_in_a_verdict(capsys, tmp_path, case):
    data, expected, diagnostic = NOT_UTF8[case]
    path = tmp_path / "input.mlg"
    path.write_bytes(data)
    code, out, err = invoke(capsys, "check", str(path))
    assert (code, err) == (expected, diagnostic.format(file=path))


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_a_file_and_stdin_read_the_same_lines(capsys, tmp_path, monkeypatch,
                                              newline, source):
    # a comment ends at the line's end, whichever way the line ends
    data = newline.join(["chan c : nat -- a comment",
                         "system = c!(add 1) . 0", ""]).encode()
    if source == "file":
        path = tmp_path / "input.mlg"
        path.write_bytes(data)
        name = str(path)
    else:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        name = "-"
    where = "<stdin>" if source == "stdin" else name
    assert invoke(capsys, "check", name) == (2, "", (
        f"{where}:2:10: error: channel 'c' carries nat but payload has sort "
        f"nat -> nat\n"))


@pytest.mark.parametrize("encoding", ["utf-8:strict", "ascii", "latin-1"])
@pytest.mark.parametrize("case", sorted(NOT_UTF8))
def test_stdin_is_read_as_utf8_whatever_the_locale(case, encoding):
    data, expected, diagnostic = NOT_UTF8[case]
    env = {**os.environ, "PYTHONPATH": str(Path(mlg.__file__).parent.parent),
           "PYTHONIOENCODING": encoding}
    done = subprocess.run([sys.executable, "-m", "mlg", "check", "-"],
                          input=data, env=env, capture_output=True)
    assert (done.returncode, done.stderr.decode()) == (
        expected, diagnostic.format(file="<stdin>"))


# each subcommand's options, written out: a new option fails until the table
# lists it. `fmt` only prints what it parses, so it takes no loading flag.
LOADING = {"--unchecked", "--no-prelude", "--no-repl", "--block-size"}
OPTIONS = {
    "check": {"input", "--format", *LOADING},
    "run": {"input", "--format", *LOADING, "--seed", "--max-steps"},
    "explore": {"input", "--format", *LOADING, "--depth", "--states",
                "--repl-budget", "--dot"},
    "fmt": {"input", "--format"},
}


def test_table_lists_every_option():
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    options = {
        name: {max(action.option_strings, default=action.dest)
               for action in parser._actions
               if not isinstance(action, argparse._HelpAction)}
        for name, parser in sub.choices.items()
    }
    assert options == OPTIONS


@pytest.mark.parametrize("flag", sorted(LOADING))
def test_fmt_rejects_the_loading_flags(capsys, flag):
    argv = [flag, "4"] if flag == "--block-size" else [flag]
    code, out, err = invoke(capsys, "fmt", str(demo_path("race.mlg")), *argv)
    assert (code, out) == (1, "")
    assert f"unrecognized arguments: {' '.join(argv)}" in err
