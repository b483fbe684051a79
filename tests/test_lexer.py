"""The regex lexer against the character-by-character lexer it replaced.

`char_tokenize` below is that lexer, kept only as the reference: it moves
through the text one character at a time and counts lines and columns as it
goes. Both must give the same (kind, text, start, end, line, col) tuples,
the eof token included, where the regex lexer's end is its start plus the
length of its text and its line and column are `line_col` of its start.
Every offset the parser puts on a node must be the start of a reference
token of a kind the grammar allows there.
"""

import random
from pathlib import Path

import pytest

from conftest import DEMOS

from mlg import syntax as S
from mlg.diagnostics import DUMMY_SPAN, MlgError, line_col
from mlg.parser import KEYWORDS, parse_program, tokenize
from mlg.prelude import prelude_source
from mlg.pretty import pretty_expr, pretty_program

from termgen import gen_closed_nat_term, gen_proc, proc_program

SYMBOLS = ["->", "<=", "(", ")", "[", "]", "{", "}",
           ".", ",", ":", "!", "?", "+", "|", "="]


def char_tokenize(text):
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)

    def advance(k):
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                advance(1)
            continue
        start, start_line, start_col = i, line, col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            advance(j - i)
            kind = word if word in KEYWORDS else "ident"
            tokens.append((kind, word, start, j, start_line, start_col))
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            advance(j - i)
            tokens.append(("number", text[start:j], start, j, start_line,
                           start_col))
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                advance(len(sym))
                tokens.append((sym, sym, start, i, start_line, start_col))
                break
        else:
            raise ValueError(f"unexpected character {ch!r}")
    tokens.append(("eof", "", n, n, line, col))
    return tokens


def flat(source):
    tokens = tokenize(source)
    return [(kind, text, start, start + len(text), *line_col(source, start))
            for kind, text, start in zip(tokens.kinds, tokens.texts,
                                         tokens.starts)]


def assert_same_tokens(text):
    assert flat(text) == char_tokenize(text)


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.mlg")),
                         ids=lambda p: p.name)
def test_demo_tokens_match_char_lexer(path):
    assert_same_tokens(Path(path).read_text(encoding="utf-8"))


def test_prelude_tokens_match_char_lexer():
    assert_same_tokens(prelude_source())


def test_generated_program_tokens_match_char_lexer():
    rng = random.Random(5)
    for _ in range(100):
        assert_same_tokens(pretty_program(proc_program(gen_proc(rng, 5))))
        assert_same_tokens(pretty_expr(gen_closed_nat_term(rng)))


def spanned_nodes(node):
    """Every node under `node` that the parser gave an offset."""
    stack, found = [node], []
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.extend(node)
        elif isinstance(node, S.Node):
            if getattr(node, "span", DUMMY_SPAN) != DUMMY_SPAN:
                found.append(node)
            stack.extend(getattr(node, name) for name in node._fields)
    return found


# the kinds of token a node's offset may start, where the grammar fixes them
STARTS = {
    S.Name: {"ident"}, S.Var: {"ident"}, S.ProcRef: {"ident"},
    S.NatLit: {"number", "z", "succ"}, S.Succ: {"succ"},
    S.Lambda: {"fun"}, S.Rec: {"rec"}, S.MakeObject: {"["},
    S.Send: {"ident"}, S.Receive: {"ident"}, S.Match: {"["},
    S.Prefix: {"ident", "["}, S.Nil: {"number"}, S.Repl: {"!"},
    S.Restrict: {"new"}, S.Sum: {"+"},
    S.DefDef: {"def"}, S.ChanDecl: {"chan"}, S.ProcDef: {"proc"},
}


def assert_spans_are_tokens(text):
    kinds = {start: kind for kind, _, start, *_ in char_tokenize(text)}
    nodes = spanned_nodes(parse_program(text))
    assert nodes
    for node in nodes:
        assert node.span in kinds, node
        kind = kinds[node.span]
        assert kind in STARTS.get(type(node), {kind}), node


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.mlg")),
                         ids=lambda p: p.name)
def test_demo_node_spans_are_char_lexer_tokens(path):
    assert_spans_are_tokens(Path(path).read_text(encoding="utf-8"))


def test_prelude_node_spans_are_char_lexer_tokens():
    assert_spans_are_tokens(prelude_source())


def test_generated_program_node_spans_are_char_lexer_tokens():
    rng = random.Random(5)
    for _ in range(100):
        assert_spans_are_tokens(pretty_program(proc_program(gen_proc(rng, 5))))


@pytest.mark.parametrize("text", [
    "def a = z\r\nsystem = 0\r\n",
    "\tdef\ta =\t\tsucc(z)\n\t system = 0",
    "def f = fun (x : nat) x --> not an arrow\nsystem = 0\n",
    "def a = z -- no newline at the end",
    "--",
    "",
    "\n",
    "system = 0\n",
    "a->b<=c-- c\n\n\n  x",
], ids=["crlf", "tabs", "comment-arrow", "comment-at-eof", "bare-comment",
        "empty", "newline", "trailing-newline", "dense"])
def test_hand_cases_match_char_lexer(text):
    assert_same_tokens(text)


def test_unexpected_character_is_located_on_its_line():
    text = "def a = z\n  -1\n"
    with pytest.raises(MlgError) as exc:
        parse_program(text)
    assert exc.value.diagnostics[-1].render(text, "f.mlg") == (
        "f.mlg:2:3: error: unexpected character '-'")


def test_literal_nodes_keep_their_spans():
    text = "def a = succ(41)\ndef b = 1000000\n"
    defs = parse_program(text).comp_defs()
    assert defs[0].span == 0  # the first token's offset is a span too
    a, b = (d.body for d in defs)
    assert a == S.NatLit(42) and text.startswith("succ", a.span)
    assert b == S.NatLit(10**6) and line_col(text, b.span) == (2, 9)
