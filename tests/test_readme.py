"""README's worked examples, run through the command line. The programs are
read from README itself, so the text and the behaviour it states cannot
drift apart."""

from conftest import REPO_ROOT
from test_cli import invoke, write


def fenced_blocks(text: str) -> list[str]:
    blocks, lines = [], None
    for line in text.splitlines(keepends=True):
        if line.startswith("```"):
            if lines is None:
                lines = []
            else:
                blocks.append("".join(lines))
                lines = None
        elif lines is not None:
            lines.append(line)
    return blocks


BLOCKS = [block for block in fenced_blocks(
    (REPO_ROOT / "README.md").read_text(encoding="utf-8"))
    if "system =" in block]


def block(marker: str) -> str:
    (found,) = [b for b in BLOCKS if marker in b]
    return found


def test_every_program_block_is_tested():
    assert len(BLOCKS) == 4


def test_a_receive_rebinds_a_channel(capsys, tmp_path):
    path = write(tmp_path, block("c?(c)"))
    assert invoke(capsys, "check", path) == (
        2, "", f"{path}:2:30: error: unsorted channel 'c'\n")


def test_a_restriction_rebinds_a_variable(capsys, tmp_path):
    path = write(tmp_path, block("new x"))
    assert invoke(capsys, "check", path) == (
        2, "", f"{path}:3:34: error: unbound variable 'x'\n")


def test_a_definition_runs_in_its_own_scope(capsys, tmp_path):
    path = write(tmp_path, block("proc P"))
    # P sends 1, the x of its definition's scope, not the 5 received
    assert invoke(capsys, "run", path, "--seed", "1") == (
        0, "#0 comm c(5) pid1->pid0\n#1 comm c(1) pid3->pid2\n"
           "#2 terminated\n", "")


def test_the_file_system_example_runs(capsys, tmp_path):
    path = write(tmp_path, block("proc User"))
    assert invoke(capsys, "check", path) == (0, "", "")
    code, out, err = invoke(capsys, "run", path)
    assert (code, err) == (0, "")
    assert out.endswith("terminated\n")
