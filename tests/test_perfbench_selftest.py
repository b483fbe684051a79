"""The benchmark's self-test passes, so a digest mismatch fails here.

`perfbench/selftest.py` checks every workload's oracles at tiny sizes and
that the golden instances still produce the digests in
`perfbench/digests.json`.
"""

import subprocess
import sys

from conftest import REPO_ROOT


def test_perfbench_selftest_reports_no_problems():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=REPO_ROOT,
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("\n0 problems"), done.stdout
