"""The measuring tools under ``tools/`` run as scripts."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_code_lines_leaves_quietly_when_its_reader_closes_the_pipe():
    # Unbuffered, each count is written as it is made, so the writes after the
    # first line meet the closed pipe.
    one = str(TOOLS / "code_lines.py")
    child = subprocess.Popen([sys.executable, "-u", one, *[one] * 200], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
    assert child.stdout.readline().endswith("code_lines.py\n")
    child.stdout.close()
    assert (child.wait(timeout=120), child.stderr.read()) == (141, "")
    child.stderr.close()
