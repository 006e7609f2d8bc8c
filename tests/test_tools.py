"""The measuring tools under ``tools/``, each run in a child process."""

import json
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


def _ab(expression: str):
    """The value, through JSON, of ``expression`` in a child process where ``ab`` is ``tools/ab.py`` loaded as a
    module.  A child, because the tool puts the checkout's ``src`` first on ``sys.path`` as it loads, and this
    process must keep importing the package it was started with."""
    code = ("import json, runpy, sys, types; ab = types.SimpleNamespace(**runpy.run_path(sys.argv[1]));"
            f" print(json.dumps({expression}))")
    done = subprocess.run([sys.executable, "-c", code, str(TOOLS / "ab.py")], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _verdicts(**per_op) -> dict:
    """The verdict of each row of ``ab.summarize`` on these (parent seconds, change seconds) pairs."""
    report = _ab(f"ab.summarize({per_op!r})")
    return {key: report[key]["verdict"] for key in per_op}


def test_ab_verdict_needs_nine_wins_in_ten_pairs_and_a_gap_above_the_spread():
    parent = [1.0 + i / 100 for i in range(10)]  # a quartile spread of 0.045
    assert _verdicts(
        all_won=[(p, p / 2) for p in parent],
        nine_won=[(p, p / 2) for p in parent[:9]] + [(parent[9], 2.0)],
        eight_won=[(p, p / 2) for p in parent[:8]] + [(p, 2.0) for p in parent[8:]],
        all_lost=[(p, 2 * p) for p in parent],
        nine_pairs=[(p, p / 2) for p in parent[:9]],
        # Every pair won, by less than the spread of the parent's own times.
        within_spread=[(float(i), i - 0.1) for i in range(1, 11)],
        # Ties count for neither side: nine wins and a tie is nine wins, eight and two ties is eight.
        nine_won_one_tie=[(1.0, 0.5)] * 9 + [(1.0, 1.0)],
        eight_won_two_ties=[(1.0, 0.5)] * 8 + [(1.0, 1.0)] * 2,
        all_tied=[(1.0, 1.0)] * 10,
    ) == dict(all_won="faster", nine_won="faster", eight_won="unresolved", all_lost="slower",
              nine_pairs="unresolved", within_spread="unresolved", nine_won_one_tie="faster",
              eight_won_two_ties="unresolved", all_tied="unresolved")


def test_ab_slopes_fit_log_time_against_log_n_per_kernel_cell():
    report = {"n=20 real/eliminate": {"change_ms": 8.0}, "n=10 real/eliminate": {"change_ms": 1.0},
              "n=40 real/eliminate": {"change_ms": 32.0}, "n=10 complex/eliminate": {"change_ms": 1.0},
              "pinv-deficient/mp_inverse": {"change_ms": 5.0}}
    # Smallest n first; a workload row, and a cell at one size only, have no slope.
    assert _ab(f"ab.slopes({report!r})") == {"real/eliminate": [3.0, 2.0]}


def test_ab_refuses_a_repeated_size_before_reading_any_revision():
    done = subprocess.run([sys.executable, str(TOOLS / "ab.py"), "no-such-revision", "--sizes", "8", "12", "8"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert "--sizes must not repeat a size" in done.stderr


def test_ab_refuses_an_unknown_revision_by_name_before_extracting_it():
    done = subprocess.run([sys.executable, str(TOOLS / "ab.py"), "no-such-revision", "--sizes", "8"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert "no commit named 'no-such-revision'" in done.stderr
    assert "Traceback" not in done.stderr
