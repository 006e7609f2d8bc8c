"""Byte-for-byte replay of recorded CLI runs.

``tests/data/cli_snapshots.json`` holds the stdout, stderr and exit code of
every subcommand on the two bundled example files and eight small inputs
below (a complex rank-deficient tall matrix, a wide one, a complex matrix of
Drazin index 3, the rank-0 cases: a zero matrix and a complex nilpotent
one, and the full-rank cases: a nonsingular matrix, a tall one of full
column rank and a complex wide one of full row rank), each with the default
output, ``--json`` and ``--decimal 6``, and with ``--rhs`` and ``--rhs-file`` where a subcommand
takes a right side.  Five runs at the end read a ninth input, a complex
square matrix of rank 3 whose rows carry contents and whose entries each
have a denominator of their own (row i scaled by k_i / p_i, column j by
1 / q_j), so the sweep divides out row contents and the skeleton column
contents.  A change to the library must reproduce every byte.

To record the file again from the current code (only when an output is
meant to change), run ``PYTHONPATH=src python tests/test_cli_snapshots.py``
from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from importlib import resources
from pathlib import Path

from adjinv import cli

SNAPSHOTS = Path(__file__).with_name("data") / "cli_snapshots.json"

INPUTS = {
    "tall.mat": """5 3
9/8+1i -2/3-1/6i 3/2i
2-1/4i -1/3 2+2i
3/8-1/12i 1/3+3/2i -3/2+1/3i
1/4-1/2i 4/3i -3/4-1/2i
7/2+1/4i -3+2i 1+1/2i
""",
    "wide.mat": """4 5
2 2-1/2i 2/5-3i 1i 4+1i
-1 -5/6 4/5 1/3-1i -7/3
1/2-1i 1/2-1i 1/10-1/5i 1+1/2i 1-2i
1 0 -29/5 -2+1i 4
""",
    "index3.mat": """6 6
9/4+1/2i 3/4+3/2i 0 -1/4-1/2i 1/4+1/2i 0
-15/8+1/4i -15/8+3/4i 0 5/8-1/4i -1/8+1/4i 0
9/8+1/4i -5/8+3/4i 0 7/8-1/4i -7/8+1/4i 0
-5/4+1/2i -3/2+3/2i 0 1/2-1/2i 1+1/2i 0
9/8+1/4i 3/8+3/4i 0 -1/8-1/4i 1/8+1/4i 0
-21/8-1/4i -3/2-3/4i 0 1/2+1/4i -1/4-1/4i 0
""",
    "zero.mat": """3 2
0 0
0 0
0 0
""",
    "nilpotent.mat": """3 3
0 1 2i
0 0 -1/3
0 0 0
""",
    "nonsingular.mat": """3 3
2 -1/2 1
1/3 4 -2
0 3/2 5/4
""",
    "fullcol.mat": """5 3
1 -2 1/2
3/4 0 2
-1 5/3 -1/2
2 1 0
0 -1/4 3
""",
    "fullrow.mat": """3 5
1+1i -1/2 2i 3 -1+1/3i
0 2-1i 1/4 -1i 5/2
-3/2+1/2i 1 0 1/3 1-2i
""",
    "scaled.mat": """4 4
4/7 -6/35+6/35i 18/133 0
65/33 26/11 -65/209 65/253i
10/13 2/13+2/13i 20/247 10/299i
0 36/85 9/323-18/323i -9/391
""",
}

# (rows, cols) of each input; the right sides are built from them.
SHAPES = {"example1.mat": (4, 4), "example2.mat": (4, 4), "tall.mat": (5, 3),
          "wide.mat": (4, 5), "index3.mat": (6, 6), "zero.mat": (3, 2), "nilpotent.mat": (3, 3),
          "nonsingular.mat": (3, 3), "fullcol.mat": (5, 3), "fullrow.mat": (3, 5)}

PLAIN = ("pinv", "drazin", "group-inverse", "proj-p", "proj-q", "drazin-a", "rank", "index",
         "charpoly")
# subcommand -> orientation of its right side: length m for "column", n for "row"
WITH_RHS = {"solve-lsq": "column", "solve-row": "row", "solve-drazin": "column",
            "verify": "column"}
FORMATS = ([], ["--json"], ["--decimal", "6"])

RHS_TOKENS = ("1", "-2/3+1i", "5/2", "1/7i", "-4", "3-1/2i")


def _rhs(length: int) -> str:
    return " ".join(RHS_TOKENS[:length])


def write_inputs(directory: Path) -> None:
    """The eleven matrix files and the right-side files of the first ten, by relative name."""
    for name in ("example1.mat", "example2.mat"):
        text = resources.files("adjinv").joinpath(f"data/{name}").read_text(encoding="utf-8")
        (directory / name).write_text(text, encoding="utf-8")
    for name, text in INPUTS.items():
        (directory / name).write_text(text, encoding="utf-8")
    for name, (m, n) in SHAPES.items():
        stem = name[:-4]
        (directory / f"{stem}.col").write_text(f"{m} 1\n" + _rhs(m).replace(" ", "\n") + "\n",
                                              encoding="utf-8")
        (directory / f"{stem}.row").write_text(f"1 {n}\n{_rhs(n)}\n", encoding="utf-8")


def argvs() -> list[list[str]]:
    runs = []
    for name, (m, n) in SHAPES.items():
        stem = name[:-4]
        for fmt in FORMATS:
            for sub in PLAIN:
                runs.append([sub, name, *fmt])
            for sub, orientation in WITH_RHS.items():
                length, suffix = (n, "row") if orientation == "row" else (m, "col")
                runs.append([sub, name, "--rhs", _rhs(length), *fmt])
                runs.append([sub, name, "--rhs-file", f"{stem}.{suffix}", *fmt])
            runs.append(["verify", name, *fmt])
        for method in ("eq1", "eq2"):
            runs.append(["pinv", name, "--method", method])
    for fmt in FORMATS:
        runs.append(["paper-examples", *fmt])
    rhs = _rhs(4)
    runs += [["pinv", "scaled.mat"], ["pinv", "scaled.mat", "--json"], ["solve-lsq", "scaled.mat", "--rhs", rhs],
             ["drazin", "scaled.mat"], ["verify", "scaled.mat", "--rhs", rhs]]
    return runs


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_cli_output_matches_snapshots(tmp_path, monkeypatch):
    recorded = json.loads(SNAPSHOTS.read_text(encoding="utf-8"))
    assert [r["argv"] for r in recorded] == argvs()
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    mismatched = [r["argv"] for r in recorded if run(r["argv"]) != r]
    assert not mismatched, f"{len(mismatched)} of {len(recorded)} runs differ, first {mismatched[0]}"


def _record() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            runs = [run(argv) for argv in argvs()]
        finally:
            os.chdir(here)
    SNAPSHOTS.parent.mkdir(exist_ok=True)
    SNAPSHOTS.write_text(json.dumps(runs, indent=0, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(runs)} runs in {SNAPSHOTS}", file=sys.stderr)


if __name__ == "__main__":
    _record()
