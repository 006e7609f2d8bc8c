"""The paper's two worked examples, recomputed and checked value by value.

Two small systems exercise every representation end to end: a rank-3
rectangular-style least squares problem (square coefficient matrix, rank
deficient) and a singular square system of index 2 solved through the Drazin
inverse.  Each example reads its coefficient matrix from the file the
package ships (``data/example1.mat`` and ``data/example2.mat``), and the
values the paper displays from ``data/paper_examples.txt``: named blocks,
each a line ``[name]`` and then one matrix in the same matrix-file format,
a scalar as a 1 x 1 matrix.  Both are read when an example runs; importing
this module reads no file.  Each example is one table of rows (label, the
value it computes, the value the data file gives), and one loop compares
each row exactly, so a wrong shipped file fails its rows.  ``run_all`` runs
both; the CLI exposes it as the ``paper-examples`` subcommand.
"""

from __future__ import annotations

import os
import re

from . import minors
from .drazin import drazin_inverse, index_of
from .matrices import conjugate_transpose, multiply, power, rank
from .matrix_io import MatrixFormatError, parse_matrix_file, parse_matrix_text
from .pinv import mp_inverse_columns
from .solvers import drazin_solve, lsq_solve

# The shipped files, read when an example runs, never at import.
_DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
_BLOCK = re.compile(r"^\[(.+)\]$", re.M)


def _expected() -> dict:
    """The blocks of ``paper_examples.txt`` by name, a 1 x 1 block as its one entry; a repeated name is refused."""
    with open(os.path.join(_DATA, "paper_examples.txt"), encoding="utf-8") as handle:
        text = handle.read()
    heads, blocks = list(_BLOCK.finditer(text)), {}
    for head, end in zip(heads, [h.start() for h in heads[1:]] + [len(text)]):
        line = text.count("\n", 0, head.end())
        if head[1] in blocks:
            raise MatrixFormatError(f"block [{head[1]}] is repeated", line + 1)
        # Blank lines in front keep the file's line numbers in a parse error.
        m = parse_matrix_text("\n" * line + text[head.end():end])
        blocks[head[1]] = m.at(0, 0) if m.shape == (1, 1) else m
    return blocks


def _checks(example: str, rows: list) -> list[tuple[str, bool]]:
    """Each (label, computed, expected) row as (label, exact match)."""
    return [(f"{example}: {label}", got == want) for label, got, want in rows]


def run_example1() -> list[tuple[str, bool]]:
    a, x = parse_matrix_file(os.path.join(_DATA, "example1.mat")), _expected()
    return _checks("example1", [
        ("rank(A) = 3", rank(a), x["example1.rank"]),
        ("conjugate transpose display", conjugate_transpose(a), x["example1.conjugate_transpose"]),
        ("Gram matrix A*A display", (gram := multiply(conjugate_transpose(a), a)), x["example1.gram"]),
        ("order-3 principal-minor sum of A*A = 102060", minors.principal_minor_sum(gram, 3),
         x["example1.denominator"]),
        ("numerator l11 = 25779", (res := mp_inverse_columns(a)).numerators.at(0, 0), x["example1.l11"]),
        ("denominator = 102060", res.denominator, x["example1.denominator"]),
        ("pseudoinverse numerator matrix", res.numerators, x["example1.numerators"]),
        ("pseudoinverse matrix", res.pseudo_inverse, x["example1.numerators"] * (1 / x["example1.denominator"])),
        ("transformed right side f = A*y", (rep := lsq_solve(a, x["example1.y"])).transformed_rhs, x["example1.f"]),
        ("solution by component minor sums", rep.solution, x["example1.solution"]),
        ("solution by pseudoinverse product", multiply(res.pseudo_inverse, x["example1.y"]), x["example1.solution"]),
    ])


def run_example2() -> list[tuple[str, bool]]:
    a, x = parse_matrix_file(os.path.join(_DATA, "example2.mat")), _expected()
    square, cube = power(a, 2), power(a, 3)
    return _checks("example2", [
        ("A^2 display", square, x["example2.square"]),
        ("A^3 display", cube, x["example2.cube"]),
        ("ranks of A, A^2, A^3 are 3, 2, 2", (rank(a), rank(square), rank(cube)), x["example2.ranks"].row(0)),
        ("index = 2", index_of(a), x["example2.index"]),
        ("order-2 principal-minor sum of A^3 = 8", minors.principal_minor_sum(x["example2.cube"], 2),
         x["example2.denominator"]),
        ("numerator d11 = 4", (res := drazin_inverse(a)).numerators.at(0, 0), x["example2.d11"]),
        ("denominator = 8", res.denominator, x["example2.denominator"]),
        ("Drazin inverse matrix", res.drazin_inverse, x["example2.drazin"]),
        ("transformed right side g = A^2 y", (rep := drazin_solve(a, x["example2.y"])).transformed_rhs,
         x["example2.g"]),
        ("solution by component minor sums", rep.solution, x["example2.solution"]),
        ("solution by Drazin-inverse product", multiply(res.drazin_inverse, x["example2.y"]), x["example2.solution"]),
    ])


def run_all() -> list[tuple[str, bool]]:
    """Recompute every golden value; each entry is (label, exact match)."""
    return run_example1() + run_example2()
