"""Time the integer kernels of ``adjinv.elimination`` and the matrix reader on seeded inputs and print one table.

    python tools/kernel_times.py [--sizes 8 12 20 40]

For each size n it builds one seeded nonsingular n x n matrix of random
integers of up to ``BITS`` bits, real and complex, and times:

- ``eliminate``: the fraction-free sweep of the matrix;
- ``certify``: ``full_rank_mod_p``, the full-rank certificate modulo a
  prime, on a seeded n x (n+4) matrix of full rank, where a tall or wide
  operation would otherwise sweep that matrix exactly;
- ``solve I`` and ``solve y``: ``adjoint_solve_pairs`` from that sweep, for
  the identity and for one column;
- ``A A``: ``matmul_pairs`` of the matrix with itself;
- ``A y``: ``matmul_pairs`` of the matrix with one column;
- ``factor``: ``row_factor_pairs`` from the sweep of a seeded n x n matrix
  of rank n/2, the product of random n x n/2 and n/2 x n factors;
- ``gram``: the whole Gram solve adj(F F*) z of a seeded n/2 x n F of full
  row rank and one seeded column z: F F* formed by ``hermitian_matmul_pairs``
  and solved by ``gram_solve_pairs``, one sweep of [F F* | z] and its back
  substitution;
- ``skeleton``: ``skeleton_ledger_pairs``, the Gram ledger of the
  pseudoinverse, from the sweep of the rank-n/2 matrix ``factor`` reads;
- ``chain``: the ledger stage of ``drazin._chain_ledger``, the Drazin
  ledger's products and adjoint solves, on a seeded matrix of index 2
  whose chain is already kept: S B S^-1 for B an invertible n/2 x n/2 core,
  a 2 x 2 nilpotent Jordan block and zeros, and S a unit lower times a unit
  upper triangular matrix of entries -1..1;
- ``charpoly``: ``adjinv.minors.char_poly_coeffs`` on the rank-n/2 matrix
  ``factor`` reads, rebuilt with ``from_pairs`` for each call, so each call
  is a fresh matrix's: the sweep, Cline's chain down to its core
  (``adjinv.matrices.index_chain``) and Berkowitz on that core;
- ``read``: ``adjinv.matrix_io.parse_matrix_text`` on the text of the
  matrix divided by a seeded scale of up to ``BITS`` bits, so that its
  tokens carry denominators;
- ``build``: ``Matrix(n, n, entries)`` on the same entries given as
  Fractions (complex ones as Scalars of Fractions), the other route into
  the exact format.  Neither takes a kernel, so the two real rows of
  ``read`` and of ``build`` time the same work.

Real inputs are timed twice, with ``elimination._INT_MIN`` set so that
every kernel runs on int rows and every back substitution in its dot form
("real int"), and so that every kernel runs on pairs with the back
substitution's row updates ("real pairs").  Complex inputs run on pairs at
the library's own gate, so their back substitutions take the dot form from
n = ``_INT_MIN`` up and row updates below it; the header names that size.

A row's kernels are timed in turn, one call each, for ``PASSES`` passes,
and each figure is a kernel's least time over them, in milliseconds.
Interleaving spreads a change in the host's speed over every kernel of the
row, so the ratio of two rows (real int over real pairs, the comparison
``_INT_MIN`` was fitted on) moves less between runs than the figures do.
Absolute figures still move between runs: a claim that one version of a
kernel is faster than another needs both versions timed in one process.
Uses only the standard library; a measuring aid, not a test.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from adjinv import drazin, elimination, matrix_io, minors  # noqa: E402
from adjinv.matrices import Matrix, from_pairs  # noqa: E402

KERNELS = ("eliminate", "certify", "solve I", "solve y", "A A", "A y", "factor", "gram", "skeleton", "chain",
           "charpoly", "read", "build")
BITS = 8  # bit size of the random entries
PASSES = 30  # timed calls of each kernel, one per pass


def _matrix(rng: random.Random, rows: int, cols: int, complex_entries: bool):
    top = (1 << BITS) - 1
    return [[(rng.randint(-top, top), rng.randint(-top, top) if complex_entries else 0)
             for _ in range(cols)] for _ in range(rows)]


def _full_rank(rng: random.Random, rows: int, cols: int, complex_entries: bool):
    while True:
        a = _matrix(rng, rows, cols, complex_entries)
        if elimination.eliminate(a).rank == min(rows, cols):
            return a


def _index_two(rng: random.Random, n: int, complex_entries: bool) -> Matrix:
    """S B S^-1 of index 2 for n >= 3 (see the module docstring); det S = 1, so S^-1 = adj(S) = X f."""
    half = n // 2
    b = [[(0, 0)] * n for _ in range(n)]
    for i, row in enumerate(_full_rank(rng, half, half, complex_entries)):
        b[i][:half] = row
    b[half][half + 1] = (1, 0)
    lower = [[(rng.randint(-1, 1) if j < i else int(i == j), 0) for j in range(n)] for i in range(n)]
    upper = [[(rng.randint(-1, 1) if j > i else int(i == j), 0) for j in range(n)] for i in range(n)]
    s = elimination.matmul_pairs(lower, upper)
    x, _, f = elimination.adjoint_solve_pairs(elimination.eliminate(s))
    return from_pairs(elimination.matmul_pairs(elimination.matmul_pairs(s, b), x), 1) * f


def kernel_times(n: int, complex_entries: bool) -> dict[str, float]:
    rng = random.Random(f"kernel_times:{n}:{BITS}:{complex_entries}")
    a = _full_rank(rng, n, n, complex_entries)
    y = _matrix(rng, n, 1, complex_entries)
    e = elimination.eliminate(a)
    half = max(n // 2, 1)
    product = elimination.matmul_pairs(_matrix(rng, n, half, complex_entries), _matrix(rng, half, n, complex_entries))
    deficient = elimination.eliminate(product)
    f = _full_rank(rng, half, n, complex_entries)
    f_star = elimination._conjugate_transpose(f)
    z = _matrix(rng, half, 1, complex_entries)
    scaled = from_pairs(a, rng.randint(2, 1 << BITS))
    text = matrix_io.format_matrix(scaled)
    entries = [e if e.im else e.re for row in scaled.row_lists() for e in row]
    wide = _full_rank(random.Random(f"kernel_times:certify:{n}:{BITS}:{complex_entries}"), n, n + 4, complex_entries)
    indexed = _index_two(rng, n, complex_entries)
    if drazin.index_of(indexed) != 2:  # keeps the chain and its core's sweep
        raise AssertionError("the chain input does not have index 2")
    calls = {
        "eliminate": lambda: elimination.eliminate(a),
        "certify": lambda: elimination.full_rank_mod_p(wide),
        "solve I": lambda: elimination.adjoint_solve_pairs(e),
        "solve y": lambda: elimination.adjoint_solve_pairs(e, y),
        "A A": lambda: elimination.matmul_pairs(a, a),
        "A y": lambda: elimination.matmul_pairs(a, y),
        "factor": lambda: elimination.row_factor_pairs(deficient),
        "gram": lambda: elimination.gram_solve_pairs(elimination.hermitian_matmul_pairs(f, f_star), z),
        "skeleton": lambda: elimination.skeleton_ledger_pairs(product, deficient),
        "chain": lambda: drazin._chain_ledger(indexed),
        "charpoly": lambda: minors.char_poly_coeffs(from_pairs(product, 1)),
        "read": lambda: matrix_io.parse_matrix_text(text),
        "build": lambda: Matrix(n, n, entries),
    }
    best = dict.fromkeys(calls, float("inf"))
    for _ in range(PASSES):
        for name, call in calls.items():
            t = time.perf_counter()
            call()
            best[name] = min(best[name], time.perf_counter() - t)
    return {name: t * 1e3 for name, t in best.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 12, 20, 40])
    args = parser.parse_args(argv)
    gate = elimination._INT_MIN
    print(f"milliseconds, least of {PASSES} interleaved passes; {BITS}-bit entries; the library takes int rows"
          f" and the dot-form back substitution from n = {gate}")
    print(f"{'n':>4} {'entries':<11}" + "".join(f"{k:>11}" for k in KERNELS))
    rows = (("real int", False, 0), ("real pairs", False, sys.maxsize), ("complex", True, gate))
    try:
        for n in args.sizes:
            for kind, complex_entries, int_min in rows:
                elimination._INT_MIN = int_min
                times = kernel_times(n, complex_entries)
                print(f"{n:>4} {kind:<11}" + "".join(f"{times[k]:>11.3f}" for k in KERNELS))
    finally:
        elimination._INT_MIN = gate
    return 0


if __name__ == "__main__":
    sys.exit(main())
