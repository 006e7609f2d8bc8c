"""Cramer-style solvers built on the adjugate-analogue ledgers.

``lsq_solve`` returns the minimal-norm least squares solution of A x = y.
Each component is a minor sum over the column-replaced Gram matrix A*A
divided by its order-r principal-minor sum ("eq14"); the whole numerator
vector is N_r(A*A) @ f = d_r(A*A) A+ y with f = A* y, that is L @ y for the
numerators L = N_r(A*A) @ A* of the pseudoinverse, just as adj(A) @ b is
Cramer's rule for every b.  A matrix that keeps its pseudoinverse
(:func:`adjinv.pinv.mp_inverse`, read by :func:`adjinv.matrices.held`) hands
over L and d_r(A*A), so the numerators are one product.  A kept classical
inverse does not serve: it is over det A, not over d_n(A*A) = |det A|^2.
Otherwise the skeleton of the sweep A keeps
(:func:`adjinv.minors.skeleton_ledger`) applies its factors to y, solving
r x r systems for one column each.  With full column rank N_r is the
classical adjugate and the components are the determinant ratios of
Cramer's rule over A*A and f ("eq13"): the skeleton's square factor drops
out, and one adjoint solve of A*A (of AA* for a square A) remains.
``lsq_solve_row_system`` solves the row form x A = y the same way with AA*
and g = y A*: g @ N_r(AA*) = ((A*)+ y*)* from the skeleton of A* (read
from the same elimination), or y @ L from the kept pseudoinverse, since
(A*)+ = (A+)* and d_r(AA*) = d_r(A*A) is real.  It is tagged
"row_eq_fullrank" at full row rank and "row_eq_general" otherwise.  A zero
matrix has rank 0, and the order-0 ledger (0, 1) is its zero solution.

``drazin_solve`` returns the Drazin-inverse solution of a square system:
the unique solution of the generalized normal equations A^(k+1) x = A^k y
lying in the range of A^k.  Its numerators are N_r(A^(k+1)) @ g with
g = A^k y ("eq16"); for a nonsingular matrix (index 0) that is adj(A) @ y,
the classical Cramer rule ("classical_cramer"), and for a nilpotent matrix
(core rank 0) the kernel's order-0 ledger, the zero vector over 1.  A
matrix that keeps its eq11 result (:func:`adjinv.drazin.drazin_inverse`)
hands over N = N_r(A^(k+1)) @ A^k and d_r(A^(k+1)), and the numerators are
N @ y, one product; at index 0 N is adj(A) over det(A), the classical
Cramer ledger exactly.  Otherwise the factors of the index chain A keeps
are applied to y, B_1 .. B_k adj(M_k)^(k+1) C_k .. C_1 y over
det(M_k)^(k+1), with k + 1 one-column adjoint solves on the core
(:mod:`adjinv.drazin`); at index 0 that is one solve from A's kept sweep,
so A is eliminated once.  Either way g = A^k y is k matrix-vector products.

No solve fills the slot A keeps its results in: a lone solve makes its
one-column ledger and forms neither the whole pseudoinverse nor the whole
Drazin inverse, which at index 0 would be the n x n inverse for one
classical Cramer solution.

Every solution is the kernel ledger's quotient
(:meth:`adjinv.minors.Ledger.quotient`), one exact division for the whole
vector.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import minors
from .drazin import _chain_ledger, _index_search
from .matrices import Matrix, conjugate_transpose, held, kept, multiply, require_square, sweep
from .scalars import Scalar


@dataclass(frozen=True)
class SolveReport:
    """A solution vector plus the numerator/denominator ledger behind it.

    ``solution[j] * denominator == numerators[j]`` componentwise and the
    denominator is never zero.  ``transformed_rhs`` is the right side the
    formulas actually consume (A* y, y A*, or A^k y).
    """

    solution: Matrix
    method: str  # eq13 | eq14 | row_eq_fullrank | row_eq_general | eq16 | classical_cramer
    denominator: Scalar
    numerators: tuple[Scalar, ...]
    transformed_rhs: Matrix


def _held_gram(a: Matrix):
    """The pseudoinverse ``a`` keeps, over d_r(A*A), or None (a classical inverse is over det A)."""
    res = held(a, "pinv")
    return None if res is None or res.representation_used == "classical_inverse" else res


def lsq_solve(a: Matrix, y: Matrix) -> SolveReport:
    """Minimal-norm least squares solution of A x = y (y is m x 1)."""
    if not (y.cols == 1 and y.rows == a.rows):
        raise ValueError(f"right side must be {a.rows}x1, got {y.rows}x{y.cols}")
    astar = conjugate_transpose(a)
    f = multiply(astar, y)
    res = _held_gram(a)
    ledger = (minors.Ledger(multiply(res.numerators, y), res.denominator) if res
              else minors.skeleton_ledger(a, y))
    method = "eq13" if sweep(a).rank == a.cols else "eq14"
    return SolveReport(ledger.quotient(), method, ledger.denominator, ledger.numerators.column(0), f)


def lsq_solve_row_system(y: Matrix, a: Matrix) -> SolveReport:
    """Minimal-norm least squares solution of the row system x A = y (y is 1 x n)."""
    if not (y.rows == 1 and y.cols == a.cols):
        raise ValueError(f"right side must be 1x{a.cols}, got {y.rows}x{y.cols}")
    astar = conjugate_transpose(a)
    g = multiply(y, astar)
    res = _held_gram(a)
    # y A+ = ((A*)+ y*)*, from the skeleton of A* that the sweep of A gives.
    ledger = (minors.Ledger(multiply(y, res.numerators), res.denominator) if res
              else minors.skeleton_ledger(a, conjugate_transpose(y), adjoint=True).adjoint())
    method = "row_eq_fullrank" if sweep(a).rank == a.rows else "row_eq_general"
    return SolveReport(ledger.quotient(), method, ledger.denominator, ledger.numerators.row(0), g)


def drazin_solve(a: Matrix, y: Matrix) -> SolveReport:
    """Drazin-inverse solution of a square system A x = y.

    Satisfies the generalized normal equations A^(k+1) x = A^k y exactly and
    lies in the range of A^k (k = index of A); equals drazin_inverse(a) @ y.
    """
    require_square(a, "Drazin solution")
    if not (y.cols == 1 and y.rows == a.rows):
        raise ValueError(f"right side must be {a.rows}x1, got {y.rows}x{y.cols}")
    k, g = kept(a, "index chain", _index_search)[0], y
    for _ in range(k):
        g = multiply(a, g)
    res = held(a, "eq11")
    ledger = minors.Ledger(multiply(res.numerators, y), res.denominator) if res else _chain_ledger(a, y)
    method = "classical_cramer" if k == 0 else "eq16"
    return SolveReport(ledger.quotient(), method, ledger.denominator, ledger.numerators.column(0), g)
