"""Cramer-style solvers built on the adjugate-analogue ledgers.

``lsq_solve`` returns the minimal-norm least squares solution of A x = y.
Each component is a minor sum over the column-replaced Gram matrix A*A
divided by its order-r principal-minor sum ("eq14"); the whole numerator
vector is N_r(A*A) @ f with f = A* y, one call of the characteristic-adjugate
kernel in its Gram form (:func:`adjinv.minors.gram_adjugate`).  With full
column rank N_r is the classical adjugate and the components are the
determinant ratios of Cramer's rule over A*A and f ("eq13").
``lsq_solve_row_system`` solves the row form x A = y the same way with AA*
and g = y A*: g @ N_r(AA*), tagged "row_eq_fullrank" at full row rank and
"row_eq_general" otherwise.

``drazin_solve`` returns the Drazin-inverse solution of a square system:
the unique solution of the generalized normal equations A^(k+1) x = A^k y
lying in the range of A^k.  Its numerators are N_r(A^(k+1)) @ g with
g = A^k y ("eq16"); for a nonsingular matrix (index 0) that is adj(A) @ y,
the classical Cramer rule ("classical_cramer").  The index search hands over
A^k and A^(k+1), and both go with g to the kernel
(:func:`adjinv.minors.char_adjugate`).

Every solution is the kernel ledger's quotient
(:meth:`adjinv.minors.Ledger.quotient`), one exact division for the whole
vector.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import minors
from .drazin import _index_powers, _Powers
from .matrices import Matrix, conjugate_transpose, multiply, rank
from .scalars import ONE, ZERO, Scalar


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


def lsq_solve(a: Matrix, y: Matrix) -> SolveReport:
    """Minimal-norm least squares solution of A x = y (y is m x 1)."""
    if not (y.cols == 1 and y.rows == a.rows):
        raise ValueError(f"right side must be {a.rows}x1, got {y.rows}x{y.cols}")
    n = a.cols
    astar = conjugate_transpose(a)
    f = multiply(astar, y)
    r = rank(a)
    if r == 0:
        # Zero system: the minimal-norm least squares solution is zero.  The
        # general formula degenerates cleanly (empty minor sums over an
        # order-0 family, with the empty principal-minor sum taken as 1).
        return SolveReport(Matrix.zeros(n, 1), "eq14", ONE, (ZERO,) * n, f)
    ledger = minors.gram_adjugate(a, r, y)
    method = "eq13" if r == n else "eq14"
    return SolveReport(ledger.quotient(), method, ledger.denominator, ledger.numerators.column(0), f)


def lsq_solve_row_system(y: Matrix, a: Matrix) -> SolveReport:
    """Minimal-norm least squares solution of the row system x A = y (y is 1 x n)."""
    if not (y.rows == 1 and y.cols == a.cols):
        raise ValueError(f"right side must be 1x{a.cols}, got {y.rows}x{y.cols}")
    m = a.rows
    astar = conjugate_transpose(a)
    g = multiply(y, astar)
    r = rank(a)
    if r == 0:
        return SolveReport(Matrix.zeros(1, m), "row_eq_general", ONE, (ZERO,) * m, g)
    # g N_r(AA*) = (N_r(AA*) A y*)*, since AA* and so N_r(AA*) are Hermitian.
    ledger = minors.gram_adjugate(astar, r, conjugate_transpose(y)).adjoint()
    method = "row_eq_fullrank" if r == m else "row_eq_general"
    return SolveReport(ledger.quotient(), method, ledger.denominator, ledger.numerators.row(0), g)


def drazin_solve(a: Matrix, y: Matrix) -> SolveReport:
    """Drazin-inverse solution of a square system A x = y.

    Satisfies the generalized normal equations A^(k+1) x = A^k y exactly and
    lies in the range of A^k (k = index of A); equals drazin_inverse(a) @ y.
    """
    if not a.is_square:
        raise ValueError(f"Drazin solution needs a square matrix, got {a.rows}x{a.cols}")
    if not (y.cols == 1 and y.rows == a.rows):
        raise ValueError(f"right side must be {a.rows}x1, got {y.rows}x{y.cols}")
    return _drazin_solution(_index_powers(a), y)


def _drazin_solution(p: _Powers, y: Matrix) -> SolveReport:
    """:func:`drazin_solve` from the index search result."""
    g = multiply(p.ak, y)
    if p.rank_core == 0:
        return SolveReport(Matrix.zeros(y.rows, 1), "eq16", ONE, (ZERO,) * y.rows, g)
    # At index 0, A^(k+1) = A and r = n, so the kernel gives adj(A) y and det(A).
    ledger = p.ledger(g)
    method = "classical_cramer" if p.index == 0 else "eq16"
    return SolveReport(ledger.quotient(), method, ledger.denominator, ledger.numerators.column(0), g)
