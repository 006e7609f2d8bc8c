"""Moore-Penrose inverse and its projectors by adjugate-analogue ledgers.

The paper gives two equivalent minor-sum representations.  The column form
("eq1") divides sums of column-replaced principal minors of the Gram matrix
A*A by d_r(A*A), the sum of its order-r principal minors; the row form
("eq2") does the dual with AA*.  The numerator matrices generalize the
classical adjugate: L @ A equals the denominator times the projector A+ A,
exactly as adjugate(A) @ A equals det(A) times the identity.
:func:`mp_inverse_columns` and :func:`mp_inverse_rows` evaluate them
literally, minor by minor, and stay as the reference path.

``mp_inverse`` takes every ledger from the characteristic-adjugate kernel
(:mod:`adjinv.minors`) and dispatches on rank only to pick the tag.  A square
nonsingular matrix gets adj(A) / det(A) ("classical_inverse").  Otherwise the
Gram form :func:`adjinv.minors.gram_adjugate` gives N_r(A*A) @ A* or its dual
A* @ N_r(AA*), which are equal; at full rank N_r is the classical adjugate,
so full column rank gives adj(A*A) A* ("eq6", the determinant form of
(A*A)^-1 A*) and full row rank A* adj(AA*) ("eq7").  A matrix deficient
both ways is tagged "eq1" or "eq2", whichever form's literal evaluation
needs fewer minors.  The projectors A+ A and A A+ are N_r(G) @ G / d_r(G)
for G = A*A and AA*, taken from the same kernel at every rank without
forming A+ first.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import minors
from ._parallel import parallel_map
from .index_sets import enumerate_containing
from .matrices import (
    Matrix,
    conjugate_transpose,
    multiply,
    rank,
    replace_column,
    replace_row,
)
from .scalars import ONE, ZERO, Scalar


class ZeroMatrixError(ValueError):
    """The minor-sum representations need a nonzero matrix."""


@dataclass(frozen=True)
class PinvResult:
    """A Moore-Penrose inverse together with its minor-sum ledger.

    ``pseudo_inverse`` is n x m.  For the "eq1" / "eq2" representations every
    entry times ``denominator`` equals the corresponding ``numerators`` entry;
    the denominator is the order-r principal-minor sum of the Gram matrix
    used and is never zero.
    """

    pseudo_inverse: Matrix
    denominator: Scalar
    numerators: Matrix
    representation_used: str  # eq1 | eq2 | eq6 | eq7 | classical_inverse | zero


# Most numerator minors (m n C(n-1, r-1) for eq1, m n C(m-1, r-1) for eq2) the
# literal forms evaluate.  10 x 10 at rank 5 needs 12,600 minors of order 5,
# 1.5 s on a 2-vCPU x86 host under Python 3.11, so this is about ten seconds.
LITERAL_MINOR_BUDGET = 100_000


def _literal_rank(a: Matrix, form: str, gram_size: int) -> int:
    """rank(a), once a is nonzero and its literal form fits the minor budget."""
    if a.is_zero:
        raise ZeroMatrixError("zero matrix: minor-sum representation undefined, use mp_inverse")
    r = rank(a)
    minor_count = comb(gram_size - 1, r - 1) * a.rows * a.cols
    if minor_count > LITERAL_MINOR_BUDGET:
        raise ValueError(f"{form} needs {minor_count} minors, over the budget of "
                         f"{LITERAL_MINOR_BUDGET}; use --method auto (mp_inverse) instead")
    return r


def mp_inverse_columns(a: Matrix) -> PinvResult:
    """Column representation: entries l_ij / d_r(A*A) ("eq1")."""
    r = _literal_rank(a, "eq1", a.cols)
    astar = conjugate_transpose(a)
    gram = multiply(astar, a)
    denom = minors.principal_minor_sum(gram, r)
    if not denom:
        raise ArithmeticError("principal-minor sum of A*A at the rank order vanished; this is a bug")
    n, m = a.cols, a.rows

    def numerator(ij: tuple[int, int]) -> Scalar:
        i, j = ij
        replaced = replace_column(gram, i, astar.column(j - 1))
        total = ZERO
        for beta in enumerate_containing(r, n, i):
            total = total + minors.minor(replaced, beta, beta)
        return total

    nums = parallel_map(numerator, [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)])
    numerators = Matrix(n, m, nums)
    return PinvResult(minors.Ledger(numerators, denom).quotient(), denom, numerators, "eq1")


def mp_inverse_rows(a: Matrix) -> PinvResult:
    """Row representation: entries r_ij / d_r(AA*) ("eq2")."""
    r = _literal_rank(a, "eq2", a.rows)
    astar = conjugate_transpose(a)
    gram = multiply(a, astar)
    denom = minors.principal_minor_sum(gram, r)
    if not denom:
        raise ArithmeticError("principal-minor sum of AA* at the rank order vanished; this is a bug")
    n, m = a.cols, a.rows

    def numerator(ij: tuple[int, int]) -> Scalar:
        i, j = ij
        replaced = replace_row(gram, j, astar.row(i - 1))
        total = ZERO
        for alpha in enumerate_containing(r, m, j):
            total = total + minors.minor(replaced, alpha, alpha)
        return total

    nums = parallel_map(numerator, [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)])
    numerators = Matrix(n, m, nums)
    return PinvResult(minors.Ledger(numerators, denom).quotient(), denom, numerators, "eq2")


def mp_inverse(a: Matrix, method: str = "auto") -> PinvResult:
    """Moore-Penrose inverse of any matrix, choosing the cheapest representation.

    ``method`` forces "eq1" or "eq2"; "auto" dispatches on rank as described
    in the module docstring.  The zero matrix short-circuits to the zero
    inverse, the unique solution of the defining equations.
    """
    if method not in ("auto", "eq1", "eq2"):
        raise ValueError(f"unknown method {method!r}, expected eq1, eq2, or auto")
    m, n = a.rows, a.cols
    if a.is_zero:
        zero = Matrix.zeros(n, m)
        return PinvResult(zero, ONE, zero, "zero")
    if method == "eq1":
        return mp_inverse_columns(a)
    if method == "eq2":
        return mp_inverse_rows(a)
    r = rank(a)
    # Full column rank takes the column form (eq6), full row rank the row
    # form (eq7).  Rank-deficient both ways, tag the form whose literal
    # evaluation needs fewer minors, C(n-1, r-1) versus C(m-1, r-1) per
    # entry; ties go to the column form.  Both tags carry the same ledger.
    if r == n == m:
        ledger = minors.char_adjugate(a, n, Matrix.identity(n))
        tag = "classical_inverse"
    elif r == n or (r < m and comb(n - 1, r - 1) <= comb(m - 1, r - 1)):
        ledger = minors.gram_adjugate(a, r)
        tag = "eq6" if r == n else "eq1"
    else:
        # A* N_r(AA*) = (N_r(AA*) A)*, since AA* and so N_r(AA*) are Hermitian.
        ledger = minors.gram_adjugate(conjugate_transpose(a), r).adjoint()
        tag = "eq7" if r == m else "eq2"
    return PinvResult(ledger.quotient(), ledger.denominator, ledger.numerators, tag)


def projector_p(a: Matrix) -> Matrix:
    """The projector A+ A (n x n, Hermitian, idempotent): N_r(A*A) @ A*A / d_r(A*A).

    At full column rank N_n(A*A) is the classical adjugate and the result is
    the identity.
    """
    if a.is_zero:
        return Matrix.zeros(a.cols, a.cols)
    return minors.gram_adjugate(a, rank(a), a).quotient()


def projector_q(a: Matrix) -> Matrix:
    """The projector A A+ (m x m, Hermitian, idempotent): N_r(AA*) @ AA* / d_r(AA*).

    Dual of :func:`projector_p`.
    """
    if a.is_zero:
        return Matrix.zeros(a.rows, a.rows)
    astar = conjugate_transpose(a)
    return minors.gram_adjugate(astar, rank(a), astar).quotient()
