"""Moore-Penrose inverse and its projectors by adjugate-analogue ledgers.

The paper gives two equivalent minor-sum representations.  The column form
("eq1") divides sums of column-replaced principal minors of the Gram matrix
A*A by d_r(A*A), the sum of its order-r principal minors; the row form
("eq2") does the dual with AA*.  The numerator matrices generalize the
classical adjugate: L @ A equals the denominator times the projector A+ A,
exactly as adjugate(A) @ A equals det(A) times the identity.
:func:`mp_inverse_columns` and :func:`mp_inverse_rows` evaluate them
literally, minor by minor, and stay as the reference path.  They share one
body; each form passes its Gram matrix, the Gram matrix with entry (i, j)'s
column or row replaced, and the index (i or j) every index set contains.
The body refuses a zero matrix, and a form of more than
``LITERAL_MINOR_BUDGET`` minors, before it forms A* or the Gram matrix.
It takes A's rank from a fresh sweep of its own and never reads or fills
the slot A keeps its results in.

``mp_inverse`` routes a zero matrix to the skeleton's zero ledger (0, 1),
tagged "zero", whatever the method; any other matrix goes to the literal
form that ``method`` "eq1" or "eq2" names.  The zero test reads A's pairs
alone.  Under "auto" it reads r = rank A from
:func:`adjinv.matrices.known_rank`, which a tall or wide A of full rank
and least dimension from ``elimination._INT_MIN`` answers by a certificate
modulo a prime and never sweeps; any other A reads its rank off the one
sweep it keeps (:func:`adjinv.matrices.sweep`).  It takes every ledger from
one kernel call (:mod:`adjinv.minors`) and dispatches on rank only to pick
the tag.  A square nonsingular matrix gets adj(A) / det(A)
("classical_inverse"): its classical inverse is its index-0 Drazin result
(:func:`adjinv.drazin.drazin_inverse`), solved from that sweep and kept
once, which this reads rather than forming again.  Every other rank takes
the Gram ledger N_r(A*A) @ A* = A* @ N_r(AA*) = d_r(A*A) A+ from full-rank
ledgers.  At full column rank it is adj(A*A) A* ("eq6", the determinant
form of (A*A)^-1 A*), at full row rank A* adj(AA*) ("eq7"); both read A
alone, so a certified A is never swept.  Below full rank the skeleton
A = C W^-1 R of the same sweep gives A+ = R+ W C+, two full-rank ledgers
around W.  A matrix deficient both ways is tagged "eq1" or "eq2", whichever form's
literal evaluation needs fewer minors by the budget's count.  A matrix
keeps that result (:func:`adjinv.matrices.kept`), so repeated calls and
the projectors share one kernel call; the literal forms are never kept.  A
least squares solve on A multiplies the kept numerators by its right side,
a classical inverse's scaled by conj(det A) (:mod:`adjinv.solvers`).  The
projectors A+ A and A A+ are the identity when that rank is n (m), and
otherwise the pseudoinverse A keeps, times A: A+ A = L A / d_r(A*A) for
the numerators L, the paper's projector ledger.  That product is Hermitian,
so it is formed on and above the diagonal and mirrored below
(:func:`adjinv.elimination.hermitian_matmul_pairs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import drazin, elimination, minors
from ._parallel import parallel_map
from .index_sets import enumerate_containing
from .matrices import (
    Matrix,
    conjugate_transpose,
    from_pairs,
    kept,
    known_rank,
    multiply,
    rank,
    replace_column,
    replace_row,
)
from .scalars import ZERO, Scalar


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


# Most numerator minors the literal forms evaluate (see _minor_count).  10 x 10
# at rank 5 needs 12,600 minors of order 5, 1.5 s on a 2-vCPU x86 host under
# Python 3.11, so this is about ten seconds.
LITERAL_MINOR_BUDGET = 100_000


def _minor_count(a: Matrix, size: int, r: int) -> int:
    """m n C(size - 1, r - 1), the numerator minors of a literal form whose Gram has order size."""
    return comb(size - 1, r - 1) * a.rows * a.cols


def _literal(a: Matrix, form: str, size: int, gram, replaced) -> PinvResult:
    """Numerator (i, j) sums the order-r principal minors of the matrix that
    ``replaced(G, A*, i, j)`` returns, over the sets containing the index it
    returns; G = ``gram(A, A*)`` has order ``size``."""
    if a.is_zero:
        raise ZeroMatrixError("zero matrix: minor-sum representation undefined, use mp_inverse")
    r = rank(a)
    minor_count = _minor_count(a, size, r)
    if minor_count > LITERAL_MINOR_BUDGET:
        raise ValueError(f"{form} needs {minor_count} minors, over the budget of "
                         f"{LITERAL_MINOR_BUDGET}; use --method auto (mp_inverse) instead")
    astar = conjugate_transpose(a)
    g = gram(a, astar)
    denom = minors.principal_minor_sum(g, r)

    def numerator(ij: tuple[int, int]) -> Scalar:
        target, required = replaced(g, astar, *ij)
        total = ZERO
        for sub in enumerate_containing(r, size, required):
            total = total + minors.minor(target, sub, sub)
        return total

    n, m = a.cols, a.rows
    nums = parallel_map(numerator, [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)])
    numerators = Matrix(n, m, nums)
    return PinvResult(minors.Ledger(numerators, denom).quotient(), denom, numerators, form)


def mp_inverse_columns(a: Matrix) -> PinvResult:
    """Column representation ("eq1"): l_ij / d_r(A*A), column i of A*A replaced by column j of A*."""
    return _literal(a, "eq1", a.cols, lambda a, astar: multiply(astar, a),
                    lambda gram, astar, i, j: (replace_column(gram, i, astar.column(j - 1)), i))


def mp_inverse_rows(a: Matrix) -> PinvResult:
    """Row representation ("eq2"): r_ij / d_r(AA*), row j of AA* replaced by row i of A*."""
    return _literal(a, "eq2", a.rows, lambda a, astar: multiply(a, astar),
                    lambda gram, astar, i, j: (replace_row(gram, j, astar.row(i - 1)), j))


def mp_inverse(a: Matrix, method: str = "auto") -> PinvResult:
    """Moore-Penrose inverse of any matrix, choosing the cheapest representation.

    ``method`` forces "eq1" or "eq2", whose literal forms never read or fill
    the slot ``a`` keeps its results in; "auto" dispatches on rank as
    described in the module docstring, and ``a`` keeps its result.  A zero
    matrix, whatever the method, gets the zero inverse, the unique solution
    of the defining equations, from the skeleton's zero ledger (0, 1),
    tagged "zero", and keeps it.
    """
    if method not in ("auto", "eq1", "eq2"):
        raise ValueError(f"unknown method {method!r}, expected eq1, eq2, or auto")
    if method != "auto" and not a.is_zero:
        return (mp_inverse_columns if method == "eq1" else mp_inverse_rows)(a)
    return kept(a, "pinv", _auto)


def _auto(a: Matrix) -> PinvResult:
    """The "auto" result of :func:`mp_inverse`, from one kernel call."""
    m, n = a.rows, a.cols
    r = known_rank(a)
    if r == n == m:
        res = drazin.drazin_inverse(a)
        return PinvResult(res.drazin_inverse, res.denominator, res.numerators, "classical_inverse")
    ledger = minors.skeleton_ledger(a)
    # Deficient both ways, eq1 and eq2 carry the same ledger.  Tag the form
    # whose literal evaluation needs fewer minors; ties go to the column form.
    tag = ("zero" if r == 0 else "eq6" if r == n else "eq7" if r == m
           else "eq1" if _minor_count(a, n, r) <= _minor_count(a, m, r) else "eq2")
    return PinvResult(ledger.quotient(), ledger.denominator, ledger.numerators, tag)


def projector_p(a: Matrix) -> Matrix:
    """The projector A+ A (n x n, Hermitian, idempotent).

    The identity at full column rank; otherwise the pseudoinverse ``a``
    keeps, times ``a``, formed on and above the diagonal and mirrored below.
    """
    full = known_rank(a) == a.cols
    return Matrix.identity(a.cols) if full else _hermitian(kept(a, "pinv", _auto).pseudo_inverse, a)


def projector_q(a: Matrix) -> Matrix:
    """The projector A A+ (m x m, Hermitian, idempotent).

    Dual of :func:`projector_p`: the identity at full row rank; otherwise
    ``a`` times the pseudoinverse it keeps, formed the same way.
    """
    full = known_rank(a) == a.rows
    return Matrix.identity(a.rows) if full else _hermitian(a, kept(a, "pinv", _auto).pseudo_inverse)


def _hermitian(x: Matrix, y: Matrix) -> Matrix:
    """The product x y, known to be Hermitian, over the scale :func:`multiply` gives it."""
    return from_pairs(elimination.hermitian_matmul_pairs(x.pairs, y.pairs), x.scale * y.scale)
