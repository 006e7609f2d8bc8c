"""Matrix index, Drazin and group inverses, and the A^D A projector.

The index of a square matrix is the smallest k >= 0 at which the rank of
A^(k+1) stops dropping below the rank of A^k.  With r = rank A^k, the
paper's representation ("eq11") gives the Drazin inverse entry (i, j) as the
sum, over all order-r principal index sets containing i, of minors of
A^(k+1) with column i replaced by the j-th column of A^k, divided by the
order-r principal-minor sum of A^(k+1).  The whole numerator matrix, the
adjugate analogue for this inverse, is N_r(A^(k+1)) @ A^k.

Both the index and that ledger come from Cline's shrinking chain (R. E.
Cline, SIAM J. Numer. Anal. 5(1), 1968; Ben-Israel and Greville,
*Generalized Inverses*, 2nd ed., 2003, ch. 4), never from a power of A.
Factor M_0 = A as B_1 C_1 with B_1 the pivot columns of A's kept sweep and
C_1 = W^-1 R (:func:`adjinv.elimination.row_factor_pairs`); then
M_1 = C_1 B_1 is r_1 x r_1 and rank A^2 = rank M_1, and so on.  The index k
is the first i at which M_i is nonsingular, and r = rank A^k is its size;
an M_i of rank 0 means A is nilpotent.  So

    A^D = B_1 .. B_k M_k^-(k+1) C_k .. C_1,   d_r(A^(k+1)) = det(M_k)^(k+1),

and the eq11 numerators are B_1 .. B_k adj(M_k)^(k+1) C_k .. C_1: k + 1
adjoint solves on the core's sweep (:func:`adjinv.minors.char_adjugate`)
and products with the factors.  The ledger is unique, so these are the
numbers the minor sums give.  Only A's own sweep is n x n; every later sweep
is of an r_i x r_i M_i, kept in lowest terms.

A matrix keeps its chain and its eq11 result (:func:`adjinv.matrices.kept`),
so its operations share one search and :func:`drazin_inverse` and
:func:`group_inverse` share one ledger; the projector A^D A is the kept
inverse times A.  :func:`group_inverse` refuses index 2 or more from the
chain alone.  :func:`adjinv.solvers.drazin_solve` multiplies the eq11
numerators A keeps by y, one product; on a matrix that keeps no eq11 result
it applies the chain's factors to y and keeps nothing.

A nonsingular matrix has index 0, so A^k = I, A^(k+1) = A and r = n; the
chain is A's kept sweep alone, and one adjoint solve from it gives
adj(A) / det(A), the classical inverse, so A is eliminated once.  A
nilpotent matrix has core rank 0, and the kernel's order-0 ledger (0, 1)
gives the zero matrix, the unique solution of the defining equations in
that case.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import elimination, minors
# ``rank`` stays bound here for the benchmark's tracer, which wraps adjinv.drazin.rank by name.
from .matrices import Matrix, from_pairs, kept, multiply, rank, require_square, sweep  # noqa: F401
from .scalars import ONE, Scalar


class GroupInverseError(ValueError):
    """Raised when the group inverse does not exist (index >= 2)."""


@dataclass(frozen=True)
class DrazinResult:
    """A Drazin inverse with the minor-sum ledger that produced it.

    Every ``drazin_inverse`` entry times ``denominator`` equals the
    corresponding ``numerators`` entry; the denominator is the order-r
    principal-minor sum of A^(index+1) (1 at core rank 0) and cannot vanish.
    """

    drazin_inverse: Matrix
    index: int
    rank_core: int
    denominator: Scalar
    numerators: Matrix


def _index_search(a: Matrix) -> tuple:
    """Cline's chain of A: the index k, the core rank r, the factors (B_i, C_i) and the last M_i.

    M_0 = A, and each singular M_(i-1) of rank r_i >= 1 is factored as
    B_i C_i, with B_i its pivot columns and C_i = W^-1 R
    (:func:`adjinv.elimination.row_factor_pairs`); then M_i = C_i B_i is
    r_i x r_i, in lowest terms and kept with its sweep.  rank A^(i+1) =
    rank M_i, so k is the first i at which M_i is nonsingular, and the last
    M_i is the core M_k of size r.  An M_i of rank 0 makes A^(i+1) = 0: A is
    nilpotent, k = i + 1, r = 0, and the last M_i is that zero matrix, whose
    order-0 ledger (0, 1) is the zero matrix.  The last M_i is None when it
    is A itself, so the chain A keeps (under "index chain") holds no
    reference to A.  Only A's own sweep is n x n.
    """
    m, factors = a, []
    while (e := sweep(m)).rank not in (0, m.rows):
        b = m.submatrix(range(m.rows), e.pivots)
        c = from_pairs(*elimination.row_factor_pairs(m.pairs, e))
        factors.append((b, c))
        m = multiply(c, b)
    return len(factors) + (e.rank == 0), e.rank, tuple(factors), m if factors else None


def _chain_ledger(a: Matrix, y: Matrix | None = None) -> minors.Ledger:
    """(N_r(A^(k+1)) A^k y, d_r(A^(k+1))) from the chain, with y the identity when None.

    d_r(A^(k+1)) A^D y = B_1 .. B_k adj(M_k)^(k+1) C_k .. C_1 y over
    det(M_k)^(k+1) = d_r(A^(k+1)): k + 1 adjoint solves on the core's sweep.
    At index 0 that is adj(A) y over det A, solved from A's own sweep, and
    at core rank 0 the order-0 ledger (0, 1).
    """
    k, r, factors, core = kept(a, "index chain", _index_search)
    for _, c in factors:
        y = c if y is None else multiply(c, y)
    y, d = y or Matrix.identity(a.rows), ONE
    for _ in range(k + 1):
        y, step = minors.char_adjugate(core or a, r, y)
        d = d * step
    for b, _ in reversed(factors):
        y = multiply(b, y)
    return minors.Ledger(y, d)


def _eq11(a: Matrix) -> DrazinResult:
    """N_r(A^(k+1)) @ A^k over d_r(A^(k+1)) at r = rank A^k, through the index chain."""
    (k, r, _, _), ledger = kept(a, "index chain", _index_search), _chain_ledger(a)
    return DrazinResult(ledger.quotient(), k, r, ledger.denominator, ledger.numerators)


def index_of(a: Matrix) -> int:
    """Smallest k >= 0 with rank(a^(k+1)) = rank(a^k); at most n."""
    require_square(a, "matrix index")
    return kept(a, "index chain", _index_search)[0]


def drazin_inverse(a: Matrix) -> DrazinResult:
    """The unique X with a^(k+1) X = a^k, X a X = X, a X = X a (k = index)."""
    require_square(a, "Drazin inverse")
    return kept(a, "eq11", _eq11)


def group_inverse(a: Matrix) -> DrazinResult:
    """The Drazin inverse restricted to index <= 1.

    Index 0 returns the classical inverse; index 1 the k = 1 representation;
    anything higher has no group inverse and raises
    :class:`GroupInverseError`, read off the index chain before any ledger
    is formed.
    """
    require_square(a, "group inverse")
    if kept(a, "index chain", _index_search)[0] >= 2:
        raise GroupInverseError("group inverse does not exist: matrix index is 2 or larger")
    return kept(a, "eq11", _eq11)


def drazin_times_a(a: Matrix) -> Matrix:
    """The idempotent projector drazin_inverse(a) @ a: the inverse a keeps, times a.

    The test suite checks it against the ledger route, N_r(A^(k+1)) @ A^(k+1)
    over the same denominator d_r(A^(k+1)).
    """
    require_square(a, "Drazin projector")
    return multiply(kept(a, "eq11", _eq11).drazin_inverse, a)
