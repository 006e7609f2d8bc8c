"""Matrix index, Drazin and group inverses, and the A^D A projector.

The index of a square matrix is the smallest k >= 0 at which the rank of
A^(k+1) stops dropping below the rank of A^k.  With r = rank A^k, the
paper's representation ("eq11") gives the Drazin inverse entry (i, j) as the
sum, over all order-r principal index sets containing i, of minors of
A^(k+1) with column i replaced by the j-th column of A^k, divided by the
order-r principal-minor sum of A^(k+1).  The whole numerator matrix, the
adjugate analogue for this inverse, is N_r(A^(k+1)) @ A^k, and it comes from
the characteristic-adjugate kernel (:func:`adjinv.minors.char_adjugate`) in
one call.  A matrix keeps that result (:func:`adjinv.matrices.kept`), so
:func:`drazin_inverse` and :func:`group_inverse` share the one call, and the
projector A^D A is the kept inverse times A.

The index search is a plain loop of :func:`adjinv.matrices.multiply` and
:func:`adjinv.matrices.rank`, a fresh sweep of each power.  A matrix keeps
its result, the index chain, so its operations share one search; at k = 0
the rank is read off A's kept sweep, and the sweeps of A^2, A^3, ... are not
kept.  :func:`group_inverse` refuses index 2 or more from the chain alone.
:func:`adjinv.solvers.drazin_solve` multiplies the eq11 numerators A keeps
by y, one product; on a matrix that keeps no eq11 result it makes its own
one-column ledger from the chain and keeps nothing.

A nonsingular matrix has index 0, so A^k = I, A^(k+1) = A and r = n; there
N_n(A) is the classical adjugate, and the same kernel call returns
adj(A) / det(A), the classical inverse, solved from the sweep that found
the index, so A is eliminated once.  A nilpotent matrix has core rank 0,
and the kernel's order-0 ledger (0, 1) gives the zero matrix, the unique
solution of the defining equations in that case.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import minors
from .matrices import Matrix, kept, multiply, rank, require_square, sweep
from .scalars import Scalar


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


def _index_powers(a: Matrix) -> tuple:
    """k, rank A^k, A^k and A^(k+1): the index chain, searched once and kept on a."""
    k, rank_k, ak, b = kept(a, "index chain", _index_search)
    return k, rank_k, ak or a, b or a


def _index_search(a: Matrix) -> tuple:
    """k, rank A^k, A^k and A^(k+1), with None for A: the chain A keeps holds no reference to A."""
    k, ak, b, rank_k, rank_b = 0, Matrix.identity(a.rows), None, a.rows, sweep(a).rank
    while rank_b != rank_k:
        ak, rank_k = b, rank_b
        b = multiply(b or a, a)
        k += 1
        rank_b = rank(b)
    return k, rank_k, ak, b


def _eq11(a: Matrix) -> DrazinResult:
    """N_r(A^(k+1)) @ A^k over d_r(A^(k+1)) at r = rank A^k, from one kernel call."""
    k, r, ak, b = _index_powers(a)
    ledger = minors.char_adjugate(b, r, ak)
    return DrazinResult(ledger.quotient(), k, r, ledger.denominator, ledger.numerators)


def index_of(a: Matrix) -> int:
    """Smallest k >= 0 with rank(a^(k+1)) = rank(a^k); at most n."""
    require_square(a, "matrix index")
    return _index_powers(a)[0]


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
    if _index_powers(a)[0] >= 2:
        raise GroupInverseError("group inverse does not exist: matrix index is 2 or larger")
    return kept(a, "eq11", _eq11)


def drazin_times_a(a: Matrix) -> Matrix:
    """The idempotent projector drazin_inverse(a) @ a: the inverse a keeps, times a.

    The test suite checks it against the ledger route, N_r(A^(k+1)) @ A^(k+1)
    over the same denominator d_r(A^(k+1)).
    """
    require_square(a, "Drazin projector")
    return multiply(kept(a, "eq11", _eq11).drazin_inverse, a)
