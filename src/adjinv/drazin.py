"""Matrix index, Drazin and group inverses, and the A^D A projector.

The index of a square matrix is the smallest k >= 0 at which the rank of
A^(k+1) stops dropping below the rank of A^k.  With r = rank A^k, the
paper's representation ("eq11") gives the Drazin inverse entry (i, j) as the
sum, over all order-r principal index sets containing i, of minors of
A^(k+1) with column i replaced by the j-th column of A^k, divided by the
order-r principal-minor sum of A^(k+1).  The whole numerator matrix, the
adjugate analogue for this inverse, is N_r(A^(k+1)) @ A^k, and it comes from
the characteristic-adjugate kernel (:func:`adjinv.minors.char_adjugate`) in
one call; the projector A^D A is N_r(A^(k+1)) @ A^(k+1) over the same
denominator.  The index search forms A^k and A^(k+1) once, and every caller
reuses them.

A nonsingular matrix has index 0, so A^k = I, A^(k+1) = A and r = n; there
N_n(A) is the classical adjugate, and the same kernel call returns
adj(A) / det(A), the classical inverse.  Nilpotent matrices (core rank 0)
short-circuit to the zero matrix, the unique solution of the defining
equations in that case.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import minors
from .matrices import Matrix, multiply, power, rank
from .scalars import ONE, Scalar


class GroupInverseError(ValueError):
    """Raised when the group inverse does not exist (index >= 2)."""


@dataclass(frozen=True)
class DrazinResult:
    """A Drazin inverse with the minor-sum ledger that produced it.

    For nonzero core rank, every ``drazin_inverse`` entry times
    ``denominator`` equals the corresponding ``numerators`` entry;
    the denominator is the order-r principal-minor sum of A^(index+1) and
    cannot vanish.
    """

    drazin_inverse: Matrix
    index: int
    rank_core: int
    denominator: Scalar
    numerators: Matrix


def _require_square(a: Matrix, what: str) -> None:
    if not a.is_square:
        raise ValueError(f"{what} needs a square matrix, got {a.rows}x{a.cols}")


def _index_powers(a: Matrix) -> tuple[int, Matrix, Matrix, int]:
    """(k, A^k, A^(k+1), rank A^k) for the index k of a square matrix."""
    k = 0
    ak = Matrix.identity(a.rows)
    rank_k = a.rows
    while True:
        b = multiply(ak, a)
        rank_b = rank(b)
        if rank_b == rank_k:
            return k, ak, b, rank_k
        ak, rank_k = b, rank_b
        k += 1


def index_of(a: Matrix) -> int:
    """Smallest k >= 0 with rank(a^(k+1)) = rank(a^k); at most n."""
    _require_square(a, "matrix index")
    return _index_powers(a)[0]


def _core_ledger(b: Matrix, r: int, replacement: Matrix) -> tuple[Matrix, Scalar]:
    """N_r(b) @ replacement and d_r(b) for b = A^(k+1) of core rank r >= 1."""
    numerators, denom = minors.char_adjugate(b, r, replacement)
    if not denom:
        # Equals the product of the nonzero eigenvalues of A^(k+1), so
        # reaching this line means the implementation is wrong.
        raise ArithmeticError("core principal-minor sum vanished; this is a bug")
    return numerators, denom


def _drazin(k: int, ak: Matrix, b: Matrix, r: int) -> DrazinResult:
    """The eq11 result from the index search result (k, A^k, A^(k+1), rank A^k)."""
    if r == 0:
        zero = Matrix.zeros(b.rows, b.rows)
        return DrazinResult(zero, k, 0, ONE, zero)
    numerators, denom = _core_ledger(b, r, ak)
    return DrazinResult(numerators * (ONE / denom), k, r, denom, numerators)


def _representation(a: Matrix, exponent: int) -> DrazinResult:
    """The eq11 representation evaluated at a chosen power exponent.

    Valid whenever rank(a^(exponent+1)) = rank(a^exponent); the value is the
    Drazin inverse for every exponent >= index_of(a).
    """
    ak = power(a, exponent)
    return _drazin(exponent, ak, multiply(ak, a), rank(ak))


def drazin_inverse(a: Matrix) -> DrazinResult:
    """The unique X with a^(k+1) X = a^k, X a X = X, a X = X a (k = index)."""
    _require_square(a, "Drazin inverse")
    return _drazin(*_index_powers(a))


def group_inverse(a: Matrix) -> DrazinResult:
    """The Drazin inverse restricted to index <= 1.

    Index 0 returns the classical inverse; index 1 the k = 1 representation;
    anything higher has no group inverse and raises
    :class:`GroupInverseError`.
    """
    _require_square(a, "group inverse")
    k, ak, b, r = _index_powers(a)
    if k >= 2:
        raise GroupInverseError("group inverse does not exist: matrix index is 2 or larger")
    return _drazin(k, ak, b, r)


def drazin_times_a(a: Matrix) -> Matrix:
    """The idempotent projector drazin_inverse(a) @ a: N_r(A^(k+1)) @ A^(k+1) / d_r.

    Same ledger as the inverse itself, but the replacement columns come from
    a^(k+1) rather than a^k; the product route is kept as the oracle in the
    test suite.
    """
    _require_square(a, "Drazin projector")
    _, _, b, r = _index_powers(a)
    if r == 0:
        return Matrix.zeros(a.rows, a.rows)
    numerators, denom = _core_ledger(b, r, b)
    return numerators * (ONE / denom)
