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
denominator.

The index search is a plain loop of :func:`adjinv.matrices.multiply` and
:func:`adjinv.matrices.rank`, which work on the matrices' integer pairs, and
it hands A^k and A^(k+1) to every caller as Matrices.

A nonsingular matrix has index 0, so A^k = I, A^(k+1) = A and r = n; there
N_n(A) is the classical adjugate, and the same kernel call returns
adj(A) / det(A), the classical inverse.  Nilpotent matrices (core rank 0)
short-circuit to the zero matrix, the unique solution of the defining
equations in that case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class _Powers(NamedTuple):
    """The index search result: k = ``index``, A^k, A^(k+1) and ``rank_core`` = rank A^k."""

    index: int
    ak: Matrix
    b: Matrix
    rank_core: int

    def ledger(self, replacement: Matrix) -> minors.Ledger:
        """N_r(A^(k+1)) @ replacement over d_r(A^(k+1)); needs r >= 1."""
        return minors.char_adjugate(self.b, self.rank_core, replacement)


def _require_square(a: Matrix, what: str) -> None:
    if not a.is_square:
        raise ValueError(f"{what} needs a square matrix, got {a.rows}x{a.cols}")


def _index_powers(a: Matrix) -> _Powers:
    """The index k of a square matrix with A^k, A^(k+1) and rank A^k, as :class:`_Powers`."""
    k, ak, b, rank_k = 0, Matrix.identity(a.rows), a, a.rows
    while True:
        rank_b = rank(b)
        if rank_b == rank_k:
            return _Powers(k, ak, b, rank_k)
        ak, rank_k = b, rank_b
        b = multiply(b, a)
        k += 1


def index_of(a: Matrix) -> int:
    """Smallest k >= 0 with rank(a^(k+1)) = rank(a^k); at most n."""
    _require_square(a, "matrix index")
    return _index_powers(a).index


def _drazin(p: _Powers) -> DrazinResult:
    """The eq11 result from the index search result."""
    if p.rank_core == 0:
        zero = Matrix.zeros(p.b.rows, p.b.rows)
        return DrazinResult(zero, p.index, 0, ONE, zero)
    ledger = p.ledger(p.ak)
    return DrazinResult(ledger.quotient(), p.index, p.rank_core, ledger.denominator, ledger.numerators)


def _representation(a: Matrix, exponent: int) -> DrazinResult:
    """The eq11 representation evaluated at a chosen power exponent.

    Valid whenever rank(a^(exponent+1)) = rank(a^exponent); the value is the
    Drazin inverse for every exponent >= index_of(a).  The powers come from
    :func:`adjinv.matrices.power`, not from the index search.
    """
    ak = power(a, exponent)
    return _drazin(_Powers(exponent, ak, multiply(ak, a), rank(ak)))


def drazin_inverse(a: Matrix) -> DrazinResult:
    """The unique X with a^(k+1) X = a^k, X a X = X, a X = X a (k = index)."""
    _require_square(a, "Drazin inverse")
    return _drazin(_index_powers(a))


def group_inverse(a: Matrix) -> DrazinResult:
    """The Drazin inverse restricted to index <= 1.

    Index 0 returns the classical inverse; index 1 the k = 1 representation;
    anything higher has no group inverse and raises
    :class:`GroupInverseError`.
    """
    _require_square(a, "group inverse")
    powers = _index_powers(a)
    if powers.index >= 2:
        raise GroupInverseError("group inverse does not exist: matrix index is 2 or larger")
    return _drazin(powers)


def drazin_times_a(a: Matrix) -> Matrix:
    """The idempotent projector drazin_inverse(a) @ a: N_r(A^(k+1)) @ A^(k+1) / d_r.

    Same ledger as the inverse itself, but the replacement columns come from
    a^(k+1) rather than a^k; the product route is kept as the oracle in the
    test suite.
    """
    _require_square(a, "Drazin projector")
    p = _index_powers(a)
    if p.rank_core == 0:
        return Matrix.zeros(a.rows, a.rows)
    return p.ledger(p.b).quotient()
