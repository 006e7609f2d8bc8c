"""Cramer-style solvers built on the adjugate-analogue ledgers.

``lsq_solve`` returns the minimal-norm least squares solution of A x = y.
Each component is a minor sum over the column-replaced Gram matrix A*A
divided by its order-r principal-minor sum ("eq14"); the whole numerator
vector is N_r(A*A) @ f = d_r(A*A) A+ y with f = A* y, that is L @ y for the
numerators L = N_r(A*A) @ A* of the pseudoinverse, just as adj(A) @ b is
Cramer's rule for every b.  A matrix that keeps its pseudoinverse
(:func:`adjinv.pinv.mp_inverse`, read by :func:`adjinv.matrices.held`) hands
over L and d_r(A*A), so the numerators are one product.  A kept classical
inverse adj(A) / det A serves too, scaled by conj(det A): adj(A*A) A* =
conj(det A) adj(A) and d_n(A*A) = |det A|^2.  Otherwise the skeleton of the
sweep A keeps (:func:`adjinv.minors.skeleton_ledger`) applies its factors to
y, solving r x r systems for one column each.  With full column rank N_r is
the classical adjugate and the components are the determinant ratios of
Cramer's rule over A*A and f ("eq13"): the skeleton's square factor drops
out, and one adjoint solve of A*A (of AA* for a square A) remains, read
from A alone.  The rank is read by :func:`adjinv.matrices.known_rank`, so
a tall or wide A that its certificate modulo a prime passes is never
swept, and the tag compares it with A's columns ("eq13" or "eq14").
``lsq_solve_row_system`` solves the row form x A = y the same way with AA*
and g = y A*: g @ N_r(AA*) = ((A*)+ y*)* from the skeleton of A* (read
from the same elimination), or y @ L from the kept pseudoinverse, since
(A*)+ = (A+)* and d_r(AA*) = d_r(A*A) is real.  It is tagged
"row_eq_fullrank" when that rank is A's row count and "row_eq_general"
otherwise.  A zero matrix has rank 0, and the zero ledger (0, 1) is its
zero solution.

``drazin_solve`` returns the Drazin-inverse solution of a square system:
the unique solution of the generalized normal equations A^(k+1) x = A^k y
lying in the range of A^k.  Its numerators are N_r(A^(k+1)) @ g with
g = A^k y ("eq16"); for a nonsingular matrix (index 0) that is adj(A) @ y,
the classical Cramer rule ("classical_cramer"), and for a nilpotent matrix
(core rank 0) the zero ledger, the zero vector over 1, with g = A^k y = 0
read off the chain and no product formed.  A matrix that keeps its eq11
result (:func:`adjinv.drazin.drazin_inverse`) hands over
N = N_r(A^(k+1)) @ A^k and d_r(A^(k+1)), and the numerators are N @ y, one
product.  At index 0 N is adj(A) over det(A), the classical Cramer ledger
exactly: a nonsingular A's classical inverse is its index-0 Drazin result,
kept once, so after any of :func:`adjinv.pinv.mp_inverse`,
:func:`adjinv.drazin.drazin_inverse` or :func:`adjinv.drazin.group_inverse`
the solve takes no solve of its own.  Otherwise the factors of the chain
A keeps (:func:`adjinv.matrices.index_chain`, which also gives k and r) are
applied to y, B_1 .. B_k adj(M_k)^(k+1) C_k .. C_1 y over det(M_k)^(k+1),
with k + 1 one-column adjoint solves on the core (:mod:`adjinv.drazin`); at
index 0 that is one solve from A's kept sweep, so A is eliminated once.
The report's g = A^k y takes k matrix-vector products when the core
rank is positive, formed on its first read (:class:`SolveReport`).

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
from functools import partial

from . import minors
from .drazin import _chain_ledger
from .matrices import (Matrix, conjugate_transpose, from_pairs, held, index_chain, known_rank, multiply,
                       require_square)
from .scalars import Scalar


class _Deferred(partial):
    """A field value not formed yet: ``formed()`` forms it once and keeps it; racing threads get the first value."""

    def formed(self):
        kept = self.__dict__
        return kept["value"] if "value" in kept else kept.setdefault("value", self())


class _FormedOnRead:
    """A dataclass field that may be given a :class:`_Deferred`, formed on first read and then kept.

    A descriptor-typed field stays in ``dataclasses.fields`` and in the
    generated ``__init__``, ``__eq__``, ``__hash__`` and ``__repr__``, which
    read it like any attribute.  The value sits in the attribute ``_<name>``,
    where the formed value replaces the deferral.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.name, self.private = name, "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)  # no class default: the field stays required
        value = getattr(obj, self.private)
        if isinstance(value, _Deferred):
            value = value.formed()
            object.__setattr__(obj, self.private, value)
        return value

    def __set__(self, obj, value) -> None:
        object.__setattr__(obj, self.private, value)


@dataclass(frozen=True)
class SolveReport:
    """A solution vector plus the numerator/denominator ledger behind it.

    ``solution[j] * denominator == numerators[j]`` componentwise and the
    denominator is never zero.  ``transformed_rhs`` is the right side the
    formulas consume (A* y, y A*, or A^k y).  The ledger never reads it, so
    it is formed on its first read and then kept; until then the report
    holds A's pairs and y, not A and what A keeps.  So an unread report
    retains A's m x n entries, where an eager one held only the m- or
    n-entry vector; reading the field once releases them.
    """

    solution: Matrix
    method: str  # eq13 | eq14 | row_eq_fullrank | row_eq_general | eq16 | classical_cramer
    denominator: Scalar
    numerators: tuple[Scalar, ...]
    transformed_rhs: Matrix = _FormedOnRead()


def _adjoint_product(pairs, scale: int, y: Matrix, row: bool) -> Matrix:
    """A* y, or y A* for a row system, of A = pairs / scale."""
    astar = conjugate_transpose(from_pairs(pairs, scale))
    return multiply(y, astar) if row else multiply(astar, y)


def _power_product(pairs, scale: int, k: int, y: Matrix) -> Matrix:
    """A^k y of A = pairs / scale, by k matrix-vector products."""
    a = from_pairs(pairs, scale)
    for _ in range(k):
        y = multiply(a, y)
    return y


def _held_gram(a: Matrix, product) -> minors.Ledger | None:
    """(product(L), d_r(A*A)) for L = d_r(A*A) A+ from what ``a`` keeps, or None if it keeps neither.

    A kept classical inverse is A's index-0 eq11 result (N, d) = (adj A, det A),
    and L = conj(d) N.  Otherwise a kept pseudoinverse is (L, d_r(A*A)).
    """
    res = held(a, "eq11")
    if res is not None and not res.index:
        conj = res.denominator.conjugate()
        return minors.Ledger(product(res.numerators) * conj, res.denominator * conj)
    res = held(a, "pinv")
    return None if res is None else minors.Ledger(product(res.numerators), res.denominator)


def lsq_solve(a: Matrix, y: Matrix) -> SolveReport:
    """Minimal-norm least squares solution of A x = y (y is m x 1)."""
    if not (y.cols == 1 and y.rows == a.rows):
        raise ValueError(f"right side must be {a.rows}x1, got {y.rows}x{y.cols}")
    f = _Deferred(_adjoint_product, a.pairs, a.scale, y, False)
    ledger = _held_gram(a, lambda numerators: multiply(numerators, y)) or minors.skeleton_ledger(a, y)
    method = "eq13" if known_rank(a) == a.cols else "eq14"
    return SolveReport(ledger.quotient(), method, ledger.denominator, ledger.numerators.column(0), f)


def lsq_solve_row_system(y: Matrix, a: Matrix) -> SolveReport:
    """Minimal-norm least squares solution of the row system x A = y (y is 1 x n)."""
    if not (y.rows == 1 and y.cols == a.cols):
        raise ValueError(f"right side must be 1x{a.cols}, got {y.rows}x{y.cols}")
    g = _Deferred(_adjoint_product, a.pairs, a.scale, y, True)
    # y A+ = ((A*)+ y*)*, from the skeleton of A* that the sweep of A gives.
    ledger = (_held_gram(a, partial(multiply, y))
              or minors.skeleton_ledger(a, conjugate_transpose(y), adjoint=True).adjoint())
    method = "row_eq_fullrank" if known_rank(a) == a.rows else "row_eq_general"
    return SolveReport(ledger.quotient(), method, ledger.denominator, ledger.numerators.row(0), g)


def drazin_solve(a: Matrix, y: Matrix) -> SolveReport:
    """Drazin-inverse solution of a square system A x = y.

    Satisfies the generalized normal equations A^(k+1) x = A^k y exactly and
    lies in the range of A^k (k = index of A); equals drazin_inverse(a) @ y.
    """
    require_square(a, "Drazin solution")
    if not (y.cols == 1 and y.rows == a.rows):
        raise ValueError(f"right side must be {a.rows}x1, got {y.rows}x{y.cols}")
    k, r, _, _ = index_chain(a)
    # A^k = 0 at core rank 0.
    g = _Deferred(_power_product, a.pairs, a.scale, k, y) if r else Matrix.zeros(a.rows, 1)
    res = held(a, "eq11")
    ledger = minors.Ledger(multiply(res.numerators, y), res.denominator) if res else _chain_ledger(a, y)
    method = "classical_cramer" if k == 0 else "eq16"
    return SolveReport(ledger.quotient(), method, ledger.denominator, ledger.numerators.column(0), g)
