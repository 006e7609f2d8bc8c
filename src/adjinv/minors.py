"""Minors, principal-minor sums, and the characteristic-adjugate kernel.

Every adjugate analogue in the package is a sum of replaced principal minors:
entry (i, j) sums, over the order-r principal index sets containing i, the
minors of a square matrix g with column i replaced by column j of a
replacement matrix b.  By Cayley-Hamilton (Decell, SIAM Review 7(4), 1965)
that whole numerator matrix equals N_r(g) @ b, where

    N_r(g) = sum_{t<r} (-1)^(r-1-t) d_t g^(r-1-t)

and d_t is the sum of the order-t principal minors of g (d_0 = 1).  At r = n,
N_n(g) is the classical adjugate and d_n(g) the determinant, so the
full-rank forms (classical inverse and Cramer's rule, and their Gram
versions) are the same ledger.  :func:`char_adjugate` returns the
:class:`Ledger` (N_r(g) @ b, d_r(g)) in polynomial time: it hands the
integer pairs of g = g' / s and b = b' / e to
:func:`adjinv.elimination.char_adjugate_pairs`, which picks its method from
the input, and rescales by N_r(g) = N_r(g') / s^(r-1) and
d_r(g) = d_r(g') / s^r.  At r = n with g nonsingular the kernel runs one
fraction-free Bareiss sweep of [g' | b'] and a back substitution; otherwise
it computes d_1 .. d_r by Berkowitz's division-free algorithm and applies
N_r by Horner's rule.  :func:`gram_adjugate` is the same call on the Gram
matrix F*F, and :meth:`Ledger.quotient` is the one way a ledger becomes a
result.  :func:`char_poly_coeffs` is the kernel's companion and returns
every d_k by Berkowitz.

The literal forms stay as the reference the kernel is tested against:
:func:`minor` is the exact determinant of the submatrix selected by two
strictly increasing 1-based index sequences, evaluated by fraction-free
Bareiss elimination, :func:`det` and :func:`adjugate` are the classical
determinant and the cofactor adjugate, and :func:`principal_minor_sum`
enumerates the order-k principal minors one by one.
"""

from __future__ import annotations

from typing import NamedTuple

from . import elimination
from .index_sets import enumerate_k_subsets
from .matrices import Matrix, conjugate_transpose, from_pairs, multiply, scalar_of
from .scalars import ONE, ZERO, Scalar


def _check_index_seq(seq, limit: int, what: str) -> tuple[int, ...]:
    seq = tuple(seq)
    for t, value in enumerate(seq):
        if not 1 <= value <= limit:
            raise ValueError(f"{what} index {value} outside 1..{limit}")
        if t and seq[t - 1] >= value:
            raise ValueError(f"{what} indices must be strictly increasing, got {seq}")
    return seq


def minor(a: Matrix, alpha, beta) -> Scalar:
    """Exact determinant of the submatrix with rows ``alpha``, columns ``beta``.

    Both index sequences are 1-based, strictly increasing, and must have the
    same length.
    """
    alpha = _check_index_seq(alpha, a.rows, "row")
    beta = _check_index_seq(beta, a.cols, "column")
    if len(alpha) != len(beta):
        raise ValueError(f"selection is not square: {len(alpha)} rows, {len(beta)} columns")
    if not alpha:
        raise ValueError("empty index selection")
    sub = a.submatrix([i - 1 for i in alpha], [j - 1 for j in beta])
    return _det(sub)


def det(a: Matrix) -> Scalar:
    """Determinant of a square matrix."""
    if not a.is_square:
        raise ValueError(f"determinant needs a square matrix, got {a.rows}x{a.cols}")
    return _det(a)


def _det(a: Matrix) -> Scalar:
    d = elimination.det_pairs([list(row) for row in a.pairs], a.rows)
    return scalar_of(d, a.scale**a.rows)


def principal_minor_sum(a: Matrix, k: int) -> Scalar:
    """Sum of all order-k principal minors of a square matrix."""
    if not a.is_square:
        raise ValueError(f"principal minors need a square matrix, got {a.rows}x{a.cols}")
    if not 1 <= k <= a.rows:
        raise ValueError(f"minor order {k} outside 1..{a.rows}")
    total = ZERO
    for beta in enumerate_k_subsets(k, a.rows):
        total = total + minor(a, beta, beta)
    return total


def char_poly_coeffs(a: Matrix) -> tuple[Scalar, ...]:
    """Coefficients d_1 .. d_n with det(tI - a) = t^n - d_1 t^(n-1) + ... + (-1)^n d_n.

    d_k is the sum of all order-k principal minors, computed here by
    Berkowitz's algorithm on the matrix's integer pairs: with a = a' / D,
    d_k(a) = d_k(a') / D^k.
    """
    if not a.is_square:
        raise ValueError(f"characteristic polynomial needs a square matrix, got {a.rows}x{a.cols}")
    coeffs = elimination.char_poly_pairs(a.pairs, a.rows)
    return tuple(scalar_of(d, a.scale**k) for k, d in enumerate(coeffs) if k)


class Ledger(NamedTuple):
    """An adjugate-analogue ledger: a numerator matrix and its denominator.

    Callers pick the order r at which the denominator cannot vanish.
    """

    numerators: Matrix
    denominator: Scalar

    def quotient(self) -> Matrix:
        """numerators / denominator, the ledger's result: one scaling of the numerator pairs."""
        if not self.denominator:
            # Every caller's order makes d_r(g) nonzero: the determinant of a
            # nonsingular g, the sum of the squared moduli of the rank-order
            # minors for a Gram g, or the product of the nonzero eigenvalues
            # of A^(k+1) at the core rank.
            raise ArithmeticError("ledger denominator vanished; this is a bug")
        return self.numerators * (ONE / self.denominator)

    def adjoint(self) -> "Ledger":
        """The conjugate-transposed ledger: numerators*, conj(d) and so quotient*."""
        return Ledger(conjugate_transpose(self.numerators), self.denominator.conjugate())


def char_adjugate(g: Matrix, r: int, b: Matrix) -> Ledger:
    """The characteristic-adjugate ledger (N_r(g) @ b, d_r(g)) of the module docstring.

    ``g`` is n x n, ``b`` is n x p and 1 <= r <= n.
    """
    if not g.is_square:
        raise ValueError(f"characteristic adjugate needs a square matrix, got {g.rows}x{g.cols}")
    _check_order(r, g.rows)
    if b.rows != g.rows:
        raise ValueError(f"replacement matrix has {b.rows} rows, expected {g.rows}")
    x, d_r = elimination.char_adjugate_pairs(g.pairs, r, b.pairs)
    return Ledger(from_pairs(x, g.scale ** (r - 1) * b.scale), scalar_of(d_r, g.scale**r))


def gram_adjugate(f: Matrix, r: int, tail: Matrix | None = None) -> Ledger:
    """:func:`char_adjugate` of the Gram matrix F*F with replacement F* @ tail.

    Returns the ledger (N_r(F*F) @ F* @ tail, d_r(F*F)), with ``tail`` the
    identity when omitted.
    """
    f_star = conjugate_transpose(f)
    return char_adjugate(multiply(f_star, f), r, f_star if tail is None else multiply(f_star, tail))


def _check_order(r: int, n: int) -> None:
    if not 1 <= r <= n:
        raise ValueError(f"order {r} outside 1..{n}")


def adjugate(a: Matrix) -> Matrix:
    """Classical adjugate: adjugate(a) @ a == det(a) * identity."""
    if not a.is_square:
        raise ValueError(f"adjugate needs a square matrix, got {a.rows}x{a.cols}")
    n = a.rows
    if n == 1:
        return Matrix.identity(1)
    entries = []
    all_indices = range(1, n + 1)
    for i in all_indices:
        for j in all_indices:
            # adjugate(i, j) is the (j, i) cofactor: delete row j, column i.
            alpha = tuple(r for r in all_indices if r != j)
            beta = tuple(c for c in all_indices if c != i)
            cof = minor(a, alpha, beta)
            entries.append(cof if (i + j) % 2 == 0 else -cof)
    return Matrix(n, n, entries)
