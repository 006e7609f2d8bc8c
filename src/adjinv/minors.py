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
:class:`Ledger` (N_r(g) @ b, d_r(g)) in polynomial time: it scales g and b to
Gaussian integers once and hands them to
:func:`adjinv.elimination.char_adjugate_pairs`, which picks its method from
the input.  At r = n with g nonsingular it runs one fraction-free Bareiss
sweep of [g | b] and a back substitution; otherwise it computes d_1 .. d_r by
Berkowitz's division-free algorithm and applies N_r by Horner's rule.  A
ledger stays on integer pairs until a caller asks for its numerators, its
denominator or their quotient, the result itself; each is one
:func:`adjinv.matrices.from_pairs` call, so no Scalar is divided.
:func:`char_poly_coeffs` is the kernel's companion and returns every d_k by
Berkowitz.

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
from .elimination import Pair
from .index_sets import enumerate_k_subsets
from .matrices import Matrix, from_pairs
from .scalars import ZERO, Scalar


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
    pairs, scale = elimination.integerize(a.row_lists())
    return from_pairs([[elimination.det_pairs(pairs, a.rows)]], scale).at(0, 0)


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
    Berkowitz's algorithm on the integer-scaled matrix: with a = a' / D,
    d_k(a) = d_k(a') / D^k.
    """
    if not a.is_square:
        raise ValueError(f"characteristic polynomial needs a square matrix, got {a.rows}x{a.cols}")
    pairs, scale = elimination.integerize_common(a.row_lists())
    coeffs = elimination.char_poly_pairs(pairs, a.rows)
    return tuple(from_pairs([[d]], scale**k).at(0, 0) for k, d in enumerate(coeffs) if k)


class Ledger(NamedTuple):
    """An adjugate-analogue ledger on Gaussian-integer pairs.

    The numerator matrix is ``x / scale`` and the denominator ``d / d_scale``,
    with both scales positive ints.  Callers pick the order r at which the
    denominator cannot vanish.
    """

    x: list[list[Pair]]
    scale: int
    d: Pair
    d_scale: int

    @classmethod
    def of(cls, numerators: Matrix, denominator: Scalar) -> "Ledger":
        """The ledger of a numerator matrix and denominator given as Scalars."""
        x, scale = elimination.integerize_common(numerators.row_lists())
        [[d]], d_scale = elimination.integerize_common([[denominator]])
        return cls(x, scale, d, d_scale)

    def numerators(self) -> Matrix:
        return from_pairs(self.x, self.scale)

    def denominator(self) -> Scalar:
        return from_pairs([[self.d]], self.d_scale).at(0, 0)

    def quotient(self) -> Matrix:
        """numerators / denominator, the ledger's result: x d_scale conj(d) / (scale |d|^2)."""
        re, im = self.d
        norm = re * re + im * im
        if not norm:
            # Every caller's order makes d_r(g) nonzero: the determinant of a
            # nonsingular g, the sum of the squared moduli of the rank-order
            # minors for a Gram g, or the product of the nonzero eigenvalues
            # of A^(k+1) at the core rank.
            raise ArithmeticError("ledger denominator vanished; this is a bug")
        cr, ci = re * self.d_scale, -im * self.d_scale
        rows = [[(a * cr - b * ci, a * ci + b * cr) for a, b in row] for row in self.x]
        return from_pairs(rows, self.scale * norm)

    def adjoint(self) -> "Ledger":
        """The conjugate-transposed ledger: numerators*, conj(d) and so quotient*."""
        re, im = self.d
        return Ledger(elimination.conjugate_transpose_pairs(self.x), self.scale, (re, -im), self.d_scale)


def char_adjugate(g: Matrix, r: int, b: Matrix) -> Ledger:
    """The characteristic-adjugate ledger (N_r(g) @ b, d_r(g)) of the module docstring.

    ``g`` is n x n, ``b`` is n x p and 1 <= r <= n.
    """
    if not g.is_square:
        raise ValueError(f"characteristic adjugate needs a square matrix, got {g.rows}x{g.cols}")
    _check_order(r, g.rows)
    if b.rows != g.rows:
        raise ValueError(f"replacement matrix has {b.rows} rows, expected {g.rows}")
    g_int, s = elimination.integerize_common(g.row_lists())
    b_int, e = elimination.integerize_common(b.row_lists())
    return pair_ledger(g_int, s, r, b_int, e)


def pair_ledger(g: list[list[Pair]], s: int, r: int, b: list[list[Pair]], e: int) -> Ledger:
    """:func:`char_adjugate` of g / s with replacement b / e, for Gaussian-integer g and b.

    N_r(g / s) = N_r(g) / s^(r-1) and d_r(g / s) = d_r(g) / s^r.
    """
    x, d_r = elimination.char_adjugate_pairs(g, r, b)
    return Ledger(x, s ** (r - 1) * e, d_r, s**r)


def gram_adjugate(f: Matrix, r: int, tail: Matrix | None = None) -> Ledger:
    """:func:`char_adjugate` of the Gram matrix F*F with replacement F* @ tail.

    Returns the ledger (N_r(F*F) @ F* @ tail, d_r(F*F)), with ``tail`` the
    identity when omitted.  F is scaled to Gaussian integers once, F = F' / D,
    and the Gram product F'* F' is formed on integers too: F*F = F'* F' / D^2.
    """
    _check_order(r, f.cols)
    if tail is not None and tail.rows != f.rows:
        raise ValueError(f"tail has {tail.rows} rows, expected {f.rows}")
    f_int, scale = elimination.integerize_common(f.row_lists())
    f_star = elimination.conjugate_transpose_pairs(f_int)
    g = elimination.matmul_pairs(f_star, f_int)
    if tail is None:
        b, e = f_star, scale
    else:
        tail_int, tail_scale = elimination.integerize_common(tail.row_lists())
        b, e = elimination.matmul_pairs(f_star, tail_int), scale * tail_scale
    return pair_ledger(g, scale * scale, r, b, e)


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
