"""Minors, principal-minor sums, and the two ledger kernels.

Every adjugate analogue in the package is a sum of replaced principal minors:
entry (i, j) sums, over the order-r principal index sets containing i, the
minors of a square matrix g with column i replaced by column j of a
replacement matrix b.  By Cayley-Hamilton (Decell, SIAM Review 7(4), 1965)
that whole numerator matrix equals N_r(g) @ b, where

    N_r(g) = sum_{t<r} (-1)^(r-1-t) d_t g^(r-1-t)

and d_t is the sum of the order-t principal minors of g (d_0 = 1).  At r = n,
N_n(g) is the classical adjugate and d_n(g) the determinant, so the
full-rank forms (classical inverse and Cramer's rule, and their Gram
versions) are the same ledger.  At r = 0 the minor sum is empty, so the
ledger is (0, 1): a rank-0 input (a zero matrix, a nilpotent matrix)
needs no case of its own.

No operation evaluates N_r at 0 < r < n: each such ledger factors through a
nonsingular r x r matrix.  :func:`char_adjugate` returns the :class:`Ledger`
(N_r(g) @ b, d_r(g)) at the two orders it serves.  Order 0 is (0, 1).  At
order n, a nonsingular g = g' / s is solved from the Bareiss sweep of g'
that g keeps (:func:`adjinv.matrices.sweep`), the one its rank came from:
:func:`adjinv.elimination.adjoint_solve_pairs` replays the elimination on
b = b' / e and back-substitutes, and the ledger rescales by
adj(g) = adj(g') / s^(n-1) and det g = det g' / s^n.  It serves the
classical inverse and the Drazin forms, whose ledger
d_r(A^(k+1)) A^D = B_1 .. B_k adj(M_k)^(k+1) C_k .. C_1 takes k + 1 calls on
the nonsingular core M_k of Cline's index chain (:mod:`adjinv.drazin`).

Every Gram ledger, at every rank, comes from :func:`skeleton_ledger`: it
takes d_r(A*A) A+ b and d_r(A*A) from the skeleton A = C W^-1 R that A's
one kept sweep gives (pivot columns C, pivot rows R and their intersection
W), solving only r x r systems
(:func:`adjinv.elimination.skeleton_ledger_pairs`), one at full column or
row rank.  It returns the characteristic-adjugate ledger of A*A at the
rank order, (N_r(A*A) A* b, d_r(A*A)), and owns order 0 the same way.  A caller makes one kernel
call, and :meth:`Ledger.quotient` is the one way a ledger becomes a result.
The projectors A+ A and A A+ take no ledger of their own: they are the
pseudoinverse A keeps, times A (:mod:`adjinv.pinv`).
:func:`char_poly_coeffs` returns every d_k by Berkowitz, on the index
chain's r x r core when A keeps one.

The literal forms stay as the reference the kernel is tested against:
:func:`minor` is the exact determinant of the entries selected by two
strictly increasing 1-based index sequences, :func:`det` and
:func:`adjugate` are the classical determinant and the cofactor adjugate,
and :func:`principal_minor_sum` enumerates the order-k principal minors one
by one.  Each determinant is one fraction-free Bareiss elimination of the
selected integer pairs, read straight from the matrix's pairs and divided
by its scale to the order: no submatrix is built.  Decell's Horner
evaluation of N_r(g) @ b at any order, and the power route to the Drazin
ledger, live in the test suite as reference routes.
"""

from __future__ import annotations

from typing import NamedTuple

from . import elimination
from .index_sets import enumerate_k_subsets
from .matrices import Matrix, conjugate_transpose, from_pairs, held, require_square, scalar_of, sweep
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
    return _det([[a.pairs[i - 1][j - 1] for j in beta] for i in alpha], a.scale)


def det(a: Matrix) -> Scalar:
    """Determinant of a square matrix."""
    require_square(a, "determinant")
    return _det(a.pairs, a.scale)


def _det(rows, scale: int) -> Scalar:
    """det(rows / scale) for square rows of Gaussian-integer pairs."""
    return scalar_of(elimination.det_pairs(rows, len(rows)), scale ** len(rows))


def principal_minor_sum(a: Matrix, k: int) -> Scalar:
    """Sum of all order-k principal minors of a square matrix."""
    require_square(a, "principal minor sum")
    if not 1 <= k <= a.rows:
        raise ValueError(f"minor order {k} outside 1..{a.rows}")
    total = ZERO
    for beta in enumerate_k_subsets(k, a.rows):
        total = total + minor(a, beta, beta)
    return total


def char_poly_coeffs(a: Matrix) -> tuple[Scalar, ...]:
    """Coefficients d_1 .. d_n with det(tI - a) = t^n - d_1 t^(n-1) + ... + (-1)^n d_n.

    d_k is the sum of all order-k principal minors, computed here by
    Berkowitz's algorithm on the integer pairs of g = g' / D:
    d_k(g) = d_k(g') / D^k.  g is a itself, or the r x r core M_k of the
    index chain a keeps at index k >= 1 (:mod:`adjinv.drazin`), or the zero
    M_(k-1) of a nilpotent a.  Each step of the chain replaces B C by C B,
    and Sylvester's identity det(tI_n - BC) = t^(n-r) det(tI_r - CB) makes
    d_1 .. d_r those of the r x r core and the rest 0.
    """
    require_square(a, "characteristic polynomial")
    g = (held(a, "index chain") or [a])[-1] or a  # the chain's last M_i, None when that is a
    coeffs = elimination.char_poly_pairs(g.pairs)
    return tuple(scalar_of(d, g.scale**k) for k, d in enumerate(coeffs) if k) + (ZERO,) * (a.rows - g.rows)


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
    """The characteristic-adjugate ledger (N_r(g) @ b, d_r(g)) of the module docstring, at r = 0 or n.

    ``g`` is n x n and ``b`` is n x p.  Order 0 gives the zero n x p matrix
    over 1.  Order n gives (adj(g) b, det g) for a nonsingular g, solved from
    its kept sweep (:func:`adjinv.matrices.sweep`); any other order, or a
    singular g, raises ValueError.
    """
    require_square(g, "characteristic adjugate")
    if b.rows != g.rows:
        raise ValueError(f"replacement matrix has {b.rows} rows, expected {g.rows}")
    if r == 0:
        return Ledger(Matrix.zeros(g.rows, b.cols), ONE)
    if r != g.rows or (solved := elimination.adjoint_solve_pairs(sweep(g), b.pairs)) is None:
        raise ValueError(f"order {r} needs order 0, or order {g.rows} of a nonsingular matrix")
    x, d = solved
    return Ledger(from_pairs(x, g.scale ** (r - 1) * b.scale), scalar_of(d, g.scale**r))


def skeleton_ledger(a: Matrix, b: Matrix | None = None, adjoint: bool = False) -> Ledger:
    """The Gram ledger of a from the skeleton of its kept sweep (:func:`adjinv.matrices.sweep`).

    Returns (d_r(A*A) A+ b, d_r(A*A)) at r = rank A, the ledger
    (N_r(A*A) A* b, d_r(A*A)), with b the identity when None;
    ``adjoint`` gives the same for A*: (A*)+ b.  Order 0 gives the zero
    matrix over 1.  :func:`adjinv.elimination.skeleton_ledger_pairs` runs on
    a = a' / s and b = b' / t, and the result rescales by s^(2r-1) t and d_r
    by s^(2r).
    """
    e = sweep(a)
    r = e.rank
    rows, cols = (a.rows, a.cols) if adjoint else (a.cols, a.rows)
    if r == 0:
        return Ledger(Matrix.zeros(rows, cols if b is None else b.cols), ONE)
    x, d = elimination.skeleton_ledger_pairs(a.pairs, e, None if b is None else b.pairs, adjoint)
    t = 1 if b is None else b.scale
    return Ledger(from_pairs(x, a.scale ** (2 * r - 1) * t), scalar_of(d, a.scale ** (2 * r)))


def adjugate(a: Matrix) -> Matrix:
    """Classical adjugate: adjugate(a) @ a == det(a) * identity."""
    require_square(a, "adjugate")
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
