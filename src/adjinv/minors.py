"""Minors, principal-minor sums, the Gram ledger and the one scale rule for every ledger.

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
ledger is (0, 1), the zero ledger: a rank-0 Gram matrix (of a zero A) and
the core of a nilpotent A take it where their rank is read, with no kernel
call.

No operation evaluates N_r at 0 < r < n: each such ledger is F adj(K) H
over det K for a nonsingular K, solved factor by factor, and one scale
rule (:func:`_ledger`) turns every kernel's integer result into a
:class:`Ledger`.  A kernel returns (X, d, f), the ledger X f over d f of
the integer pairs it read, for a positive int f; the caller knows the
scales of those pairs, x_scale of X and d_scale of d, and _ledger makes
X f / x_scale over d f / d_scale, so :func:`adjinv.matrices.from_pairs`
reduces the numerators once per ledger.

Every Gram ledger, at every rank, comes from :func:`skeleton_ledger`: it
takes d_r(A*A) A+ b and d_r(A*A) from full-rank ledgers, each one r x r
Gram solve, at the rank :func:`adjinv.matrices.known_rank` reads, through
:func:`adjinv.elimination.skeleton_ledger_pairs`.  At full rank that is
A's own, read from A alone, so an A whose full rank was certified modulo
a prime keeps no sweep.  Below it, A's one kept sweep gives the skeleton
A = C W''^-1 R'' (pivot columns C, primitive pivot rows R'' and their
intersection W'', formed by :func:`adjinv.elimination.skeleton`), and
A+ = R''+ W'' C+ is two full-rank ledgers around W''.  It is the
characteristic-adjugate ledger of A*A at the rank order,
(N_r(A*A) A* b, d_r(A*A)).  For A = A' / s and b = b' / t the kernel
returns (X, d, f, q), the ledger X f / q over d f / q of A' and b', with
q = |det W''|^2 of the skeleton's pivot block (1 at full rank), so the
scales are s^(2r-1) t q and s^(2r) q.  The Drazin ledgers, the classical
inverse among them, come from Cline's chain
(:func:`adjinv.drazin._chain_ledger`): k + 1 adjoint solves on the
nonsingular core M_k = M' / s (:func:`adjinv.elimination.adjoint_solve_pairs`)
between the chain's factors, with f the product of the k + 1 solves'
contents factors and the scales s^((r-1)(k+1)) times those of the factors
and of b, and s^(r(k+1)).
A caller makes one kernel call, and :meth:`Ledger.quotient` is the one way
a ledger becomes a result.
The projectors A+ A and A A+ take no ledger of their own: they are the
pseudoinverse A keeps, times A (:mod:`adjinv.pinv`).
:func:`char_poly_coeffs` returns every d_k by Berkowitz, always on the last
matrix of the chain A keeps (:func:`adjinv.matrices.index_chain`): the
r x r core at index k >= 1, and A itself only at index 0.

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

from itertools import repeat
from math import gcd
from typing import NamedTuple

from . import elimination
from .index_sets import enumerate_k_subsets
from .matrices import Matrix, conjugate_transpose, from_pairs, index_chain, known_rank, require_square, scalar_of, sweep
from .scalars import ONE, ZERO, Scalar, entry_parts


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
    d_k(g) = d_k(g') / D^k.  g is the last M_i of the chain a keeps
    (:func:`adjinv.matrices.index_chain`, searched here if a keeps none):
    a itself at index 0, the r x r core M_k at index k >= 1, or the zero
    M_(k-1) of a nilpotent a.  Each step of the chain replaces B C by C B,
    and Sylvester's identity det(tI_n - BC) = t^(n-r) det(tI_r - CB) makes
    d_1 .. d_r those of the r x r core and the rest 0.
    """
    require_square(a, "characteristic polynomial")
    g = index_chain(a)[-1] or a  # the chain's last M_i, None when that is a
    coeffs = elimination.char_poly_pairs(g.pairs)
    return tuple(scalar_of(d, g.scale**k) for k, d in enumerate(coeffs) if k) + (ZERO,) * (a.rows - g.rows)


class Ledger(NamedTuple):
    """An adjugate-analogue ledger: a numerator matrix and its denominator.

    Callers pick the order r at which the denominator cannot vanish.
    """

    numerators: Matrix
    denominator: Scalar

    def quotient(self) -> Matrix:
        """numerators / denominator, the ledger's result: one scaling of the numerator pairs.

        For numerators N' / s and d = (p + q i) / t in the pairs format
        (:func:`adjinv.elimination.integerize`),
        N / d = N' t (p - q i) / (s (p^2 + q^2)), which
        :func:`adjinv.matrices.from_pairs` puts in lowest terms, with no
        Scalar division.  A real d is N' t / (s p), one int multiply per
        part, with the sign of p moved into t.
        """
        d = self.denominator
        if not d:
            # Every caller's order makes d_r(g) nonzero: the determinant of a
            # nonsingular g, the sum of the squared moduli of the rank-order
            # minors for a Gram g, or the product of the nonzero eigenvalues
            # of A^(k+1) at the core rank.
            raise ArithmeticError("ledger denominator vanished; this is a bug")
        (((p, q),),), t = elimination.integerize([[entry_parts(d)]])
        pairs, s = self.numerators.pairs, self.numerators.scale
        if not q:
            t, p = (t, p) if p > 0 else (-t, -p)
            return from_pairs([[(re * t, im * t) for re, im in row] for row in pairs], s * p)
        a, b = t * p, t * q
        return from_pairs([[(re * a + im * b, im * a - re * b) for re, im in row] for row in pairs],
                          s * (p * p + q * q))

    def adjoint(self) -> "Ledger":
        """The conjugate-transposed ledger: numerators*, conj(d) and so quotient*."""
        return Ledger(conjugate_transpose(self.numerators), self.denominator.conjugate())


def skeleton_ledger(a: Matrix, b: Matrix | None = None, adjoint: bool = False) -> Ledger:
    """The Gram ledger of a from the skeleton of its kept sweep (:func:`adjinv.matrices.sweep`).

    Returns (d_r(A*A) A+ b, d_r(A*A)) at r = rank A, the ledger
    (N_r(A*A) A* b, d_r(A*A)), with b the identity when None;
    ``adjoint`` gives the same for A*: (A*)+ b.  r comes from
    :func:`adjinv.matrices.known_rank`, and r = 0 gives the zero matrix
    over 1.  :func:`adjinv.elimination.skeleton_ledger_pairs` reads A alone
    at full rank, so a certified A is never swept, and the kept sweep below
    it.  Its (X, d, f, q) is the ledger of A' and b' at order 2r, X f / q
    over d f / q, so q joins both scales of :func:`_ledger`.
    """
    r = known_rank(a)
    if r == 0:
        rows, cols = (a.rows, a.cols) if adjoint else (a.cols, a.rows)
        return Ledger(Matrix.zeros(rows, cols if b is None else b.cols), ONE)
    e = None if r == min(a.rows, a.cols) else sweep(a)
    x, d, f, q = elimination.skeleton_ledger_pairs(a.pairs, e, None if b is None else b.pairs, adjoint)
    scale = a.scale ** (2 * r - 1) * q
    return _ledger(x, d, f, scale * (1 if b is None else b.scale), scale * a.scale)


def _ledger(x, d, f: int, x_scale: int, d_scale: int) -> Ledger:
    """The Ledger X f / x_scale over d f / d_scale of a kernel's integer result (X, d, f).

    The one way a kernel's result becomes a Ledger: the gcd of f and
    ``x_scale`` is divided out first, so X is not copied when f divides it,
    and :func:`adjinv.matrices.from_pairs` reduces the numerators once.
    """
    common = gcd(f, x_scale)
    if f != common:
        x = elimination._scaled(x, repeat(f // common))
    return Ledger(from_pairs(x, x_scale // common), scalar_of((d[0] * f, d[1] * f), d_scale))


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
