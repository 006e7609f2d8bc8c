"""Independent oracles and defining-equation checkers.

Everything here validates the minor-sum results without sharing their code
path: the pseudoinverse oracle goes through a rank factorization obtained
from reduced row echelon form, and the two small inverses come from
Gauss-Jordan elimination of [M | I] by the same Scalar row reduction; the
Drazin oracle composes powers with that pseudoinverse.  Only the primitive
matrix operations of :mod:`adjinv.matrices` are reused, on the matrices'
integer pairs: products, powers, rank, transposes, equality and
``from_pairs``.
:func:`_rref` and :func:`_inverse` read the entries as Scalars and reduce
them with Scalar arithmetic, so they share no code with the kernel.  All
checks are exact equalities; there is no tolerance anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import Matrix, conjugate_transpose, from_pairs, hstack, multiply, power, rank, require_square
from .scalars import ONE, Scalar


@dataclass(frozen=True)
class VerifyReport:
    """Named exact-equality checks, with the first failing residual as witness."""

    checks: tuple[tuple[str, bool], ...]
    witness: Matrix | None = None

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def failed_names(self) -> tuple[str, ...]:
        return tuple(name for name, ok in self.checks if not ok)


def _run_checks(named_pairs) -> VerifyReport:
    checks = []
    witness = None
    for name, lhs, rhs in named_pairs:
        ok = lhs == rhs
        checks.append((name, ok))
        if not ok and witness is None:
            witness = lhs - rhs
    return VerifyReport(tuple(checks), witness)


def check_penrose(a: Matrix, x: Matrix) -> VerifyReport:
    """The four defining equations of the Moore-Penrose inverse, exactly."""
    if x.rows != a.cols or x.cols != a.rows:
        raise ValueError(
            f"candidate inverse must be {a.cols}x{a.rows}, got {x.rows}x{x.cols}"
        )
    ax = multiply(a, x)
    xa = multiply(x, a)
    return _run_checks(
        [
            ("AXA=A", multiply(ax, a), a),
            ("XAX=X", multiply(xa, x), x),
            ("(AX)*=AX", conjugate_transpose(ax), ax),
            ("(XA)*=XA", conjugate_transpose(xa), xa),
        ]
    )


def check_drazin(a: Matrix, x: Matrix, k: int) -> VerifyReport:
    """The three defining equations of the Drazin inverse at index k, exactly."""
    if not (a.is_square and x.is_square and a.rows == x.rows):
        raise ValueError(
            f"need square matrices of equal size, got {a.rows}x{a.cols} and {x.rows}x{x.cols}"
        )
    ak = power(a, k)
    return _run_checks(
        [
            ("A^(k+1)X=A^k", multiply(multiply(ak, a), x), ak),
            ("XAX=X", multiply(multiply(x, a), x), x),
            ("AX=XA", multiply(a, x), multiply(x, a)),
        ]
    )


def range_membership(b: Matrix, x: Matrix) -> bool:
    """True iff the column vector x lies in the column space of b: x's pairs beside b's add no rank."""
    if not (x.cols == 1 and x.rows == b.rows):
        raise ValueError(f"vector must be {b.rows}x1, got {x.rows}x{x.cols}")
    # Scaling a column keeps the rank, so neither needs the other's scale.
    return rank(from_pairs([rb + rx for rb, rx in zip(b.pairs, x.pairs)], 1)) == rank(b)


def _rref(a: Matrix) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form with the pivot column positions (0-based)."""
    rows = a.row_lists()
    pivots: list[int] = []
    r = 0
    for c in range(a.cols):
        if r == a.rows:
            break
        p = next((i for i in range(r, a.rows) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [e * inv for e in rows[r]]
        for i in range(a.rows):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [e - factor * rr for e, rr in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _inverse(a: Matrix) -> Matrix:
    """Inverse of a nonsingular matrix by Gauss-Jordan elimination of [a | I]."""
    n = a.rows
    rows, pivots = _rref(hstack(a, Matrix.identity(n)))
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return Matrix(n, n, [e for row in rows for e in row[n:]])


def oracle_pinv(a: Matrix) -> Matrix:
    """Moore-Penrose inverse by rank factorization, independent of minor sums.

    Factor A = F G with F the pivot columns of A and G the nonzero rows of
    the reduced row echelon form; then A+ = G* (G G*)^-1 (F* F)^-1 F*.
    """
    if a.is_zero:
        raise ValueError("oracle_pinv needs a nonzero matrix")
    rows, pivots = _rref(a)
    r = len(pivots)
    f = a.submatrix(range(a.rows), pivots)
    g = Matrix(r, a.cols, [e for row in rows[:r] for e in row])
    fstar = conjugate_transpose(f)
    gstar = conjugate_transpose(g)
    middle = multiply(_inverse(multiply(g, gstar)), _inverse(multiply(fstar, f)))
    return multiply(multiply(gstar, middle), fstar)


def oracle_drazin(a: Matrix) -> Matrix:
    """Drazin inverse as a^k (a^(2k+1))+ a^k with the oracle pseudoinverse."""
    require_square(a, "Drazin oracle")
    # Index by rank iteration, using only the primitive operations.
    k = 0
    rank_prev = a.rows
    p = Matrix.identity(a.rows)
    while True:
        p = multiply(p, a)
        rank_next = rank(p)
        if rank_next == rank_prev:
            break
        rank_prev = rank_next
        k += 1
    ak = power(a, k)
    if ak.is_zero:
        return Matrix.zeros(a.rows, a.rows)
    return multiply(multiply(ak, oracle_pinv(power(a, 2 * k + 1))), ak)
