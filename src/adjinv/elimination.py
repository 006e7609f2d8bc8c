"""Division-free integer kernels: Bareiss elimination, the skeleton and the characteristic adjugate.

The kernels work on the exact-matrix format of :class:`adjinv.matrices.Matrix`:
rows of Gaussian integers, each a plain ``(re, im)`` pair of Python ints.
The matrix's common scale stays with the caller, which rescales a kernel's
result by the right power of it.  :func:`integerize` (run as
:func:`_integerize` by the Matrix constructor) is the one way from Scalars
into this format.  Bareiss cross-multiplication keeps all intermediate values
integral and every division exact, which bounds entry growth without ever
leaving exact arithmetic.  Pivots are the first nonzero
entry in column scan order; with exact arithmetic the pivot choice is
correctness-neutral.  :func:`eliminate` is the one sweep, and it sweeps a
copy: no kernel changes the rows it is given.

The sweep is kept as an :class:`Elimination`, a fraction-free LU (Nakos,
Turner and Williams, ACM SIGSAM Bulletin 31(3), 1997): below each pivot
every row keeps its multiplier, the lead it had at that step, and the row
order and pivot columns are recorded.  Rank and determinant come from it,
and a right-hand side replays its steps without eliminating g again.  The
sweep, the replay and the back substitution share one row update,
(pivot x - lead t) / prev with its exactness check, and the same loop serves
real and complex entries.

Berkowitz's algorithm gives the characteristic coefficients without any
division, and Horner's rule applies the Cayley-Hamilton polynomial N_r(g) to
a replacement matrix, so a whole adjugate-analogue ledger costs O(n^3 r)
integer operations.  At full order r = n the polynomial is the classical
adjugate; there the kernel solves from the caller's elimination of g: the
replay on b and a back substitution cost O(n^2 p) operations for an n x p
replacement matrix, on top of the O(n^3) sweep.
Berkowitz and Horner stay for a singular g: the Drazin forms' A^(k+1).

No operation takes the characteristic adjugate of a Gram matrix A*A or AA*.
The sweep of an m x n A of rank r also gives its skeleton A = C W^-1 R: the
pivot columns C, the pivot rows R and their r x r intersection W, whose
determinant is +-the last pivot.
:func:`skeleton_ledger_pairs` takes the Gram ledger d_r(A*A) A+ b from two
r x r adjoint solves, of C*C and RR*, with the same numbers the Gram route
gives (Cauchy-Binet).  At full column or row rank
one factor is W itself and drops out, which leaves one solve.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

Pair = tuple[int, int]

_ZERO: Pair = (0, 0)
_ONE: Pair = (1, 0)


def integerize(rows) -> tuple[tuple[tuple[Pair, ...], ...], int]:
    """Rows of Scalars as Gaussian-integer pairs over one common scale.

    Returns the integer rows A' and the positive D with A = A' / D, where D is
    the lcm of the entries' reduced denominators.  That is lowest terms: the
    gcd of D and every part of A' is 1.  This is the format of
    :class:`adjinv.matrices.Matrix`, and products and characteristic
    coefficients of A' rescale to those of A by powers of D.

    Operations call this on the Scalars they are handed (a scalar factor, a
    replacement vector).  Building a Matrix from its entries calls
    :func:`_integerize`, the same code under a name the benchmark's tracer
    does not wrap, so ``elimination.integerize_calls`` counts the conversions
    inside operations and reading inputs stays with ``matrix_io.parse_s``.
    """
    return _integerize(rows)


def _integerize(rows) -> tuple[tuple[tuple[Pair, ...], ...], int]:
    scale = 1
    for row in rows:
        for s in row:
            scale = lcm(scale, s.re.denominator, s.im.denominator)
    # scale is a multiple of every denominator, so each product is an integer.
    return tuple(
        tuple((s.re.numerator * (scale // s.re.denominator), s.im.numerator * (scale // s.im.denominator))
              for s in row)
        for row in rows
    ), scale


def _mul(x: Pair, y: Pair) -> Pair:
    a, b = x
    c, d = y
    if b == 0 and d == 0:
        return (a * c, 0)
    return (a * c - b * d, a * d + b * c)


class Elimination(NamedTuple):
    """A fraction-free forward sweep, kept so that right-hand sides can replay it.

    ``rows`` are the swept rows in pivot order.  On and to the right of each
    pivot they hold the echelon form; below pivot k, in its column, each row
    keeps its lead at step k, the multiplier that step used on it.
    ``order[i]`` is the input row now at position i, ``pivots`` holds the
    pivot column of each step, and ``sign`` is the sign of the row
    permutation.
    """

    rows: list[list[Pair]]
    order: list[int]
    pivots: list[int]
    sign: int

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def det(self) -> Pair:
        """The sign times the last pivot (rank >= 1): det g at full square rank, else +-det W."""
        last = self.rows[self.rank - 1][self.pivots[-1]]
        return last if self.sign == 1 else _neg(last)


def _update(row: list[Pair], top: list[Pair], pivot: Pair, lead: Pair, prev: Pair, start: int) -> None:
    """row[j] <- (pivot row[j] - lead top[j]) / prev for every j >= start, in place.

    The one row update of the sweep, the replay and the back substitution.
    The imaginary cross terms are added only when the pivot or the lead is
    non-real, so real entries pay for no complex products.  Every division
    keeps its remainder check: the callers' quotients are exact, and a
    nonzero remainder raises ArithmeticError.
    """
    pr, pi = pivot
    lr, li = lead
    dr, di = prev
    cross = pi or li
    norm = dr * dr + di * di
    for j in range(start, len(row)):
        xr, xi = row[j]
        tr, ti = top[j]
        re = pr * xr - lr * tr
        im = pr * xi - lr * ti
        if cross:
            re += li * ti - pi * xi
            im += pi * xr - li * tr
        if di:
            # Divide by prev through its conjugate and squared modulus.
            re, im = re * dr + im * di, im * dr - re * di
            re, rr = divmod(re, norm)
            im, ri = divmod(im, norm)
        elif dr != 1:
            re, rr = divmod(re, dr)
            im, ri = divmod(im, dr) if im else (0, 0)
        else:
            rr = ri = 0
        if rr or ri:
            raise ArithmeticError("inexact division in fraction-free elimination")
        row[j] = (re, im)


def eliminate(g: list[list[Pair]]) -> Elimination:
    """The fraction-free forward sweep of an m x n Gaussian-integer ``g``, as an :class:`Elimination`.

    ``g`` is left as it is: the sweep runs on a copy, which becomes the
    elimination's rows.  Pivots are the first nonzero entry in column scan
    order; every row below a pivot, a zero-lead row too, gets the update,
    which keeps every later division exact.  Each row stays an integer
    combination of the input rows.  When a square g has full rank, its rows
    are upper triangular on and above the diagonal with nonzero pivots.
    """
    a = [list(row) for row in g]
    m = len(a)
    order = list(range(m))
    pivots: list[int] = []
    sign = 1
    prev = _ONE
    for col in range(len(a[0])):
        r = len(pivots)
        if r == m:
            break
        pivot_row = next((i for i in range(r, m) if a[i][col] != _ZERO), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
            order[r], order[pivot_row] = order[pivot_row], order[r]
            sign = -sign
        pivot = a[r][col]
        top = a[r]
        for i in range(r + 1, m):
            _update(a[i], top, pivot, a[i][col], prev, col + 1)
        prev = pivot
        pivots.append(col)
    return Elimination(a, order, pivots, sign)


def det_pairs(a: list[list[Pair]], n: int) -> Pair:
    """Determinant of an n x n Gaussian-integer matrix."""
    e = eliminate(a)
    return e.det if e.rank == n else _ZERO


def adjoint_solve_pairs(e: Elimination, b: list[list[Pair]]) -> tuple[list[list[Pair]], Pair] | None:
    """adj(g) b and det g from the elimination ``e`` of an n x n Gaussian-integer g, for an n x p b.

    Returns None when g is singular.  The replay runs the sweep's steps on
    the rows of b, O(n^2 p) integer operations, exactly what the sweep of
    [g | b] would do to them.  That leaves an upper-triangular system
    U x = c with the solution x = g^-1 b.  Back substitution is carried out
    on X = det(g) x = adj(g) b, which is a Gaussian-integer matrix, so each
    division by a pivot is exact (Bareiss, Math. Comp. 22(103), 1968).
    """
    u = e.rows
    n = len(u)
    if e.rank < n:
        return None
    x = [list(b[i]) for i in e.order]
    prev = _ONE
    for k in range(n):
        pivot, top = u[k][k], x[k]
        for i in range(k + 1, n):
            _update(x[i], top, pivot, u[i][k], prev, 0)
        prev = pivot
    det = e.det
    # Row i of X is (det c_i - sum_{t>i} u[i][t] X_t) / u[i][i]: one update
    # per term, with the division by the pivot at the last.
    for i in range(n - 1, -1, -1):
        row, scale = x[i], det
        for t in range(i + 1, n):
            _update(row, x[t], scale, u[i][t], _ONE, 0)
            scale = _ONE
        _update(row, row, scale, _ZERO, u[i][i], 0)
    return x, det


def rank_pairs(a: list[list[Pair]]) -> int:
    """Rank of a Gaussian-integer matrix."""
    return eliminate(a).rank


def _add(x: Pair, y: Pair) -> Pair:
    return (x[0] + y[0], x[1] + y[1])


def _neg(x: Pair) -> Pair:
    return (-x[0], -x[1])


def _dot(x, y) -> Pair:
    re = im = 0
    for (a, b), (c, d) in zip(x, y):
        if b or d:
            re += a * c - b * d
            im += a * d + b * c
        else:
            re += a * c
    return (re, im)


def matmul_pairs(a: list[list[Pair]], b: list[list[Pair]]) -> list[list[Pair]]:
    """Product of two Gaussian-integer matrices given as lists of rows."""
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


def _conjugate_transpose(a) -> list[list[Pair]]:
    return [[(re, -im) for re, im in col] for col in zip(*a)]


def _identity(r: int) -> list[list[Pair]]:
    return [[_ONE if i == j else _ZERO for j in range(r)] for i in range(r)]


def _gram_through(f, z) -> tuple[list[list[Pair]], Pair]:
    """F* adj(F F*) z and det(F F*), for an r x n F of full row rank and an r x p z."""
    f_star = _conjugate_transpose(f)
    x, d = adjoint_solve_pairs(eliminate(matmul_pairs(f, f_star)), z)
    return matmul_pairs(f_star, x), d


def skeleton_ledger_pairs(
    a: list[list[Pair]], e: Elimination, b: list[list[Pair]] | None = None, adjoint: bool = False,
) -> tuple[list[list[Pair]], Pair]:
    """Gram ledgers of an m x n Gaussian-integer A of rank r >= 1 from its elimination ``e``.

    With P = ``e.pivots`` and Q the rows ``e.order[:r]`` in increasing order,
    C = A[:, P], R = A[Q, :] and W = A[Q, P] give the skeleton
    A = C W^-1 R (Goreinov, Tyrtyshnikov and Zamarashkin, LAA 261, 1997),
    and ``e.det`` is +-det W.  By Cauchy-Binet
    d_r(A*A) = det(C*C) det(RR*) / |det W|^2, so the Gram ledger is

        d_r(A*A) A+ b = R* adj(RR*) W adj(C*C) C* b / |det W|^2

    over d_r(A*A), with b the m x m identity when it is None.  Both divisions
    by |det W|^2 are exact, since d_r(A*A) A+ is a Gaussian-integer matrix.
    ``adjoint`` runs on the skeleton (R*, W*, C*) of A* instead, read from
    the same ``e``.  Only r x r systems are solved, by two adjoint solves.
    A square factor is W itself, and its side is |det W|^2 I: at full column
    rank (R = W) one solve gives adj(C*C) C* b over det(C*C) ("eq6"); at
    full row rank (C = W, a square A too), R* adj(RR*) b over det(RR*)
    ("eq7").
    """
    r = e.rank
    pivots, rows = e.pivots, sorted(e.order[:r])
    c_star = [[(re, -im) for re, im in (a_row[j] for a_row in a)] for j in pivots]
    w = [[a[i][j] for j in pivots] for i in rows]
    row = [a[i] for i in rows]
    if adjoint:
        c_star, w, row = row, _conjugate_transpose(w), c_star
    if len(c_star[0]) == r:  # C = W, and W adj(C*C) C* = |det W|^2 I
        return _gram_through(row, _identity(r) if b is None else b)
    rhs = c_star if b is None else matmul_pairs(c_star, b)
    x, det_c = adjoint_solve_pairs(eliminate(matmul_pairs(c_star, _conjugate_transpose(c_star))), rhs)
    if len(row[0]) == r:  # R = W, and R* adj(RR*) W = |det W|^2 I
        return x, det_c
    x, det_r = _gram_through(row, matmul_pairs(w, x))
    pr, pi = e.det
    norm = (pr * pr + pi * pi, 0)
    d = [_mul(det_c, det_r)]
    for out in (*x, d):
        _update(out, out, _ONE, _ZERO, norm, 0)
    return x, d[0]


def char_poly_pairs(g: list[list[Pair]], order: int) -> list[Pair]:
    """Principal-minor sums d_0 .. d_order of a Gaussian-integer matrix (d_0 = 1).

    Berkowitz's division-free algorithm (Inf. Proc. Letters 18, 1984) on the
    coefficients c_t = (-1)^t d_t of det(tI - g).  The coefficient vector of
    the trailing principal submatrix g[k:, k:] is a lower-triangular Toeplitz
    matrix times that of g[k+1:, k+1:]; the Toeplitz entries are 1, -g[k][k]
    and -R A^(t-2) C for the bordering row R, column C and block A.  Only the
    first ``order + 1`` coefficients are kept, so the cost is O(n^3 order)
    instead of O(n^4).
    """
    n = len(g)
    c = [_ONE, _neg(g[n - 1][n - 1])][: order + 1]
    for k in range(n - 2, -1, -1):
        top = min(n - k, order)
        bordering_row = g[k][k + 1 :]
        block = [row[k + 1 :] for row in g[k + 1 :]]
        x = [row[k] for row in g[k + 1 :]]
        toeplitz = [_ONE, _neg(g[k][k])]
        for t in range(2, top + 1):
            toeplitz.append(_neg(_dot(bordering_row, x)))
            if t < top:
                x = [_dot(row, x) for row in block]
        c = [_dot([toeplitz[i - j] for j in range(min(i + 1, len(c)))], c) for i in range(top + 1)]
    return [_neg(v) if t % 2 else v for t, v in enumerate(c)]


def horner_adjugate_pairs(
    g: list[list[Pair]], r: int, b: list[list[Pair]]
) -> tuple[list[list[Pair]], Pair]:
    """N_r(g) b and d_r(g) for a Gaussian-integer n x n g and n x p b, any r.

    d_t is the sum of the order-t principal minors of g and
    N_r(g) = sum_{t<r} (-1)^(r-1-t) d_t g^(r-1-t).  Entry (i, j) of N_r(g) b
    is the sum, over the order-r principal index sets containing i, of the
    minors of g with column i replaced by column j of b (Decell, SIAM Review
    7(4), 1965).  Horner's rule: X = (-1)^(r-1) b, then
    X <- g X + (-1)^(r-1-t) d_t b for t = 1 .. r-1, with d_1 .. d_r from
    :func:`char_poly_pairs`.  At r = n, N_n(g) is the classical adjugate and
    d_n(g) the determinant; a nonsingular g is solved faster by
    :func:`adjoint_solve_pairs`.
    """
    d = char_poly_pairs(g, r)
    x = b if r % 2 else [[_neg(w) for w in row] for row in b]
    for t in range(1, r):
        coeff = _neg(d[t]) if (r - 1 - t) % 2 else d[t]
        x = [
            [_add(u, _mul(coeff, w)) for u, w in zip(gx_row, b_row)]
            for gx_row, b_row in zip(matmul_pairs(g, x), b)
        ]
    return x, d[r]
