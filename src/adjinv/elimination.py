"""Division-free integer kernels: Bareiss elimination and the characteristic adjugate.

Each row is first cleared to a common denominator so every entry becomes a
Gaussian integer, held as a plain ``(re, im)`` pair of Python ints.  Bareiss
cross-multiplication then keeps all intermediate values integral and every
division exact, which bounds entry growth without ever leaving exact
arithmetic.  Pivots are the first nonzero entry in column scan order; with
exact arithmetic the pivot choice is correctness-neutral.

The characteristic-adjugate kernel works on a whole matrix scaled by one
common denominator.  Berkowitz's algorithm gives the characteristic
coefficients without any division, and Horner's rule applies the
Cayley-Hamilton polynomial N_r(g) to a replacement matrix, so a whole
adjugate-analogue ledger costs O(n^3 r) integer operations.  At full order
r = n the polynomial is the classical adjugate; there the kernel runs the
Bareiss forward sweep of the determinant on [g | b] and back-substitutes,
O(n^2 (n + p)) operations for an n x p replacement matrix, and keeps
Berkowitz and Horner for a singular g.
"""

from __future__ import annotations

from math import gcd, lcm

Pair = tuple[int, int]

_ZERO: Pair = (0, 0)
_ONE: Pair = (1, 0)


def integerize(rows) -> tuple[list[list[Pair]], int]:
    """Scale each row of Scalars to Gaussian integers.

    Returns the integer rows and the product of the per-row multipliers;
    the determinant of the scaled matrix is that product times the original
    determinant, while the rank is unchanged.
    """
    out = []
    scale = 1
    for row in rows:
        mult = 1
        for s in row:
            mult = lcm(mult, s.re.denominator, s.im.denominator)
        out.append(_scaled_row(row, mult))
        scale *= mult
    return out, scale


def integerize_common(rows) -> tuple[list[list[Pair]], int]:
    """Scale a matrix of Scalars to Gaussian integers by one common multiplier.

    Returns the integer rows A' and the positive D with A = A' / D.  Unlike
    :func:`integerize`, every row shares D, so products and characteristic
    coefficients of A' rescale to those of A by powers of D.
    """
    scale = 1
    for row in rows:
        for s in row:
            scale = lcm(scale, s.re.denominator, s.im.denominator)
    return [_scaled_row(row, scale) for row in rows], scale


def lowest_terms(rows: list[list[Pair]], scale: int) -> tuple[list[list[Pair]], int]:
    """rows / scale with the common factor of every part and the scale divided out.

    The result is the pair of :func:`integerize_common` of the same rational
    matrix: with that gcd 1, the scale is the lcm of the entries' reduced
    denominators.
    """
    g = gcd(scale, *(part for row in rows for pair in row for part in pair))
    if g == 1:
        return rows, scale
    return [[(re // g, im // g) for re, im in row] for row in rows], scale // g


def _scaled_row(row, mult: int) -> list[Pair]:
    # mult is a multiple of every denominator in the row, so each product is an integer.
    return [(s.re.numerator * (mult // s.re.denominator), s.im.numerator * (mult // s.im.denominator))
            for s in row]


def _mul(x: Pair, y: Pair) -> Pair:
    a, b = x
    c, d = y
    if b == 0 and d == 0:
        return (a * c, 0)
    return (a * c - b * d, a * d + b * c)


def _div_exact(x: Pair, y: Pair) -> Pair:
    # Exact Gaussian-integer division; Bareiss guarantees divisibility,
    # and the divmod check turns any violation into a loud failure.
    a, b = x
    c, d = y
    if d == 0:
        qr, rr = divmod(a, c)
        qi, ri = divmod(b, c)
    else:
        n2 = c * c + d * d
        qr, rr = divmod(a * c + b * d, n2)
        qi, ri = divmod(b * c - a * d, n2)
    if rr or ri:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return (qr, qi)


def _bareiss_sweep(a: list[list[Pair]], m: int, pivot_cols: int, width: int) -> tuple[int, int]:
    """Fraction-free forward sweep of the m x width rows ``a`` (mutated).

    Scans the first ``pivot_cols`` columns for pivots, eliminating below each
    one and carrying every column up to ``width`` along.  Returns the number
    of pivots found, which is the rank of the leading m x pivot_cols block,
    and the sign of the row permutation.  Each row stays an integer
    combination of the input rows; when the leading n x n block of a square
    sweep has rank n, it is upper triangular with nonzero pivots a[k][k] and
    a[n-1][n-1] is the sign times its determinant.
    """
    sign = 1
    prev = _ONE
    r = 0
    for col in range(pivot_cols):
        if r == m:
            break
        pivot_row = next((i for i in range(r, m) if a[i][col] != _ZERO), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
            sign = -sign
        pivot = a[r][col]
        top = a[r]
        for i in range(r + 1, m):
            row = a[i]
            lead = row[col]
            # Rows with a zero lead still get the pivot/prev rescale; that is
            # what keeps every later division exact.
            for j in range(col + 1, width):
                row[j] = _div_exact(
                    _sub(_mul(pivot, row[j]), _mul(lead, top[j])), prev
                )
            row[col] = _ZERO
        prev = pivot
        r += 1
    return r, sign


def det_pairs(a: list[list[Pair]], n: int) -> Pair:
    """Determinant of an n x n Gaussian-integer matrix (mutates ``a``)."""
    r, sign = _bareiss_sweep(a, n, n, n)
    if r < n:
        return _ZERO
    d = a[n - 1][n - 1]
    return d if sign == 1 else _neg(d)


def adjoint_solve_pairs(
    g: list[list[Pair]], b: list[list[Pair]]
) -> tuple[list[list[Pair]], Pair] | None:
    """adj(g) b and det g for an n x n Gaussian-integer g and n x p b.

    Returns None when g is singular.  The forward sweep of :func:`det_pairs`
    runs on [g | b] and leaves an upper-triangular system U x = c with the
    solution x = g^-1 b.  Back substitution is carried out on
    X = det(g) x = adj(g) b, which is a Gaussian-integer matrix, so each
    division by a pivot is exact (Bareiss, Math. Comp. 22(103), 1968).  The
    cost is O(n^2 (n + p)) integer operations.
    """
    n = len(g)
    p = len(b[0])
    aug = [g_row + b_row for g_row, b_row in zip(g, b)]
    r, sign = _bareiss_sweep(aug, n, n, n + p)
    if r < n:
        return None
    det = aug[n - 1][n - 1] if sign == 1 else _neg(aug[n - 1][n - 1])
    x = [[_ZERO] * p for _ in range(n)]
    for i in range(n - 1, -1, -1):
        row = aug[i]
        for j in range(p):
            acc = _mul(det, row[n + j])
            for t in range(i + 1, n):
                acc = _sub(acc, _mul(row[t], x[t][j]))
            x[i][j] = _div_exact(acc, row[i])
    return x, det


def rank_pairs(a: list[list[Pair]], m: int, n: int) -> int:
    """Rank of an m x n Gaussian-integer matrix (mutates ``a``)."""
    return _bareiss_sweep(a, m, n, n)[0]


def _sub(x: Pair, y: Pair) -> Pair:
    return (x[0] - y[0], x[1] - y[1])


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


def conjugate_transpose_pairs(a: list[list[Pair]]) -> list[list[Pair]]:
    return [[(re, -im) for re, im in col] for col in zip(*a)]


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


def char_adjugate_pairs(
    g: list[list[Pair]], r: int, b: list[list[Pair]]
) -> tuple[list[list[Pair]], Pair]:
    """N_r(g) b and d_r(g) for a Gaussian-integer n x n g and n x p b.

    d_t is the sum of the order-t principal minors of g and
    N_r(g) = sum_{t<r} (-1)^(r-1-t) d_t g^(r-1-t).  Entry (i, j) of N_r(g) b
    is the sum, over the order-r principal index sets containing i, of the
    minors of g with column i replaced by column j of b (Decell, SIAM Review
    7(4), 1965).  At r = n, N_n(g) is the classical adjugate and d_n(g) the
    determinant, so a nonsingular g goes through :func:`adjoint_solve_pairs`;
    a singular g, or r < n, goes through :func:`horner_adjugate_pairs`.
    """
    if r == len(g):
        solved = adjoint_solve_pairs(g, b)
        if solved is not None:
            return solved
    return horner_adjugate_pairs(g, r, b)


def horner_adjugate_pairs(
    g: list[list[Pair]], r: int, b: list[list[Pair]]
) -> tuple[list[list[Pair]], Pair]:
    """:func:`char_adjugate_pairs` by Berkowitz and Horner, for any g and r.

    Horner's rule: X = (-1)^(r-1) b, then X <- g X + (-1)^(r-1-t) d_t b for
    t = 1 .. r-1, with d_1 .. d_r from :func:`char_poly_pairs`.
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
