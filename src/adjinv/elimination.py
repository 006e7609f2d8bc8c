"""Division-free integer kernels: Bareiss elimination, adjoint solves, the skeleton and Berkowitz.

The kernels work on the exact-matrix format of :class:`adjinv.matrices.Matrix`:
rows of Gaussian integers, each a plain ``(re, im)`` pair of Python ints.
The matrix's common scale stays with the caller, which rescales a kernel's
result by the right power of it.  :func:`integerize` (the scaling step
:func:`adjinv.scalars._integerize`, which the Matrix constructor and the
matrix-text reader run directly) is the one way into this format: it
scales rows of entry parts, each given by the one entry rule
:func:`adjinv.scalars.entry_parts`, to the lcm of their denominators, and
:func:`adjinv.matrices.from_pairs` reduces the result to lowest terms.
Bareiss cross-multiplication keeps all intermediate values integral and
every division exact, which bounds entry growth without ever leaving exact
arithmetic.  Pivots are the first nonzero
entry in column scan order; with exact arithmetic the pivot choice is
correctness-neutral.  :func:`eliminate` is the one sweep, and it sweeps a
copy: no kernel changes the rows it is given.

The sweep runs on the primitive rows: each row divided by its content, the
positive gcd of its parts (1 for a zero row, :func:`_content`), divided out
before the sweep picks int rows or pairs.  Over one common scale a row
whose entries share a factor carries it in every part, and Bareiss would
carry it into every integer below its pivot; the bit size of those integers
sets the cost.  Scaling a row by a positive integer changes no zero
pattern, so rank, pivots, row order and sign are those of the rows as
given, and the determinant and adjoint solves still answer for them.

The sweep is kept as an :class:`Elimination`, a fraction-free LU (Nakos,
Turner and Williams, ACM SIGSAM Bulletin 31(3), 1997): below each pivot
every row keeps its multiplier, the lead it had at that step, and the row
order, pivot columns and row contents are recorded.  Rank and determinant
come from it, and a right-hand side replays its steps without eliminating g
again.  The sweep and the replay share one row update,
(pivot x - lead t) / prev with its exactness check, in two forms: on pairs
(:func:`_update`), and on int rows, the real parts alone
(:func:`_update_int`).  The back substitution (:func:`_back_substitute`)
takes each entry of a system of order from ``_INT_MIN`` up as one dot
product and one exact division (:func:`_solve_int`, :func:`_solve_pairs`),
and smaller systems by the same row update.  :func:`eliminate`, :func:`gram_solve_pairs`,
:func:`matmul_pairs` (whose int product is ``sum(map(mul, row, col))``) and
:func:`hermitian_matmul_pairs` each choose once per call, from what they
read (:func:`_int_rows`): int rows when every imaginary part is 0 and every
operand's least dimension (the sweep's, the Gram order, the product's)
reaches ``_INT_MIN``, pairs otherwise.  A sweep keeps the form it swept in,
and :func:`adjoint_solve_pairs` and :func:`row_factor_pairs` read that form
without choosing again: a real right side replays on int rows, and a
complex one on an int sweep replays on the sweep's rows as pairs.  Every
result a caller gets is pairs (``Elimination.swept_det`` turns an int pivot
into one), and complex entries always take the pair form.

A nonsingular g's adjugate ledger adj(g) b and det g comes from its
elimination (:func:`adjoint_solve_pairs`): the replay on b, rescaled by the
contents, and a back substitution (:func:`_back_substitute`) cost
O(n^2 p) operations for an n x p b, on top of the O(n^3) sweep.  It
returns the ledger as (X, d, f), X f over d f for the contents' factor f,
as :func:`_factor_ledger` does, so nothing multiplies a whole result but
the caller's scale rule.
:func:`row_factor_pairs` reads a rank factorization g = B C off the same
sweep, with B the pivot columns and C = W^-1 R, where W is the pivot block
and R the pivot rows, both taken primitive: the sweep's first r rows are
already R's replay, so C costs the back substitution alone.  Cline's
chain (:func:`adjinv.matrices.index_chain`) is built from it.
Berkowitz's algorithm (:func:`char_poly_pairs`) gives the characteristic
coefficients without any division.

No operation takes the characteristic adjugate of a Gram matrix A*A or AA*.
The sweep of an m x n A of rank r also gives its skeleton, and
:func:`skeleton` is the one place that forms it: A's primitive pivot columns
C'' (as C''*) with their contents g, its primitive pivot rows R'' and their
r x r intersection W'', so A = C W''^-1 R'' for C = C'' diag(g).  C has full
column rank and W''^-1 R'' full row rank, so A+ = R''+ W'' C+, and
:func:`skeleton_ledger_pairs` takes the Gram ledger d_r(A*A) A+ b as two
full-rank ledgers around W'', with the numbers the Gram route gives
(Cauchy-Binet).  A full-rank ledger (:func:`_factor_ledger`) is one Gram
solve on the primitive lines F of a factor, whose contents the caller
hands in (the skeleton's g, 1 for R'', or :func:`_primitive`'s for A
alone): F F* is Hermitian and positive definite,
:func:`hermitian_matmul_pairs` forms it on and above the diagonal and
mirrors the rest, and :func:`gram_solve_pairs` takes adj(F F*) z
from one sweep of [F F* | z] on its upper triangle, with the leading
principal minors as pivots, so no row exchange, no content division and no
kept :class:`Elimination`: the update of z's columns is the replay.  The
kernel divides nothing out: it returns |det W''|^2, which the two ledgers'
denominators carry, for the caller's scale rule (:func:`adjinv.minors._ledger`).

Given no elimination, :func:`skeleton_ledger_pairs` takes the full-rank
ledger of A alone and needs only the fact that rank A = min(m, n).
:func:`full_rank_mod_p` certifies that without an
exact sweep, by the classical small-primes technique (von zur Gathen and
Gerhard, *Modern Computer Algebra*, 3rd ed., 2013, ch. 5).  For a prime
P = 1 (mod 4), -1 has a square root I modulo P, and (re, im) -> re + I im
mod P is a ring map Z[i] -> Z/P; it sends every minor of A to the same
minor of A's image.  So when the short side of the image, ints below 2^30,
has full rank modulo P, a nonzero minor of the image is the image of a
minor of A that is nonzero too, and rank A = min(m, n).  The certificate is
one-sided: a nonzero minor of A can still vanish modulo P (it does when
the prime ideal (P, i - I) divides it), so a failure proves nothing, and
the caller sweeps A exactly.  P = 1073741789 is the largest prime = 1
(mod 4) below 2^30, so a product of two residues stays below 2^60, and
I = 2^((P-1)/4) mod P: 2 is not a square modulo P, so by Euler's criterion
I^2 = 2^((P-1)/2) = -1.
"""

from __future__ import annotations

from itertools import chain, repeat
from math import gcd, lcm, prod
from operator import itemgetter, mul
from typing import NamedTuple

from .scalars import _integerize

Pair = tuple[int, int]

_ZERO: Pair = (0, 0)
_ONE: Pair = (1, 0)

# The least dimension at which a real sweep, Gram solve or product runs on
# int rows (to weigh a new value, set it in the working tree and run
# tools/ab.py HEAD, which times both trees' kernels).  Converting in and out
# reads every entry twice more, and below this size that costs more than the
# int loop saves, or saves too little to show; a matrix-vector product never
# pays.
_INT_MIN = 10

# The full-rank certificate's prime and its square root of -1 (see the module docstring).
_P = 1073741789
_I = 933053945


def integerize(rows) -> tuple[list[list[Pair]], int]:
    """Rows of entry parts as Gaussian-integer pairs over one common scale.

    Each entry is (real numerator, real denominator, imaginary numerator,
    imaginary denominator) with positive denominators, as
    :func:`adjinv.scalars.entry_parts` gives it.  Returns the integer rows
    A' and the positive D with A = A' / D, where D is the lcm of the
    denominators as given.  So A' / D is in lowest terms only when they are
    reduced, and every caller hands it to
    :func:`adjinv.matrices.from_pairs`, which reduces it.  This is the
    format of :class:`adjinv.matrices.Matrix`, and products and
    characteristic coefficients of A' rescale to those of A by powers of D.

    Operations call this on the values they are handed (a scalar factor, a
    replacement vector, a ledger's denominator).  Building a Matrix from its
    entries and reading matrix or vector text call
    :func:`adjinv.scalars._integerize`, the step this runs, under a name the
    benchmark's tracer does not wrap, so ``elimination.integerize_calls``
    counts the conversions inside operations alone; it lives in
    :mod:`adjinv.scalars`, so that reading a matrix runs no kernel module.
    """
    return _integerize(rows)


def _mul(x: Pair, y: Pair) -> Pair:
    a, b = x
    c, d = y
    if b == 0 and d == 0:
        return (a * c, 0)
    return (a * c - b * d, a * d + b * c)


class Elimination(NamedTuple):
    """A fraction-free forward sweep of the primitive rows, kept so that right-hand sides can replay it.

    ``contents[i]`` is the content of input row i, the positive gcd of its
    parts (1 for a zero row), and the sweep runs on each row divided by it.
    ``rows`` are the swept rows in pivot order, in the form the sweep ran
    in: lists of ints (the real parts) after a sweep on int rows, else lists
    of pairs.  On and to the right of each
    pivot they hold the echelon form; below pivot k, in its column, each row
    keeps its lead at step k, the multiplier that step used on it.
    ``order[i]`` is the input row now at position i, ``pivots`` holds the
    pivot column of each step, and ``sign`` is the sign of the row
    permutation.  Dividing a row by a positive integer changes no zero
    pattern, so rank, pivots, order and sign are those of the rows as given.
    """

    rows: list[list[int]] | list[list[Pair]]
    order: list[int]
    pivots: list[int]
    sign: int
    contents: list[int]

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def swept_det(self) -> Pair:
        """The sign times the last pivot (rank >= 1), as a pair: det of the primitive rows, or +-det of their W."""
        last = self.rows[self.rank - 1][self.pivots[-1]]
        re, im = (last, 0) if type(last) is int else last
        return (re, im) if self.sign == 1 else (-re, -im)

    @property
    def det(self) -> Pair:
        """det g at full square rank, else +-det W: swept_det times the pivot rows' contents."""
        re, im = self.swept_det
        c = prod(self.contents[i] for i in self.order[: self.rank])
        return (re * c, im * c)


def _content(pairs) -> int:
    """The positive gcd of the parts of some Gaussian integers, 1 when they are all 0."""
    c = 0
    for re, im in pairs:
        c = gcd(c, re, im)
        if c == 1:
            break
    return c or 1


def _divided(row, c: int):
    """``row`` divided by its content ``c``: ``row`` itself when c is 1, so callers must not change it."""
    return row if c == 1 else [(re // c, im // c) for re, im in row]


def _scaled(rows, factors) -> list[list[Pair]]:
    """Row i of ``rows`` times the int ``factors[i]``, as new lists."""
    return [list(row) if f == 1 else [(re * f, im * f) for re, im in row] for row, f in zip(rows, factors)]


def _column_scaled(rows: list[list[Pair]], factors: list[int]) -> list[list[Pair]]:
    """Column j of ``rows`` times the int ``factors[j]``, as new lists."""
    return [[(re * f, im * f) for (re, im), f in zip(row, factors)] for row in rows]


def _update(row: list[Pair], top: list[Pair], pivot: Pair, lead: Pair, prev: Pair, start: int,
            stop: int | None = None) -> None:
    """row[j] <- (pivot row[j] - lead top[j]) / prev for start <= j < stop (the row's end when None), in place.

    The pair form of the row update of the sweep, the replay and the back
    substitution, which :func:`_update_int` does on int rows for real
    entries at sizes from ``_INT_MIN`` up.  The imaginary cross terms are
    added only when the pivot or the lead is non-real.  Every division keeps
    its remainder check: the callers' quotients are exact, and a nonzero
    remainder raises ArithmeticError.
    """
    pr, pi = pivot
    lr, li = lead
    dr, di = prev
    cross = pi or li
    norm = dr * dr + di * di
    for j in range(start, len(row) if stop is None else stop):
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


def _update_int(row: list[int], top: list[int], pivot: int, lead: int, prev: int, start: int,
                stop: int | None = None) -> None:
    """:func:`_update` on int rows, the real parts of real entries: the same update, and the same
    remainder check on every division (prev 1 divides nothing, so it skips the division)."""
    if stop is None:
        stop = len(row)
    if prev == 1:
        for j in range(start, stop):
            row[j] = pivot * row[j] - lead * top[j]
        return
    for j in range(start, stop):
        q, rem = divmod(pivot * row[j] - lead * top[j], prev)
        if rem:
            raise ArithmeticError("inexact division in fraction-free elimination")
        row[j] = q


def _int_rows(*operands) -> bool:
    """True when every row list in ``operands`` has at least _INT_MIN rows and columns and no imaginary part but 0."""
    return (all(min(len(rows), len(rows[0])) >= _INT_MIN for rows in operands)
            and not any(map(itemgetter(1), chain.from_iterable(chain.from_iterable(operands)))))


def _holds_ints(rows) -> bool:
    """True when ``rows`` are int rows, False when they are pairs."""
    return type(rows[0][0]) is int


def _ints(rows) -> list[list[int]]:
    return [list(map(itemgetter(0), row)) for row in rows]


def _pairs(rows) -> list[list[Pair]]:
    """``rows`` as pairs: int rows as new lists, pairs as they are."""
    return [list(zip(row, repeat(0))) for row in rows] if _holds_ints(rows) else rows


def eliminate(g: list[list[Pair]]) -> Elimination:
    """The fraction-free forward sweep of the primitive rows of an m x n Gaussian-integer ``g``.

    ``g`` is left as it is: the sweep runs on a copy with each row divided by
    its content, which becomes the elimination's rows.  Pivots are the first
    nonzero entry in column scan order; every row below a pivot, a zero-lead
    row too, gets the update, which keeps every later division exact.  Each
    row stays an integer combination of the primitive rows.  When a square g
    has full rank, its rows are upper triangular on and above the diagonal
    with nonzero pivots.
    """
    m = len(g)
    contents = [_content(row) for row in g]
    a = [list(row) if c == 1 else _divided(row, c) for row, c in zip(g, contents)]
    if ints := _int_rows(a):
        a = _ints(a)
    update, zero, prev = (_update_int, 0, 1) if ints else (_update, _ZERO, _ONE)
    order = list(range(m))
    pivots: list[int] = []
    sign = 1
    for col in range(len(a[0])):
        r = len(pivots)
        pivot_row = next((i for i in range(r, m) if a[i][col] != zero), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
            order[r], order[pivot_row] = order[pivot_row], order[r]
            sign = -sign
        pivot = a[r][col]
        top = a[r]
        for i in range(r + 1, m):
            update(a[i], top, pivot, a[i][col], prev, col + 1)
        prev = pivot
        pivots.append(col)
    return Elimination(a, order, pivots, sign, contents)


def full_rank_mod_p(a: list[list[Pair]]) -> bool:
    """True only if the m x n Gaussian-integer ``a`` has rank min(m, n), from its image modulo ``_P``.

    Each pair (re, im) maps to (re + I im) mod P, the ring map Z[i] -> Z/P
    that sends i to I, and the lines of the short side (the rows when
    m <= n, else the columns) are eliminated modulo P.  True when every
    line finds a pivot: some order-min(m, n) minor of the image is then
    nonzero, and it is the image of the same minor of ``a``, which so is
    nonzero too.  False proves nothing: a nonzero minor can vanish modulo P.
    The update subtracts f top[t] and leaves the rows unreduced; each line
    is reduced once, when its own step comes.
    """
    lines = a if len(a) <= len(a[0]) else zip(*a)
    rows = [[(re + _I * im) % _P for re, im in line] for line in lines]
    width = len(rows[0])
    for k in range(len(rows)):
        top = rows[k] = [x % _P for x in rows[k]]
        j = next((j for j, x in enumerate(top) if x), None)
        if j is None:
            return False
        inverse = pow(top[j], -1, _P)
        for row in rows[k + 1 :]:
            f = row[j] * inverse % _P
            if f:
                for t in range(j, width):
                    row[t] -= f * top[t]
    return True


def det_pairs(a: list[list[Pair]], n: int) -> Pair:
    """Determinant of an n x n Gaussian-integer matrix."""
    e = eliminate(a)
    return e.det if e.rank == n else _ZERO


def adjoint_solve_pairs(e: Elimination, b: list[list[Pair]] | None = None) -> tuple[list[list[Pair]], Pair, int]:
    """(X, d, f) with X f = adj(g) b and d f = det g, from the elimination ``e`` of an n x n Gaussian-integer g.

    b is the n x p right side, the n x n identity when None, and f is a
    positive int; a singular g raises ArithmeticError.  ``e`` swept the
    primitive rows P of g = D P, D = diag(contents), so
    det g = prod(D) det P and adj(g) = adj(P) adj(D) = adj(P) prod(D) D^-1.
    With L = lcm(contents) and f = prod(D) / L, adj(g) b = f adj(P) (L D^-1 b)
    and det g = f L det P, and L D^-1 b is a Gaussian-integer matrix.  The
    replay runs the sweep's steps on its rows, O(n^2 p) integer operations,
    exactly what the sweep of [P | L D^-1 b] would do to them.  That leaves
    an upper-triangular system U x = c, which :func:`_back_substitute`
    solves for X = det(P) x = adj(P) L D^-1 b.  The identity needs no L:
    the replay runs on it as it is, and column j of adj(P) is scaled by
    L / D_j at the end.  The replay takes the sweep's form: on int rows a
    real b is read as ints, and a complex b replays on the sweep's rows as
    pairs.

    The identity in the sweep's row order is I with its columns in that
    order, and the replay and the back substitution act on rows alone, so
    they run on I itself and the columns are put back once at the end.  The
    replay keeps I lower triangular: before step k, row i > k is 0 past
    column k - 1 but for its diagonal, where (pivot x_ii - lead 0) / prev
    turns the last step's pivot into this one's.  So step k updates columns
    0..k alone, about n^3 / 6 entry updates in place of n^3 / 2.  A row's
    diagonal is first read at its own step, so row k + 1's is set after
    step k to that step's pivot, the value it has by then.
    """
    u = e.rows
    n = len(u)
    if e.rank < n:
        raise ArithmeticError(f"singular matrix: rank {e.rank} of {n}")
    contents = e.contents
    big = lcm(*contents)
    scales = [big // c for c in contents]
    if b is None:
        x = _identity(n)
    else:
        x = _scaled(b, scales)
        x = [x[i] for i in e.order]
    ints = _holds_ints(u) and not any(map(itemgetter(1), chain.from_iterable(x)))
    u, x = (u, _ints(x)) if ints else (_pairs(u), x)
    update, prev = (_update_int, 1) if ints else (_update, _ONE)
    for k in range(n):
        pivot, top = u[k][k], x[k]
        stop = k + 1 if b is None else None
        for i in range(k + 1, n):
            update(x[i], top, pivot, u[i][k], prev, 0, stop)
        if b is None and k + 1 < n:
            x[k + 1][k + 1] = pivot
        prev = pivot
    det_p = e.swept_det
    x = _back_substitute(u, e.pivots, x, det_p)
    if b is None:
        at = sorted(range(n), key=e.order.__getitem__)  # column c of x is column order[c] of adj(P)
        x = _column_scaled([[row[c] for c in at] for row in x], scales)
    return x, (det_p[0] * big, det_p[1] * big), prod(contents) // big


def gram_solve_pairs(g: list[list[Pair]], z: list[list[Pair]]) -> tuple[list[list[Pair]], Pair]:
    """adj(g) z and det g for a positive definite Hermitian r x r ``g`` and an r x p ``z``.

    ``g`` and ``z`` are left as they are.  One fraction-free sweep of
    [g | z] on g's upper triangle: every step of a Hermitian matrix's
    Bareiss sweep is a matrix of bordered minors, so it stays Hermitian, and
    row i is updated on columns j >= i only, with the lead below pivot k the
    conjugate of the pivot row's entry at that step.  The same update runs
    on z's columns, which is the replay.  The pivots are the leading
    principal minors, real and positive, so there is no row exchange and
    no content is divided out; the last is det g, and :func:`_back_substitute`
    takes z's columns the rest of the way.  A zero pivot, which a singular
    g meets, raises ArithmeticError.
    """
    r = len(g)
    a = [[*row, *side] for row, side in zip(g, z)]
    if ints := _int_rows(a):
        a = _ints(a)
    update, zero, prev = (_update_int, 0, 1) if ints else (_update, _ZERO, _ONE)
    for k in range(r):
        pivot, top = a[k][k], a[k]
        if pivot == zero:
            raise ArithmeticError("zero pivot: the Gram matrix is singular")
        for i in range(k + 1, r):
            update(a[i], top, pivot, top[i] if ints else (top[i][0], -top[i][1]), prev, i)
        prev = pivot
    det = (prev, 0) if ints else prev
    return _back_substitute(a, range(r), [row[r:] for row in a], det), det


def _back_substitute(u, pivots, x, det: Pair) -> list[list[Pair]]:
    """det U^-1 x, as pairs, for the r x r upper triangle U[i][t] = u[i][pivots[t]] (t >= i) of a sweep's rows.

    ``x`` is r x p and is overwritten; ``u`` and ``x`` are both int rows or
    both pairs.  Entry (i, j) of X = det U^-1 x is
    (det x[i][j] - sum_{t>i} U[i][t] X[t][j]) / U[i][i].  From r = ``_INT_MIN``
    up each entry is one dot product and one division: the solved entries
    are kept by column, bottom row first, so the sum is
    ``sum(map(mul, coefficients, column))`` on int rows and one loop on
    pairs.  Below it the sum runs as one row update per term, with the
    division by the pivot at the last, which costs less on short columns.
    Both sum the same integers.  With ``det`` the sweep's last pivot, up to
    sign, and x a right side the sweep's steps have been run on, every
    division is exact (Bareiss, Math. Comp. 22(103), 1968), and each keeps
    its remainder check.
    """
    r = len(x)
    ints = _holds_ints(u)
    if r < _INT_MIN:
        update, zero, one, det = (_update_int, 0, 1, det[0]) if ints else (_update, _ZERO, _ONE, det)
        for i in range(r - 1, -1, -1):
            row, scale, coefficients = x[i], det, u[i]
            for t in range(i + 1, r):
                update(row, x[t], scale, coefficients[pivots[t]], one, 0)
                scale = one
            update(row, row, scale, zero, coefficients[pivots[i]], 0)
        return _pairs(x)
    columns = [[] for _ in x[0]]  # column j holds X[r-1][j], X[r-2][j], ... as they are solved
    for i in range(r - 1, -1, -1):
        row = u[i]
        coefficients = [row[pivots[t]] for t in range(r - 1, i, -1)]
        x[i] = (_solve_int(x[i], columns, coefficients, det[0], row[pivots[i]]) if ints
                else _solve_pairs(x[i], columns, coefficients, det, row[pivots[i]]))
    return x


def _solve_int(row: list[int], columns: list[list[int]], coefficients: list[int], det: int,
               pivot: int) -> list[Pair]:
    """Row i of the dot form of :func:`_back_substitute` on int rows, as pairs; appends each entry to its column."""
    out = []
    for v, column in zip(row, columns):
        q, rem = divmod(det * v - sum(map(mul, coefficients, column)), pivot)
        if rem:
            raise ArithmeticError("inexact division in fraction-free elimination")
        column.append(q)
        out.append((q, 0))
    return out


def _solve_pairs(row: list[Pair], columns: list[list[Pair]], coefficients: list[Pair], det: Pair,
                 pivot: Pair) -> list[Pair]:
    """Row i of the dot form of :func:`_back_substitute` on pairs; appends each entry to its column.

    Every product takes its imaginary cross terms, 0 when both factors are
    real: a real system with a real right side takes :func:`_solve_int` at
    these sizes.  A non-real pivot divides through its conjugate and squared
    modulus, as in :func:`_update`.
    """
    dr, di = det
    pr, pi = pivot
    norm = pr * pr + pi * pi
    for j, ((xr, xi), column) in enumerate(zip(row, columns)):
        re, im = dr * xr - di * xi, dr * xi + di * xr
        for (a, b), (c, d) in zip(coefficients, column):
            re -= a * c - b * d
            im -= a * d + b * c
        if pi:
            re, im = re * pr + im * pi, im * pr - re * pi
            re, rr = divmod(re, norm)
            im, ri = divmod(im, norm)
        else:
            re, rr = divmod(re, pr)
            im, ri = divmod(im, pr)
        if rr or ri:
            raise ArithmeticError("inexact division in fraction-free elimination")
        row[j] = pair = (re, im)
        column.append(pair)
    return row


def row_factor_pairs(e: Elimination) -> tuple[list[list[Pair]], int]:
    """C' and a positive int c with C' / c = W^-1 R, from the elimination ``e`` of an m x n g of rank r >= 1.

    R and W are g's pivot rows and their pivot block, and W^-1 R = W''^-1 R''
    for R'' and W'' of g's skeleton (:func:`skeleton`), so g = g[:, P] W^-1 R
    is a rank factorization, with P = ``e.pivots``.  It calls no
    :func:`skeleton`, since Cline's chain reads P alone, and it forms neither
    factor: the kept sweep is a fraction-free LU of R'' with no exchange: its first r rows U = ``e.rows[:r]`` are the upper-triangular
    system whose back substitution gives adj(W'') R'', once the leads that
    the sweep keeps below each pivot are read as 0 (C's pivot columns are
    W''^-1 W'' = I).  So no row is replayed, and the back substitution runs
    in the sweep's form, over the real scale c: |det W''| when det W'', the
    sweep's last pivot, is real, else |det W''|^2.  Either is a multiple of
    det W'', so every division of the back substitution over c is exact
    (Bareiss, Math. Comp. 22(103), 1968), and it gives C' = c W''^-1 R''
    with no second pass.  The caller reduces C' / c to lowest terms.
    """
    r, pivots = e.rank, e.pivots
    u = e.rows[:r]
    x = [list(row) for row in u]
    zero = 0 if _holds_ints(u) else _ZERO
    for i, row in enumerate(x):
        for j in pivots[:i]:
            row[j] = zero
    dr, di = e.swept_det
    c = dr * dr + di * di if di else abs(dr)
    return _back_substitute(u, pivots, x, (c, 0)), c


def rank_pairs(a: list[list[Pair]]) -> int:
    """Rank of a Gaussian-integer matrix."""
    return eliminate(a).rank


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


def _products(a: list[list[Pair]], b: list[list[Pair]], upper: bool) -> list[list[Pair]]:
    """The rows of a b; with ``upper``, row i holds its entries from column i on."""
    cols = list(zip(*b))
    if _int_rows(a, b):
        cols = _ints(cols)
        return [[(sum(map(mul, row, col)), 0) for col in (cols[i:] if upper else cols)]
                for i, row in enumerate(_ints(a))]
    return [[_dot(row, col) for col in (cols[i:] if upper else cols)] for i, row in enumerate(a)]


def matmul_pairs(a: list[list[Pair]], b: list[list[Pair]]) -> list[list[Pair]]:
    """Product of two Gaussian-integer matrices given as lists of rows."""
    return _products(a, b, False)


def hermitian_matmul_pairs(a: list[list[Pair]], b: list[list[Pair]]) -> list[list[Pair]]:
    """:func:`matmul_pairs` for a product known to be Hermitian: it forms the entries on and above
    the diagonal, and each entry below is the conjugate of its mirror."""
    upper = _products(a, b, True)
    return [[(re, -im) for re, im in (upper[j][i - j] for j in range(i))] + upper[i] for i in range(len(a))]


def _conjugate_transpose(a) -> list[list[Pair]]:
    return [[(re, -im) for re, im in col] for col in zip(*a)]


def _identity(r: int) -> list[list[Pair]]:
    return [[_ONE if i == j else _ZERO for j in range(r)] for i in range(r)]


def skeleton_ledger_pairs(
    a: list[list[Pair]], e: Elimination | None, b: list[list[Pair]] | None = None, adjoint: bool = False,
) -> tuple[list[list[Pair]], Pair, int, int]:
    """Gram ledgers of an m x n Gaussian-integer A of rank r >= 1, from its elimination ``e`` or, at full rank, A alone.

    Returns (X, d, f, q): the ledger is X f / q over d f / q, for positive
    ints f and q, and b is the m x m identity when None.  ``e`` None means
    rank A = min(m, n): the ledger is then the full-rank ledger
    (:func:`_factor_ledger`) of M = A, or A* when ``adjoint``, on M's rows
    when it has full row rank (no more rows than columns), else on its
    conjugated columns, one Gram solve of order min(m, n) ("eq7" for A at
    full row rank, "eq6" at full column rank), and q = 1.  Otherwise it reads
    A's skeleton (C''*, g, R'', W'') from :func:`skeleton`: A = C W''^-1 R''
    for C = C'' diag(g), which has full column rank, and W''^-1 R'' full row
    rank, so A+ = R''+ W'' C+: the full-rank ledger of C on b (the lines C''*
    with contents g), times W'', then that of R'' (contents 1).  By
    Cauchy-Binet the two ledgers' d f multiply to d_r(A*A) |det W''|^2, where
    det W'' is the last pivot of ``e``, so q = |det W''|^2.  ``adjoint``
    gives (A*)+ b from the skeleton (R''*, W''*, C*) of A*, read from the
    same home.
    """
    if e is None:
        m, n = len(a), len(a[0])
        full_row = n <= m if adjoint else m <= n  # M has full row rank
        return *_factor_ledger(*_primitive(a if full_row != adjoint else _conjugate_transpose(a)), full_row, b), 1
    c_star, g, r_rows, w = skeleton(a, e)
    c_side, r_side = (c_star, g), (r_rows, [1] * e.rank)  # R'' is primitive: each row's content is 1
    first, middle, last = (r_side, _conjugate_transpose(w), c_side) if adjoint else (c_side, w, r_side)
    x, d_first, f_first = _factor_ledger(*first, False, b)
    x, d_last, f_last = _factor_ledger(*last, True, matmul_pairs(middle, x))
    pr, pi = e.swept_det
    return x, _mul(d_first, d_last), f_first * f_last, pr * pr + pi * pi


def skeleton(a, e: Elimination) -> tuple[list[list[Pair]], list[int], list[list[Pair]], list[list[Pair]]]:
    """(C''*, g, R'', W''): the skeleton of an m x n Gaussian-integer A of rank r >= 1 from its elimination ``e``.

    With P = ``e.pivots`` and Q the rows ``e.order[:r]`` in the sweep's
    order: C''* is A's conjugated pivot columns A[:, P]*, each divided by its
    content, and g holds those contents; R'' is the rows A[Q, :], each
    divided by the content ``e`` keeps, and W'' = R''[:, P].  Then
    A = C'' diag(g) W''^-1 R'' (Goreinov, Tyrtyshnikov and Zamarashkin, LAA
    261, 1997), with C'' of full column rank, W''^-1 R'' of full row rank
    and det W'' the last pivot of ``e``, up to sign.  Formed on each call
    and kept nowhere.
    """
    c_star, g = _primitive([[(re, -im) for re, im in (a_row[j] for a_row in a)] for j in e.pivots])
    r_rows = [_divided(a[i], e.contents[i]) for i in e.order[: e.rank]]
    return c_star, g, r_rows, [[row[j] for j in e.pivots] for row in r_rows]


def _primitive(lines: list[list[Pair]]) -> tuple[list[list[Pair]], list[int]]:
    """Each line divided by its content (:func:`_divided`), and the contents."""
    contents = [_content(line) for line in lines]
    return [_divided(line, c) for line, c in zip(lines, contents)], contents


def _factor_ledger(
    f_rows: list[list[Pair]], contents: list[int], full_row: bool, b: list[list[Pair]] | None,
) -> tuple[list[list[Pair]], Pair, int]:
    """(X, d, f) with M+ b = X f / (d f) for M of full rank given by its primitive lines F and their ``contents``.

    b is the identity when None.  The lines D F, for D the diagonal of the
    contents, are M's rows when ``full_row``, else M*'s; L = lcm(D), and
    f = prod(D)^2 / L.  At full row rank
    M = D F and M+ = F* (F F*)^-1 D^-1, so X = F* adj(F F*) L D^-1 b; else
    M = F* D and M+ = D^-1 (F F*)^-1 F, so X = L D^-1 adj(F F*) F b.  Either
    way d = L det(F F*) and one Gram solve (:func:`gram_solve_pairs`) on
    the Gram matrix :func:`hermitian_matmul_pairs` forms.
    """
    big = lcm(*contents)
    scales = [big // c for c in contents]
    if full_row:
        f_star = _conjugate_transpose(f_rows)
        z = _scaled(_identity(len(f_rows)) if b is None else b, scales)
    else:
        z = f_rows if b is None else matmul_pairs(f_rows, b)
    x, d = gram_solve_pairs(hermitian_matmul_pairs(f_rows, f_star if full_row else _conjugate_transpose(f_rows)), z)
    x = matmul_pairs(f_star, x) if full_row else _scaled(x, scales)
    return x, _mul((big, 0), d), prod(contents) ** 2 // big


def char_poly_pairs(g: list[list[Pair]]) -> list[Pair]:
    """Principal-minor sums d_0 .. d_n of an n x n Gaussian-integer matrix (d_0 = 1).

    Berkowitz's division-free algorithm (Inf. Proc. Letters 18, 1984) on the
    coefficients c_t = (-1)^t d_t of det(tI - g), in O(n^4) integer
    operations.  The coefficient vector of the trailing principal submatrix
    g[k:, k:] is a lower-triangular Toeplitz matrix times that of
    g[k+1:, k+1:]; the Toeplitz entries are 1, -g[k][k] and -R A^(t-2) C for
    the bordering row R, column C and block A.
    """
    n = len(g)
    c = [_ONE, _neg(g[n - 1][n - 1])]
    for k in range(n - 2, -1, -1):
        top = n - k
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
