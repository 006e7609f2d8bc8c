"""Dense exact matrices and the primitive operations everything else builds on.

A :class:`Matrix` holds its entries in one exact format: ``pairs``, the rows
of Gaussian integers as ``(re, im)`` pairs of Python ints, over one positive
int ``scale``, so entry (i, j) is ``(re + im i) / scale``.  The format is in
lowest terms: the gcd of the scale and every part is 1, so the scale is the
lcm of the entries' reduced denominators and equal matrices have equal
fields.  :func:`from_pairs` is the constructor that reduces to lowest terms.
Lowest terms is about the scale alone: a row whose entries share a factor
keeps it in every part (its content), and the kernels divide it out where
they sweep.  Every operation here works on the pairs, and the integer
kernels of :mod:`adjinv.elimination` take them as they are:
:func:`multiply` is ``matmul_pairs`` and :func:`rank` is ``rank_pairs``.
Every value enters by one rule: :func:`adjinv.scalars.entry_parts` gives
its numerators and denominators (of a Scalar, int, Fraction or token
string), :func:`adjinv.elimination.integerize` scales rows of them to the
lcm of their denominators, and :func:`from_pairs` reduces that.  The
constructor, a scalar factor, a sequence vector (:func:`replace_column`,
:func:`replace_row`) and the matrix-text reader of :mod:`adjinv.matrix_io`
all take it, and build no Scalar; ``at``, ``row``, ``column``,
``row_lists`` and printing build Scalars when a caller reads entries.

Matrices are immutable; vectors are matrices with a single column (or row).
All operations are pure functions: they validate their inputs, never mutate
them, and return canonical results, so re-running any operation reproduces
its output bit for bit.  :func:`require_square` is the package's one check
that an operation's input is square.  A matrix keeps what its operations
compute in one private slot (:func:`kept`), which equality, hashing and
printing ignore; :func:`held` reads what the slot holds without computing
it.  The slot holds the one Bareiss sweep (of its primitive rows, with
their contents, :func:`sweep`); the outcome of the full-rank certificate
modulo a prime that a tall or wide matrix tries before it sweeps
(:func:`known_rank`, the one rank rule the ledger operations read); the
Drazin index chain, Cline's factors of a square matrix down to its core
(:func:`index_chain`, which every reader of the chain goes through); the
Drazin inverse, which at index 0 is the classical inverse; and the
Moore-Penrose inverse.  At full rank the Gram ledgers read A alone, so a
matrix the certificate passes keeps no sweep and never makes one.

Index conventions: storage accessors (``at``, ``row``, ``column``,
``submatrix``) are 0-based like any Python container, while the replacement
operations ``replace_column`` / ``replace_row`` take 1-based positions to
match the index-sequence language used by the minor-sum formulas.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from . import elimination
from .elimination import Pair
from .scalars import Scalar, entry_parts


class Matrix:
    """An m x n matrix of exact Gaussian rationals: ``pairs`` / ``scale`` in lowest terms."""

    __slots__ = ("rows", "cols", "pairs", "scale", "_kept")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        data = [entry_parts(e) for e in entries]
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be at least 1x1")
        if len(data) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(data)}"
            )
        m = from_pairs(*elimination._integerize([data[i * cols : (i + 1) * cols] for i in range(rows)]))
        self.rows, self.cols, self.pairs, self.scale, self._kept = rows, cols, m.pairs, m.scale, {}

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(rows[0])
        for k, r in enumerate(rows):
            if len(r) != width:
                raise ValueError(f"ragged rows: row {k + 1} has {len(r)} entries, expected {width}")
        return cls(len(rows), width, (e for r in rows for e in r))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return from_pairs([[(int(i == j), 0) for j in range(n)] for i in range(n)], 1)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return from_pairs([[(0, 0)] * cols for _ in range(rows)], 1)

    # -- accessors (0-based) --------------------------------------------------

    def at(self, i: int, j: int) -> Scalar:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside {self.rows}x{self.cols} matrix")
        return scalar_of(self.pairs[i][j], self.scale)

    def row(self, i: int) -> tuple[Scalar, ...]:
        self._require_within((i,), ())
        return tuple(scalar_of(p, self.scale) for p in self.pairs[i])

    def column(self, j: int) -> tuple[Scalar, ...]:
        self._require_within((), (j,))
        return tuple(scalar_of(row[j], self.scale) for row in self.pairs)

    def row_lists(self) -> list[list[Scalar]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def submatrix(self, row_indices: Sequence[int], col_indices: Sequence[int]) -> "Matrix":
        """Copy of the selected rows and columns (0-based indices)."""
        self._require_within(row_indices, col_indices)
        return from_pairs([[self.pairs[i][j] for j in col_indices] for i in row_indices], self.scale)

    def _require_within(self, row_indices: Iterable[int], col_indices: Iterable[int]) -> None:
        """Raise IndexError "row i outside mxn matrix" (or "column j") for the first index out of range."""
        for what, indices, size in (("row", row_indices, self.rows), ("column", col_indices, self.cols)):
            for k in indices:
                if not 0 <= k < size:
                    raise IndexError(f"{what} {k} outside {self.rows}x{self.cols} matrix")

    # -- properties -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_zero(self) -> bool:
        return not any(re or im for row in self.pairs for re, im in row)

    @property
    def H(self) -> "Matrix":
        """Conjugate transpose."""
        return conjugate_transpose(self)

    # -- operators --------------------------------------------------------------

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return multiply(self, other)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        _require_same_shape(self, other, "add")
        return _sum(self, other, 1)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        _require_same_shape(self, other, "subtract")
        return _sum(self, other, -1)

    def __mul__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        (((cr, ci),),), cs = elimination.integerize([[entry_parts(other)]])
        rows = [[(re * cr - im * ci, re * ci + im * cr) for re, im in row] for row in self.pairs]
        return from_pairs(rows, self.scale * cs)

    __rmul__ = __mul__

    def __neg__(self):
        return _matrix(tuple(tuple((-re, -im) for re, im in row) for row in self.pairs), self.scale)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        # Lowest terms make the fields canonical; the pairs carry the shape.
        return self.scale == other.scale and self.pairs == other.pairs

    def __hash__(self):
        return hash((self.scale, self.pairs))

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __str__(self):
        return "\n".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))


def _matrix(pairs: tuple[tuple[Pair, ...], ...], scale: int) -> Matrix:
    """The Matrix pairs / scale, for row tuples already in lowest terms."""
    m = Matrix.__new__(Matrix)
    m.rows, m.cols, m.pairs, m.scale, m._kept = len(pairs), len(pairs[0]), pairs, scale, {}
    return m


def from_pairs(rows, scale: int) -> Matrix:
    """rows / scale for rows of Gaussian-integer pairs and a positive int scale.

    Divides out the gcd of the scale and every part, taken in one ``gcd``
    call over the flattened parts, so the result is in lowest terms; at
    scale 1 that gcd is 1 whatever the parts, and no part is read.
    """
    if not rows or not rows[0]:
        raise ValueError("matrix dimensions must be at least 1x1")
    if scale == 1:
        return _matrix(tuple(map(tuple, rows)), 1)
    g = gcd(scale, *chain.from_iterable(chain.from_iterable(rows)))
    if g == 1:
        return _matrix(tuple(map(tuple, rows)), scale)
    return _matrix(tuple(tuple((re // g, im // g) for re, im in row) for row in rows), scale // g)


def scalar_of(pair: Pair, scale: int) -> Scalar:
    """The Scalar pair / scale, for one Gaussian-integer pair and a positive int scale."""
    re, im = pair
    return Scalar(Fraction(re, scale), Fraction(im, scale))


def _common(a_rows, a_scale: int, b_rows, b_scale: int):
    """a_rows / a_scale and b_rows / b_scale as list rows over their common scale.

    Returns the two rescaled row lists and the scale lcm(a_scale, b_scale).
    """
    scale = lcm(a_scale, b_scale)
    return (elimination._scaled(a_rows, repeat(scale // a_scale)),
            elimination._scaled(b_rows, repeat(scale // b_scale)), scale)


def _sum(a: Matrix, b: Matrix, sign: int) -> Matrix:
    """a + sign b over the common scale of a and b."""
    a_rows, b_rows, scale = _common(a.pairs, a.scale, b.pairs, b.scale)
    rows = [[(p + sign * q, r + sign * t) for (p, r), (q, t) in zip(a_row, b_row)]
            for a_row, b_row in zip(a_rows, b_rows)]
    return from_pairs(rows, scale)


def require_square(a: Matrix, what: str) -> None:
    """Raise ValueError unless ``a`` is square: "<what> needs a square matrix, got mxn"."""
    if not a.is_square:
        raise ValueError(f"{what} needs a square matrix, got {a.rows}x{a.cols}")


def _require_same_shape(a: Matrix, b: Matrix, what: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"cannot {what} {a.rows}x{a.cols} and {b.rows}x{b.cols} matrices")


# -- constructors for vectors ---------------------------------------------------


def column_vector(values: Iterable) -> Matrix:
    values = list(values)
    return Matrix(len(values), 1, values)


def row_vector(values: Iterable) -> Matrix:
    values = list(values)
    return Matrix(1, len(values), values)


def hstack(a: Matrix, b: Matrix) -> Matrix:
    """Concatenate columns: the augmented matrix [a | b]."""
    if a.rows != b.rows:
        raise ValueError(f"cannot augment {a.rows}x{a.cols} with {b.rows}x{b.cols}")
    a_rows, b_rows, scale = _common(a.pairs, a.scale, b.pairs, b.scale)
    return from_pairs([a_row + b_row for a_row, b_row in zip(a_rows, b_rows)], scale)


# -- core operations --------------------------------------------------------------


def conjugate_transpose(a: Matrix) -> Matrix:
    """The n x m matrix whose (i, j) entry is the conjugate of a(j, i)."""
    return _matrix(tuple(tuple((re, -im) for re, im in col) for col in zip(*a.pairs)), a.scale)


def multiply(a: Matrix, b: Matrix) -> Matrix:
    """Exact product a b = a' b' / (s t) of a = a' / s and b = b' / t over Gaussian integers."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return from_pairs(elimination.matmul_pairs(a.pairs, b.pairs), a.scale * b.scale)


def power(a: Matrix, k: int) -> Matrix:
    """k-th power of a square matrix by k - 1 exact products; a**0 = I."""
    require_square(a, "matrix power")
    if not isinstance(k, int) or k < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = a if k else Matrix.identity(a.rows)
    for _ in range(k - 1):
        result = multiply(result, a)
    return result


def rank(a: Matrix) -> int:
    """Exact rank over the Gaussian rationals by a fresh fraction-free elimination."""
    return elimination.rank_pairs(a.pairs)


def kept(a: Matrix, key: str, compute: Callable[[Matrix], object]):
    """``compute(a)``, computed once for ``key`` and kept on ``a``; racing threads get the first value."""
    return a._kept[key] if key in a._kept else a._kept.setdefault(key, compute(a))


def held(a: Matrix, key: str):
    """What ``a`` keeps for ``key`` (see :func:`kept`), or None; never computes."""
    return a._kept.get(key)


def sweep(a: Matrix) -> elimination.Elimination:
    """The fraction-free elimination of a's primitive rows, kept on ``a``; its readers must not change it."""
    return kept(a, "sweep", lambda a: elimination.eliminate(a.pairs))


def known_rank(a: Matrix) -> int:
    """rank a, read off the sweep ``a`` keeps if it keeps one.

    Otherwise a tall or wide ``a`` whose least dimension reaches
    ``elimination._INT_MIN`` first tries the certificate modulo a prime
    (:func:`adjinv.elimination.full_rank_mod_p`), kept on ``a``: a pass
    proves rank a = min(m, n), and no sweep is made.  A square or smaller
    ``a``, or one the certificate fails on, is swept (:func:`sweep`) and
    keeps the sweep.
    """
    least = min(a.rows, a.cols)
    if (held(a, "sweep") is None and a.rows != a.cols and least >= elimination._INT_MIN
            and kept(a, "certificate", lambda a: elimination.full_rank_mod_p(a.pairs))):
        return least
    return sweep(a).rank


def _index_search(a: Matrix) -> tuple:
    """Cline's chain of A: the index k, the core rank r, the factors (B_i, C_i) and the last M_i.

    M_0 = A, and each singular M_(i-1) of rank r_i >= 1 is factored as
    B_i C_i, with B_i its pivot columns and C_i = W^-1 R read off its kept
    sweep alone, by back substitution with no replay and no second sweep
    (:func:`adjinv.elimination.row_factor_pairs`); then M_i = C_i B_i is
    r_i x r_i, in lowest terms and kept with its sweep.  rank A^(i+1) =
    rank M_i, so k is the first i at which M_i is nonsingular, and the last
    M_i is the core M_k of size r.  An M_i of rank 0 makes A^(i+1) = 0: A is
    nilpotent, k = i + 1, r = 0, and the last M_i is that zero matrix.  The
    last M_i is None when it is A itself, so the chain A keeps holds no
    reference to A.  Only A's own sweep is n x n.
    """
    m, factors = a, []
    while (e := sweep(m)).rank not in (0, m.rows):
        b = m.submatrix(range(m.rows), e.pivots)
        c = from_pairs(*elimination.row_factor_pairs(e))
        factors.append((b, c))
        m = multiply(c, b)
    return len(factors) + (e.rank == 0), e.rank, tuple(factors), m if factors else None


def index_chain(a: Matrix) -> tuple:
    """The index chain of a square ``a`` (:func:`_index_search`), kept on ``a``: (k, r, factors, last M_i)."""
    return kept(a, "index chain", _index_search)


def _vector_pairs(v, length: int, what: str) -> tuple[list[Pair], int]:
    """A vector (a one-row or one-column Matrix, or a sequence of entries) as pairs / scale."""
    if isinstance(v, Matrix):
        if v.cols == 1:
            entries = [row[0] for row in v.pairs]
        elif v.rows == 1:
            entries = list(v.pairs[0])
        else:
            raise ValueError(f"{what} must be a vector, got a {v.rows}x{v.cols} matrix")
        scale = v.scale
    else:
        (entries,), scale = elimination.integerize([[entry_parts(e) for e in v]])
    if len(entries) != length:
        raise ValueError(f"{what} has length {len(entries)}, expected {length}")
    return entries, scale


def replace_column(a: Matrix, j: int, b) -> Matrix:
    """Copy of ``a`` with its j-th column (1-based) replaced by vector ``b``."""
    if not 1 <= j <= a.cols:
        raise ValueError(f"column index {j} outside 1..{a.cols}")
    entries, e = _vector_pairs(b, a.rows, "replacement column")
    rows, (column,), scale = _common(a.pairs, a.scale, [entries], e)
    for row, value in zip(rows, column):
        row[j - 1] = value
    return from_pairs(rows, scale)


def replace_row(a: Matrix, i: int, b) -> Matrix:
    """Copy of ``a`` with its i-th row (1-based) replaced by vector ``b``."""
    if not 1 <= i <= a.rows:
        raise ValueError(f"row index {i} outside 1..{a.rows}")
    entries, e = _vector_pairs(b, a.cols, "replacement row")
    rows, (row,), scale = _common(a.pairs, a.scale, [entries], e)
    rows[i - 1] = row
    return from_pairs(rows, scale)
