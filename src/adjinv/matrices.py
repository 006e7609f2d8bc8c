"""Dense exact matrices and the primitive operations everything else builds on.

A :class:`Matrix` holds its entries in one exact format: ``pairs``, the rows
of Gaussian integers as ``(re, im)`` pairs of Python ints, over one positive
int ``scale``, so entry (i, j) is ``(re + im i) / scale``.  The format is in
lowest terms: the gcd of the scale and every part is 1, so the scale is the
lcm of the entries' reduced denominators and equal matrices have equal
fields.  :func:`from_pairs` is the constructor that reduces to lowest terms.
Every operation here works on the pairs, and the integer kernels of
:mod:`adjinv.elimination` take them as they are: :func:`multiply` is
``matmul_pairs`` and :func:`rank` is ``rank_pairs``.  Scalars appear only at
the edges: the constructor takes entries as Scalars, ints, Fractions or
token strings, and ``at``, ``row``, ``column``, ``row_lists`` and printing
build Scalars when a caller reads entries.

Matrices are immutable; vectors are matrices with a single column (or row).
All operations are pure functions: they validate their inputs, never mutate
them, and return canonical results, so re-running any operation reproduces
its output bit for bit.  :func:`require_square` is the package's one check
that an operation's input is square.  A matrix keeps its one Bareiss sweep,
its Drazin index chain, its Drazin inverse and its Moore-Penrose inverse in
one private slot (:func:`kept`), which equality, hashing and printing ignore.

Index conventions: storage accessors (``at``, ``row``, ``column``,
``submatrix``) are 0-based like any Python container, while the replacement
operations ``replace_column`` / ``replace_row`` take 1-based positions to
match the index-sequence language used by the minor-sum formulas.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from . import elimination
from .elimination import Pair
from .scalars import Scalar, parse_scalar


def as_scalar(value) -> Scalar:
    """A Scalar as it is, a token string parsed, anything else through ``Scalar(value)``.

    So an int or a Fraction becomes a real Scalar, and ``Scalar`` raises the
    TypeError for a float or any other non-exact value.
    """
    if isinstance(value, Scalar):
        return value
    if isinstance(value, str):
        return parse_scalar(value)
    return Scalar(value)


class Matrix:
    """An m x n matrix of exact Gaussian rationals: ``pairs`` / ``scale`` in lowest terms."""

    __slots__ = ("rows", "cols", "pairs", "scale", "_kept")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        data = [as_scalar(e) for e in entries]
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be at least 1x1")
        if len(data) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(data)}"
            )
        self.rows = rows
        self.cols = cols
        self._kept = {}
        self.pairs, self.scale = elimination._integerize(
            [data[i * cols : (i + 1) * cols] for i in range(rows)]
        )

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
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside {self.rows}x{self.cols} matrix")
        return tuple(scalar_of(p, self.scale) for p in self.pairs[i])

    def column(self, j: int) -> tuple[Scalar, ...]:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside {self.rows}x{self.cols} matrix")
        return tuple(scalar_of(row[j], self.scale) for row in self.pairs)

    def row_lists(self) -> list[list[Scalar]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def submatrix(self, row_indices: Sequence[int], col_indices: Sequence[int]) -> "Matrix":
        """Copy of the selected rows and columns (0-based indices)."""
        return from_pairs([[self.pairs[i][j] for j in col_indices] for i in row_indices], self.scale)

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
        (((cr, ci),),), cs = elimination.integerize([[as_scalar(other)]])
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

    Divides out the gcd of the scale and every part, so the result is in
    lowest terms.
    """
    if not rows or not rows[0]:
        raise ValueError("matrix dimensions must be at least 1x1")
    g = gcd(scale, *(part for row in rows for pair in row for part in pair))
    if g == 1:
        return _matrix(tuple(map(tuple, rows)), scale)
    return _matrix(tuple(tuple((re // g, im // g) for re, im in row) for row in rows), scale // g)


def scalar_of(pair: Pair, scale: int) -> Scalar:
    """The Scalar pair / scale, for one Gaussian-integer pair and a positive int scale."""
    re, im = pair
    return Scalar(Fraction(re, scale), Fraction(im, scale))


def _rescaled(rows, factor: int) -> list[list[Pair]]:
    if factor == 1:
        return [list(row) for row in rows]
    return [[(re * factor, im * factor) for re, im in row] for row in rows]


def _common(a_rows, a_scale: int, b_rows, b_scale: int):
    """a_rows / a_scale and b_rows / b_scale as list rows over their common scale.

    Returns the two rescaled row lists and the scale lcm(a_scale, b_scale).
    """
    scale = lcm(a_scale, b_scale)
    return _rescaled(a_rows, scale // a_scale), _rescaled(b_rows, scale // b_scale), scale


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


def sweep(a: Matrix) -> elimination.Elimination:
    """The fraction-free elimination of a's pairs, kept on ``a``; its readers must not change it."""
    return kept(a, "sweep", lambda a: elimination.eliminate(a.pairs))


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
        (entries,), scale = elimination.integerize([[as_scalar(e) for e in v]])
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
