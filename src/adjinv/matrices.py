"""Dense exact matrices and the primitive operations everything else builds on.

Matrices are immutable row-major arrays of :class:`~adjinv.scalars.Scalar`.
Vectors are ordinary matrices with a single column (or row).  All operations
are pure functions: they validate their inputs, never mutate them, and return
structurally canonical results, so re-running any operation reproduces its
output bit for bit.

:func:`multiply` is the kernel's integer product ``elimination.matmul_pairs``,
and :func:`from_pairs` is the package's one way from integer pairs to Scalars.

Index conventions: storage accessors (``at``, ``row``, ``column``,
``submatrix``) are 0-based like any Python container, while the replacement
operations ``replace_column`` / ``replace_row`` take 1-based positions to
match the index-sequence language used by the minor-sum formulas.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from . import elimination
from .scalars import ONE, ZERO, Scalar, parse_scalar


def as_scalar(value) -> Scalar:
    """Coerce an int, Fraction, token string, or Scalar to a Scalar."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    if isinstance(value, str):
        return parse_scalar(value)
    if isinstance(value, float):
        raise TypeError("float entries are not exact; use Fraction or a token string")
    raise TypeError(f"cannot use {type(value).__name__} as a matrix entry")


class Matrix:
    """An m x n matrix of exact Gaussian-rational scalars."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        data = tuple(as_scalar(e) for e in entries)
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be at least 1x1")
        if len(data) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(data)}"
            )
        self.rows = rows
        self.cols = cols
        self._data = data

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
        return cls(n, n, (ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (ZERO,) * (rows * cols))

    # -- accessors (0-based) --------------------------------------------------

    def at(self, i: int, j: int) -> Scalar:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside {self.rows}x{self.cols} matrix")
        return self._data[i * self.cols + j]

    def row(self, i: int) -> tuple[Scalar, ...]:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside {self.rows}x{self.cols} matrix")
        return self._data[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[Scalar, ...]:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside {self.rows}x{self.cols} matrix")
        return self._data[j :: self.cols]

    def row_lists(self) -> list[list[Scalar]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def submatrix(self, row_indices: Sequence[int], col_indices: Sequence[int]) -> "Matrix":
        """Copy of the selected rows and columns (0-based indices)."""
        picked = []
        for i in row_indices:
            base = i * self.cols
            for j in col_indices:
                picked.append(self._data[base + j])
        return Matrix(len(row_indices), len(col_indices), picked)

    # -- properties -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_zero(self) -> bool:
        return not any(self._data)

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
        return Matrix(self.rows, self.cols, (a + b for a, b in zip(self._data, other._data)))

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        _require_same_shape(self, other, "subtract")
        return Matrix(self.rows, self.cols, (a - b for a, b in zip(self._data, other._data)))

    def __mul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            s = as_scalar(other)
            return Matrix(self.rows, self.cols, (e * s for e in self._data))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return Matrix(self.rows, self.cols, (-e for e in self._data))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._data == other._data

    def __hash__(self):
        return hash((self.rows, self.cols, self._data))

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __str__(self):
        return "\n".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))


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
    entries = []
    for i in range(a.rows):
        entries.extend(a.row(i))
        entries.extend(b.row(i))
    return Matrix(a.rows, a.cols + b.cols, entries)


# -- core operations --------------------------------------------------------------


def conjugate_transpose(a: Matrix) -> Matrix:
    """The n x m matrix whose (i, j) entry is the conjugate of a(j, i)."""
    return Matrix(
        a.cols, a.rows, (a.at(j, i).conjugate() for i in range(a.cols) for j in range(a.rows))
    )


def multiply(a: Matrix, b: Matrix) -> Matrix:
    """Exact product a b = a' b' / (s t) of a = a' / s and b = b' / t over Gaussian integers."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    a_int, s = elimination.integerize_common(a.row_lists())
    b_int, t = elimination.integerize_common(b.row_lists())
    return from_pairs(elimination.matmul_pairs(a_int, b_int), s * t)


def from_pairs(rows, scale: int) -> Matrix:
    """rows / scale for rows of Gaussian-integer pairs; undoes elimination.integerize_common."""
    entries = [Scalar(Fraction(re, scale), Fraction(im, scale)) for row in rows for re, im in row]
    return Matrix(len(rows), len(rows[0]), entries)


def power(a: Matrix, k: int) -> Matrix:
    """k-th power of a square matrix by repeated exact products; a**0 = I."""
    if not a.is_square:
        raise ValueError(f"cannot raise a {a.rows}x{a.cols} matrix to a power")
    if not isinstance(k, int) or k < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = Matrix.identity(a.rows)
    for _ in range(k):
        result = multiply(result, a)
    return result


def rank(a: Matrix) -> int:
    """Exact rank over the Gaussian rationals by fraction-free elimination."""
    pairs, _ = elimination.integerize(a.row_lists())
    return elimination.rank_pairs(pairs, a.rows, a.cols)


def _vector_entries(v, length: int, what: str) -> tuple[Scalar, ...]:
    if isinstance(v, Matrix):
        if v.cols == 1:
            entries = v.column(0)
        elif v.rows == 1:
            entries = v.row(0)
        else:
            raise ValueError(f"{what} must be a vector, got a {v.rows}x{v.cols} matrix")
    else:
        entries = tuple(as_scalar(e) for e in v)
    if len(entries) != length:
        raise ValueError(f"{what} has length {len(entries)}, expected {length}")
    return entries


def replace_column(a: Matrix, j: int, b) -> Matrix:
    """Copy of ``a`` with its j-th column (1-based) replaced by vector ``b``."""
    if not 1 <= j <= a.cols:
        raise ValueError(f"column index {j} outside 1..{a.cols}")
    entries = _vector_entries(b, a.rows, "replacement column")
    data = list(a._data)
    for i in range(a.rows):
        data[i * a.cols + (j - 1)] = entries[i]
    return Matrix(a.rows, a.cols, data)


def replace_row(a: Matrix, i: int, b) -> Matrix:
    """Copy of ``a`` with its i-th row (1-based) replaced by vector ``b``."""
    if not 1 <= i <= a.rows:
        raise ValueError(f"row index {i} outside 1..{a.rows}")
    entries = _vector_entries(b, a.cols, "replacement row")
    data = list(a._data)
    data[(i - 1) * a.cols : i * a.cols] = entries
    return Matrix(a.rows, a.cols, data)
