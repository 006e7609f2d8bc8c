"""Seeded input corpora for the benchmark workloads.

Every matrix is built by construction, so its rank (and for square inputs its
Drazin index and characteristic polynomial) is known without asking the
library.  The program under test only ever sees the matrix-file text produced
here; the benchmark keeps the construction facts for its exact checks.

Entries are held as ``(re, im)`` pairs of :class:`fractions.Fraction`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

Entry = tuple[Fraction, Fraction]
Rows = list[list[Entry]]

# Upper limit on the summed minor-sum work C(n-1, r-1) * m * n of a corpus.
# A mis-sized corpus fails before anything runs instead of running for hours.
MINOR_CEILING = 2_000_000

_ZERO: Entry = (Fraction(0), Fraction(0))
_ONE: Entry = (Fraction(1), Fraction(0))


@dataclass(frozen=True)
class Case:
    """One generated matrix with the facts its construction guarantees."""

    key: str
    text: str  # matrix-file text handed to the program
    rows: int
    cols: int
    rank: int
    index: int = 0  # Drazin index; square cases only
    char_coeffs: tuple[Entry, ...] = ()  # d_1 .. d_n; drazin cases only
    rhs: tuple[Entry, ...] = ()  # right side for the solver ops
    row_rhs: tuple[Entry, ...] = ()  # right side of the row system x A = y


# -- exact helpers ----------------------------------------------------------------


def _add(x: Entry, y: Entry) -> Entry:
    return (x[0] + y[0], x[1] + y[1])


def _mul(x: Entry, y: Entry) -> Entry:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _matmul(a: Rows, b: Rows) -> Rows:
    out = []
    for arow in a:
        row = []
        for j in range(len(b[0])):
            acc = _ZERO
            for t, x in enumerate(arow):
                if x != _ZERO and b[t][j] != _ZERO:
                    acc = _add(acc, _mul(x, b[t][j]))
            row.append(acc)
        out.append(row)
    return out


def _entry(rng: random.Random, lo: int, hi: int, complex_: bool, nonzero: bool = False) -> Entry:
    while True:
        re = rng.randint(lo, hi)
        im = rng.randint(lo, hi) if complex_ else 0
        if re or im or not nonzero:
            return (Fraction(re), Fraction(im))


def _fraction_token(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def token(e: Entry) -> str:
    """The matrix-file token of an entry (the library's own scalar grammar)."""
    re, im = e
    if not im:
        return _fraction_token(re)
    if not re:
        return _fraction_token(im) + "i"
    sign = "+" if im > 0 else "-"
    return f"{_fraction_token(re)}{sign}{_fraction_token(abs(im))}i"


def matrix_text(rows: Rows) -> str:
    lines = [f"{len(rows)} {len(rows[0])}"]
    lines.extend(" ".join(token(e) for e in row) for row in rows)
    return "\n".join(lines) + "\n"


def _trapezoid(rng: random.Random, m: int, r: int, lower: bool, complex_: bool) -> Rows:
    """m x r unit-lower (or r x m nonzero-diagonal upper) trapezoid: rank r."""
    out = []
    for i in range(m if lower else r):
        row = []
        for j in range(r if lower else m):
            if i == j:
                row.append(_ONE if lower else _entry(rng, -3, 3, complex_, nonzero=True))
            elif (i > j) == lower:
                row.append(_entry(rng, -2, 2, complex_))
            else:
                row.append(_ZERO)
        out.append(row)
    return out


def _shuffled(rng: random.Random, rows: Rows) -> Rows:
    """Permute rows and columns; rank and shape are unchanged."""
    rows = [list(r) for r in rows]
    rng.shuffle(rows)
    perm = list(range(len(rows[0])))
    rng.shuffle(perm)
    return [[r[j] for j in perm] for r in rows]


def rank_r_matrix(rng: random.Random, m: int, n: int, r: int, complex_: bool) -> Rows:
    """Dense m x n matrix of exact rank r: L (m x r, unit lower) times U (r x n)."""
    return _shuffled(rng, _matmul(_trapezoid(rng, m, r, True, complex_), _trapezoid(rng, n, r, False, complex_)))


def vector(rng: random.Random, length: int, complex_: bool) -> tuple[Entry, ...]:
    return tuple(_entry(rng, -5, 5, complex_) for _ in range(length))


def _elementary_symmetric(values: list[Entry]) -> list[Entry]:
    """e_1 .. e_n of the values."""
    e = [_ONE] + [_ZERO] * len(values)
    for v in values:
        for k in range(len(values), 0, -1):
            e[k] = _add(e[k], _mul(e[k - 1], v))
    return e[1:]


def drazin_matrix(rng: random.Random, n: int, index: int, nil_size: int, complex_: bool):
    """P (C + N) P^-1 with C upper triangular nonsingular and N nilpotent.

    N is a direct sum of nilpotent Jordan blocks, the largest of size
    ``index``, so the Drazin index is exactly ``index``.  P is a fixed chain
    of elementary row operations (down the matrix, then back up), each with
    its inverse column operation, followed by a random permutation.  The
    fixed chain keeps the entry sizes alike from seed to seed.  Returns the
    rows and d_1 .. d_n of the characteristic polynomial.
    """
    core = n - nil_size
    a = [[_ZERO] * n for _ in range(n)]
    diag = []
    for i in range(core):
        # Eigenvalues of one modulus (2, or sqrt 5), so powers grow alike.
        if complex_:
            re, im = rng.choice(((2, 1), (1, 2)))
            d = (Fraction(re * rng.choice((-1, 1))), Fraction(im * rng.choice((-1, 1))))
        else:
            d = (Fraction(2 * rng.choice((-1, 1))), Fraction(0))
        diag.append(d)
        a[i][i] = d
        for j in range(i + 1, core):
            unit = Fraction(rng.choice((-1, 1)))
            a[i][j] = (_ZERO[0], unit) if complex_ and rng.random() < 0.5 else (unit, _ZERO[1])
    blocks = [index]
    while sum(blocks) < nil_size:
        blocks.append(min(index, nil_size - sum(blocks)))
    start = core
    for size in blocks:
        for t in range(size - 1):
            a[start + t][start + t + 1] = _ONE
        start += size
    chain = [(i, i - 1) for i in range(1, n)] + [(i - 1, i) for i in range(n - 1, 0, -1)]
    for i, j in chain:
        c = Fraction(rng.choice((-1, 1)))
        for col in range(n):  # row i += c * row j
            a[i][col] = (a[i][col][0] + c * a[j][col][0], a[i][col][1] + c * a[j][col][1])
        for row in range(n):  # column j -= c * column i
            a[row][j] = (a[row][j][0] - c * a[row][i][0], a[row][j][1] - c * a[row][i][1])
    perm = list(range(n))
    rng.shuffle(perm)
    a = [[a[p][q] for q in perm] for p in perm]
    coeffs = _elementary_symmetric(diag) + [_ZERO] * nil_size
    return a, tuple(coeffs)


def scaled_rows(rng: random.Random, rows: Rows) -> Rows:
    """Scale each row by a random multi-digit rational; rank is unchanged."""
    out = []
    for row in rows:
        s = Fraction(rng.randrange(65, 128, 2) * rng.choice((-1, 1)), 8)
        out.append([(e[0] * s, e[1] * s) for e in row])
    return out


def minor_work(m: int, n: int, r: int) -> int:
    """C(n-1, r-1) * m * n: minors one minor-sum ledger evaluates, taking the
    cheaper of the column (eq1) and row (eq2) forms as ``mp_inverse`` does."""
    return min(comb(n - 1, r - 1), comb(m - 1, r - 1)) * m * n if r else 0


def check_ceiling(shapes) -> int:
    """Sum the minor-sum work over a corpus of (m, n, rank) shapes; raise if it
    is above the ceiling."""
    total = sum(minor_work(m, n, r) for m, n, r in shapes)
    if total > MINOR_CEILING:
        raise ValueError(
            f"corpus needs {total} minors, above the ceiling of {MINOR_CEILING}; "
            "shrink the size mix"
        )
    return total
