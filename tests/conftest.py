"""Shared fixtures: golden matrices, random rank-forced corpora, an
independent cofactor-expansion determinant used as a small-case oracle, and
the eq11 Drazin representation at a chosen exponent."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from adjinv import (
    DrazinResult,
    Matrix,
    Scalar,
    column_vector,
    adjugate,
    det,
    multiply,
    power,
    rank,
)
from adjinv.minors import char_adjugate

# -- golden data ---------------------------------------------------------------

EXAMPLE1_ROWS = [
    [2, 0, -5, 4],
    [7, -4, -9, "1.5"],
    [3, -4, 7, "-6.5"],
    [1, -4, 12, "-10.5"],
]

EXAMPLE2_ROWS = [
    [1, -1, 1, 1],
    [0, 1, -1, 1],
    [1, -1, 1, 2],
    [1, -1, 1, 1],
]


@pytest.fixture(scope="session")
def example1() -> Matrix:
    return Matrix.from_rows(EXAMPLE1_ROWS)


@pytest.fixture(scope="session")
def example2() -> Matrix:
    return Matrix.from_rows(EXAMPLE2_ROWS)


@pytest.fixture(scope="session")
def rhs_1231() -> Matrix:
    return column_vector([1, 2, 3, 1])


# -- independent determinant oracle ---------------------------------------------


def det_cofactor(a: Matrix) -> Scalar:
    """First-row cofactor expansion; shares no code with the Bareiss kernel."""
    n = a.rows
    assert a.cols == n
    if n == 1:
        return a.at(0, 0)
    total = Scalar(0)
    for j in range(n):
        sub = a.submatrix(range(1, n), [c for c in range(n) if c != j])
        term = a.at(0, j) * det_cofactor(sub)
        total = total + term if j % 2 == 0 else total - term
    return total


def representation(a: Matrix, exponent: int) -> DrazinResult:
    """The eq11 representation of ``a`` evaluated at a chosen power exponent.

    Valid whenever rank(a^(exponent+1)) = rank(a^exponent); the value is the
    Drazin inverse for every exponent >= index_of(a).  The powers come from
    :func:`adjinv.power` and the core rank from :func:`adjinv.rank`, not
    from the index search.
    """
    ak = power(a, exponent)
    r = rank(ak)
    ledger = char_adjugate(multiply(ak, a), r, ak)
    return DrazinResult(ledger.quotient(), exponent, r, ledger.denominator, ledger.numerators)


# -- random corpus builders ------------------------------------------------------


def small_fraction(rng: random.Random) -> Fraction:
    num = rng.randint(-2, 2)
    if rng.random() < 0.2:
        return Fraction(num, 2)
    return Fraction(num)


def random_scalar(rng: random.Random, complex_entries: bool = False) -> Scalar:
    if complex_entries and rng.random() < 0.5:
        return Scalar(small_fraction(rng), small_fraction(rng))
    return Scalar(small_fraction(rng))


def random_matrix(rng: random.Random, rows: int, cols: int, complex_entries: bool = False) -> Matrix:
    return Matrix(rows, cols, [random_scalar(rng, complex_entries) for _ in range(rows * cols)])


def full_rank_factor(rng: random.Random, rows: int, cols: int, complex_entries: bool) -> Matrix:
    while True:
        candidate = random_matrix(rng, rows, cols, complex_entries)
        if rank(candidate) == min(rows, cols):
            return candidate


def rank_forced_matrix(rng: random.Random, m: int, n: int, r: int, complex_entries: bool = False) -> Matrix:
    """An m x n matrix of rank exactly r, built as a full-rank factor product."""
    f = full_rank_factor(rng, m, r, complex_entries)
    g = full_rank_factor(rng, r, n, complex_entries)
    return multiply(f, g)


def random_invertible(rng: random.Random, n: int, complex_entries: bool = False) -> Matrix:
    while True:
        candidate = random_matrix(rng, n, n, complex_entries)
        if rank(candidate) == n:
            return candidate


def exact_inverse(a: Matrix) -> Matrix:
    return adjugate(a) * (Scalar(1) / det(a))


def block_diag(upper: Matrix | None, lower: Matrix | None) -> Matrix:
    if upper is None:
        return lower
    if lower is None:
        return upper
    n = upper.rows + lower.rows
    rows = []
    for i in range(upper.rows):
        rows.append(list(upper.row(i)) + [0] * lower.cols)
    for i in range(lower.rows):
        rows.append([0] * upper.cols + list(lower.row(i)))
    return Matrix.from_rows(rows)


def nilpotent_block(size: int, nilindex: int) -> Matrix:
    """A size x size nilpotent matrix whose smallest vanishing power is nilindex."""
    assert 1 <= nilindex <= size
    entries = [
        [1 if (j == i + 1 and j < nilindex) else 0 for j in range(size)] for i in range(size)
    ]
    return Matrix.from_rows(entries)


def drazin_case(rng: random.Random, n: int, ind: int, complex_entries: bool = False):
    """A similarity-transformed invertible-plus-nilpotent matrix with known index.

    Returns (a, ind, ground_truth) where ground_truth is the block-form
    Drazin inverse conjugated the same way.
    """
    assert 0 <= ind <= n
    if ind == 0:
        core = random_invertible(rng, n, complex_entries)
        core_d = exact_inverse(core)
        block = core
        block_d = core_d
    else:
        nil_size = rng.randint(ind, n) if ind < n else n
        core_size = n - nil_size
        nil = nilpotent_block(nil_size, ind)
        if core_size:
            core = random_invertible(rng, core_size, complex_entries)
            block = block_diag(core, nil)
            block_d = block_diag(exact_inverse(core), Matrix.zeros(nil_size, nil_size))
        else:
            block = nil
            block_d = Matrix.zeros(n, n)
    s = random_invertible(rng, n)
    s_inv = exact_inverse(s)
    a = multiply(multiply(s, block), s_inv)
    truth = multiply(multiply(s, block_d), s_inv)
    return a, ind, truth


# -- session corpora ---------------------------------------------------------------


@pytest.fixture(scope="session")
def penrose_corpus():
    """>= 200 matrices, m, n <= 5, every rank 1..min(m, n) represented."""
    rng = random.Random(20260808)
    corpus = []
    for m in range(1, 6):
        for n in range(1, 6):
            for r in range(1, min(m, n) + 1):
                for instance in range(4):
                    a = rank_forced_matrix(rng, m, n, r, complex_entries=(instance == 3))
                    corpus.append((a, m, n, r))
    assert len(corpus) >= 200
    return corpus


@pytest.fixture(scope="session")
def drazin_corpus():
    """>= 100 constructed square matrices with known index in {0, 1, 2, 3}."""
    rng = random.Random(20260809)
    corpus = []
    for n in range(2, 6):
        for ind in range(0, min(n, 3) + 1):
            for instance in range(7):
                a, k, truth = drazin_case(rng, n, ind, complex_entries=(instance == 6))
                corpus.append((a, k, truth))
    assert len(corpus) >= 100
    return corpus
