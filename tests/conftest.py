"""Shared fixtures: golden matrices, random rank-forced corpora, an
independent cofactor-expansion determinant used as a small-case oracle, and
two reference routes the kernel no longer takes: Decell's Horner evaluation
of the characteristic adjugate at any order, and the eq11 Drazin
representation from the powers of A at a chosen exponent."""

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
from adjinv import elimination
from adjinv.matrices import from_pairs, scalar_of
from adjinv.minors import Ledger
from adjinv.scalars import ONE

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


# -- reference routes ----------------------------------------------------------------


def horner_adjugate_pairs(g: list[list], r: int, b: list[list]) -> tuple[list[list], tuple[int, int]]:
    """N_r(g) b and d_r(g) for a Gaussian-integer n x n g and n x p b, at 1 <= r <= n.

    d_t is the sum of the order-t principal minors of g and
    N_r(g) = sum_{t<r} (-1)^(r-1-t) d_t g^(r-1-t).  Entry (i, j) of N_r(g) b
    is the sum, over the order-r principal index sets containing i, of the
    minors of g with column i replaced by column j of b (Decell, SIAM Review
    7(4), 1965).  Horner's rule: X = (-1)^(r-1) b, then
    X <- g X + (-1)^(r-1-t) d_t b for t = 1 .. r-1, with d_1 .. d_r from
    Berkowitz (``elimination.char_poly_pairs``).  At r = n, N_n(g) is the
    classical adjugate and d_n(g) the determinant, a singular g's too.  The
    library forms this only at r = n of a nonsingular g, the core of the
    Drazin index chain, by an adjoint solve (``elimination.adjoint_solve_pairs``
    in ``minors.chain_ledger``); every other order is a reference route.
    """
    neg, mul = elimination._neg, elimination._mul
    d = elimination.char_poly_pairs(g)
    x = b if r % 2 else [[neg(w) for w in row] for row in b]
    for t in range(1, r):
        coeff = neg(d[t]) if (r - 1 - t) % 2 else d[t]
        x = [
            [(u[0] + v[0], u[1] + v[1]) for u, v in zip(gx_row, [mul(coeff, w) for w in b_row])]
            for gx_row, b_row in zip(elimination.matmul_pairs(g, x), b)
        ]
    return x, d[r]


def horner_ledger(g: Matrix, r: int, b: Matrix) -> Ledger:
    """The ledger (N_r(g) @ b, d_r(g)) at any order 0 <= r <= n, by Berkowitz and Horner.

    The library's ``minors.chain_ledger`` serves order n of a nonsingular
    g only (index 0), and order 0 is the zero ledger (0, 1); this reference serves
    every order, on the pairs of g = g' / s and b = b' / e, rescaled by
    s^(r-1) e and s^r.
    """
    if r == 0:
        return Ledger(Matrix.zeros(g.rows, b.cols), ONE)
    x, d = horner_adjugate_pairs(g.pairs, r, b.pairs)
    return Ledger(from_pairs(x, g.scale ** (r - 1) * b.scale), scalar_of(d, g.scale**r))


def representation(a: Matrix, exponent: int) -> DrazinResult:
    """The eq11 representation of ``a`` evaluated at a chosen power exponent.

    Valid whenever rank(a^(exponent+1)) = rank(a^exponent); the value is the
    Drazin inverse for every exponent >= index_of(a).  The powers come from
    :func:`adjinv.power`, the core rank from :func:`adjinv.rank` and the
    ledger from :func:`horner_ledger` on A^(exponent+1), not from the index
    chain.
    """
    ak = power(a, exponent)
    r = rank(ak)
    ledger = horner_ledger(multiply(ak, a), r, ak)
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
