"""Differential tests of the characteristic-adjugate kernels.

The kernels (``minors.chain_ledger``, whose adjoint solves run on a
nonsingular matrix or the Drazin core, and ``minors.skeleton_ledger`` for
every Gram ledger) must agree
exactly with two independent routes: the literal replaced-minor sums of the
paper (``mp_inverse_columns`` / ``mp_inverse_rows`` and the small helpers
below), and the rank-factorization oracles of ``adjinv.verify``.  At full
rank the literal forms are the classical adjugate and the per-entry
determinants of Cramer's rule, and the kernel's fraction-free adjoint solve
is also checked against the Berkowitz and Horner reference of
``conftest``, which the kernel no longer takes.  Inputs are
generated by Hypothesis: real and complex, square, tall and wide, full
rank, rank 1, singular, nilpotent, and Drazin index 2-3.  Every comparison
is an exact equality.
"""

import copy
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import permutations
from math import gcd, isqrt, lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adjinv import (
    ONE,
    ZERO,
    Matrix,
    Scalar,
    char_poly_coeffs,
    check_drazin,
    check_penrose,
    column_vector,
    conjugate_transpose,
    det,
    drazin_inverse,
    drazin_solve,
    drazin_times_a,
    enumerate_containing,
    group_inverse,
    index_of,
    lsq_solve,
    lsq_solve_row_system,
    minor,
    mp_inverse,
    mp_inverse_columns,
    mp_inverse_rows,
    multiply,
    oracle_drazin,
    oracle_pinv,
    power,
    principal_minor_sum,
    projector_p,
    projector_q,
    range_membership,
    rank,
    replace_column,
    replace_row,
    row_vector,
)
from adjinv import drazin, elimination, matrices, minors, pinv, solvers
from adjinv.verify import _inverse, _rref
from conftest import block_diag, horner_adjugate_pairs, horner_ledger, representation

LITERAL = settings(max_examples=25, deadline=None)
ORACLE = settings(max_examples=20, deadline=None)


# -- builders -------------------------------------------------------------------


def _scalar(rng: random.Random, complex_entries: bool) -> Scalar:
    def part() -> Fraction:
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 1, 2, 3)))

    return Scalar(part(), part() if complex_entries else 0)


def _matrix(rng: random.Random, rows: int, cols: int, complex_entries: bool) -> Matrix:
    return Matrix(rows, cols, [_scalar(rng, complex_entries) for _ in range(rows * cols)])


def _deficient(seed: int, m: int, n: int, r: int, complex_entries: bool) -> Matrix:
    """A nonzero m x n matrix of rank at most r, as a product of random factors."""
    rng = random.Random(seed)
    while True:
        a = multiply(_matrix(rng, m, r, complex_entries), _matrix(rng, r, n, complex_entries))
        if not a.is_zero:
            return a


def _full_rank(seed: int, m: int, n: int, complex_entries: bool) -> Matrix:
    """A random m x n matrix of rank min(m, n)."""
    rng = random.Random(seed)
    while True:
        a = _matrix(rng, m, n, complex_entries)
        if rank(a) == min(m, n):
            return a


def _conjugate_by_elementary(rows: list[list[Scalar]], rng: random.Random, steps: int,
                             multipliers=(-2, -1, 1, 2)) -> Matrix:
    """S B S^-1 for S a product of elementary matrices I + c e_i e_j^T."""
    n = len(rows)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = Scalar(rng.choice(multipliers))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        for row in rows:
            row[j] = row[j] - c * row[i]
    return Matrix.from_rows(rows)


def _indexed(seed: int, core: int, nil_sizes: tuple[int, ...], complex_entries: bool) -> Matrix:
    """S (C + N) S^-1: C an invertible core, N nilpotent Jordan blocks.

    The Drazin index is the largest block in ``nil_sizes`` (0 if none), and
    the core rank is ``core``.
    """
    rng = random.Random(seed)
    n = core + sum(nil_sizes)
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(core):
        rows[i][i] = Scalar(rng.choice((-2, -1, 1, 2, 3)), rng.choice((-1, 0, 1)) if complex_entries else 0)
        for j in range(i + 1, core):
            rows[i][j] = _scalar(rng, complex_entries)
    start = core
    for size in nil_sizes:
        for t in range(start, start + size - 1):
            rows[t][t + 1] = Scalar(1)
        start += size
    return _conjugate_by_elementary(rows, rng, 3 * n)


seeds = st.integers(0, 2**32 - 1)


@st.composite
def deficient_matrices(draw, max_dim: int):
    """Nonzero matrices with rank below both dimensions, any shape."""
    m = draw(st.integers(2, max_dim))
    n = draw(st.integers(2, max_dim))
    r = draw(st.integers(1, min(m, n) - 1))
    return _deficient(draw(seeds), m, n, r, draw(st.booleans()))


@st.composite
def full_rank_matrices(draw, max_dim: int):
    """Square nonsingular, full-column-rank tall and full-row-rank wide matrices."""
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    return _full_rank(draw(seeds), m, n, draw(st.booleans()))


@st.composite
def square_matrices(draw, max_dim: int):
    n = draw(st.integers(1, max_dim))
    return _matrix(random.Random(draw(seeds)), n, n, draw(st.booleans()))


@st.composite
def indexed_matrices(draw, max_dim: int, max_core: int):
    """Square matrices of Drazin index 1-3, nilpotent ones included."""
    index = draw(st.integers(1, 3))
    core = draw(st.integers(0, max_core))
    nil_sizes = [index]
    while core + sum(nil_sizes) < max_dim and draw(st.booleans()):
        nil_sizes.append(draw(st.integers(1, min(index, max_dim - core - sum(nil_sizes)))))
    return _indexed(draw(seeds), core, tuple(nil_sizes), draw(st.booleans()))


RATIONAL_MULTIPLIERS = tuple(Fraction(p, q) for p in (-3, -1, 1, 2) for q in (1, 2, 5))


@st.composite
def rational_indexed(draw, max_dim: int, max_core: int):
    """(P (C + N) P^-1, index, core rank) with rational P, of index 0-3.

    Nilpotent matrices (core rank 0) are included; index 0 is a nonsingular
    core alone.
    """
    index = draw(st.integers(0, 3))
    core = draw(st.integers(0 if index else 1, max_core))
    nil_sizes = [index] if index else []
    while index and core + sum(nil_sizes) < max_dim and draw(st.booleans()):
        nil_sizes.append(draw(st.integers(1, min(index, max_dim - core - sum(nil_sizes)))))
    seed = draw(seeds)
    return _rationally_similar(_indexed(seed, core, tuple(nil_sizes), draw(st.booleans())), seed), index, core


def _rationally_similar(a: Matrix, seed: int) -> Matrix:
    """P a P^-1 for P a product of elementary matrices with rational multipliers."""
    return _conjugate_by_elementary(a.row_lists(), random.Random(seed), 2 * a.rows, RATIONAL_MULTIPLIERS)


LINE_PRIMES = tuple(p for p in range(2, 100) if all(p % d for d in range(2, p)))  # 25 primes


def _line_scaled(a: Matrix, seed: int, similar: bool = False) -> Matrix:
    """diag(k_i p_i / q_i) a E, for small contents k_i and distinct primes p_i, q_i (8 rows at most).

    E is diag(1 / e_j), a prime of its own per column, or the inverse of the
    row diagonal when ``similar``, which keeps the index and the core rank.
    Every entry then has a denominator of its own, and over the common scale
    row i's parts share k_i and the primes of the other rows, and column j's
    those of the other columns: both the row contents the sweep divides out
    and the column contents of the skeleton are above 1.
    """
    rng = random.Random(seed)
    rows = [Fraction(rng.choice((1, 2, 3, 6, 9, 10)) * LINE_PRIMES[i], LINE_PRIMES[8 + i]) for i in range(a.rows)]
    cols = ([1 / d for d in rows] if similar else
            [Fraction(1, LINE_PRIMES[16 + j]) for j in range(a.cols)])
    return Matrix.from_rows([[a.at(i, j) * (rows[i] * cols[j]) for j in range(a.cols)] for i in range(a.rows)])


@st.composite
def line_scaled(draw, inner, similar: bool = False):
    """The matrices of the strategy ``inner``, each scaled by :func:`_line_scaled`."""
    return _line_scaled(draw(inner), draw(seeds), similar)


# -- literal references ---------------------------------------------------------


def literal_ledger(g: Matrix, r: int, b: Matrix) -> tuple[Matrix, Scalar]:
    """Entry (i, j): the sum over order-r principal sets containing i of the
    minors of g with column i replaced by column j of b; and d_r(g)."""
    n = g.rows
    entries = []
    for i in range(1, n + 1):
        for j in range(b.cols):
            replaced = replace_column(g, i, b.column(j))
            total = ZERO
            for beta in enumerate_containing(r, n, i):
                total = total + minor(replaced, beta, beta)
            entries.append(total)
    return Matrix(n, b.cols, entries), principal_minor_sum(g, r)


def literal_row_components(g: Matrix, r: int, c: Matrix) -> tuple[Scalar, ...]:
    """Component i: the sum over order-r principal sets containing i of the
    minors of g with row i replaced by the row vector c."""
    n = g.rows
    out = []
    for i in range(1, n + 1):
        replaced = replace_row(g, i, c.row(0))
        total = ZERO
        for alpha in enumerate_containing(r, n, i):
            total = total + minor(replaced, alpha, alpha)
        out.append(total)
    return tuple(out)


def cramer_columns(g: Matrix, b: Matrix) -> Matrix:
    """Entry (i, j): det of g with column i replaced by column j of b."""
    return Matrix(g.rows, b.cols, [det(replace_column(g, i, b.column(j)))
                                   for i in range(1, g.rows + 1) for j in range(b.cols)])


def cramer_rows(g: Matrix, c: Matrix) -> Matrix:
    """Entry (i, j): det of g with row j replaced by row i of c."""
    return Matrix(c.rows, g.rows, [det(replace_row(g, j, c.row(i)))
                                   for i in range(c.rows) for j in range(1, g.rows + 1)])


def _exact(ledger: minors.Ledger) -> tuple[Matrix, Scalar]:
    return ledger.numerators, ledger.denominator


def _rhs(seed: int, length: int, complex_entries: bool = True) -> list[Scalar]:
    rng = random.Random(seed)
    return [_scalar(rng, complex_entries) for _ in range(length)]


# -- kernel against the literal minor sums (n <= 8) ------------------------------


@LITERAL
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
       st.integers(1, 3), seeds, st.booleans())
def test_adjoint_ledger_matches_literal_sums(nr, p, seed, complex_entries):
    # The kernel serves order n of a nonsingular g; the Horner reference every order.
    n, r = nr
    rng = random.Random(seed)
    g = _matrix(rng, n, n, complex_entries)
    b = _matrix(rng, n, p, complex_entries)
    ledger = horner_ledger(g, r, b)
    nums, d = literal_ledger(g, r, b)
    assert _exact(ledger) == (nums, d)
    if r == n and d:  # a nonsingular g has index 0: its chain ledger is (adj(g) b, det g)
        assert _exact(minors.chain_ledger(g, b)) == (nums, d)
    if d:  # the quotient against one Scalar division per entry
        assert ledger.quotient() == nums * (ONE / d)


@LITERAL
@given(deficient_matrices(8))
def test_auto_ledger_matches_literal_eq1_and_eq2(a):
    _check_auto_against_literal_forms(a)


def _check_auto_against_literal_forms(a: Matrix) -> None:
    res = mp_inverse(a)
    literal = mp_inverse_columns(a) if res.representation_used == "eq1" else mp_inverse_rows(a)
    assert res.representation_used == literal.representation_used
    assert (res.numerators, res.denominator) == (literal.numerators, literal.denominator)
    assert res.pseudo_inverse == literal.pseudo_inverse


@LITERAL
@given(deficient_matrices(7), seeds)
def test_projectors_and_solvers_match_literal_sums(a, seed):
    _check_gram_forms_against_literal_sums(a, seed)


def _check_gram_forms_against_literal_sums(a: Matrix, seed: int) -> None:
    r = rank(a)
    astar = conjugate_transpose(a)
    gram_c, gram_r = multiply(astar, a), multiply(a, astar)
    nums_p, d_p = literal_ledger(gram_c, r, gram_c)
    assert projector_p(a) == nums_p * (Scalar(1) / d_p)
    nums_q, d_q = literal_ledger(gram_r, r, gram_r)
    assert projector_q(a) == nums_q * (Scalar(1) / d_q)

    y = column_vector(_rhs(seed, a.rows))
    rep = lsq_solve(a, y)
    nums, d = literal_ledger(gram_c, r, multiply(astar, y))
    assert (rep.method, rep.numerators, rep.denominator) == ("eq14", nums.column(0), d)

    yr = row_vector(_rhs(seed + 1, a.cols))
    rep = lsq_solve_row_system(yr, a)
    g = multiply(yr, astar)
    assert (rep.method, rep.numerators, rep.denominator) == (
        "row_eq_general", literal_row_components(gram_r, r, g), d_q)


@LITERAL
@given(indexed_matrices(6, 3), seeds)
def test_drazin_forms_match_literal_sums(a, seed):
    _check_drazin_forms_against_literal_sums(a, seed)


def _check_drazin_forms_against_literal_sums(a: Matrix, seed: int) -> None:
    k = index_of(a)
    ak, b = power(a, k), power(a, k + 1)
    r = rank(ak)
    res = drazin_inverse(a)
    y = column_vector(_rhs(seed, a.rows))
    rep = drazin_solve(a, y)
    if r == 0:
        assert res.drazin_inverse.is_zero and drazin_times_a(a).is_zero
        assert rep.solution.is_zero
        return
    nums, d = literal_ledger(b, r, ak)
    assert (res.index, res.rank_core, res.numerators, res.denominator) == (k, r, nums, d)
    nums_a, _ = literal_ledger(b, r, b)
    assert drazin_times_a(a) == nums_a * (Scalar(1) / d)
    nums_y, _ = literal_ledger(b, r, multiply(ak, y))
    assert (rep.method, rep.numerators, rep.denominator) == ("eq16", nums_y.column(0), d)


@LITERAL
@given(st.one_of(square_matrices(8), indexed_matrices(8, 5)))
def test_char_poly_coeffs_match_principal_minor_sums(a):
    assert char_poly_coeffs(a) == tuple(principal_minor_sum(a, k) for k in range(1, a.rows + 1))


# -- full rank: the kernel against the adjugate and Cramer determinants (n <= 8) ----


@LITERAL
@given(full_rank_matrices(8), seeds)
def test_full_rank_ledgers_match_determinant_forms(a, seed):
    _check_full_rank_forms_against_determinants(a, seed)


def _check_full_rank_forms_against_determinants(a: Matrix, seed: int) -> None:
    m, n = a.rows, a.cols
    astar = conjugate_transpose(a)
    gram_c, gram_r = multiply(astar, a), multiply(a, astar)
    res = mp_inverse(a)
    if m == n:
        expected = ("classical_inverse", minors.adjugate(a), det(a))
    elif m > n:
        expected = ("eq6", cramer_columns(gram_c, astar), det(gram_c))
    else:
        expected = ("eq7", cramer_rows(gram_r, astar), det(gram_r))
    assert (res.representation_used, res.numerators, res.denominator) == expected

    y = column_vector(_rhs(seed, m))
    if m >= n:
        rep = lsq_solve(a, y)
        nums = cramer_columns(gram_c, multiply(astar, y)).column(0)
        assert (rep.method, rep.numerators, rep.denominator) == ("eq13", nums, det(gram_c))
    if m <= n:
        yr = row_vector(_rhs(seed + 1, n))
        rep = lsq_solve_row_system(yr, a)
        nums = cramer_rows(gram_r, multiply(yr, astar)).row(0)
        assert (rep.method, rep.numerators, rep.denominator) == ("row_eq_fullrank", nums, det(gram_r))
    if m == n:
        rep = drazin_solve(a, y)
        nums = cramer_columns(a, y).column(0)
        assert (rep.method, rep.numerators, rep.denominator) == ("classical_cramer", nums, det(a))
        res = drazin_inverse(a)
        assert (res.index, res.rank_core, res.numerators, res.denominator) == (
            0, n, minors.adjugate(a), det(a))


def _adjoint_solve(e: elimination.Elimination, b: list | None = None) -> tuple[list, tuple]:
    """adj(g) b and det g from ``adjoint_solve_pairs``' (X, d, f): X f and d f."""
    x, d, f = elimination.adjoint_solve_pairs(e, b)
    return [[(re * f, im * f) for re, im in row] for row in x], (d[0] * f, d[1] * f)


@LITERAL
@given(st.integers(1, 8), st.integers(1, 3), seeds, st.booleans())
def test_adjoint_solve_matches_berkowitz_horner(n, p, seed, complex_entries):
    rng = random.Random(seed)

    def entry():
        return (rng.randint(-3, 3), rng.randint(-3, 3) if complex_entries else 0)

    g = [[entry() for _ in range(n)] for _ in range(n)]
    b = [[entry() for _ in range(p)] for _ in range(n)]
    g_before, b_before = [row[:] for row in g], [row[:] for row in b]
    x, d = horner_adjugate_pairs(g, n, b)
    if d == (0, 0):
        with pytest.raises(ArithmeticError, match=f"singular matrix: rank [0-9]+ of {n}"):
            elimination.adjoint_solve_pairs(elimination.eliminate(g), b)
    else:
        assert _adjoint_solve(elimination.eliminate(g), b) == (x, d)
    assert (g, b) == (g_before, b_before)  # the fallback reuses both


@LITERAL
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
       st.integers(1, 3), seeds, st.booleans())
def test_the_chain_solves_no_singular_matrix_the_horner_reference_takes(nr, p, seed, complex_entries):
    # A singular g, whose order-n Horner ledger is (adj(g) b, 0).
    n, r = nr
    while rank(g := _deficient(seed, n, n, r, complex_entries)) < r:  # the builder gives rank at most r
        seed += 1000
    b = _matrix(random.Random(seed + 1), n, p, complex_entries)
    with pytest.raises(ArithmeticError, match=f"singular matrix: rank {r} of {n}"):
        elimination.adjoint_solve_pairs(elimination.eliminate(g.pairs), b.pairs)
    assert _exact(horner_ledger(g, n, b)) == (multiply(minors.adjugate(g), b), ZERO)
    # g has index 1 or more, so the chain's adjoint solves run on its nonsingular core alone.
    k, core_rank, _, core = matrices._index_search(g)
    assert k >= 1 and (core_rank == 0 or matrices.sweep(core).rank == core.rows == core_rank)


# -- the elimination against Leibniz sums and Scalar Gauss-Jordan --------------------


def _gaussian_rows(rng: random.Random, rows: int, cols: int, complex_entries: bool) -> list[list]:
    return [[(rng.randint(-4, 4), rng.randint(-4, 4) if complex_entries else 0) for _ in range(cols)]
            for _ in range(rows)]


def _elimination_input(kind: str, n: int, seed: int, complex_entries: bool) -> list[list]:
    """An n x n Gaussian-integer g of the given kind."""
    rng = random.Random(seed)
    g = _gaussian_rows(rng, n, n, complex_entries)
    if complex_entries:
        g[0][0] = (rng.choice((-2, -1, 1, 2)), rng.choice((-3, -1, 1, 2)))  # a non-real first pivot
    k = n // 2
    if kind == "zero_corner":  # the first step needs a row exchange
        g[0][0] = (0, 0)
    elif kind == "singular_leading_block":  # a singular leading (k+1) x (k+1) block: an exchange at step k
        g[k][: k + 1] = g[0][: k + 1]
    elif kind == "zero_trailing_column":  # the trailing block g[k:, k:] has a zero leading column
        for row in g[k:]:
            row[k] = (0, 0)
    elif kind == "permuted_triangular":
        for i, row in enumerate(g):
            row[:i] = [(0, 0)] * i
            if row[i] == (0, 0):
                row[i] = (1, -1 if complex_entries else 0)
        rng.shuffle(g)
    elif kind == "singular":
        g[-1] = [(0, 0)] * n if n < 3 else [(a + c, b + d) for (a, b), (c, d) in zip(g[0], g[1])]
    return g


def _leibniz(g: list[list]) -> Scalar:
    n = len(g)
    total = ZERO
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Scalar(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * Scalar(*g[i][j])
        total = total + term
    return total


ELIMINATION_CASES = [
    (kind, n, complex_entries)
    for kind in ("random", "zero_corner", "singular_leading_block", "zero_trailing_column",
                 "permuted_triangular", "singular")
    for n in range(1 if kind in ("random", "permuted_triangular", "singular") else 2, 9)
    for complex_entries in (False, True)
]


@pytest.mark.parametrize("kind, n, complex_entries", ELIMINATION_CASES)
def test_adjoint_solve_matches_leibniz_and_gauss_jordan(kind, n, complex_entries):
    seed = 1000 * n + 10 * len(kind) + complex_entries
    g = _elimination_input(kind, n, seed, complex_entries)
    gm = matrices.from_pairs(g, 1)
    rank_g = len(_rref(gm)[1])  # Scalar row reduction, no Bareiss code
    singular = rank_g < n
    if n <= 5:
        assert (_leibniz(g) == ZERO) == singular
    for p in (1, n, n + 3):
        b = _gaussian_rows(random.Random(seed + p), n, p, complex_entries)
        if singular:
            with pytest.raises(ArithmeticError, match=f"singular matrix: rank {rank_g} of {n}"):
                elimination.adjoint_solve_pairs(elimination.eliminate(g), b)
            continue
        x, d = _adjoint_solve(elimination.eliminate(g), b)
        det_g = Scalar(*d)
        if n <= 5:
            assert det_g == _leibniz(g)
        assert matrices.from_pairs(x, 1) == multiply(_inverse(gm), matrices.from_pairs(b, 1)) * det_g
    e = elimination.eliminate(g)
    assert sorted(e.order) == list(range(n)) and e.rank == rank_g
    inversions = sum(e.order[i] > e.order[j] for i in range(n) for j in range(i + 1, n))
    assert e.sign == (-1) ** inversions


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("singular", [False, True])
def test_kernels_leave_their_arguments_as_they_are(singular, complex_entries):
    g = _elimination_input("zero_corner", 5, 515 + complex_entries, complex_entries)
    if singular:
        g[-1] = [(a + c, b + d) for (a, b), (c, d) in zip(g[0], g[1])]
    b = _gaussian_rows(random.Random(516), 5, 2, complex_entries)
    saved = [row[:] for row in g], [row[:] for row in b]
    e = elimination.eliminate(g)
    assert e.order[0] != 0 and (e.rank < 5) == singular  # the first step exchanges rows
    swept = [row[:] for row in e.rows]
    assert (elimination.det_pairs(g, 5) == (0, 0)) == singular
    assert elimination.rank_pairs(g) == e.rank
    if singular:
        with pytest.raises(ArithmeticError, match=f"singular matrix: rank {e.rank} of 5"):
            elimination.adjoint_solve_pairs(e, b)
    else:
        elimination.adjoint_solve_pairs(e, b)
    assert (g, b) == saved and e.rows == swept


def test_row_update_keeps_the_exactness_check():
    # 2 / (1 + i) = 1 - i is exact; 1 / 2 and 1 / (1 + i) are not.
    row = [(2, 0)]
    elimination._update(row, [(0, 0)], (1, 0), (0, 0), (1, 1), 0)
    assert row == [(1, -1)]
    for prev in ((2, 0), (1, 1)):
        with pytest.raises(ArithmeticError, match="inexact division"):
            elimination._update([(1, 0)], [(0, 0)], (1, 0), (0, 0), prev, 0)
    # (3 (1 + i) - 2 (1 - 2i)) / 2 = (1 + 7i) / 2, with a non-real pivot and lead.
    with pytest.raises(ArithmeticError, match="inexact division"):
        elimination._update([(1, 1)], [(1, -2)], (3, 0), (2, 0), (2, 0), 0)
    with pytest.raises(ArithmeticError, match="inexact division"):
        elimination._update([(1, 0)], [(1, 0)], (0, 1), (1, 1), (0, 2), 0)


def test_int_row_update_keeps_the_exactness_check():
    # (3 * 4 - 1 * 2) / 5 = 2 is exact, and so is any update with prev 1.
    row = [4, 7]
    elimination._update_int(row, [2, 1], 3, 1, 5, 0)
    assert row == [2, 4]
    row = [4]
    elimination._update_int(row, [3], 2, 1, 1, 0)
    assert row == [5]
    # (1 * 3 - 0 * 1) / 2 and (2 * 1 - 3 * 5) / -4 are not.
    with pytest.raises(ArithmeticError, match="inexact division"):
        elimination._update_int([3], [1], 1, 0, 2, 0)
    with pytest.raises(ArithmeticError, match="inexact division"):
        elimination._update_int([8, 1], [0, 5], 2, 3, -4, 0)


# -- real entries on int rows ---------------------------------------------------------

# (m, n, r): square, tall and wide, full rank and deficient, up to 24 x 24.
INT_PATH_SHAPES = [(24, 24, 24), (24, 24, 12), (9, 9, 9), (8, 8, 3), (20, 14, 14), (14, 20, 14),
                   (18, 12, 6), (12, 18, 5), (16, 16, 15)]


def _force_kernel_form(monkeypatch, ints: bool) -> list:
    """Set the ``_INT_MIN`` gate to 0 (or past every size); returns the int-row steps run.

    At 0 every real kernel call takes int rows and every back substitution
    its dot form; past every size, pairs and row updates.  An int-row step
    is a row update or a row of the dot form.
    """
    monkeypatch.setattr(elimination, "_INT_MIN", 0 if ints else sys.maxsize)
    updates = []
    for name in ("_update_int", "_solve_int"):
        real = getattr(elimination, name)
        monkeypatch.setattr(elimination, name, lambda *args, real=real: updates.append(1) or real(*args))
    return updates


def _swept_pairs(e: elimination.Elimination) -> elimination.Elimination:
    """``e`` with its rows read as pairs, whichever form it swept them in."""
    return e._replace(rows=elimination._pairs(e.rows)) if elimination._holds_ints(e.rows) else e


def _kernel_results(g: list, b: list, c: list) -> tuple:
    """Every pair kernel on the m x n g, with an n x p c and an m x p b."""
    gt = [list(col) for col in zip(*g)]
    e = elimination.eliminate(g)
    out = [_swept_pairs(e), e.det, elimination.matmul_pairs(g, gt), elimination.matmul_pairs(gt, g),
           elimination.matmul_pairs(g, c), elimination.hermitian_matmul_pairs(g, gt),
           elimination.hermitian_matmul_pairs(gt, g)]
    if e.rank == len(g):  # g g* is positive definite
        out += [elimination.gram_solve_pairs(out[-2], elimination._identity(len(g))),
                elimination.gram_solve_pairs(out[-2], b)]
    if e.rank == len(g) == len(g[0]):
        out += [elimination.adjoint_solve_pairs(e), elimination.adjoint_solve_pairs(e, b)]
    # At full rank the Gram ledgers also read g alone (e None).
    for sweep in (e, None) if e.rank == min(len(g), len(g[0])) else (e,):
        out += [elimination.skeleton_ledger_pairs(g, sweep), elimination.skeleton_ledger_pairs(g, sweep, b),
                elimination.skeleton_ledger_pairs(g, sweep, None, True),
                elimination.skeleton_ledger_pairs(g, sweep, c, True)]
    return (*out, elimination.skeleton(g, e), elimination.row_factor_pairs(e))


@pytest.mark.parametrize("m, n, r", INT_PATH_SHAPES)
@pytest.mark.parametrize("scaled", [False, True])
def test_int_rows_and_pairs_give_identical_kernel_results(m, n, r, scaled, monkeypatch):
    seed = 100 * m + n + r
    a = _full_rank(seed, m, n, False) if r == min(m, n) else _deficient(seed, m, n, r, False)
    rng = random.Random(seed)
    g, b, c = a.pairs, _gaussian_rows(rng, m, 3, False), _gaussian_rows(rng, n, 3, False)
    if scaled:  # row and column contents above 1
        ks, ls = [rng.choice((1, 2, 6, 65, 2**70)) for _ in g], [rng.choice((1, 3, 10, 77)) for _ in g[0]]
        g = [[(re * k * f, 0) for (re, _), f in zip(row, ls)] for row, k in zip(g, ks)]
    results = {}
    for ints in (True, False):
        with monkeypatch.context() as forced:
            updates = _force_kernel_form(forced, ints)
            results[ints] = _kernel_results(g, b, c)
            assert bool(updates) == ints
    assert results[True] == results[False]
    assert elimination.eliminate(g).rank == r


@pytest.mark.parametrize("shape", [(10, 10), (12, 9), (9, 12)])
def test_complex_inputs_take_the_pair_path(shape, monkeypatch):
    m, n = shape
    a = _full_rank(717, m, n, True)
    y = _gaussian_rows(random.Random(718), m, 2, True)
    updates = _force_kernel_form(monkeypatch, True)
    e = elimination.eliminate(a.pairs)
    # Both forms of the Gram ledger, A's skeleton and A alone, give one ledger: X f / q over d f / q.
    x, d, f, q = elimination.skeleton_ledger_pairs(a.pairs, e, y)
    x_alone, d_alone, f_alone, q_alone = elimination.skeleton_ledger_pairs(a.pairs, None, y)
    assert q_alone == 1 and d[0] * f * q_alone == d_alone[0] * f_alone * q and not d[1]
    assert [[(re * f, im * f) for re, im in row] for row in x] == [
        [(re * f_alone * q, im * f_alone * q) for re, im in row] for row in x_alone]
    elimination.matmul_pairs(conjugate_transpose(a).pairs, a.pairs)
    assert updates == []


@pytest.mark.parametrize("m, n, r, complex_entries", [
    (10, 10, 10, False), (10, 10, 6, False), (10, 13, 10, False), (9, 9, 9, False), (12, 9, 7, False),
    (10, 10, 10, True), (10, 12, 4, True)])
def test_a_sweep_keeps_the_form_it_swept_in(m, n, r, complex_entries, monkeypatch):
    a = _full_rank(790 + m + n, m, n, complex_entries) if r == min(m, n) else (
        _deficient(790 + m + n, m, n, r, complex_entries))
    rng = random.Random(791 + m + n)
    g, sides = a.pairs, [None, _gaussian_rows(rng, m, 2, False), _gaussian_rows(rng, m, 2, True)]
    natural = elimination.eliminate(g)
    # Int rows from a real sweep whose least dimension reaches the gate, pairs below it or for complex entries.
    ints = min(m, n) >= elimination._INT_MIN and not complex_entries
    assert elimination._holds_ints(natural.rows) == ints and natural.rank == r

    def results(e):
        out = [_swept_pairs(e), e.rank, e.det, e.swept_det, elimination.row_factor_pairs(e)]
        if e.rank == m == n:
            out += [elimination.adjoint_solve_pairs(e, z) for z in sides]
        return out

    with monkeypatch.context() as forced:  # the same sweep in the other form
        _force_kernel_form(forced, not ints)
        other = elimination.eliminate(g)
    assert elimination._holds_ints(other.rows) == (not ints and not complex_entries)
    assert results(natural) == results(other)


def _count_dot_rows(monkeypatch) -> list:
    """The rows the dot form of ``_back_substitute`` solves, on int rows and on pairs."""
    rows = []
    for name in ("_solve_int", "_solve_pairs"):
        real = getattr(elimination, name)
        monkeypatch.setattr(elimination, name, lambda *args, real=real: rows.append(1) or real(*args))
    return rows


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("n", range(8, 15))
def test_back_substitution_dot_form_equals_the_row_form(n, complex_entries, monkeypatch):
    # Systems of order n, with row contents above 1: adjoint solves on I and
    # on b, Gram solves on I and on z, and the row factor of a rank-n sweep.
    seed = 800 + n
    rng = random.Random(seed)
    ks = [rng.choice((1, 2, 6, 65, 2**70)) for _ in range(n + 2)]

    def with_contents(rows):
        return [[(re * k, im * k) for re, im in row] for row, k in zip(rows, ks)]

    g = with_contents(_full_rank(seed, n, n, complex_entries).pairs)
    deficient = with_contents(_deficient(seed, n + 2, n + 3, n, complex_entries).pairs)
    f = _full_rank(seed + 1, n, n + 3, complex_entries).pairs
    gram = elimination.hermitian_matmul_pairs(f, elimination._conjugate_transpose(f))
    b, z = _gaussian_rows(rng, n, 3, complex_entries), _gaussian_rows(rng, n, 2, True)
    results = {}
    for dot in (True, False):
        with monkeypatch.context() as forced:
            _force_kernel_form(forced, dot)
            dot_rows = _count_dot_rows(forced)
            e, factored = elimination.eliminate(g), elimination.eliminate(deficient)
            assert e.rank == factored.rank == n
            results[dot] = (elimination.adjoint_solve_pairs(e), elimination.adjoint_solve_pairs(e, b),
                            elimination.gram_solve_pairs(gram, elimination._identity(n)),
                            elimination.gram_solve_pairs(gram, z), elimination.row_factor_pairs(factored))
            assert len(dot_rows) == (5 * n if dot else 0)
    assert results[True] == results[False]


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("dot", [False, True])
def test_back_substitution_with_a_wrong_det_raises(dot, complex_entries, monkeypatch):
    _force_kernel_form(monkeypatch, dot)
    e = elimination.eliminate(_deficient(830, 14, 15, 12, complex_entries).pairs)
    u, pivots = e.rows[: e.rank], e.pivots
    zero = 0 if elimination._holds_ints(u) else (0, 0)
    # The row factor's right side: the swept rows with the leads below each pivot read as 0.
    x = [[zero if j in pivots[:i] else v for j, v in enumerate(row)] for i, row in enumerate(u)]
    dr, di = e.swept_det
    assert elimination._back_substitute(u, pivots, [list(row) for row in x], (dr, di))  # exact at det
    with pytest.raises(ArithmeticError, match="inexact division"):
        elimination._back_substitute(u, pivots, x, (dr + 1, di))


@pytest.mark.parametrize("ints", [False, True])
def test_real_times_complex_product_matches_the_pair_loop(ints, monkeypatch):
    rng = random.Random(719)
    real, cx = _gaussian_rows(rng, 12, 10, False), _gaussian_rows(rng, 10, 9, True)
    _force_kernel_form(monkeypatch, ints)
    for a, b in ((real, cx), ([list(col) for col in zip(*cx)], [list(col) for col in zip(*real)])):
        assert elimination.matmul_pairs(a, b) == [[elimination._dot(row, col) for col in zip(*b)] for row in a]


@pytest.mark.parametrize("ints", [False, True])
@pytest.mark.parametrize("m, n, r", [(10, 10, 10), (10, 10, 6), (12, 9, 5), (9, 12, 9)])
def test_real_matrix_with_a_complex_right_side_matches_the_oracles(m, n, r, ints, monkeypatch):
    seed = 720 + m + n + r
    make = (lambda: _full_rank(seed, m, n, False)) if r == min(m, n) else (lambda: _deficient(seed, m, n, r, False))
    y = column_vector(_rhs(seed, m, True))
    _force_kernel_form(monkeypatch, ints)
    assert lsq_solve(make(), y).solution == multiply(oracle_pinv(make()), y)
    yr = row_vector(_rhs(seed + 1, n, True))
    assert lsq_solve_row_system(yr, make()).solution == multiply(yr, oracle_pinv(make()))
    if m == n:
        assert drazin_solve(make(), y).solution == multiply(oracle_drazin(make()), y)


# -- Hermitian products and the Gram sweep -------------------------------------------


@pytest.mark.parametrize("ints", [False, True])
@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("m, n", [(1, 1), (5, 5), (12, 12), (14, 10), (10, 14), (3, 8)])
def test_hermitian_product_matches_the_full_product(m, n, complex_entries, ints, monkeypatch):
    seed = 730 + 20 * m + n
    f = _gaussian_rows(random.Random(seed), m, n, complex_entries)
    f_star = elimination._conjugate_transpose(f)
    a = _deficient(seed, m, n, max(min(m, n) - 1, 1), complex_entries)
    x = mp_inverse(a).pseudo_inverse
    _force_kernel_form(monkeypatch, ints)
    # The Gram matrices F F* and F* F, and the projectors' numerators X' A' and A' X'.
    for left, right in ((f, f_star), (f_star, f), (x.pairs, a.pairs), (a.pairs, x.pairs)):
        assert elimination.hermitian_matmul_pairs(left, right) == elimination.matmul_pairs(left, right)


@pytest.mark.parametrize("scaled", [False, True])
@pytest.mark.parametrize("ints", [False, True])
@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("r, n", [(1, 1), (1, 4), (3, 3), (4, 7), (10, 13)])
def test_gram_solve_equals_the_general_solve(r, n, complex_entries, ints, scaled, monkeypatch):
    seed = 740 + 20 * r + n
    rng = random.Random(seed)
    f = [list(row) for row in _full_rank(seed, r, n, complex_entries).pairs]
    if scaled:  # row and column contents above 1
        ks, ls = [rng.choice((2, 6, 65, 2**70)) for _ in f], [rng.choice((1, 3, 10, 77)) for _ in f[0]]
        f = [[(re * k * l, im * k * l) for (re, im), l in zip(row, ls)] for row, k in zip(f, ks)]
    g = elimination.hermitian_matmul_pairs(f, elimination._conjugate_transpose(f))
    sides = [None, _gaussian_rows(rng, r, 3, False), _gaussian_rows(rng, r, 2, True)]
    saved = copy.deepcopy((g, sides))
    updates = _force_kernel_form(monkeypatch, ints)
    for z in sides:
        x, d = elimination.gram_solve_pairs(g, elimination._identity(r) if z is None else z)
        # det g is the last leading principal minor of a positive definite g.
        assert d[0] > 0 == d[1]
        assert (x, d) == _adjoint_solve(elimination.eliminate(g), z)
    assert (g, sides) == saved
    assert bool(updates) == (ints and not any(im for row in g for _, im in row))  # a 1 x 1 g is real


@pytest.mark.parametrize("ints", [False, True])
@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("r, n", [(2, 2), (3, 5), (12, 12)])
def test_gram_solve_of_a_rank_deficient_factor_raises(r, n, complex_entries, ints, monkeypatch):
    f = _deficient(760 + 20 * r + n, r, n, r - 1, complex_entries).pairs
    g = elimination.hermitian_matmul_pairs(f, elimination._conjugate_transpose(f))
    _force_kernel_form(monkeypatch, ints)
    for z in (elimination._identity(r), _gaussian_rows(random.Random(761), r, 2, complex_entries)):
        with pytest.raises(ArithmeticError, match="zero pivot"):
            elimination.gram_solve_pairs(g, z)


@pytest.mark.parametrize("scaled", [False, True])
@pytest.mark.parametrize("m, n, r", [(6, 6, 3), (8, 5, 2), (5, 8, 4), (7, 7, 6)])
def test_projectors_equal_the_full_products(m, n, r, scaled):
    seed = 770 + 20 * m + n
    a = _deficient(seed, m, n, r, True)
    if scaled:
        a = _line_scaled(a, seed)
    assert 0 < rank(a) < min(m, n)
    x = mp_inverse(a).pseudo_inverse
    assert projector_p(a) == multiply(x, a) and projector_q(a) == multiply(a, x)


@pytest.mark.parametrize("ints", [False, True])
@pytest.mark.parametrize("negative", [False, True])
def test_row_factor_of_a_real_input_is_over_the_absolute_det_w(negative, ints, monkeypatch):
    updates = _force_kernel_form(monkeypatch, ints)
    seed = 780
    while True:  # a real input whose sweep ends on a pivot det W'' of the wanted sign
        a = _line_scaled(_deficient(seed, 7, 8, 4, False), seed)
        e = elimination.eliminate(a.pairs)
        last = (e.sign * e.swept_det[0], e.swept_det[1])
        if (last[0] < 0) == negative:
            break
        seed += 1
    assert elimination._holds_ints(e.rows) == ints
    updates.clear()
    x, scale = elimination.row_factor_pairs(e)
    assert bool(updates) == ints
    assert scale == abs(last[0]) and last[1] == 0
    pivot_rows = a.submatrix(e.order[: e.rank], range(a.cols))
    w = pivot_rows.submatrix(range(e.rank), e.pivots)
    assert matrices.from_pairs(x, scale) == multiply(_inverse(w), pivot_rows)


def _count_sweeps(monkeypatch) -> list:
    calls = []
    real = elimination.eliminate
    monkeypatch.setattr(elimination, "eliminate", lambda a: calls.append(len(a)) or real(a))
    return calls


def _count_gram_sweeps(monkeypatch) -> list:
    """The order of each ``gram_solve_pairs`` solve, checked to run on a matrix the Hermitian product formed.

    A Gram matrix that product formed must not reach ``eliminate``, so none
    is kept as an Elimination or reaches ``adjoint_solve_pairs``.
    """
    formed, orders = [], []
    product, solve, sweep = elimination.hermitian_matmul_pairs, elimination.gram_solve_pairs, elimination.eliminate

    def hermitian(a, b):
        formed.append(product(a, b))
        return formed[-1]

    def gram_solve(g, z=None):
        assert any(g is f for f in formed), "a Gram matrix the Hermitian product did not form"
        orders.append(len(g))
        return solve(g, z)

    def general_sweep(a):
        assert not any(a is f for f in formed), "a Gram matrix swept by eliminate"
        return sweep(a)

    monkeypatch.setattr(elimination, "hermitian_matmul_pairs", hermitian)
    monkeypatch.setattr(elimination, "gram_solve_pairs", gram_solve)
    monkeypatch.setattr(elimination, "eliminate", general_sweep)
    return orders


def _refuse(name: str):
    def refused(*args):
        raise AssertionError(f"{name} was called")

    return refused


SQUARE_OPERATIONS = {
    "mp_inverse": lambda a, y: mp_inverse(a),
    "drazin_inverse": lambda a, y: drazin_inverse(a),
    "group_inverse": lambda a, y: group_inverse(a),
    "drazin_times_a": lambda a, y: drazin_times_a(a),
    "drazin_solve": lambda a, y: drazin_solve(a, y),
}


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("name", sorted(SQUARE_OPERATIONS))
def test_square_full_rank_operations_eliminate_once(name, complex_entries, monkeypatch):
    a = _full_rank(606 + complex_entries, 6, 6, complex_entries)
    y = column_vector(_rhs(6, 6, complex_entries))
    calls = _count_sweeps(monkeypatch)
    SQUARE_OPERATIONS[name](a, y)
    assert calls == [6]


@pytest.mark.parametrize("complex_entries", [False, True])
def test_rank_deficient_square_operations_keep_their_ledgers(complex_entries, monkeypatch):
    a = _indexed(616 + complex_entries, 3, (2, 1), complex_entries)  # 6 x 6, index 2, core rank 3
    y = column_vector(_rhs(6, 6, complex_entries))
    astar = conjugate_transpose(a)
    r = rank(a)
    expected_pinv = _exact(horner_ledger(multiply(astar, a), r, astar))
    expected_drazin = representation(a, 2)
    cores = [r, rank(power(a, 2))]  # M_1 and M_2 of the index chain
    calls, grams = _count_sweeps(monkeypatch), _count_gram_sweeps(monkeypatch)
    searches = []
    real_search = matrices._index_search

    def search(a):  # reads each factor off a kept sweep: no replay, so no adjoint solve
        searches.append(a)
        with monkeypatch.context() as refused:
            refused.setattr(elimination, "adjoint_solve_pairs", _refuse("adjoint_solve_pairs"))
            return real_search(a)

    monkeypatch.setattr(matrices, "_index_search", search)
    res = mp_inverse(a)
    assert (res.numerators, res.denominator) == expected_pinv
    # A through eliminate, then the r x r Gram matrices C*C and RR* of its skeleton through gram_solve_pairs.
    assert calls == [6] and grams == [r, r]
    calls.clear()
    # A keeps its sweep, so the index search sweeps only the r_i x r_i cores M_1 and M_2.
    assert drazin_inverse(a) == expected_drazin and calls == cores == [4, 3]
    calls.clear()
    sol = drazin_solve(a, y)
    assert (sol.denominator, sol.numerators) == (
        expected_drazin.denominator, multiply(expected_drazin.numerators, y).column(0))
    assert index_of(a) == 2 and drazin_times_a(a) == multiply(expected_drazin.drazin_inverse, a)
    with pytest.raises(drazin.GroupInverseError):
        group_inverse(a)
    assert calls == [] and searches == [a]  # A keeps its index chain too
    # A keeps its pseudoinverse, so mp_inverse, the projectors and the least
    # squares solvers sweep nothing: each solve is one product with its numerators.
    for name, run in GRAM_OPERATIONS.items():
        calls.clear()
        run(a, y, row_vector(_rhs(7, 6, complex_entries)))
        assert calls == [] and grams == [r, r], name


@pytest.mark.parametrize("complex_entries", [False, True])
def test_projectors_and_mp_inverse_share_the_pseudoinverse_a_keeps(complex_entries, monkeypatch):
    a = _deficient(626 + complex_entries, 6, 5, 3, complex_entries)
    r = rank(a)  # a fresh elimination: A keeps nothing yet
    assert 0 < r < 5 and a._kept == {}
    calls, grams = _count_sweeps(monkeypatch), _count_gram_sweeps(monkeypatch)
    p, q = projector_p(a), projector_q(a)
    # A through eliminate, then C*C and RR* of its skeleton through gram_solve_pairs, for both projectors.
    assert calls == [6] and grams == [r, r]
    with monkeypatch.context() as refused:
        for kernel in ("eliminate", "gram_solve_pairs", "matmul_pairs", "hermitian_matmul_pairs",
                       "adjoint_solve_pairs", "char_poly_pairs"):
            refused.setattr(elimination, kernel, _refuse(kernel))
        res = mp_inverse(a)
        assert mp_inverse(a) is res and a._kept["pinv"] is res
    assert (p, q) == (multiply(res.pseudo_inverse, a), multiply(a, res.pseudo_inverse))
    literal = mp_inverse(a, method="eq1")
    assert literal is not res and literal == mp_inverse_columns(a)
    assert literal.representation_used == "eq1" and literal.pseudo_inverse == res.pseudo_inverse
    assert mp_inverse(a) is res  # the literal form left the kept result as it was


# -- a solve on a matrix that keeps its inverse is one product ----------------------

LSQ_REUSE = {  # builder, and the tags mp_inverse may give
    "deficient": (lambda c: _deficient(640 + c, 6, 5, 3, c), ("eq1", "eq2")),
    "full column rank": (lambda c: _full_rank(642 + c, 6, 4, c), ("eq6",)),
    "full row rank": (lambda c: _full_rank(644 + c, 4, 6, c), ("eq7",)),
}
# The kernels a solve on a matrix that keeps its ledger must not reach.
SOLVE_KERNELS = ((minors, "skeleton_ledger"), (elimination, "eliminate"),
                 (elimination, "adjoint_solve_pairs"), (elimination, "skeleton_ledger_pairs"),
                 (elimination, "char_poly_pairs"), (elimination, "row_factor_pairs"))


def _counted(monkeypatch, module, attr: str) -> list:
    calls = []
    real = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *args, **kw: calls.append(args) or real(*args, **kw))
    return calls


def _refuse_solve_kernels(monkeypatch) -> None:
    for module, kernel in SOLVE_KERNELS:
        monkeypatch.setattr(module, kernel, _refuse(kernel))


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("shape", sorted(LSQ_REUSE))
def test_lsq_solvers_read_the_pseudoinverse_a_keeps(shape, complex_entries, monkeypatch):
    build, tags = LSQ_REUSE[shape]
    a = build(complex_entries)
    y, yr = column_vector(_rhs(646, a.rows, complex_entries)), row_vector(_rhs(647, a.cols, complex_entries))
    fresh = _fresh(a)
    with monkeypatch.context() as counting:
        skeletons = _counted(counting, minors, "skeleton_ledger")
        expected = lsq_solve(fresh, y), lsq_solve_row_system(yr, fresh)
    # A lone solve makes one one-column skeleton ledger each and keeps no inverse.
    assert len(skeletons) == 2 and matrices.held(fresh, "pinv") is None
    assert mp_inverse(a).representation_used in tags
    _refuse_solve_kernels(monkeypatch)
    assert (lsq_solve(a, y), lsq_solve_row_system(yr, a)) == expected


@pytest.mark.parametrize("complex_entries", [False, True])
def test_lsq_solve_on_a_kept_classical_inverse_takes_no_skeleton(complex_entries, monkeypatch):
    a = _full_rank(648 + complex_entries, 5, 5, complex_entries)
    y, yr = column_vector(_rhs(649, 5, complex_entries)), row_vector(_rhs(650, 5, complex_entries))
    expected = lsq_solve(_fresh(a), y), lsq_solve_row_system(yr, _fresh(a))
    assert mp_inverse(a).representation_used == "classical_inverse"
    skeletons = _counted(monkeypatch, minors, "skeleton_ledger")
    got = lsq_solve(a, y), lsq_solve_row_system(yr, a)
    assert got == expected and len(skeletons) == 0
    # eq13 is over det(A*A) = |det A|^2, not over the det A the kept inverse has.
    assert got[0].denominator == det(multiply(conjugate_transpose(a), a)) != mp_inverse(a).denominator


DRAZIN_REUSE = {  # core rank, nilpotent block sizes
    "index 0": (5, ()),
    "index 1": (3, (1, 1)),
    "index 2": (3, (2, 1)),
    "index 3": (2, (3, 1)),
    "nilpotent": (0, (3, 2)),
}


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("case", sorted(DRAZIN_REUSE))
def test_drazin_solve_reads_the_drazin_inverse_a_keeps(case, complex_entries, monkeypatch):
    core, nil_sizes = DRAZIN_REUSE[case]
    a = _indexed(652 + core + complex_entries, core, nil_sizes, complex_entries)
    y = column_vector(_rhs(653, a.rows, complex_entries))
    fresh = _fresh(a)
    with monkeypatch.context() as counting:
        solves = _counted(counting, elimination, "adjoint_solve_pairs")
        expected = drazin_solve(fresh, y)
    # A lone solve applies the chain to its one column: k + 1 adjoint solves on
    # the core (none for a nilpotent A, whose ledger is the zero ledger), and
    # keeps no inverse.
    count = max(nil_sizes, default=0) + 1 if core else 0
    assert [len(b[0]) for _, b in solves] == [1] * count and matrices.held(fresh, "eq11") is None
    assert expected.method == ("eq16" if nil_sizes else "classical_cramer")
    assert drazin_inverse(a).index == max(nil_sizes, default=0)
    _refuse_solve_kernels(monkeypatch)
    assert drazin_solve(a, y) == expected


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("nil_sizes", [(1,), (2,), (3, 2), (2, 2, 1)])
def test_a_nilpotent_matrix_takes_the_zero_ledger_with_no_solve_and_no_product(nil_sizes, complex_entries,
                                                                               monkeypatch):
    a = _indexed(660 + len(nil_sizes) + complex_entries, 0, nil_sizes, complex_entries)
    y = column_vector(_rhs(661, a.rows, complex_entries))
    lone, keeps = _fresh(a), _fresh(a)
    for m in (lone, keeps):  # the chain search takes products of its own, so A keeps it first
        assert index_of(m) == max(nil_sizes)
    for module, name in ((elimination, "adjoint_solve_pairs"), (elimination, "matmul_pairs"),
                         (matrices, "multiply"), (drazin, "multiply"), (solvers, "multiply")):
        monkeypatch.setattr(module, name, _refuse(name))
    res, solved = drazin_inverse(keeps), drazin_solve(lone, y)
    square, column = Matrix.zeros(a.rows, a.rows), Matrix.zeros(a.rows, 1)
    assert (res.drazin_inverse, res.numerators, res.denominator, res.rank_core) == (square, square, ONE, 0)
    assert (solved.solution, solved.transformed_rhs, solved.denominator, solved.method) == (column, column, ONE, "eq16")
    assert solved.numerators == column.column(0)


# -- kernel against the rank-factorization oracles (n <= 16, rank <= 10; n = 30) ---


@ORACLE
@given(st.integers(2, 16), st.integers(2, 16), st.integers(1, 10), seeds, st.booleans())
@example(30, 30, 15, 3030, False)
@example(30, 30, 15, 3031, True)
def test_mp_inverse_matches_oracle(m, n, r, seed, complex_entries):
    a = _deficient(seed, m, n, min(r, m - 1, n - 1), complex_entries)
    res = mp_inverse(a)
    assert res.representation_used in ("eq1", "eq2")
    assert res.pseudo_inverse == oracle_pinv(a)


@ORACLE
@given(indexed_matrices(16, 10))
@example(_indexed(302, 20, (2, 2, 2, 2, 2), True))  # 30 x 30, index 2, core rank 20
def test_drazin_inverse_matches_oracle(a):
    assert drazin_inverse(a).drazin_inverse == oracle_drazin(a)


@ORACLE
@given(st.integers(2, 16), st.integers(2, 16), st.integers(1, 8), seeds, st.booleans())
def test_eq1_and_eq2_ledgers_are_equal(m, n, r, seed, complex_entries):
    a = _deficient(seed, m, n, min(r, m - 1, n - 1), complex_entries)
    r = rank(a)
    astar = conjugate_transpose(a)
    eq1 = _exact(horner_ledger(multiply(astar, a), r, astar))
    eq2 = horner_ledger(multiply(a, astar), r, a)
    nums2, d2 = _exact(eq2)
    assert eq1 == (conjugate_transpose(nums2), d2) == _exact(eq2.adjoint())


# -- the skeleton against Berkowitz-Horner on the Gram matrix and the oracle --------


def _gaussian_product(rng: random.Random, m: int, n: int, r: int, complex_entries: bool,
                      bits: int) -> list[list]:
    """An m x n Gaussian-integer matrix of rank at most r, (m x r)(r x n), from ``bits``-bit parts."""
    def entry():
        return (rng.randint(-2**bits, 2**bits), rng.randint(-2**bits, 2**bits) if complex_entries else 0)

    return elimination.matmul_pairs([[entry() for _ in range(r)] for _ in range(m)],
                                    [[entry() for _ in range(n)] for _ in range(r)])


def _quotient(x: list[list], d) -> Matrix:
    return minors.Ledger(matrices.from_pairs(x, 1), Scalar(*d)).quotient()


@LITERAL
@given(st.integers(2, 9), st.integers(2, 9), st.integers(1, 8), st.sampled_from((2, 60)), seeds,
       st.booleans())
def test_skeleton_matches_berkowitz_horner(m, n, r, bits, seed, complex_entries):
    rng = random.Random(seed)
    a = _gaussian_product(rng, m, n, min(r, m, n), complex_entries, bits)
    e = elimination.eliminate(a)
    r = e.rank
    if r == 0:
        return
    # The signed last pivot e.det is +-det W for W = A[Q, P], Q the pivot rows in order.
    w = [[a[i][j] for j in e.pivots] for i in sorted(e.order[:r])]
    det_w = elimination.det_pairs(w, r)
    assert e.det in (det_w, (-det_w[0], -det_w[1]))

    a_star = [[(re, -im) for re, im in col] for col in zip(*a)]
    gram_c, gram_r = elimination.matmul_pairs(a_star, a), elimination.matmul_pairs(a, a_star)
    b = _gaussian_rows(rng, m, 2, complex_entries)
    c = _gaussian_rows(rng, n, 2, complex_entries)
    horner = horner_adjugate_pairs

    def skeleton(*args, **kw):
        # The kernel returns (x, d, f, q): the ledger is x f / q over d f / q, here all integers.
        x, d, f, q = elimination.skeleton_ledger_pairs(*args, **kw)

        def exact(v):
            (re, rr), (im, ri) = divmod(v[0] * f, q), divmod(v[1] * f, q)
            assert rr == ri == 0
            return re, im

        return [[exact(v) for v in row] for row in x], exact(d)

    # At full rank the ledger also reads A alone (no sweep), with q = 1.
    for sweep in (e, None) if r == min(m, n) else (e,):
        assert skeleton(a, sweep) == horner(gram_c, r, a_star)
        assert skeleton(a, sweep, b) == horner(gram_c, r, elimination.matmul_pairs(a_star, b))
        assert skeleton(a, sweep, c, adjoint=True) == horner(gram_r, r, elimination.matmul_pairs(a, c))
    # The paper's projector ledgers: N_r(G) G over d_r(G) is A+ A for G = A*A and A A+ for G = AA*.
    am = matrices.from_pairs(a, 1)
    assert projector_p(am) == _quotient(*horner(gram_c, r, gram_c))
    assert projector_q(am) == _quotient(*horner(gram_r, r, gram_r))


def _big_product(seed: int, m: int, n: int, r: int, complex_entries: bool) -> Matrix:
    """A nonzero m x n matrix of rank at most r with entries of about 120 bits."""
    return matrices.from_pairs(_gaussian_product(random.Random(seed), m, n, r, complex_entries, 60), 1)


SCALES = (ONE, Scalar(10**18), Scalar(Fraction(1, 10**18)), Scalar(Fraction(3, 7), Fraction(-2, 5)))


@ORACLE
@given(st.one_of(deficient_matrices(10), full_rank_matrices(8)), st.sampled_from(SCALES), seeds)
@example(_big_product(60, 7, 9, 4, False), ONE, 60)
@example(_big_product(61, 9, 6, 3, True), Scalar(Fraction(1, 10**18)), 61)
@example(_big_product(62, 9, 5, 5, False), ONE, 62)  # full column rank
@example(_big_product(63, 4, 7, 4, True), Scalar(Fraction(1, 10**18)), 63)  # full row rank
@example(_big_product(64, 6, 6, 6, True), Scalar(Fraction(3, 7), Fraction(-2, 5)), 64)  # nonsingular
def test_skeleton_ledgers_match_gram_kernel_and_oracle(a, scale, seed):
    # The reference is Berkowitz and Horner on the Gram matrix, at every rank.
    a = a * scale
    r = rank(a)
    astar = conjugate_transpose(a)
    gram_c, gram_r = multiply(astar, a), multiply(a, astar)
    x = oracle_pinv(a)
    res = mp_inverse(a)
    if res.representation_used != "classical_inverse":  # whose denominator is det A
        assert (res.numerators, res.denominator) == _exact(horner_ledger(gram_c, r, astar))
    assert res.pseudo_inverse == x
    assert projector_p(a) == multiply(x, a)
    assert projector_q(a) == multiply(a, x)

    y = column_vector(_rhs(seed, a.rows))
    rep = lsq_solve(a, y)
    ledger = horner_ledger(gram_c, r, rep.transformed_rhs)
    assert (rep.numerators, rep.denominator) == (ledger.numerators.column(0), ledger.denominator)
    assert rep.solution == multiply(x, y)

    yr = row_vector(_rhs(seed + 1, a.cols))
    rep = lsq_solve_row_system(yr, a)
    ledger = horner_ledger(gram_r, r, conjugate_transpose(rep.transformed_rhs)).adjoint()
    assert (rep.numerators, rep.denominator) == (ledger.numerators.row(0), ledger.denominator)
    assert rep.solution == multiply(yr, x)


GRAM_OPERATIONS = {
    "mp_inverse": lambda a, y, yr: mp_inverse(a),
    "projector_p": lambda a, y, yr: projector_p(a),
    "projector_q": lambda a, y, yr: projector_q(a),
    "lsq_solve": lambda a, y, yr: lsq_solve(a, y),
    "lsq_solve_row_system": lambda a, y, yr: lsq_solve_row_system(yr, a),
}
# r x r systems each operation solves when 0 < r < min(m, n): C*C and RR*,
# for a projector those of the pseudoinverse it multiplies by A.
SKELETON_SOLVES = {"mp_inverse": 2, "projector_p": 2, "projector_q": 2, "lsq_solve": 2,
                   "lsq_solve_row_system": 2}
# r x r systems each operation solves at r = min(m, n), given (m, n): one Gram
# solve, and none for a square A's classical inverse (solved from its own
# sweep) or an identity projector.
FULL_RANK_SOLVES = {
    "mp_inverse": lambda m, n: int(m != n),
    "projector_p": lambda m, n: int(m < n),
    "projector_q": lambda m, n: int(m > n),
    "lsq_solve": lambda m, n: 1,
    "lsq_solve_row_system": lambda m, n: 1,
}


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("m, n, r", [(6, 6, 3), (8, 5, 2), (5, 8, 4), (7, 4, 4), (4, 7, 4), (5, 5, 5)])
@pytest.mark.parametrize("name", sorted(GRAM_OPERATIONS))
def test_gram_operations_skip_berkowitz_and_sweep_a_once(name, m, n, r, complex_entries, monkeypatch):
    seed = 700 + 10 * m + n
    while rank(a := _deficient(seed, m, n, r, complex_entries)) < r:
        seed += 1000
    y, yr = column_vector(_rhs(seed, m, complex_entries)), row_vector(_rhs(seed + 1, n, complex_entries))
    monkeypatch.setattr(elimination, "char_poly_pairs", _refuse("char_poly_pairs"))
    shapes = []
    real = elimination.eliminate
    monkeypatch.setattr(elimination, "eliminate",
                        lambda rows: shapes.append((len(rows), len(rows[0]))) or real(rows))
    grams = _count_gram_sweeps(monkeypatch)
    GRAM_OPERATIONS[name](a, y, yr)
    # A is swept once through eliminate; every other sweep is of an r x r Gram
    # matrix, formed by the Hermitian product and solved by gram_solve_pairs.
    assert shapes == [(m, n)] and grams == [r] * len(grams)
    if r < min(m, n):
        assert len(grams) == SKELETON_SOLVES[name]
    else:
        assert len(grams) == FULL_RANK_SOLVES[name](m, n)


# -- the full-rank certificate modulo a prime -------------------------------------------


def test_certificate_prime_has_a_root_of_minus_one():
    p, i = elimination._P, elimination._I
    assert p < 2**30 and p % 4 == 1 and all(p % d for d in range(2, isqrt(p) + 1))
    assert i * i % p == p - 1


@settings(max_examples=60, deadline=None)
@given(st.one_of(deficient_matrices(12), line_scaled(deficient_matrices(8))))
def test_certificate_never_passes_a_deficient_matrix(a):
    assert rank(a) < min(a.shape) and not elimination.full_rank_mod_p(a.pairs)


def _singular_mod_p(wide: bool, complex_entries: bool) -> Matrix:
    """A 12 x 10 matrix (its transpose when ``wide``) of rank 10 whose image modulo the certificate's prime has rank 9.

    Its leading block [[1, i], [I, -1]] has determinant -1 - iI, not 0, but
    the image of that is -1 - I^2 = 0 mod P.
    """
    block = Matrix.from_rows([[1, Scalar(0, 1)], [elimination._I, -1]])
    a = block_diag(block, _full_rank(1200 + complex_entries, 10, 8, complex_entries))
    return Matrix.from_rows(list(zip(*a.row_lists()))) if wide else a


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("wide", [False, True])
def test_a_full_rank_matrix_singular_mod_p_is_swept_and_keeps_its_ledgers(wide, complex_entries, monkeypatch):
    a = _singular_mod_p(wide, complex_entries)
    (m, n), astar = a.shape, conjugate_transpose(a)
    assert rank(a) == 10 and not elimination.full_rank_mod_p(a.pairs)
    nums, d = _exact(horner_ledger(multiply(astar, a), 10, astar))
    x = nums * (ONE / d)
    y, yr = column_vector(_rhs(1210, m)), row_vector(_rhs(1211, n))
    expected = {
        "mp_inverse": (nums, d, "eq7" if wide else "eq6"),
        "projector_p": multiply(x, a),
        "projector_q": multiply(a, x),
        "lsq_solve": (multiply(nums, y).column(0), d),
        "lsq_solve_row_system": (multiply(yr, nums).row(0), d),
    }
    shape = {
        "mp_inverse": lambda res: (res.numerators, res.denominator, res.representation_used),
        "lsq_solve": lambda res: (res.numerators, res.denominator),
        "lsq_solve_row_system": lambda res: (res.numerators, res.denominator),
    }
    for name, run in GRAM_OPERATIONS.items():
        fresh = _fresh(a)
        with monkeypatch.context() as counting:
            swept = _count_sweeps(counting)
            got = run(fresh, y, yr)
        assert shape.get(name, lambda res: res)(got) == expected[name], name
        assert swept == [m] and "certificate" in fresh._kept, name


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("m, n, r", [(14, 10, 10), (10, 14, 10), (12, 14, 11), (14, 12, 11), (9, 13, 9),
                                     (13, 9, 9), (10, 10, 10), (11, 11, 9)])
@pytest.mark.parametrize("name", sorted(GRAM_OPERATIONS))
def test_certified_operations_never_sweep_a(name, m, n, r, complex_entries, monkeypatch):
    seed = 1300 + 10 * m + n
    if r == min(m, n):
        a = _full_rank(seed, m, n, complex_entries)
    else:
        while rank(a := _deficient(seed, m, n, r, complex_entries)) < r:
            seed += 1000
    y, yr = column_vector(_rhs(seed, m, complex_entries)), row_vector(_rhs(seed + 1, n, complex_entries))
    swept = _fresh(a)
    matrices.sweep(swept)  # the route of a matrix that keeps its sweep
    expected = GRAM_OPERATIONS[name](swept, y, yr)
    shapes, certificates = [], _counted(monkeypatch, elimination, "full_rank_mod_p")
    real = elimination.eliminate
    monkeypatch.setattr(elimination, "eliminate",
                        lambda rows: shapes.append((len(rows), len(rows[0]))) or real(rows))
    assert GRAM_OPERATIONS[name](a, y, yr) == expected
    gated = m != n and min(m, n) >= elimination._INT_MIN
    # A tall or wide A at the gate tries the certificate once; one that passes
    # it is never swept, and any other A is swept once, as before.
    assert len(certificates) == gated
    assert shapes == ([] if gated and r == min(m, n) else [(m, n)])


@settings(max_examples=40, deadline=None)
@given(st.integers(elimination._INT_MIN - 2, elimination._INT_MIN + 2), st.integers(1, 4),
       st.sampled_from(("square", "tall", "wide")), st.integers(0, 2), seeds, st.booleans())
def test_known_rank_is_the_rank(least, extra, shape, deficit, seed, complex_entries):
    m, n = {"square": (least, least), "tall": (least + extra, least), "wide": (least, least + extra)}[shape]
    a = (_full_rank(seed, m, n, complex_entries) if deficit == 0
         else _deficient(seed, m, n, least - deficit, complex_entries))
    fresh = _fresh(a)
    assert matrices.known_rank(fresh) == rank(a)
    # Only a tall or wide A at the gate tries the certificate; one it passes keeps no sweep.
    certificate = matrices.held(fresh, "certificate")
    assert (certificate is not None) == (m != n and least >= elimination._INT_MIN)
    assert (matrices.held(fresh, "sweep") is None) == (certificate is True)
    assert certificate is not True or rank(a) == least


# -- the index search on integer pairs against power/rank and the oracle ------------


@ORACLE
@given(rational_indexed(10, 6), seeds)
@example((_rationally_similar(_indexed(1410, 10, (3, 1), True), 1410), 3, 10), 1410)  # n = 14
def test_index_search_matches_representation_and_oracle(case, seed):
    a, index, core = case
    k, r, factors, last = _chain(a)
    assert (k, r) == (index, core)
    # The factors multiply back: M_(i-1) = B_i C_i with r_i = rank A^i columns,
    # and M_i = C_i B_i, nonsingular at i = k (the core) or 0 for a nilpotent A.
    m = a
    for i, (b, c) in enumerate(factors, 1):
        assert multiply(b, c) == m and b.cols == c.rows == rank(b) == rank(c) == rank(power(a, i))
        m = multiply(c, b)
    assert m == (last or a)
    if core:
        assert rank(m) == m.rows == core and k == len(factors)
    else:
        assert m.is_zero and k == len(factors) + 1
    ak = power(a, index)

    res = drazin_inverse(a)
    assert res == representation(a, index)  # index, core rank, ledger, denominator, inverse
    # Exactly r = core eigenvalues of A are nonzero, so d_r(A) is their product
    # and d_r(A^(k+1)), the denominator, is its (k+1)-th power: Berkowitz on the core.
    d_core = ((ONE,) + char_poly_coeffs(_fresh(a)))[core]
    expected = ONE
    for _ in range(index + 1):
        expected = expected * d_core
    assert res.denominator == expected
    assert res.drazin_inverse == representation(a, index + 1).drazin_inverse
    xd = oracle_drazin(a)
    assert res.drazin_inverse == xd
    assert drazin_times_a(a) == multiply(xd, a)

    y = column_vector(_rhs(seed, a.rows))
    sol = drazin_solve(a, y)
    assert sol.transformed_rhs == multiply(ak, y)
    assert sol.solution == multiply(xd, y)
    assert sol.numerators == multiply(res.numerators, y).column(0)
    assert sol.denominator == res.denominator
    assert sol.method == ("classical_cramer" if index == 0 else "eq16")


def test_index_search_divides_out_the_content(monkeypatch):
    # J = [[1, 1], [1, 1]] + N_2 gives the core J'^k = 2^(k-1) J' in 10^-6
    # units, a factor the scales share; each factor and M_i must divide it out.
    rows = [[Scalar(1), Scalar(1), ZERO, ZERO], [Scalar(1), Scalar(1), ZERO, ZERO],
            [ZERO, ZERO, ZERO, Scalar(1)], [ZERO, ZERO, ZERO, ZERO]]
    m = _conjugate_by_elementary(rows, random.Random(7), 8)
    a = m * Fraction(1, 10**6)
    steps = []
    real = matrices.from_pairs

    def recorded(rows, scale):
        out = real(rows, scale)
        steps.append((_content(rows, scale), _content(out.pairs, out.scale)))
        return out

    monkeypatch.setattr(matrices, "from_pairs", recorded)
    k, r, _, core = _chain(a)
    assert (k, r) == (2, 1) and len(steps) == 6  # B_i, C_i and M_i for i = 1, 2
    assert max(before for before, _ in steps) > 1 and all(after == 1 for _, after in steps)
    assert core == Matrix.from_rows([[Fraction(2, 10**6)]])
    assert drazin_inverse(a).denominator == Scalar(Fraction(2, 10**6) ** 3)


def _chain(a: Matrix) -> tuple:
    """The index chain a keeps: k, r, the factors (B_i, C_i) and the last M_i."""
    return matrices.index_chain(a)


def _content(rows, scale: int) -> int:
    return gcd(scale, *(part for row in rows for pair in row for part in pair))


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _prime_similar(a: Matrix) -> Matrix:
    """D a D^-1 for D = diag(p_i / q_i), distinct primes: each off-diagonal entry (i, j)
    gains the factor p_i q_j / (q_i p_j), a denominator of its own (n <= 6)."""
    d = [Fraction(PRIMES[2 * i], PRIMES[2 * i + 1]) for i in range(a.rows)]
    return Matrix.from_rows([[a.at(i, j) * (d[i] / d[j]) for j in range(a.cols)] for i in range(a.rows)])


@st.composite
def chain_inputs(draw, max_dim: int):
    """(A, index, core rank) for n <= max_dim: index 0-3, nilpotent and zero inputs,
    real and complex entries, and a distinct denominator per entry half the time."""
    if draw(st.integers(0, 9)) == 0:
        return Matrix.zeros(*[draw(st.integers(1, max_dim))] * 2), 1, 0
    index = draw(st.integers(0, 3))
    core = draw(st.integers(0 if index else 1, max_dim - index))
    nil_sizes = [index] if index else []
    while index and core + sum(nil_sizes) < max_dim and draw(st.booleans()):
        nil_sizes.append(draw(st.integers(1, min(index, max_dim - core - sum(nil_sizes)))))
    a = _indexed(draw(seeds), core, tuple(nil_sizes), draw(st.booleans()))
    return (_prime_similar(a) if draw(st.booleans()) else a), index, core


@LITERAL
@given(chain_inputs(6), seeds)
@example((Matrix.zeros(3, 3), 1, 0), 5150)
@example((_prime_similar(_indexed(5151, 2, (3, 1), True)), 3, 2), 5151)
@example((_prime_similar(_indexed(5152, 0, (2, 2, 1), False)), 2, 0), 5152)  # nilpotent
def test_chain_matches_representation_oracle_and_literal_sums(case, seed):
    a, index, core = case
    a, fresh, n = _fresh(a), _fresh(a), a.rows
    # On a fresh A, char_poly_coeffs searches the chain A keeps and runs Berkowitz on its last M_i.
    berkowitz = char_poly_coeffs(a)
    assert berkowitz == tuple(principal_minor_sum(a, t) for t in range(1, n + 1))
    chain = matrices.held(a, "index chain")
    assert chain[:2] == (index, core) and _chain(a) is chain
    assert index_of(a) == index and char_poly_coeffs(a) == berkowitz

    res = drazin_inverse(a)
    assert res == representation(a, index)  # the power route and Horner
    assert res.drazin_inverse == oracle_drazin(a)
    ak, b = power(a, index), power(a, index + 1)
    y = column_vector(_rhs(seed, n))
    if core:
        assert (res.numerators, res.denominator) == literal_ledger(b, core, ak)
        nums_y = literal_ledger(b, core, multiply(ak, y))[0]
    else:
        assert (res.numerators, res.denominator) == (Matrix.zeros(n, n), ONE)
        nums_y = Matrix.zeros(n, 1)
    assert drazin_times_a(a) == multiply(res.drazin_inverse, a)
    if index <= 1:
        assert group_inverse(a) == res
    else:
        with pytest.raises(drazin.GroupInverseError):
            group_inverse(a)

    # A lone solve applies the chain's factors to y and keeps no inverse.
    lone = drazin_solve(fresh, y)
    assert matrices.held(fresh, "eq11") is None
    assert lone.transformed_rhs == multiply(ak, y)
    assert (lone.numerators, lone.denominator) == (nums_y.column(0), res.denominator)
    assert lone.solution == multiply(res.drazin_inverse, y)
    assert drazin_solve(a, y) == lone  # one product with the numerators A keeps
    assert char_poly_coeffs(fresh) == berkowitz


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("case", sorted(DRAZIN_REUSE))
def test_index_search_sweeps_only_a_at_full_size(case, complex_entries, monkeypatch):
    core, nil_sizes = DRAZIN_REUSE[case]
    a = _indexed(660 + core + complex_entries, core, nil_sizes, complex_entries)
    n, index = a.rows, max(nil_sizes, default=0)
    # r_i = rank A^i is the size of M_i; a nilpotent A stops at the M_(k-1) of rank 0.
    sizes = [r for r in (rank(power(a, i)) for i in range(1, index + 1)) if r]
    swept, products = [], []
    sweep, matmul = elimination.eliminate, elimination.matmul_pairs
    monkeypatch.setattr(elimination, "eliminate", lambda g: swept.append((len(g), len(g[0]))) or sweep(g))
    monkeypatch.setattr(elimination, "matmul_pairs",
                        lambda x, y: products.append((len(x), len(y[0]))) or matmul(x, y))
    assert index_of(a) == index
    # A's own sweep, then one r_i x r_i sweep and one product M_i = C_i B_i per step.
    assert swept == [(n, n)] + [(r, r) for r in sizes]
    assert products == [(r, r) for r in sizes]


@pytest.mark.parametrize("case", sorted(DRAZIN_REUSE))
def test_char_poly_coeffs_run_berkowitz_on_the_core_a_keeps(case, monkeypatch):
    core, nil_sizes = DRAZIN_REUSE[case]
    a = _indexed(670 + core, core, nil_sizes, True)
    index, y = max(nil_sizes, default=0), column_vector(_rhs(671 + core, a.rows))
    expected = drazin_inverse(_fresh(a)), drazin_solve(_fresh(a), y)
    # Berkowitz runs on the last M_i of the chain: A itself at index 0, the
    # r x r core M_k at k >= 1, and the zero M_(k-1) of a nilpotent A.
    last = rank(power(a, index - 1 if nil_sizes and not core else index))
    whole = elimination.char_poly_pairs(a.pairs)  # Berkowitz on all of A, the reference
    orders, searches = [], []
    real = elimination.char_poly_pairs
    monkeypatch.setattr(elimination, "char_poly_pairs", lambda g: orders.append(len(g)) or real(g))
    search = matrices._index_search
    monkeypatch.setattr(matrices, "_index_search", lambda m: searches.append(m) or search(m))
    before = char_poly_coeffs(a)
    # On a fresh A the first call already searches the chain A then keeps,
    # and runs Berkowitz once, on the chain's last M_i.
    assert orders == [last] and searches == [a]
    assert before == tuple(matrices.scalar_of(d, a.scale**t) for t, d in enumerate(whole) if t)
    # The Drazin operations read the chain A keeps: no second search.
    assert index_of(a) == index and (drazin_inverse(a), drazin_solve(a, y)) == expected
    assert char_poly_coeffs(a) == before and orders == [last] * 2 and searches == [a]


# -- row and column contents: the sweep of the primitive rows ----------------------


@pytest.mark.parametrize("kind, n, complex_entries", [case for case in ELIMINATION_CASES if case[1] in (1, 3, 6, 8)])
def test_sweep_of_scaled_rows_keeps_the_contracts_of_the_rows_as_given(kind, n, complex_entries):
    seed = 2000 * n + 10 * len(kind) + complex_entries
    g = _elimination_input(kind, n, seed, complex_entries)
    rng = random.Random(seed)
    ks = [rng.choice((1, 2, 6, 65, 127, 2**70)) for _ in range(n)]
    scaled = [[(re * k, im * k) for re, im in row] for row, k in zip(g, ks)]
    e, es = elimination.eliminate(g), elimination.eliminate(scaled)
    # Dividing a row by a positive integer changes no zero pattern: the two
    # sweeps run on the same primitive rows.
    assert (es.rank, es.pivots, es.order, es.sign) == (e.rank, e.pivots, e.order, e.sign)
    assert es.rows == e.rows
    assert es.contents == [gcd(*(part for pair in row for part in pair)) or 1 for row in scaled]
    assert es.contents == [k * c if any(map(any, row)) else 1 for k, c, row in zip(ks, e.contents, g)]
    # det and adj(g) b are those of the rows as given.
    singular = e.rank < n
    det_g = elimination.det_pairs(scaled, n)
    whole = prod(ks)
    assert det_g == ((0, 0) if singular else (whole * e.det[0], whole * e.det[1]))
    if n <= 5:
        assert Scalar(*det_g) == _leibniz(scaled)
    gm = matrices.from_pairs(scaled, 1)
    for b in (None, _gaussian_rows(random.Random(seed + 1), n, 2, complex_entries)):
        if singular:
            with pytest.raises(ArithmeticError, match=f"singular matrix: rank {e.rank} of {n}"):
                elimination.adjoint_solve_pairs(es, b)
            continue
        x, d = _adjoint_solve(es, b)
        # The kernel's f is prod(contents) / lcm(contents), the factor the ledger's scale rule takes.
        assert elimination.adjoint_solve_pairs(es, b)[2] == prod(es.contents) // lcm(*es.contents)
        bm = Matrix.identity(n) if b is None else matrices.from_pairs(b, 1)
        assert d == det_g
        assert matrices.from_pairs(x, 1) == multiply(_inverse(gm), bm) * Scalar(*d)


INDEX_ZERO_SHARERS = ("mp_inverse", "drazin_inverse", "group_inverse", "drazin_solve")


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("order", list(permutations(INDEX_ZERO_SHARERS)))
def test_classical_and_index_zero_drazin_inverses_share_one_solve(order, complex_entries, monkeypatch):
    a = _line_scaled(_full_rank(609 + complex_entries, 5, 5, complex_entries), 609)
    y = column_vector(_rhs(5, 5, complex_entries))
    fresh = {name: SQUARE_OPERATIONS[name](_fresh(a), y) for name in order}
    solves = _counted(monkeypatch, elimination, "adjoint_solve_pairs")
    results = {name: SQUARE_OPERATIONS[name](a, y) for name in order}
    assert results == fresh
    # One n x n solve, of the identity (None) on the sweep of A's 5 rows.  A
    # lone Drazin solve keeps nothing, so only one made before every inverse
    # adds a solve, of y alone.
    lone = order[0] == "drazin_solve"
    assert [(len(e.rows), b) for e, b in solves if b is None] == [(5, None)] and len(solves) == 1 + lone
    assert sorted(a._kept) == ["eq11", "index chain", "pinv", "sweep"]
    res, dz = results["mp_inverse"], results["drazin_inverse"]
    assert (res.representation_used, dz.index, dz.rank_core) == ("classical_inverse", 0, 5)
    assert (dz.numerators, dz.denominator) == (res.numerators, res.denominator) == (minors.adjugate(a), det(a))
    assert dz.drazin_inverse is res.pseudo_inverse and results["group_inverse"] is dz
    assert results["drazin_solve"].method == "classical_cramer"
    assert drazin_times_a(a) == Matrix.identity(5) and len(solves) == 1 + lone
    # The ledger itself keeps nothing but the chain it reads, here A's sweep alone.
    g = _fresh(a)
    minors.chain_ledger(g)
    assert sorted(g._kept) == ["index chain", "sweep"]


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("order", [("mp_inverse", "drazin_inverse"), ("drazin_inverse", "mp_inverse")])
def test_classical_and_index_zero_drazin_inverses_share_one_quotient(order, complex_entries, monkeypatch):
    a = _full_rank(610 + complex_entries, 9, 9, complex_entries)
    quotients = _counted(monkeypatch, minors.Ledger, "quotient")
    first = SQUARE_OPERATIONS[order[0]](a, None)
    assert len(quotients) == 1
    second = SQUARE_OPERATIONS[order[1]](a, None)
    assert len(quotients) == 1  # the second call forms no quotient
    res, dz = (first, second) if order[0] == "mp_inverse" else (second, first)
    assert dz.drazin_inverse is res.pseudo_inverse and res.pseudo_inverse == _inverse(a)


@LITERAL
@given(line_scaled(deficient_matrices(6)), seeds)
def test_line_scaled_gram_forms_match_literal_sums(a, seed):
    _check_auto_against_literal_forms(a)
    _check_gram_forms_against_literal_sums(a, seed)


@LITERAL
@given(line_scaled(full_rank_matrices(6)), seeds)
def test_line_scaled_full_rank_forms_match_determinant_forms(a, seed):
    _check_full_rank_forms_against_determinants(a, seed)


@LITERAL
@given(line_scaled(indexed_matrices(6, 3), similar=True), seeds)
def test_line_scaled_drazin_forms_match_literal_sums(a, seed):
    _check_drazin_forms_against_literal_sums(a, seed)
    assert char_poly_coeffs(a) == tuple(principal_minor_sum(a, k) for k in range(1, a.rows + 1))


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("m, n, r", [(7, 7, 4), (8, 5, 3), (5, 9, 2)])
def test_skeleton_rebuilds_the_matrix(m, n, r, complex_entries):
    """conj(C''*)^T diag(g) W''^-1 R'' = A' exactly, for the skeleton of A' read from its sweep."""
    seed = 1300 + 10 * m + n
    a = _line_scaled(_deficient(seed, m, n, r, complex_entries), seed)  # row and column contents above 1
    e = elimination.eliminate(a.pairs)
    c_star, g, r_rows, w = elimination.skeleton(a.pairs, e)
    k = e.rank
    assert k == r and min(g) > 1 and max(e.contents) > 1
    assert all(elimination._content(line) == 1 for line in (*c_star, *r_rows))
    assert w == [[row[j] for j in e.pivots] for row in r_rows]
    g_diag = Matrix(k, k, [g[i] if i == j else 0 for i in range(k) for j in range(k)])
    c, r_primitive, w_primitive = (matrices.from_pairs(rows, 1) for rows in (c_star, r_rows, w))
    rebuilt = multiply(multiply(conjugate_transpose(c), g_diag), multiply(_inverse(w_primitive), r_primitive))
    assert rebuilt == matrices.from_pairs(a.pairs, 1)


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("m, n, r", [(7, 7, 4), (12, 11, 6), (8, 5, 3), (5, 9, 2)])
def test_deficient_mp_inverse_takes_each_content_once(m, n, r, complex_entries, monkeypatch):
    """m contents for the sweep's rows and r for the skeleton's columns; the rows of R'' are already primitive."""
    a = _deficient(1320 + 10 * m + n, m, n, r, complex_entries)
    expected, fresh = oracle_pinv(a), _fresh(a)
    assert rank(a) == r
    contents = _counted(monkeypatch, elimination, "_content")
    assert mp_inverse(fresh).pseudo_inverse == expected
    assert len(contents) == m + r


def _check_row_factor_against_inverse(a: Matrix) -> None:
    """row_factor_pairs over its scale is W^-1 R, for R a's pivot rows in sweep order and W = R[:, pivots]."""
    e = elimination.eliminate(a.pairs)
    pivot_rows = a.submatrix(e.order[: e.rank], range(a.cols))
    w = pivot_rows.submatrix(range(e.rank), e.pivots)
    assert matrices.from_pairs(*elimination.row_factor_pairs(e)) == multiply(_inverse(w), pivot_rows)


@ORACLE
@given(st.one_of(line_scaled(deficient_matrices(8)), line_scaled(full_rank_matrices(8))), seeds)
@example(_line_scaled(_deficient(1280, 8, 5, 1, True), 1280), 1280)  # tall, rank 1
@example(_line_scaled(_deficient(1281, 4, 9, 3, False), 1281), 1281)  # wide, rank min - 1
@example(_line_scaled(_deficient(1282, 7, 7, 4, True), 1282), 1282)  # square
@example(_deficient(1283, 13, 12, 11, False), 1283)  # real, r >= _INT_MIN: the factor takes int rows
def test_line_scaled_gram_forms_match_oracle(a, seed):
    _check_row_factor_against_inverse(a)
    x = oracle_pinv(a)
    y, yr = column_vector(_rhs(seed, a.rows)), row_vector(_rhs(seed + 1, a.cols))
    fresh = _fresh(a)  # its lone solves take the skeleton
    assert lsq_solve(fresh, y).solution == multiply(x, y)
    assert lsq_solve_row_system(yr, fresh).solution == multiply(yr, x)
    assert mp_inverse(a).pseudo_inverse == x
    assert projector_p(a) == multiply(x, a) and projector_q(a) == multiply(a, x)
    assert lsq_solve(a, y) == lsq_solve(fresh, y)
    assert lsq_solve_row_system(yr, a) == lsq_solve_row_system(yr, fresh)


@ORACLE
@given(line_scaled(indexed_matrices(8, 5), similar=True), seeds)
def test_line_scaled_drazin_forms_match_oracle(a, seed):
    xd = oracle_drazin(a)
    y = column_vector(_rhs(seed, a.rows))
    assert drazin_solve(_fresh(a), y).solution == multiply(xd, y)
    assert drazin_inverse(a).drazin_inverse == xd
    assert drazin_times_a(a) == multiply(xd, a)


def _distinct_prime_denominators(n: int, seed: int) -> Matrix:
    """n x n, entry (i, j) = k / p_ij with k in +-1..5 and p_ij distinct among the first n^2 primes;
    the last two rows are combinations of the first four, so the rank is n - 2."""
    rng = random.Random(seed)
    primes = []
    candidate = 2
    while len(primes) < n * n:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    rng.shuffle(primes)
    rows = [[Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)), primes[i * n + j]) for j in range(n)]
            for i in range(n)]
    for i in (n - 2, n - 1):
        coeffs = [rng.choice((-2, -1, 1, 2)) for _ in range(4)]
        rows[i] = [sum(c * rows[t][j] for t, c in enumerate(coeffs)) for j in range(n)]
    return Matrix.from_rows(rows)


def test_distinct_prime_denominators_match_oracle():
    # The common scale has hundreds of bits; the skeleton's content-free rows
    # and columns carry only each line's own primes.
    a = _distinct_prime_denominators(8, 1)
    assert a.scale.bit_length() > 300 and rank(a) == 6
    x = oracle_pinv(a)
    res = mp_inverse(a)
    assert res.representation_used in ("eq1", "eq2") and res.pseudo_inverse == x
    y = column_vector(_rhs(8, 8))
    assert lsq_solve(_fresh(a), y).solution == multiply(x, y)
    assert drazin_inverse(a).drazin_inverse == oracle_drazin(a)


# -- one sweep and one index chain per matrix, shared by its operations ------------

SHARED_OPERATIONS = {
    **{name: lambda a, y, yr, run=run: run(a, y) for name, run in SQUARE_OPERATIONS.items()},
    **GRAM_OPERATIONS,
    "index_of": lambda a, y, yr: index_of(a),
}


def _operation_names(a: Matrix) -> list[str]:
    return sorted(name for name in SHARED_OPERATIONS if a.is_square or name in GRAM_OPERATIONS)


def _outcome(a: Matrix, name: str):
    """The result of operation ``name`` on ``a``, or the refusal's type."""
    y, yr = column_vector(_rhs(31, a.rows)), row_vector(_rhs(32, a.cols))
    try:
        return SHARED_OPERATIONS[name](a, y, yr)
    except drazin.GroupInverseError as exc:
        return type(exc)


def _fresh(a: Matrix) -> Matrix:
    """An equal matrix built from a's entries, with nothing kept on it."""
    return Matrix.from_rows(a.row_lists())


@settings(max_examples=60, deadline=None)
@given(st.one_of(deficient_matrices(7), full_rank_matrices(6), indexed_matrices(7, 3),
                 st.builds(Matrix.zeros, st.integers(1, 4), st.integers(1, 4))),
       st.data())
def test_operations_sharing_one_matrix_match_a_fresh_matrix_in_any_order(a, data):
    order = data.draw(st.permutations(_operation_names(a)))
    first, *rest = order
    shared = {first: _outcome(a, first)}
    kept = matrices.sweep(a)
    saved = copy.deepcopy(kept)
    for name in rest:
        shared[name] = _outcome(a, name)
    for name in order:
        assert shared[name] == _outcome(_fresh(a), name), name
    # No reader changed the sweep A keeps, and it is the sweep of A.
    assert matrices.sweep(a) is kept and kept == saved == elimination.eliminate(a.pairs)
    if a.is_square:
        assert _chain(a) == _chain(_fresh(a))


@settings(max_examples=40, deadline=None)
@given(st.one_of(deficient_matrices(7), full_rank_matrices(6), indexed_matrices(7, 3),
                 rational_indexed(6, 3).map(lambda case: case[0]),
                 st.builds(Matrix.zeros, st.integers(1, 4), st.integers(1, 4))),
       seeds)
@example(Matrix.zeros(3, 3), 1)
@example(_indexed(4244, 0, (3, 2), True), 2)  # nilpotent
def test_solves_on_a_matrix_that_keeps_its_inverses_match_a_fresh_matrix(a, seed):
    y, yr = column_vector(_rhs(seed, a.rows)), row_vector(_rhs(seed + 1, a.cols))
    mp_inverse(a)
    assert lsq_solve(a, y) == lsq_solve(_fresh(a), y)
    assert lsq_solve_row_system(yr, a) == lsq_solve_row_system(yr, _fresh(a))
    if a.is_square:
        drazin_inverse(a)
        assert drazin_solve(a, y) == drazin_solve(_fresh(a), y)


THREADED = {
    "index 2, complex": _indexed(4242, 3, (2, 1), True),
    "nonsingular": _full_rank(4243, 5, 5, False),
    "nilpotent": _indexed(4244, 0, (3, 2), False),
}


@pytest.mark.parametrize("name", sorted(THREADED))
def test_threads_sharing_one_matrix_get_the_single_thread_results(name, monkeypatch):
    a = THREADED[name]
    names = _operation_names(a)
    expected = {op: _outcome(_fresh(a), op) for op in names}
    # Slow sweeps and a slow index search: every thread asks for what A keeps
    # while another one is still computing it.
    for module, attr in ((elimination, "eliminate"), (matrices, "_index_search")):
        real = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda x, real=real: time.sleep(0.002) or real(x))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            shared = _fresh(a)
            start = threading.Barrier(4, timeout=30)

            def work(t: int) -> dict:
                start.wait()
                return {op: _outcome(shared, op) for op in names[t:] + names[:t]}

            with ThreadPoolExecutor(max_workers=4) as pool:
                assert list(pool.map(work, range(4), timeout=60)) == [expected] * 4
    finally:
        sys.setswitchinterval(switch)


def test_rank_and_verify_never_read_what_a_matrix_keeps(monkeypatch):
    a = _indexed(4245, 3, (2, 1), True)  # 6 x 6, index 2, core rank 3
    x, res = mp_inverse(a).pseudo_inverse, drazin_inverse(a)  # A keeps its sweep and chain now
    ak, v = power(a, 2), column_vector(_rhs(33, 6))
    inside, outside = multiply(ak, v), v - multiply(ak, multiply(oracle_pinv(ak), v))
    assert not outside.is_zero  # v minus its projection on R(A^2)
    fresh = _fresh(a)

    def refused(*args):
        raise AssertionError("a check read what a matrix keeps")

    # Every binding of the three readers in the package, as the modules hold them.
    readers = (matrices.sweep, matrices.kept, matrices.held)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("adjinv"):
            for attr, value in list(vars(module).items()):
                if any(value is reader for reader in readers):
                    monkeypatch.setattr(module, attr, refused)
    for b in (a, fresh):
        assert rank(b) == 4
        assert check_penrose(b, x).all_passed
        assert check_drazin(b, res.drazin_inverse, 2).all_passed
        assert range_membership(power(b, 2), inside) and not range_membership(power(b, 2), outside)
    assert fresh._kept == {}


# -- guards: a vanishing kernel denominator is reported as a bug -------------------


def _zero_denominator(real):
    def fake(*args):
        x, _, *f = real(*args)
        return x, (0, 0), *f

    return fake


DEFICIENT = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])  # rank 2
INDEX_ONE = Matrix.from_rows([[2, 1, 0], [0, 0, 0], [0, 0, 0]])  # core rank 1, index 1
INDEX_TWO = Matrix.from_rows([[2, 0, 0], [0, 0, 1], [0, 0, 0]])  # core rank 1, index 2
SQUARE = Matrix.from_rows([[2, 1, 0], [1, 3, 1], [0, 1, 4]])  # nonsingular
TALL = Matrix.from_rows([[1, 0], [1, 1], [0, 2]])  # full column rank
WIDE = Matrix.from_rows([[1, 1, 0], [0, 1, 2]])  # full row rank
RHS = column_vector([1, 2, 3])
ROW_RHS = row_vector([1, 2, 3])

# A matrix keeps its Moore-Penrose and Drazin inverses, so the cases that read
# them run on a fresh equal matrix each time: the second run must reach the
# kernel again.
GUARDED = {
    "mp_inverse": lambda: mp_inverse(_fresh(DEFICIENT)),
    "projector_p": lambda: projector_p(_fresh(DEFICIENT)),
    "projector_q": lambda: projector_q(_fresh(DEFICIENT)),
    "lsq_solve": lambda: lsq_solve(DEFICIENT, RHS),
    "lsq_solve_row_system": lambda: lsq_solve_row_system(ROW_RHS, DEFICIENT),
    "drazin_inverse": lambda: drazin_inverse(_fresh(INDEX_TWO)),
    "group_inverse": lambda: group_inverse(_fresh(INDEX_ONE)),
    "drazin_times_a": lambda: drazin_times_a(_fresh(INDEX_TWO)),
    "drazin_solve": lambda: drazin_solve(_fresh(INDEX_TWO), RHS),
    "mp_inverse:square": lambda: mp_inverse(_fresh(SQUARE)),
    "mp_inverse:tall": lambda: mp_inverse(_fresh(TALL)),
    "mp_inverse:wide": lambda: mp_inverse(_fresh(WIDE)),
    "drazin_inverse:square": lambda: drazin_inverse(_fresh(SQUARE)),
    "group_inverse:square": lambda: group_inverse(_fresh(SQUARE)),
    "lsq_solve:square": lambda: lsq_solve(SQUARE, RHS),
    "lsq_solve:tall": lambda: lsq_solve(TALL, RHS),
    "lsq_solve_row_system:square": lambda: lsq_solve_row_system(ROW_RHS, SQUARE),
    "lsq_solve_row_system:wide": lambda: lsq_solve_row_system(ROW_RHS, WIDE),
    "drazin_solve:square": lambda: drazin_solve(_fresh(SQUARE), RHS),
}


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_zero_kernel_denominator_raises(name, monkeypatch):
    GUARDED[name]()  # runs cleanly with the real kernel
    # Every ledger's denominator is the determinant an adjoint solve returns:
    # the skeleton's Gram solves, the classical inverse's, and det(M_k)^(k+1)
    # from the Drazin chain's core solves.
    for kernel in ("adjoint_solve_pairs", "gram_solve_pairs"):
        monkeypatch.setattr(elimination, kernel, _zero_denominator(getattr(elimination, kernel)))
    with pytest.raises(ArithmeticError, match="this is a bug"):
        GUARDED[name]()


@pytest.mark.parametrize("literal", [mp_inverse_columns, mp_inverse_rows])
def test_zero_literal_denominator_raises(literal, monkeypatch):
    literal(DEFICIENT)  # runs cleanly with the real minor sums
    # The literal forms' denominator is guarded where every ledger's is, in Ledger.quotient.
    monkeypatch.setattr(minors, "principal_minor_sum", lambda g, r: ZERO)
    with pytest.raises(ArithmeticError, match="ledger denominator vanished; this is a bug"):
        literal(DEFICIENT)


# Full-rank projectors have no denominator to guard: they are the identity.
FULL_RANK_PROJECTORS = {
    "projector_p:square": (projector_p, SQUARE),
    "projector_p:tall": (projector_p, TALL),
    "projector_q:wide": (projector_q, WIDE),
}


@pytest.mark.parametrize("name", sorted(FULL_RANK_PROJECTORS))
def test_full_rank_projectors_are_the_identity(name, monkeypatch):
    projector, a = FULL_RANK_PROJECTORS[name]
    size = a.cols if projector is projector_p else a.rows
    for kernel in ("matmul_pairs", "adjoint_solve_pairs", "gram_solve_pairs"):
        monkeypatch.setattr(elimination, kernel, _refuse(kernel))
    a = Matrix.from_rows(a.row_lists())  # equal, with no sweep kept by earlier tests
    calls = _count_sweeps(monkeypatch)
    assert projector(a) == Matrix.identity(size)
    assert calls == [a.rows]
    assert projector(a) == Matrix.identity(size)
    assert calls == [a.rows]  # the second call reads the sweep A keeps


# -- one Drazin ledger per matrix ---------------------------------------------------

DRAZIN_FORMS = {
    "drazin_inverse": lambda a: drazin_inverse(a).drazin_inverse,
    "group_inverse": lambda a: group_inverse(a).drazin_inverse,
    "drazin_times_a": drazin_times_a,
}


@pytest.mark.parametrize("order", list(permutations(sorted(DRAZIN_FORMS))), ids="-".join)
def test_drazin_forms_share_one_kernel_call(order, monkeypatch):
    widths = []
    real = elimination.adjoint_solve_pairs
    monkeypatch.setattr(elimination, "adjoint_solve_pairs", lambda e, b=None: widths.append(len(b[0])) or real(e, b))
    a = _fresh(INDEX_ONE)
    got = {name: DRAZIN_FORMS[name](a) for name in order}
    x = drazin_inverse(_fresh(INDEX_ONE)).drazin_inverse
    assert got["drazin_inverse"] == got["group_inverse"] == x
    assert got["drazin_times_a"] == multiply(x, a)
    # One ledger for the three forms on A, one for the fresh copy: each is
    # k + 1 = 2 solves on the 1 x 1 core, with C_1 (1 x 3) as right side.
    assert widths == [3, 3] * 2
    # The solve reads the numerators A keeps; on a fresh matrix it applies the
    # chain to its one column, C_1 y.
    solved = drazin_solve(a, RHS)
    assert widths == [3, 3] * 2
    assert drazin_solve(_fresh(INDEX_ONE), RHS) == solved and widths == [3, 3] * 2 + [1, 1]
    # Index 2 is refused from the chain alone, before any ledger is formed.
    with pytest.raises(drazin.GroupInverseError):
        group_inverse(_fresh(INDEX_TWO))
    assert widths == [3, 3] * 2 + [1, 1]


# -- one reduction per ledger ---------------------------------------------------------


@pytest.mark.parametrize("complex_entries", [False, True])
def test_each_ledger_reduces_its_numerators_once(complex_entries, monkeypatch):
    # Every kernel result becomes a Ledger through one from_pairs call: the Gram
    # ledger at every rank (and A* with a right side), the classical inverse, the
    # chain at index 1-3, and a lone Drazin solve.  A keeps its rank or chain first.
    reductions = []
    real = matrices.from_pairs
    for module in (matrices, minors):
        monkeypatch.setattr(module, "from_pairs", lambda rows, scale: reductions.append(1) or real(rows, scale))
    y = column_vector(_rhs(662, 6, complex_entries))

    def reduced(ledger, a, *args) -> int:
        reductions.clear()
        ledger(a, *args)
        return len(reductions)

    grams = [Matrix.zeros(6, 4)] + [_deficient(663 + r, 6, 4, r, complex_entries) for r in range(1, 5)]
    assert [matrices.known_rank(a) for a in grams] == [0, 1, 2, 3, 4]
    for a in grams:
        for args in ((), (None, True), (y,)):
            assert reduced(minors.skeleton_ledger, a, *args) == 1
    chains = [_full_rank(664, 6, 6, complex_entries)] + [
        _indexed(665 + k, 6 - k - 1, (k, 1), complex_entries) for k in (1, 2, 3)]
    assert [index_of(a) for a in chains] == [0, 1, 2, 3]
    counts, chain_ledger = [], minors.chain_ledger

    def counted(a, y=None):  # every chain ledger, a lone Drazin solve's after its products A^k y
        reductions.clear()
        ledger = chain_ledger(a, y)
        counts.append(len(reductions))
        return ledger

    monkeypatch.setattr(minors, "chain_ledger", counted)
    for a in chains:
        assert reduced(minors.chain_ledger, a) == reduced(minors.chain_ledger, a, y) == 1
        lone = _fresh(a)
        index_of(lone)
        drazin_solve(lone, y)
    assert counts == [1] * 3 * len(chains)


# -- scale: sizes the per-entry minor enumeration never finished -------------------


@pytest.mark.parametrize("complex_entries", [False, True])
def test_rank_12_of_24(complex_entries):
    rng = random.Random(2412 + complex_entries)
    a = multiply(_matrix(rng, 24, 12, complex_entries), _matrix(rng, 12, 24, complex_entries))
    assert rank(a) == 12
    res = mp_inverse(a)
    x = res.pseudo_inverse
    assert res.representation_used == "eq1"
    assert check_penrose(a, x).all_passed
    assert x * res.denominator == res.numerators

    p = projector_p(a)
    assert p == multiply(x, a)
    assert multiply(p, p) == p and conjugate_transpose(p) == p

    y = column_vector(_rhs(24, 24, complex_entries))
    sol = lsq_solve(a, y).solution
    astar = conjugate_transpose(a)
    assert multiply(astar, multiply(a, sol) - y).is_zero
    assert range_membership(astar, sol)
    assert sol == multiply(x, y)


@pytest.mark.parametrize("complex_entries", [False, True])
def test_full_rank_at_scale(complex_entries):
    rng = random.Random(3236 + complex_entries)
    sq = _matrix(rng, 32, 32, complex_entries)
    res = mp_inverse(sq)
    assert res.representation_used == "classical_inverse"
    assert multiply(sq, res.pseudo_inverse) == Matrix.identity(32)
    assert res.pseudo_inverse * res.denominator == res.numerators

    tall = _matrix(rng, 36, 32, complex_entries)
    res = mp_inverse(tall)
    assert res.representation_used == "eq6"
    assert check_penrose(tall, res.pseudo_inverse).all_passed

    wide = _matrix(rng, 32, 36, complex_entries)
    res = mp_inverse(wide)
    assert res.representation_used == "eq7"
    assert check_penrose(wide, res.pseudo_inverse).all_passed

    y = column_vector(_rhs(36, 36, complex_entries))
    rep = lsq_solve(tall, y)
    assert rep.method == "eq13"
    assert multiply(conjugate_transpose(tall), multiply(tall, rep.solution) - y).is_zero
