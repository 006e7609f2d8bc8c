import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adjinv.matrices
from adjinv import (
    Matrix,
    Scalar,
    adjugate,
    char_poly_coeffs,
    column_vector,
    conjugate_transpose,
    det,
    drazin_inverse,
    drazin_solve,
    drazin_times_a,
    group_inverse,
    hstack,
    index_of,
    multiply,
    oracle_drazin,
    power,
    principal_minor_sum,
    rank,
    replace_column,
    replace_row,
)
from adjinv.elimination import integerize
from adjinv.matrices import from_pairs
from adjinv.minors import char_adjugate
from conftest import random_matrix

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
scalars = st.builds(Scalar, rationals, rationals)


def matrices(min_side=1, max_side=4):
    return st.integers(min_side, max_side).flatmap(
        lambda m: st.integers(min_side, max_side).flatmap(
            lambda n: st.lists(scalars, min_size=m * n, max_size=m * n).map(
                lambda entries: Matrix(m, n, entries)
            )
        )
    )


def test_conjugate_transpose_golden(example1):
    expected = Matrix.from_rows(
        [
            [2, 7, 3, 1],
            [0, -4, -4, -4],
            [-5, -9, 7, 12],
            [4, "1.5", "-6.5", "-10.5"],
        ]
    )
    assert conjugate_transpose(example1) == expected


def test_conjugate_transpose_conjugates():
    a = Matrix.from_rows([["1+2i", "3i"], [4, "-1-1i"]])
    h = conjugate_transpose(a)
    assert h.at(0, 1) == Scalar(4)
    assert h.at(1, 0) == Scalar(0, -3)
    assert h.at(1, 1) == Scalar(-1, 1)


@settings(max_examples=30)
@given(matrices())
def test_conjugate_transpose_involution(a):
    assert conjugate_transpose(conjugate_transpose(a)) == a


def test_gram_matrix_golden(example1):
    gram = multiply(conjugate_transpose(example1), example1)
    expected = Matrix.from_rows(
        [
            [63, -44, -40, "-11.5"],
            [-44, 48, -40, 62],
            [-40, -40, 299, -205],
            ["-11.5", 62, -205, "170.75"],
        ]
    )
    assert gram == expected


def test_identity_product(example1):
    assert multiply(Matrix.identity(4), example1) == example1
    assert multiply(example1, Matrix.identity(4)) == example1


def test_multiply_associative_on_random_triples():
    rng = random.Random(7)
    for _ in range(10):
        a = random_matrix(rng, 3, 3, complex_entries=True)
        b = random_matrix(rng, 3, 3)
        c = random_matrix(rng, 3, 3, complex_entries=True)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


@st.composite
def operands(draw, rows: int, cols: int):
    """A rows x cols matrix: real, complex, zero, or each row over its own prime."""
    kind = draw(st.sampled_from(("real", "complex", "zero", "prime rows")))
    if kind == "zero":
        return Matrix.zeros(rows, cols)
    parts = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    entries = []
    for i in range(rows):
        for _ in range(cols):
            if kind == "prime rows":
                p = PRIMES[i % len(PRIMES)]
                re = Fraction(draw(st.integers(-30, 30)), p)
                im = Fraction(draw(st.integers(-30, 30)), p) if draw(st.booleans()) else 0
                entries.append(Scalar(re, im))
            else:
                entries.append(Scalar(draw(parts), draw(parts) if kind == "complex" else 0))
    return Matrix(rows, cols, entries)


@st.composite
def product_pairs(draw):
    """Conformable (a, b) of any shapes up to 6, tall, wide and 1 x n by n x 1 included."""
    m, k, n = (draw(st.integers(1, 6)) for _ in range(3))
    return draw(operands(m, k)), draw(operands(k, n))


def literal_product(a: Matrix, b: Matrix) -> Matrix:
    """Entry (i, j) as the literal Scalar sum of a(i, t) b(t, j)."""
    return Matrix(a.rows, b.cols, [
        sum((a.at(i, t) * b.at(t, j) for t in range(a.cols)), Scalar(0))
        for i in range(a.rows) for j in range(b.cols)
    ])


ROW = Matrix.from_rows([["1/2", "-3+1/7i", "5/11"]])


@settings(max_examples=60, deadline=None)
@given(product_pairs())
@example((ROW, conjugate_transpose(ROW)))
@example((conjugate_transpose(ROW), ROW))
@example((Matrix.zeros(3, 2), Matrix.from_rows([["1/3", "2i"], [4, "-5/7"]])))
@example((Matrix.from_rows([["1/2"], ["1/3"], ["1/5"], ["1/7"]]), Matrix.from_rows([["1/11", "1/13i"]])))
def test_multiply_matches_literal_sum(pair):
    a, b = pair
    assert multiply(a, b) == literal_product(a, b)
    # from_pairs is the way back from the integer layer multiply works on.
    for m in pair:
        assert from_pairs(*integerize(m.row_lists())) == m


def grid(m: Matrix) -> list[list[Scalar]]:
    return [list(m.row(i)) for i in range(m.rows)]


def in_lowest_terms(m: Matrix) -> bool:
    """The stored format: m rows of n pairs over a positive scale sharing no factor with them."""
    parts = [part for row in m.pairs for pair in row for part in pair]
    return (m.scale > 0 and gcd(m.scale, *parts) == 1
            and len(m.pairs) == m.rows and all(len(row) == m.cols for row in m.pairs))


def rewritten(s: Scalar, k: int) -> str:
    """The token of s with each part's numerator and denominator multiplied by k."""
    def part(q: Fraction) -> str:
        return f"{abs(q.numerator) * k}/{q.denominator * k}"

    return f"{'-' if s.re < 0 else ''}{part(s.re)}{'-' if s.im < 0 else '+'}{part(s.im)}i"


@st.composite
def same_shape_pairs(draw):
    """(a, b) of one shape, 1 x n and n x 1 included; b is a rewritten with other
    denominators, a with one entry changed, or an independent matrix."""
    shape = draw(st.sampled_from(("row", "column", "any")))
    rows = 1 if shape == "row" else draw(st.integers(1, 4))
    cols = 1 if shape == "column" else draw(st.integers(1, 4))
    a = draw(operands(rows, cols))
    entries = [e for row in grid(a) for e in row]
    how = draw(st.sampled_from(("rewritten", "changed", "independent")))
    if how == "rewritten":
        b = Matrix(rows, cols, [rewritten(e, draw(st.integers(2, 6))) for e in entries])
    elif how == "changed":
        t = draw(st.integers(0, rows * cols - 1))
        entries[t] = entries[t] + draw(scalars.filter(bool))
        b = Matrix(rows, cols, entries)
    else:
        b = draw(operands(rows, cols))
    return a, b


@settings(max_examples=80, deadline=None)
@given(same_shape_pairs(), st.one_of(scalars, st.integers(-3, 3), rationals), st.data())
@example((Matrix.from_rows([["1/2", "3i"]]), Matrix.from_rows([["2/4", "6/2i"]])), 0, None)
@example((Matrix.zeros(3, 1), column_vector(["0/5", 0, "0.0"])), Fraction(1, 3), None)
def test_stored_pairs_match_entrywise_scalars(pair, c, data):
    a, b = pair
    ga, gb = grid(a), grid(b)
    assert in_lowest_terms(a) and in_lowest_terms(b)
    assert (a == b) == (ga == gb)
    if a == b:
        assert hash(a) == hash(b)
    m, n = a.rows, a.cols
    if data is None:
        rows, cols, i, j = list(range(m)), list(range(n)), 1, 1
    else:
        rows = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m + 1))
        cols = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n + 1))
        i, j = data.draw(st.integers(1, m)), data.draw(st.integers(1, n))
    b_column = b.submatrix(range(m), [j - 1])
    b_row = b.submatrix([i - 1], range(n))
    replaced_column = [row[:] for row in ga]
    for r in range(m):
        replaced_column[r][j - 1] = gb[r][j - 1]
    replaced_row = [row[:] for row in ga]
    replaced_row[i - 1] = gb[i - 1]
    cases = [
        (a + b, [[x + y for x, y in zip(r, s)] for r, s in zip(ga, gb)]),
        (a - b, [[x - y for x, y in zip(r, s)] for r, s in zip(ga, gb)]),
        (-a, [[-x for x in r] for r in ga]),
        (a * c, [[x * c for x in r] for r in ga]),
        (c * a, [[c * x for x in r] for r in ga]),
        (conjugate_transpose(a), [[ga[r][t].conjugate() for r in range(m)] for t in range(n)]),
        (hstack(a, b), [r + s for r, s in zip(ga, gb)]),
        (a.submatrix(rows, cols), [[ga[r][t] for t in cols] for r in rows]),
        (replace_column(a, j, b_column), replaced_column),
        (replace_column(a, j, b.column(j - 1)), replaced_column),
        (replace_row(a, i, b_row), replaced_row),
        (replace_row(a, i, list(b.row(i - 1))), replaced_row),
    ]
    for got, expected in cases:
        assert in_lowest_terms(got)
        assert got.shape == (len(expected), len(expected[0]))
        assert grid(got) == expected


def test_multiply_dimension_mismatch():
    with pytest.raises(ValueError):
        multiply(Matrix.zeros(2, 3), Matrix.zeros(2, 3))


def test_power_golden(example2):
    assert power(example2, 2) == Matrix.from_rows(
        [[3, -4, 4, 3], [0, 1, -1, 0], [4, -5, 5, 4], [3, -4, 4, 3]]
    )
    assert power(example2, 3) == Matrix.from_rows(
        [[10, -14, 14, 10], [-1, 2, -2, -1], [13, -18, 18, 13], [10, -14, 14, 10]]
    )
    assert power(example2, 0) == Matrix.identity(4)


def test_power_forms_k_minus_one_products(example2, monkeypatch):
    products = []
    real = adjinv.matrices.multiply
    monkeypatch.setattr(adjinv.matrices, "multiply", lambda a, b: products.append(1) or real(a, b))
    assert power(example2, 3) == multiply(multiply(example2, example2), example2)
    assert len(products) == 2
    products.clear()
    assert power(example2, 0) == Matrix.identity(4) and power(example2, 1) == example2
    assert products == []


def test_power_requires_square():
    with pytest.raises(ValueError, match="^matrix power needs a square matrix, got 2x3$"):
        power(Matrix.zeros(2, 3), 2)
    with pytest.raises(ValueError):
        power(Matrix.identity(2), -1)


SQUARE_ONLY = {
    "matrix index": index_of,
    "Drazin inverse": drazin_inverse,
    "group inverse": group_inverse,
    "Drazin projector": drazin_times_a,
    "Drazin solution": lambda a: drazin_solve(a, column_vector([1, 2])),
    "determinant": det,
    "characteristic polynomial": char_poly_coeffs,
    "adjugate": adjugate,
    "characteristic adjugate": lambda a: char_adjugate(a, 1, column_vector([1, 2])),
    "Drazin oracle": oracle_drazin,
    "matrix power": lambda a: power(a, 2),
    "principal minor sum": lambda a: principal_minor_sum(a, 1),
}


@pytest.mark.parametrize("what", sorted(SQUARE_ONLY))
def test_square_only_operations_name_themselves(what):
    with pytest.raises(ValueError) as err:
        SQUARE_ONLY[what](Matrix.from_rows([[1, 2, 3], [4, 5, 6]]))
    assert str(err.value) == f"{what} needs a square matrix, got 2x3"


def test_rank_golden(example1, example2):
    assert rank(example1) == 3
    assert rank(example2) == 3
    assert rank(power(example2, 2)) == 2
    assert rank(power(example2, 3)) == 2
    assert rank(Matrix.zeros(3, 4)) == 0


@settings(max_examples=30)
@given(matrices())
def test_rank_invariants(a):
    r = rank(a)
    assert r == rank(conjugate_transpose(a))
    assert r == rank(multiply(conjugate_transpose(a), a))
    assert r <= min(a.rows, a.cols)


def test_replace_column_noop(example1):
    same = replace_column(example1, 2, example1.column(1))
    assert same == example1


def test_replace_column_golden_minor_sum(example1):
    # Replacing column 1 of A*A with f = A*y and summing the order-3
    # principal minors containing index 1 gives the first solution numerator.
    from adjinv import minor

    gram = multiply(conjugate_transpose(example1), example1)
    f = (Scalar(26), Scalar(-24), Scalar(10), Scalar(-23))
    replaced = replace_column(gram, 1, f)
    total = (
        minor(replaced, (1, 2, 3), (1, 2, 3))
        + minor(replaced, (1, 2, 4), (1, 2, 4))
        + minor(replaced, (1, 3, 4), (1, 3, 4))
    )
    assert total == Scalar(73158)


def test_replace_row_rank_drop():
    dropped = replace_row(Matrix.identity(3), 1, [0, 0, 0])
    assert rank(dropped) == 2


def test_replace_errors():
    eye = Matrix.identity(3)
    with pytest.raises(ValueError):
        replace_column(eye, 0, [1, 2, 3])
    with pytest.raises(ValueError):
        replace_column(eye, 4, [1, 2, 3])
    with pytest.raises(ValueError):
        replace_column(eye, 1, [1, 2])
    with pytest.raises(ValueError):
        replace_row(eye, 1, [1, 2])


def test_matrix_construction_errors():
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(TypeError, match="float values are not exact"):
        Matrix.from_rows([[0.5]])
    with pytest.raises(TypeError, match="cannot build an exact rational from NoneType"):
        Matrix.from_rows([[None]])


def test_vectors_and_hstack():
    v = column_vector([1, 2, 3])
    assert v.shape == (3, 1)
    w = hstack(Matrix.identity(2), column_vector([5, 6]))
    assert w.shape == (2, 3)
    assert w.column(2) == (Scalar(5), Scalar(6))
    with pytest.raises(ValueError):
        hstack(Matrix.identity(2), column_vector([1, 2, 3]))


def test_deterministic_reruns(example1):
    gram1 = multiply(conjugate_transpose(example1), example1)
    gram2 = multiply(conjugate_transpose(example1), example1)
    assert gram1 == gram2
    assert hash(gram1) == hash(gram2)
