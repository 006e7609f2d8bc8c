import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adjinv import (
    Matrix,
    Scalar,
    column_vector,
    conjugate_transpose,
    hstack,
    multiply,
    power,
    rank,
    replace_column,
    replace_row,
)
from adjinv.elimination import integerize_common
from adjinv.matrices import from_pairs
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
        assert from_pairs(*integerize_common(m.row_lists())) == m


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


def test_power_requires_square():
    with pytest.raises(ValueError):
        power(Matrix.zeros(2, 3), 2)
    with pytest.raises(ValueError):
        power(Matrix.identity(2), -1)


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
    with pytest.raises(TypeError):
        Matrix.from_rows([[0.5]])


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
