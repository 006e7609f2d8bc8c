import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjinv import (
    ONE,
    Matrix,
    Scalar,
    adjugate,
    char_poly_coeffs,
    conjugate_transpose,
    det,
    drazin_solve,
    enumerate_containing,
    minor,
    mp_inverse_columns,
    multiply,
    power,
    principal_minor_sum,
    rank,
    replace_column,
    replace_row,
)
from adjinv.minors import Ledger
from conftest import det_cofactor, random_matrix, rank_forced_matrix


def test_full_minor_is_determinant():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    assert minor(a, (1, 2), (1, 2)) == det(a) == Scalar(-2)


def test_minor_golden_cases(example2):
    cube = power(example2, 3)
    assert minor(cube, (1, 2), (1, 2)) == Scalar(6)
    # rows 1 and 4 of the displayed cube are identical, so this minor vanishes
    assert minor(cube, (1, 4), (1, 2)) == Scalar(0)


def test_minor_validation(example2):
    with pytest.raises(ValueError):
        minor(example2, (1, 2), (1,))
    with pytest.raises(ValueError):
        minor(example2, (1, 5), (1, 2))
    with pytest.raises(ValueError):
        minor(example2, (2, 1), (1, 2))
    with pytest.raises(ValueError):
        minor(example2, (), ())


def test_drazin_solve_checks_the_rows_of_its_right_side(example2):
    # The one operation that hands a right side to the adjoint solves refuses a wrong row count first.
    with pytest.raises(ValueError, match="right side must be 4x1, got 3x1"):
        drazin_solve(example2, Matrix.zeros(3, 1))


def test_minor_agrees_with_cofactor_expansion_up_to_order_4():
    rng = random.Random(11)
    for _ in range(20):
        size = rng.randint(1, 4)
        rows = rng.randint(size, 5)
        cols = rng.randint(size, 5)
        a = random_matrix(rng, rows, cols, complex_entries=True)
        alpha = tuple(sorted(rng.sample(range(1, rows + 1), size)))
        beta = tuple(sorted(rng.sample(range(1, cols + 1), size)))
        sub = a.submatrix([i - 1 for i in alpha], [j - 1 for j in beta])
        assert minor(a, alpha, beta) == det_cofactor(sub)


def test_minors_read_the_pairs_without_building_a_submatrix(monkeypatch):
    rng = random.Random(29)
    a = random_matrix(rng, 4, 4, complex_entries=True)
    b = rank_forced_matrix(rng, 4, 3, 2, complex_entries=True)
    forms = {
        "minor": lambda: minor(a, (1, 3), (2, 4)),
        "det": lambda: det(a),
        "adjugate": lambda: adjugate(a),
        "principal_minor_sum": lambda: principal_minor_sum(a, 2),
        "mp_inverse_columns": lambda: mp_inverse_columns(b),
    }
    before = {name: form() for name, form in forms.items()}

    def refused(*args):
        raise AssertionError("a submatrix was built")

    monkeypatch.setattr(Matrix, "submatrix", refused)
    assert {name: form() for name, form in forms.items()} == before


def test_principal_minor_sum_golden(example1, example2):
    gram = multiply(conjugate_transpose(example1), example1)
    assert principal_minor_sum(gram, 3) == Scalar(102060)
    assert principal_minor_sum(power(example2, 3), 2) == Scalar(8)
    assert principal_minor_sum(gram, 4) == det(gram)


def test_principal_minor_sum_errors(example1):
    with pytest.raises(ValueError):
        principal_minor_sum(Matrix.zeros(2, 3), 1)
    with pytest.raises(ValueError):
        det(Matrix.zeros(2, 3))
    with pytest.raises(ValueError):
        adjugate(Matrix.zeros(2, 3))
    with pytest.raises(ValueError):
        principal_minor_sum(Matrix.identity(3), 0)
    with pytest.raises(ValueError):
        principal_minor_sum(Matrix.identity(3), 4)


def test_char_poly_identity_2x2():
    assert char_poly_coeffs(Matrix.identity(2)) == (Scalar(2), Scalar(1))


def test_char_poly_golden_gram(example1):
    gram = multiply(conjugate_transpose(example1), example1)
    coeffs = char_poly_coeffs(gram)
    assert coeffs[2] == Scalar(102060)
    assert coeffs[3] == Scalar(0)  # rank 3 forces the order-4 coefficient to vanish


def test_char_poly_evaluation_against_direct_determinant():
    # det(tI + A*A) = t^n + d_1 t^(n-1) + ... + d_r t^(n-r), evaluated at
    # several points with the cofactor determinant as the independent oracle.
    rng = random.Random(23)
    for _ in range(8):
        a = random_matrix(rng, 4, 4)
        gram = multiply(conjugate_transpose(a), a)
        coeffs = char_poly_coeffs(gram)
        r = rank(a)
        assert all(not coeffs[k] for k in range(r, 4))
        for lam in (1, 2, 7):
            shifted = gram + Matrix.identity(4) * lam
            direct = det_cofactor(shifted)
            value = Scalar(lam**4)
            for k, d in enumerate(coeffs, start=1):
                value = value + d * Scalar(lam ** (4 - k))
            assert direct == value


def test_gram_rank_coefficient_positivity():
    rng = random.Random(31)
    for _ in range(10):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        r = rng.randint(1, min(m, n))
        a = rank_forced_matrix(rng, m, n, r, complex_entries=True)
        gram = multiply(conjugate_transpose(a), a)
        d_r = principal_minor_sum(gram, r)
        assert d_r.is_real and d_r.re > 0
        for k in range(r + 1, n + 1):
            assert not principal_minor_sum(gram, k)


def test_high_order_replaced_minor_sums_vanish():
    # For k > rank, every order-k minor sum of the column-replaced Gram
    # matrix is zero.
    rng = random.Random(37)
    for _ in range(6):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        r = rng.randint(1, min(m, n) - 1) if min(m, n) > 1 else 1
        a = rank_forced_matrix(rng, m, n, r)
        astar = conjugate_transpose(a)
        gram = multiply(astar, a)
        for k in range(r + 1, n + 1):
            for i in range(1, n + 1):
                for j in range(1, m + 1):
                    replaced = replace_column(gram, i, astar.column(j - 1))
                    total = Scalar(0)
                    for beta in enumerate_containing(k, n, i):
                        total = total + minor(replaced, beta, beta)
                    assert not total


def test_replaced_gram_rank_bounds():
    # Column-replaced A*A and row-replaced AA* never exceed rank r.
    rng = random.Random(41)
    for _ in range(6):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        r = rng.randint(1, min(m, n))
        a = rank_forced_matrix(rng, m, n, r, complex_entries=True)
        astar = conjugate_transpose(a)
        gram_c = multiply(astar, a)
        gram_r = multiply(a, astar)
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                assert rank(replace_column(gram_c, i, astar.column(j - 1))) <= r
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                assert rank(replace_row(gram_r, j, astar.row(i - 1))) <= r


def test_adjugate_identity():
    rng = random.Random(43)
    for _ in range(8):
        size = rng.randint(1, 4)
        a = random_matrix(rng, size, size, complex_entries=True)
        product = multiply(adjugate(a), a)
        assert product == Matrix.identity(size) * det(a)


_parts = st.fractions(min_value=-40, max_value=40, max_denominator=6)
_nonzero = _parts.filter(bool)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.booleans(), st.sampled_from(["positive", "negative", "complex"]),
       st.data())
def test_quotient_is_the_numerators_times_the_inverse_denominator(m, n, integral, kind, data):
    # Ledger.quotient scales the pairs directly; the reference divides as Scalars and multiplies the Matrix.
    part = st.integers(-40, 40) if integral else _parts
    entries = [Scalar(data.draw(part), data.draw(part)) for _ in range(m * n)]
    if not integral:  # a part with 7 in its denominator: no other part's denominator has it
        entries[0] += Fraction(1, 7)
    numerators = Matrix(m, n, entries)
    assert (numerators.scale == 1) == integral
    re = abs(data.draw(_nonzero)) * (-1 if kind == "negative" else 1)
    d = Scalar(re, data.draw(_nonzero) if kind == "complex" else 0)
    assert Ledger(numerators, d).quotient() == numerators * (ONE / d)
