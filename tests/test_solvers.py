import random
from fractions import Fraction

import pytest

from adjinv import (
    ONE,
    ZERO,
    Matrix,
    Scalar,
    column_vector,
    conjugate_transpose,
    drazin_inverse,
    drazin_solve,
    lsq_solve,
    lsq_solve_row_system,
    minor,
    mp_inverse,
    multiply,
    oracle_pinv,
    power,
    principal_minor_sum,
    range_membership,
    rank,
    row_vector,
)
from conftest import rank_forced_matrix

GOLDEN_SOLUTION = column_vector(
    [Fraction(12193, 17010), Fraction(-24960, 102060), Fraction(5, 9), Fraction(5693, 8505)]
)


def test_lsq_golden(example1, rhs_1231):
    rep = lsq_solve(example1, rhs_1231)
    assert rep.method == "eq14"
    assert rep.transformed_rhs == column_vector([26, -24, 10, -23])
    assert rep.solution == GOLDEN_SOLUTION
    assert rep.numerators == (Scalar(73158), Scalar(-24960), Scalar(56700), Scalar(68316))
    assert rep.denominator == Scalar(102060)
    # same value through the pseudoinverse product
    assert multiply(mp_inverse(example1).pseudo_inverse, rhs_1231) == GOLDEN_SOLUTION


def test_lsq_denominator_matches_minor_sum(example1, rhs_1231):
    rep = lsq_solve(example1, rhs_1231)
    gram = multiply(conjugate_transpose(example1), example1)
    assert rep.denominator == principal_minor_sum(gram, rank(example1))


def test_lsq_full_rank_square_equals_classical_cramer():
    a = Matrix.from_rows([[2, 1], [1, 3]])
    y = column_vector([3, 5])
    rep = lsq_solve(a, y)
    assert rep.method == "eq13"
    # classical Cramer on the original system for comparison
    from adjinv import det, replace_column

    d = det(a)
    classical = column_vector(
        [minor(replace_column(a, j, y.column(0)), (1, 2), (1, 2)) / d for j in (1, 2)]
    )
    assert rep.solution == classical
    assert multiply(a, rep.solution) == y


def test_lsq_zero_matrix():
    # Rank 0: the zero ledger, zero numerators over 1.
    rep = lsq_solve(Matrix.zeros(2, 3), column_vector([1, "2/3+1i"]))
    assert rep.solution == Matrix.zeros(3, 1)
    assert rep.denominator == ONE
    assert rep.method == "eq14"
    assert rep.numerators == (ZERO,) * 3
    assert rep.transformed_rhs == Matrix.zeros(3, 1)
    row = lsq_solve_row_system(row_vector([1, "-1/2i", 3]), Matrix.zeros(2, 3))
    assert row.solution == Matrix.zeros(1, 2)
    assert row.denominator == ONE
    assert row.method == "row_eq_general"
    assert row.numerators == (ZERO,) * 2
    assert row.transformed_rhs == Matrix.zeros(1, 2)


def test_lsq_dimension_mismatch(example1):
    with pytest.raises(ValueError):
        lsq_solve(example1, column_vector([1, 2]))
    with pytest.raises(ValueError):
        lsq_solve(example1, row_vector([1, 2, 3, 1]))
    with pytest.raises(ValueError):
        lsq_solve_row_system(column_vector([1, 2, 3]), example1)


def test_lsq_equals_pseudoinverse_product_on_random_systems():
    rng = random.Random(53)
    for _ in range(10):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        r = rng.randint(1, min(m, n))
        a = rank_forced_matrix(rng, m, n, r, complex_entries=True)
        y = Matrix(m, 1, [Scalar(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(m)])
        rep = lsq_solve(a, y)
        assert rep.solution == multiply(mp_inverse(a).pseudo_inverse, y)


def test_lsq_local_optimality_smoke():
    # Perturbing any coordinate by +-1, +-1/2, +-1/4 never lowers the exact
    # squared residual.
    rng = random.Random(59)
    for _ in range(5):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        r = rng.randint(1, min(m, n))
        a = rank_forced_matrix(rng, m, n, r)
        y = column_vector([rng.randint(-3, 3) for _ in range(m)])
        x0 = lsq_solve(a, y).solution

        def residual2(x):
            diff = multiply(a, x) - y
            return sum((e.abs2() for e in diff.column(0)), Fraction(0))

        base = residual2(x0)
        for coord in range(n):
            for step in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
                for sign in (1, -1):
                    bumped = list(x0.column(0))
                    bumped[coord] = bumped[coord] + Scalar(sign * step)
                    assert residual2(column_vector(bumped)) >= base


def test_row_system_duality(example1, rhs_1231):
    # For real data, solving x (A^T) = y^T matches the column solution.
    rep_col = lsq_solve(example1, rhs_1231)
    rep_row = lsq_solve_row_system(rhs_1231.H, example1.H)
    assert rep_row.solution == rep_col.solution.H
    assert rep_row.method == "row_eq_general"


def test_row_system_single_column():
    # x (1, 2)^T = (5): the Penrose-product oracle gives x = (1, 2), which
    # solves the system exactly.
    a = column_vector([1, 2])
    y = row_vector([5])
    rep = lsq_solve_row_system(y, a)
    assert rep.solution == multiply(y, oracle_pinv(a))
    assert rep.solution == row_vector([1, 2])
    assert multiply(rep.solution, a) == y


def test_row_system_full_row_rank():
    a = Matrix.from_rows([[1, 0, 1], [0, 1, 1]])  # rank 2 = m
    y = row_vector([1, 2, 3])
    rep = lsq_solve_row_system(y, a)
    assert rep.method == "row_eq_fullrank"
    assert rep.solution == multiply(y, mp_inverse(a).pseudo_inverse)


def test_row_system_zero_rhs(example1):
    rep = lsq_solve_row_system(row_vector([0, 0, 0, 0]), example1)
    assert rep.solution == Matrix.zeros(1, 4)


def test_drazin_solve_golden(example2, rhs_1231):
    rep = drazin_solve(example2, rhs_1231)
    assert rep.method == "eq16"
    assert rep.transformed_rhs == column_vector([10, -1, 13, 10])
    assert rep.solution == column_vector([Fraction(1, 2), 1, 1, Fraction(1, 2)])
    assert rep.denominator == Scalar(8)
    assert multiply(drazin_inverse(example2).drazin_inverse, rhs_1231) == rep.solution


def test_drazin_solve_invertible_is_classical():
    a = Matrix.from_rows([[1, 1], [0, 1]])
    y = column_vector([3, 1])
    rep = drazin_solve(a, y)
    assert rep.method == "classical_cramer"
    assert rep.solution == column_vector([2, 1])
    assert multiply(a, rep.solution) == y


def test_drazin_solve_characterization(drazin_corpus):
    rng = random.Random(61)
    for a, ind, _ in drazin_corpus[:20]:
        n = a.rows
        y = column_vector([rng.randint(-3, 3) for _ in range(n)])
        rep = drazin_solve(a, y)
        ak = power(a, ind)
        # generalized normal equations, exactly
        assert multiply(power(a, ind + 1), rep.solution) == multiply(ak, y)
        assert range_membership(ak, rep.solution)
        assert rep.solution == multiply(drazin_inverse(a).drazin_inverse, y)


def test_drazin_solve_requires_square(rhs_1231):
    with pytest.raises(ValueError):
        drazin_solve(Matrix.zeros(2, 3), column_vector([1, 2]))
    with pytest.raises(ValueError):
        drazin_solve(Matrix.identity(3), column_vector([1, 2]))


def test_solution_ledger_invariant(example1, example2, rhs_1231):
    for rep in (
        lsq_solve(example1, rhs_1231),
        drazin_solve(example2, rhs_1231),
        lsq_solve_row_system(rhs_1231.H, example1.H),
    ):
        flat = rep.solution.column(0) if rep.solution.cols == 1 else rep.solution.row(0)
        for value, num in zip(flat, rep.numerators):
            assert value * rep.denominator == num
