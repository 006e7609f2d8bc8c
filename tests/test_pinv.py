import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adjinv
import adjinv.pinv
from adjinv import elimination, golden
from adjinv import (
    Matrix,
    Scalar,
    ZeroMatrixError,
    adjugate,
    check_penrose,
    column_vector,
    conjugate_transpose,
    det,
    mp_inverse,
    mp_inverse_columns,
    mp_inverse_rows,
    multiply,
    projector_p,
    projector_q,
    rank,
    row_vector,
)
from conftest import rank_forced_matrix

GOLDEN_NUMERATORS = Matrix.from_rows(
    [
        [25779, -4905, 20742, -5037],
        [-3840, -2880, -4800, -960],
        [28350, -17010, 22680, -5670],
        [39558, -18810, 26484, -13074],
    ]
)


def golden_pinv() -> Matrix:
    return GOLDEN_NUMERATORS * (Scalar(1) / Scalar(102060))


def test_columns_representation_golden(example1):
    res = mp_inverse_columns(example1)
    assert res.representation_used == "eq1"
    assert res.denominator == Scalar(102060)
    assert res.numerators.at(0, 0) == Scalar(25779)
    assert res.numerators == GOLDEN_NUMERATORS
    assert res.pseudo_inverse == golden_pinv()


def test_rows_representation_matches_columns(example1):
    res = mp_inverse_rows(example1)
    assert res.representation_used == "eq2"
    assert res.pseudo_inverse == golden_pinv()


def test_identity_and_simple_cases():
    eye = Matrix.identity(3)
    assert mp_inverse_columns(eye).pseudo_inverse == eye
    # diag(2, 0): the Penrose equations force diag(1/2, 0)
    a = Matrix.from_rows([[2, 0], [0, 0]])
    expected = Matrix.from_rows([[Fraction(1, 2), 0], [0, 0]])
    assert mp_inverse_rows(a).pseudo_inverse == expected
    assert mp_inverse_columns(a).pseudo_inverse == expected
    # single row (1, 2): A+ = A* (AA*)^-1 = (1/5, 2/5)^T
    row = row_vector([1, 2])
    assert mp_inverse_rows(row).pseudo_inverse == column_vector([Fraction(1, 5), Fraction(2, 5)])


def test_zero_matrix_short_circuits():
    for method in ("auto", "eq1", "eq2"):
        res = mp_inverse(Matrix.zeros(2, 3), method)
        assert res.representation_used == "zero"
        assert res.pseudo_inverse == res.numerators == Matrix.zeros(3, 2)
        assert res.denominator == Scalar(1)
    with pytest.raises(ZeroMatrixError):
        mp_inverse_columns(Matrix.zeros(2, 3))
    with pytest.raises(ZeroMatrixError):
        mp_inverse_rows(Matrix.zeros(2, 2))


def test_zero_matrix_keeps_the_zero_result_whatever_the_method():
    z = Matrix.zeros(3, 2)
    res = mp_inverse(z, method="eq2")
    assert res.representation_used == "zero"
    assert mp_inverse(z) is res


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("method", ["eq1", "eq2"])
def test_literal_forms_sweep_a_once_and_keep_nothing(method, complex_entries, monkeypatch):
    a = rank_forced_matrix(random.Random(23), 6, 5, 3, complex_entries)
    shapes = []
    real = elimination.eliminate
    monkeypatch.setattr(elimination, "eliminate",
                        lambda rows: shapes.append((len(rows), len(rows[0]))) or real(rows))
    literal = mp_inverse(a, method=method)
    # The literal form's own rank is the one sweep of A; its minors sweep 3 x 3 selections.
    assert literal.representation_used == method
    assert shapes.count((6, 5)) == 1 and a._kept == {}
    shapes.clear()
    auto = mp_inverse(a)
    assert shapes.count((6, 5)) == 1 and a._kept["pinv"] is auto
    assert auto.pseudo_inverse == literal.pseudo_inverse


def test_dispatch_representations(example1):
    assert mp_inverse(Matrix.from_rows([[1, 1], [0, 1]])).representation_used == "classical_inverse"
    assert mp_inverse(Matrix.from_rows([[1, 1], [0, 1]])).pseudo_inverse == Matrix.from_rows(
        [[1, -1], [0, 1]]
    )
    tall = Matrix.from_rows([[1, 0], [0, 1], [1, 1]])  # rank 2 = n < m
    assert mp_inverse(tall).representation_used == "eq6"
    wide = conjugate_transpose(tall)  # rank 2 = m < n
    assert mp_inverse(wide).representation_used == "eq7"
    # example1 is 4x4 of rank 3: minor counts tie, so the column form wins
    assert mp_inverse(example1).representation_used == "eq1"
    assert mp_inverse(example1).pseudo_inverse == golden_pinv()


def test_dispatch_count_asymmetry():
    rng = random.Random(5)
    # 2x4 of rank 1: C(n-1, r-1) = C(3, 0) = 1 versus C(m-1, r-1) = C(1, 0) = 1;
    # tie goes to eq1.  4x2 of rank 2 is full column: eq6.  For a genuine
    # asymmetry use 3x5 rank 2: C(4,1)=4 versus C(2,1)=2, so eq2 wins.
    a = rank_forced_matrix(rng, 3, 5, 2)
    assert mp_inverse(a).representation_used == "eq2"
    b = rank_forced_matrix(rng, 5, 3, 2)
    assert mp_inverse(b).representation_used == "eq1"


def test_forced_methods_match_auto(example1):
    auto = mp_inverse(example1).pseudo_inverse
    assert mp_inverse(example1, method="eq1").pseudo_inverse == auto
    assert mp_inverse(example1, method="eq2").pseudo_inverse == auto
    with pytest.raises(ValueError):
        mp_inverse(example1, method="eq3")


def test_full_rank_shortcuts_equal_minor_sums():
    rng = random.Random(13)
    tall = rank_forced_matrix(rng, 4, 2, 2, complex_entries=True)  # rank = n
    res6 = mp_inverse(tall)
    assert res6.representation_used == "eq6"
    assert res6.pseudo_inverse == mp_inverse_columns(tall).pseudo_inverse
    # literal (A*A)^-1 A* through the adjugate
    gram = multiply(conjugate_transpose(tall), tall)
    inv_gram = adjugate(gram) * (Scalar(1) / det(gram))
    assert res6.pseudo_inverse == multiply(inv_gram, conjugate_transpose(tall))

    wide = rank_forced_matrix(rng, 2, 4, 2)  # rank = m
    res7 = mp_inverse(wide)
    assert res7.representation_used == "eq7"
    assert res7.pseudo_inverse == mp_inverse_rows(wide).pseudo_inverse
    gram = multiply(wide, conjugate_transpose(wide))
    inv_gram = adjugate(gram) * (Scalar(1) / det(gram))
    assert res7.pseudo_inverse == multiply(conjugate_transpose(wide), inv_gram)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1), st.booleans())
def test_row_form_mirrors_the_column_form_of_the_adjoint(m, n, r, seed, complex_entries):
    """eq2 on A is the conjugate transpose of eq1 on A*, ledger and all."""
    a = rank_forced_matrix(random.Random(seed), m, n, min(r, m, n), complex_entries)
    rows = mp_inverse_rows(a)
    mirror = mp_inverse_columns(conjugate_transpose(a))
    assert rows.numerators == conjugate_transpose(mirror.numerators)
    assert rows.denominator == mirror.denominator
    assert rows.pseudo_inverse == conjugate_transpose(mirror.pseudo_inverse)


def test_literal_forms_refuse_before_forming_the_gram(monkeypatch):
    # The 24 x 24 rank-12 input of test_cli.py::test_literal_forms_refuse_over_budget.
    left = Matrix(24, 12, [(3 * i + 5 * j) % 7 - 3 + (i == j) * 11 for i in range(24) for j in range(12)])
    right = Matrix(12, 24, [(2 * i + 3 * j) % 5 - 2 + (i == j) * 13 for i in range(12) for j in range(24)])
    big = multiply(left, right)

    def refused(*args):
        raise AssertionError("A* or the Gram matrix was formed")

    monkeypatch.setattr(adjinv.pinv, "multiply", refused)
    monkeypatch.setattr(adjinv.pinv, "conjugate_transpose", refused)
    for form in (mp_inverse_columns, mp_inverse_rows):
        with pytest.raises(ZeroMatrixError):
            form(Matrix.zeros(3, 2))
        with pytest.raises(ValueError, match="over the budget"):
            form(big)


def test_penrose_equations_on_random_matrices():
    rng = random.Random(17)
    for _ in range(12):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        r = rng.randint(1, min(m, n))
        a = rank_forced_matrix(rng, m, n, r, complex_entries=True)
        res = mp_inverse(a)
        assert check_penrose(a, res.pseudo_inverse).all_passed
        assert mp_inverse_columns(a).pseudo_inverse == res.pseudo_inverse
        assert mp_inverse_rows(a).pseudo_inverse == res.pseudo_inverse


def test_conjugate_transpose_commutes_with_inverse():
    rng = random.Random(19)
    for _ in range(8):
        a = rank_forced_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 1, complex_entries=True)
        lhs = conjugate_transpose(mp_inverse(a).pseudo_inverse)
        rhs = mp_inverse(conjugate_transpose(a)).pseudo_inverse
        assert lhs == rhs


def test_projectors_golden(example1):
    pinv_matrix = golden_pinv()
    p = projector_p(example1)
    q = projector_q(example1)
    assert p == multiply(pinv_matrix, example1)
    assert q == multiply(example1, pinv_matrix)
    assert p == conjugate_transpose(p)
    assert q == conjugate_transpose(q)
    assert p == multiply(p, p)
    assert q == multiply(q, q)


def test_projectors_full_rank_and_zero():
    tall = Matrix.from_rows([[1, 0], [0, 1], [1, 1]])
    assert projector_p(tall) == Matrix.identity(2)  # rank = n
    wide = conjugate_transpose(tall)
    assert projector_q(wide) == Matrix.identity(2)  # rank = m
    # Rank 0: the zero ledger (0, 1) gives the zero projectors.
    for m, n in ((2, 3), (3, 1), (1, 1)):
        assert projector_p(Matrix.zeros(m, n)) == Matrix.zeros(n, n)
        assert projector_q(Matrix.zeros(m, n)) == Matrix.zeros(m, m)


def test_projector_corollary_condition_edges():
    rng = random.Random(29)
    # r = m < n and r = n < m: each projector's kernel ledger against the
    # product with the pseudoinverse.
    wide = rank_forced_matrix(rng, 2, 4, 2)
    pinv_matrix = mp_inverse(wide).pseudo_inverse
    assert projector_p(wide) == multiply(pinv_matrix, wide)
    assert projector_q(wide) == multiply(wide, pinv_matrix)
    tall = rank_forced_matrix(rng, 4, 2, 2)
    pinv_matrix = mp_inverse(tall).pseudo_inverse
    assert projector_p(tall) == multiply(pinv_matrix, tall)
    assert projector_q(tall) == multiply(tall, pinv_matrix)


def test_adjugate_analogue_ledger_identities(example1):
    res1 = mp_inverse_columns(example1)
    res2 = mp_inverse_rows(example1)
    p = projector_p(example1)
    q = projector_q(example1)
    assert multiply(res1.numerators, example1) == p * res1.denominator
    assert multiply(example1, res2.numerators) == q * res2.denominator


def test_numerator_denominator_invariant(example1):
    for res in (mp_inverse_columns(example1), mp_inverse_rows(example1)):
        for i in range(4):
            for j in range(4):
                assert res.pseudo_inverse.at(i, j) * res.denominator == res.numerators.at(i, j)


def test_no_public_function_takes_threads():
    # The public API plus the golden helpers behind ``paper-examples``.
    functions = [getattr(adjinv, name) for name in adjinv.__all__]
    functions += [golden.run_example1, golden.run_example2, golden.run_all]
    takes_threads = [
        fn.__name__
        for fn in functions
        if inspect.isfunction(fn) and "threads" in inspect.signature(fn).parameters
    ]
    assert takes_threads == []
