import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adjinv.verify
from adjinv import (
    Matrix,
    Scalar,
    check_drazin,
    check_penrose,
    column_vector,
    drazin_inverse,
    hstack,
    mp_inverse,
    multiply,
    oracle_drazin,
    oracle_pinv,
    power,
    range_membership,
    rank,
)
from conftest import random_matrix, rank_forced_matrix

GOLDEN_PINV = Matrix.from_rows(
    [
        [25779, -4905, 20742, -5037],
        [-3840, -2880, -4800, -960],
        [28350, -17010, 22680, -5670],
        [39558, -18810, 26484, -13074],
    ]
) * (Scalar(1) / Scalar(102060))

GOLDEN_DRAZIN = Matrix.from_rows(
    [
        ["1/2", "1/2", "-1/2", "1/2"],
        ["7/4", "5/2", "-5/2", "7/4"],
        ["5/4", "3/2", "-3/2", "5/4"],
        ["1/2", "1/2", "-1/2", "1/2"],
    ]
)


def test_check_penrose_golden(example1):
    report = check_penrose(example1, GOLDEN_PINV)
    assert report.all_passed
    assert [name for name, _ in report.checks] == ["AXA=A", "XAX=X", "(AX)*=AX", "(XA)*=XA"]
    assert report.witness is None


def test_check_penrose_identity():
    assert check_penrose(Matrix.identity(3), Matrix.identity(3)).all_passed


def test_check_penrose_scaled_candidate_fails(example1):
    report = check_penrose(example1, GOLDEN_PINV * 2)
    failed = report.failed_names()
    assert "XAX=X" in failed
    assert report.witness is not None
    assert not report.witness.is_zero


def test_check_penrose_dimensions(example1):
    with pytest.raises(ValueError):
        check_penrose(example1, Matrix.zeros(3, 4))


def test_check_drazin_golden(example2):
    report = check_drazin(example2, GOLDEN_DRAZIN, 2)
    assert report.all_passed
    assert [name for name, _ in report.checks] == ["A^(k+1)X=A^k", "XAX=X", "AX=XA"]


def test_check_drazin_identity_inverse():
    a = Matrix.from_rows([[2, 1], [1, 1]])
    inverse = Matrix.from_rows([[1, -1], [-1, 2]])
    assert check_drazin(a, inverse, 0).all_passed


def test_check_drazin_nilpotent_identity_candidate():
    # X = I against a nilpotent A: the power equation holds (0 = 0), the
    # commutation holds, but X A X = X fails.
    nil = Matrix.from_rows([[0, 1], [0, 0]])
    report = check_drazin(nil, Matrix.identity(2), 2)
    results = dict(report.checks)
    assert results["A^(k+1)X=A^k"]
    assert results["AX=XA"]
    assert not results["XAX=X"]


def test_oracle_pinv_golden(example1):
    assert oracle_pinv(example1) == GOLDEN_PINV


def test_oracle_pinv_small_cases():
    assert oracle_pinv(Matrix.identity(3)) == Matrix.identity(3)
    outer = multiply(column_vector([1, 2]), Matrix(1, 2, [3, 4]))  # rank 1
    assert oracle_pinv(outer) == mp_inverse(outer).pseudo_inverse
    with pytest.raises(ValueError):
        oracle_pinv(Matrix.zeros(2, 2))


def test_oracle_pinv_certifies_itself():
    rng = random.Random(67)
    for _ in range(10):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        r = rng.randint(1, min(m, n))
        a = rank_forced_matrix(rng, m, n, r, complex_entries=True)
        assert check_penrose(a, oracle_pinv(a)).all_passed


def test_oracle_drazin_golden(example2):
    assert oracle_drazin(example2) == GOLDEN_DRAZIN


def test_oracle_drazin_small_cases():
    a = Matrix.from_rows([[1, 1], [0, 1]])
    assert oracle_drazin(a) == Matrix.from_rows([[1, -1], [0, 1]])
    nil = Matrix.from_rows([[0, 1], [0, 0]])
    assert oracle_drazin(nil) == Matrix.zeros(2, 2)


def test_oracle_drazin_certifies_itself(drazin_corpus):
    for a, ind, _ in drazin_corpus[:15]:
        assert check_drazin(a, oracle_drazin(a), ind).all_passed


def test_range_membership_golden(example2):
    square = power(example2, 2)
    xhat = column_vector([Fraction(1, 2), 1, 1, Fraction(1, 2)])
    assert range_membership(square, xhat)
    assert range_membership(square, Matrix.zeros(4, 1))
    assert not range_membership(Matrix.zeros(4, 4), column_vector([1, 0, 0, 0]))
    with pytest.raises(ValueError):
        range_membership(square, column_vector([1, 2]))


def test_range_membership_detects_outsiders():
    b = Matrix.from_rows([[1, 0], [0, 0], [0, 0]])
    assert range_membership(b, column_vector([5, 0, 0]))
    assert not range_membership(b, column_vector([0, 1, 0]))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 6), st.integers(0, 2**32 - 1),
       st.booleans(), st.booleans())
def test_range_membership_matches_the_augmented_rank(m, n, r, seed, complex_entries, inside):
    """Ranking the pairs side by side answers as rank([b | x]) == rank(b) does."""
    rng = random.Random(seed)
    r = min(r, m, n)
    b = rank_forced_matrix(rng, m, n, r, complex_entries) if r else Matrix.zeros(m, n)
    if inside:
        # A combination of b's columns over a scale b does not share.
        x = multiply(b, random_matrix(rng, n, 1, complex_entries)) * Scalar(Fraction(1, rng.randint(2, 10**9)))
    else:
        x = random_matrix(rng, m, 1, complex_entries)
    answer = range_membership(b, x)
    assert answer == (rank(hstack(b, x)) == rank(b))
    assert answer or not inside
    if r == m or x.is_zero:
        assert answer


def test_range_membership_forms_no_common_scale(monkeypatch, example2):
    def refused(*args):
        raise AssertionError("hstack was called")

    monkeypatch.setattr(adjinv.verify, "hstack", refused)
    square = power(example2, 2)
    assert range_membership(square, column_vector([Fraction(1, 2), 1, 1, Fraction(1, 2)]))
    assert not range_membership(square, column_vector([1, 0, 0, Fraction(1, 3)]))


def test_determinantal_results_match_oracles(example1, example2):
    assert mp_inverse(example1).pseudo_inverse == oracle_pinv(example1)
    assert drazin_inverse(example2).drazin_inverse == oracle_drazin(example2)
