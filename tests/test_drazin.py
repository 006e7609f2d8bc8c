from fractions import Fraction

import pytest

from adjinv import (
    ONE,
    ZERO,
    GroupInverseError,
    Matrix,
    Scalar,
    check_drazin,
    column_vector,
    drazin_inverse,
    drazin_solve,
    drazin_times_a,
    group_inverse,
    index_of,
    mp_inverse,
    multiply,
    power,
    rank,
    replace_column,
)
from adjinv import drazin, elimination
from conftest import representation

GOLDEN_DRAZIN = Matrix.from_rows(
    [
        ["1/2", "1/2", "-1/2", "1/2"],
        ["7/4", "5/2", "-5/2", "7/4"],
        ["5/4", "3/2", "-3/2", "5/4"],
        ["1/2", "1/2", "-1/2", "1/2"],
    ]
)


def test_index_golden(example2):
    assert index_of(example2) == 2
    assert index_of(Matrix.from_rows([[1, 1], [0, 1]])) == 0
    assert index_of(Matrix.from_rows([[0, 1], [0, 0]])) == 2
    assert index_of(Matrix.from_rows([[0]])) == 1


def test_index_requires_square():
    with pytest.raises(ValueError):
        index_of(Matrix.zeros(2, 3))


def test_drazin_inverse_golden(example2):
    res = drazin_inverse(example2)
    assert res.index == 2
    assert res.rank_core == 2
    assert res.denominator == Scalar(8)
    assert res.numerators.at(0, 0) == Scalar(4)
    assert res.drazin_inverse == GOLDEN_DRAZIN


def test_drazin_nilpotent_is_zero():
    # Core rank 0: the zero ledger, zero numerators over 1.
    res = drazin_inverse(Matrix.from_rows([[0, 1], [0, 0]]))
    assert res.drazin_inverse == Matrix.zeros(2, 2)
    assert res.rank_core == 0
    assert (res.index, res.denominator, res.numerators) == (2, ONE, Matrix.zeros(2, 2))
    nil = Matrix.from_rows([[0, 1, "2i"], [0, 0, "-1/3"], [0, 0, 0]])
    assert drazin_times_a(nil) == Matrix.zeros(3, 3)
    sol = drazin_solve(nil, column_vector([1, "-2/3+1i", "5/2"]))
    assert sol.solution == Matrix.zeros(3, 1)
    assert sol.denominator == ONE
    assert sol.method == "eq16"
    assert sol.numerators == (ZERO,) * 3
    assert sol.transformed_rhs == Matrix.zeros(3, 1)  # A^3 y, and A^3 = 0


def test_drazin_invertible_is_classical_inverse():
    a = Matrix.from_rows([[1, 1], [0, 1]])
    res = drazin_inverse(a)
    assert res.index == 0
    assert res.drazin_inverse == Matrix.from_rows([[1, -1], [0, 1]])


def test_group_inverse_cases():
    inv = Matrix.from_rows([[2, 0], [0, 3]])
    res = group_inverse(inv)
    assert res.drazin_inverse == Matrix.from_rows([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    idem = Matrix.from_rows([[1, 0], [0, 0]])
    assert group_inverse(idem).drazin_inverse == idem
    with pytest.raises(GroupInverseError):
        group_inverse(Matrix.from_rows([[0, 1], [0, 0]]))


def test_group_matches_drazin_when_index_at_most_one(drazin_corpus):
    for a, ind, _ in drazin_corpus:
        if ind <= 1:
            assert group_inverse(a).drazin_inverse == drazin_inverse(a).drazin_inverse


def test_defining_equations_and_ground_truth(drazin_corpus):
    for a, ind, truth in drazin_corpus[:40]:
        res = drazin_inverse(a)
        assert res.index == ind == index_of(a)
        assert res.drazin_inverse == truth
        assert check_drazin(a, res.drazin_inverse, ind).all_passed


def test_drazin_times_a_golden(example2):
    proj = drazin_times_a(example2)
    assert proj == multiply(GOLDEN_DRAZIN, example2)
    assert proj == multiply(proj, proj)
    assert multiply(proj, example2) == multiply(example2, proj)
    assert drazin_times_a(Matrix.from_rows([[1, 1], [0, 1]])) == Matrix.identity(2)
    assert drazin_times_a(Matrix.from_rows([[0, 1], [0, 0]])) == Matrix.zeros(2, 2)


def test_index_search_sweeps_each_core_once(example2, monkeypatch):
    a = Matrix.from_rows(example2.row_lists())  # equal, with no chain kept by earlier tests
    cores = [rank(a), rank(power(a, 2))]  # M_1 is rank A x rank A, M_2 rank A^2 x rank A^2
    assert cores == [3, 2]
    ranked, swept = [], []
    monkeypatch.setattr(drazin, "rank", lambda b: ranked.append(b) or rank(b))
    real = elimination.eliminate
    monkeypatch.setattr(elimination, "eliminate", lambda g: swept.append(len(g)) or real(g))
    assert drazin_inverse(a).index == 2
    # A's own sweep, then one of each core; no power of A is formed or ranked.
    assert ranked == [] and swept == [4] + cores
    drazin_times_a(a)
    assert len(swept) == 3  # the second operation reads the chain A keeps


def test_representation_stable_under_larger_exponent(example2):
    base = representation(example2, 2)
    bumped = representation(example2, 3)
    assert base.drazin_inverse == bumped.drazin_inverse
    nil = Matrix.from_rows([[0, 1], [0, 0]])
    assert representation(nil, 2).drazin_inverse == representation(nil, 3).drazin_inverse


def test_oracle_equivalence_via_pseudoinverse(drazin_corpus):
    # A^D = A^k (A^(2k+1))+ A^k through the minor-sum pseudoinverse path.
    for a, ind, _ in drazin_corpus[:15]:
        ak = power(a, ind)
        if ak.is_zero:
            expected = Matrix.zeros(a.rows, a.rows)
        else:
            mid = mp_inverse(power(a, 2 * ind + 1)).pseudo_inverse
            expected = multiply(multiply(ak, mid), ak)
        assert drazin_inverse(a).drazin_inverse == expected


def test_drazin_times_a_idempotent_and_commutes(drazin_corpus):
    for a, ind, _ in drazin_corpus[:12]:
        proj = drazin_times_a(a)
        assert proj == multiply(proj, proj)
        assert multiply(proj, a) == multiply(a, proj)


def test_power_replaced_rank_bound(drazin_corpus):
    # Replacing a column of A^(k+1) with a column of A^k cannot raise rank.
    for a, ind, _ in drazin_corpus[:10]:
        n = a.rows
        ak = power(a, ind)
        b = power(a, ind + 1)
        bound = rank(b)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert rank(replace_column(b, i, ak.column(j - 1))) <= bound


def test_ledger_invariant(example2):
    res = drazin_inverse(example2)
    for i in range(4):
        for j in range(4):
            assert res.drazin_inverse.at(i, j) * res.denominator == res.numerators.at(i, j)
