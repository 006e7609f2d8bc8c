import gc
import random
import sys
import threading
import weakref
from dataclasses import MISSING, FrozenInstanceError, fields, replace
from fractions import Fraction

import pytest

from adjinv import (
    ONE,
    ZERO,
    Matrix,
    Scalar,
    SolveReport,
    column_vector,
    conjugate_transpose,
    drazin_inverse,
    drazin_solve,
    group_inverse,
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
from adjinv import elimination, minors
from adjinv.drazin import _chain_ledger
from adjinv.matrices import from_pairs
from conftest import drazin_case, random_invertible, rank_forced_matrix

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


# -- a kept classical inverse serves the least squares solves -----------------------

_NONSINGULAR = [(n, cx, random_invertible(random.Random(n + 100 * cx), n, cx))
                for n in (4, elimination._INT_MIN + 2) for cx in (False, True)]


@pytest.mark.parametrize("keep", [mp_inverse, drazin_inverse, group_inverse])
@pytest.mark.parametrize("case", _NONSINGULAR, ids=[f"n={n}{' complex' * cx}" for n, cx, _ in _NONSINGULAR])
def test_lsq_solves_read_a_kept_classical_inverse(monkeypatch, case, keep):
    # adj(A*A) A* = conj(det A) adj(A) and d_n(A*A) = |det A|^2: one product and no Gram solve.
    n, _, a = case
    rng = random.Random(n)
    solves = ((lsq_solve, _vector(rng, n, 1)), (lambda a, y: lsq_solve_row_system(y, a), _vector(rng, 1, n)))
    alone = [solve(from_pairs(a.pairs, a.scale), y) for solve, y in solves]
    a = from_pairs(a.pairs, a.scale)
    keep(a)
    calls, grams, gram_solve = _count_products(monkeypatch), [], elimination.gram_solve_pairs
    monkeypatch.setattr(elimination, "gram_solve_pairs", lambda *args: grams.append(None) or gram_solve(*args))
    for (solve, y), want in zip(solves, alone):
        calls.clear()
        rep = solve(a, y)
        assert (len(calls), grams) == (1, [])
        assert rep == want


# -- the transformed right side, formed on first read --------------------------------


def _vector(rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, [Scalar(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(rows * cols)])


def _transformed_cases():
    """(id, solve, A, y, what keeps A's ledger, the lone solve's kernel, the transformed right side, its products)."""
    rng = random.Random(71)
    cases = []
    for m, n, r in ((4, 3, 2), (5, 3, 3), (3, 5, 2)):
        a = rank_forced_matrix(rng, m, n, r, complex_entries=True)
        y, yr, astar = _vector(rng, m, 1), _vector(rng, 1, n), conjugate_transpose(a)
        cases += [
            (f"lsq {m}x{n} rank {r}", lsq_solve, a, y, mp_inverse, minors.skeleton_ledger, multiply(astar, y), 1),
            (f"row {m}x{n} rank {r}", lambda a, y: lsq_solve_row_system(y, a), a, yr, mp_inverse,
             lambda a, y: minors.skeleton_ledger(a, conjugate_transpose(y), adjoint=True), multiply(yr, astar), 1),
        ]
    for n, k, cx, nilpotent in ((5, 2, True, False), (6, 3, False, False), (3, 0, False, False),
                                (4, 2, True, True), (3, 3, False, True)):
        a = drazin_case(rng, n, k, cx)[0]
        while power(a, k).is_zero != nilpotent:  # the size of the nilpotent part is drawn
            a = drazin_case(rng, n, k, cx)[0]
        y = _vector(rng, n, 1)
        cases.append((f"drazin n={n} index {k}" + " nilpotent" * nilpotent, drazin_solve, a, y, drazin_inverse,
                      _chain_ledger, multiply(power(a, k), y), 0 if nilpotent else k))
    return cases


TRANSFORMED_CASES = _transformed_cases()


def _count_products(monkeypatch) -> list:
    """A list that gains one item per ``elimination.matmul_pairs`` call from now on."""
    calls, matmul = [], elimination.matmul_pairs
    monkeypatch.setattr(elimination, "matmul_pairs", lambda a, b: calls.append(None) or matmul(a, b))
    return calls


@pytest.mark.parametrize("kept", [False, True], ids=["lone", "kept"])
@pytest.mark.parametrize("case", TRANSFORMED_CASES, ids=[c[0] for c in TRANSFORMED_CASES])
def test_transformed_rhs_formed_on_first_read(monkeypatch, case, kept):
    _, solve, a, y, keep, kernel, want, products = case
    a, other = from_pairs(a.pairs, a.scale), from_pairs(a.pairs, a.scale)
    if kept:
        keep(a)
    calls = _count_products(monkeypatch)
    # A kept ledger makes the numerators one product; a lone solve takes its kernel's.
    alone = 1 if kept else (kernel(other, y), len(calls))[1]
    calls.clear()
    rep = solve(a, y)
    assert len(calls) == alone
    calls.clear()
    assert rep.transformed_rhs == want
    assert len(calls) == products
    assert rep.transformed_rhs is rep.transformed_rhs
    assert len(calls) == products


def test_transformed_rhs_field_is_unchanged(example1, example2, rhs_1231):
    assert [(f.name, f.type, f.default) for f in fields(SolveReport)] == [
        ("solution", "Matrix", MISSING), ("method", "str", MISSING), ("denominator", "Scalar", MISSING),
        ("numerators", "tuple[Scalar, ...]", MISSING), ("transformed_rhs", "Matrix", MISSING)]
    for solve, want in ((lambda: lsq_solve(example1, rhs_1231), multiply(example1.H, rhs_1231)),
                        (lambda: lsq_solve_row_system(rhs_1231.H, example1), multiply(rhs_1231.H, example1.H)),
                        (lambda: drazin_solve(example2, rhs_1231), multiply(power(example2, 2), rhs_1231))):
        rep = solve()
        formed = SolveReport(rep.solution, rep.method, rep.denominator, rep.numerators, want)
        # Each check starts from a report whose transformed right side is not read yet.
        assert solve() == formed and formed == solve()
        assert hash(solve()) == hash(formed)
        assert repr(solve()) == repr(formed)
        assert replace(solve(), method="x") == replace(formed, method="x")
        assert replace(solve(), transformed_rhs=ONE).transformed_rhs == ONE
        unread = solve()
        with pytest.raises(FrozenInstanceError):
            unread.transformed_rhs = want
        with pytest.raises(FrozenInstanceError):
            del unread.transformed_rhs
        assert unread.transformed_rhs == want
        with pytest.raises(FrozenInstanceError):
            unread.transformed_rhs = want


class _Tracked(Matrix):
    """A Matrix that takes weak references (Matrix's slots have none)."""


@pytest.mark.parametrize("kept", [False, True], ids=["lone", "kept"])
@pytest.mark.parametrize("case", TRANSFORMED_CASES, ids=[c[0] for c in TRANSFORMED_CASES])
def test_unread_report_does_not_keep_a_alive(case, kept):
    _, solve, a, y, keep, _, want, _ = case
    a = _Tracked.from_rows(a.row_lists())
    if kept:
        keep(a)
    rep = solve(a, y)
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is None
    assert rep.transformed_rhs == want


def test_racing_readers_get_the_first_transformed_rhs():
    _, solve, a, y, _, _, want, _ = TRANSFORMED_CASES[-4]  # Drazin, index 3: three products per forming
    rep = solve(from_pairs(a.pairs, a.scale), y)
    start, got = threading.Barrier(8), []

    def read():
        start.wait(timeout=10)
        got.append(rep.transformed_rhs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8 and all(g is got[0] for g in got) and got[0] == want
    assert rep.transformed_rhs is got[0]
