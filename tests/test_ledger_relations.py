"""Ledger relations at n = 24-40: how each ledger moves when A is transformed.

The minor-sum definitions fix the whole ledger, numerators and denominator,
not only its quotient, so a transformed A must give a transformed ledger:

- Gram ledgers (eq1, eq2, eq6, eq7): ledger(P A Q) = (Q^T N P^T, d) for
  permutations P and Q, ledger(u A) = (conj(u) N, d) for a unit u in
  {-1, i, -i}, and ledger(c A) = (c^(2r-1) N, c^(2r) d) for an integer c.
- The classical inverse: ledger(P A Q) = (s Q^T N P^T, s d) with s the
  product of the permutations' signs, ledger(u A) = (u^(n-1) N, u^n d) and
  ledger(c A) = (c^(n-1) N, c^n d).
- Drazin ledgers (eq11, the classical inverse at index 0): ledger(T A T^-1) =
  (T N T^-1, d) for any nonsingular T, since N_r(A^(k+1)) A^k is a
  polynomial in A, and ledger(c A) = (c^(r(k+1)-1) N, c^(r(k+1)) d).
- Solves: lsq_solve(P A Q, P y) is Q^T lsq_solve(A, y),
  lsq_solve_row_system(y Q, P A Q) is lsq_solve_row_system(y, A) P^T, and
  drazin_solve(T A T^-1, T y) is T drazin_solve(A, y), each with its ledger
  moved the same way.
- char_poly_coeffs(T A T^-1) = char_poly_coeffs(A), and on a fresh A it is
  Berkowitz on all of A (``elimination.char_poly_pairs``).

The literal minor sums stop at n <= 8 and the digest corpus at 14 x 14; these
relations check ledgers at sizes neither reaches, with no second
implementation.  A ledger scaled by a wrong common factor keeps every
quotient right; a diagonal T with entries in {1, 2, 3, 5, 6} puts row and
column contents into T A T^-1, so the relation catches it where a
permutation does not.  Each case draws its transforms from a seeded
``random.Random``, so every run checks the same relations.
"""

from __future__ import annotations

import random
from math import lcm

import pytest

from adjinv import (
    Matrix,
    Scalar,
    char_poly_coeffs,
    column_vector,
    drazin_inverse,
    drazin_solve,
    lsq_solve,
    lsq_solve_row_system,
    mp_inverse,
    row_vector,
)
from adjinv import elimination
from adjinv.matrices import from_pairs, known_rank, scalar_of
from test_kernel import _deficient, _full_rank, _indexed, _rhs

UNITS = (Scalar(-1), Scalar(0, 1), Scalar(0, -1))
DIAGONAL = (1, 2, 3, 5, 6)
MULTIPLIERS = (-2, 2, 3, 6)

GRAM_CASES = {  # m, n, rank, complex entries
    "square, real": (24, 24, 12, False),
    "tall, complex": (36, 24, 10, True),
    "wide, real": (24, 40, 16, False),
    "tall full rank, real": (32, 24, 24, False),
    "wide full rank, complex": (24, 30, 24, True),
}
DRAZIN_CASES = {  # core rank, nilpotent block sizes, complex entries
    "index 0, real": (24, (), False),
    "index 1, complex": (12, (1,) * 12, True),
    "index 2, complex": (12, (2,) * 6, True),
    "index 3, real": (10, (3, 3, 3, 3, 2), False),
    "nilpotent, real": (0, (3,) * 8, False),
}


def _gram_input(name: str) -> Matrix:
    m, n, r, complex_entries = GRAM_CASES[name]
    if r == min(m, n):
        return _full_rank(2400 + m + n, m, n, complex_entries)
    return _deficient(2400 + m + n + r, m, n, r, complex_entries)


def _drazin_input(name: str) -> Matrix:
    core, nil_sizes, complex_entries = DRAZIN_CASES[name]
    return _indexed(2500 + core + len(nil_sizes), core, nil_sizes, complex_entries)


def _permutation(rng: random.Random, n: int) -> tuple[list[int], int]:
    """A random order of range(n) other than the identity, and its sign."""
    while (p := rng.sample(range(n), n)) == list(range(n)):
        pass
    cycles, seen = 0, set()
    for start in range(n):
        cycles += start not in seen
        while start not in seen:
            seen.add(start)
            start = p[start]
    return p, (-1) ** (n - cycles)


def _diagonal(a: Matrix, left, right) -> Matrix:
    """diag(left) a diag(right)^-1, for positive int entries."""
    big = lcm(*right)
    return from_pairs([[(re * t * (big // u), im * t * (big // u)) for (re, im), u in zip(row, right)]
                       for row, t in zip(a.pairs, left)], a.scale * big)


def _ledger(res) -> tuple:
    return res.numerators, res.denominator


def _scaled(ledger: tuple, num, den) -> tuple:
    return ledger[0] * num, ledger[1] * den


def _unit_power(u: Scalar, k: int) -> Scalar:
    """u^k for a unit u in UNITS, whose fourth power is 1."""
    out = Scalar(1)
    for _ in range(k % 4):
        out = out * u
    return out


def _diagonal_entries(rng: random.Random, n: int) -> list[int]:
    """n entries from DIAGONAL, not all equal, so T A T^-1 differs from A."""
    while len(set(t := [rng.choice(DIAGONAL) for _ in range(n)])) == 1:
        pass
    return t


@pytest.mark.parametrize("name", sorted(GRAM_CASES))
def test_gram_ledgers_follow_permutations_units_and_multiples(name):
    a = _gram_input(name)
    m, n, r, _ = GRAM_CASES[name]
    rng = random.Random(name)
    (p, _), (q, _) = _permutation(rng, m), _permutation(rng, n)
    u, c = rng.choice(UNITS), rng.choice(MULTIPLIERS)
    y, yr = column_vector(_rhs(len(name), m)), row_vector(_rhs(len(name) + 1, n))
    # P A Q takes the rows of A in the order p and its columns in the order q,
    # so Q^T N P^T takes N's rows in the order q and its columns in the order p.
    paq = a.submatrix(p, q)
    # The solves first, from the skeleton of a matrix that keeps no pseudoinverse yet.
    sol, row = lsq_solve(a, y), lsq_solve_row_system(yr, a)
    moved, moved_row = lsq_solve(paq, y.submatrix(p, [0])), lsq_solve_row_system(yr.submatrix([0], q), paq)
    base = mp_inverse(a)
    assert base.representation_used in ("eq1", "eq2", "eq6", "eq7") and known_rank(a) == r
    assert _ledger(mp_inverse(paq)) == (base.numerators.submatrix(q, p), base.denominator)
    assert _ledger(mp_inverse(a * u)) == _scaled(_ledger(base), u.conjugate(), 1)
    assert _ledger(mp_inverse(a * c)) == _scaled(_ledger(base), c ** (2 * r - 1), c ** (2 * r))
    assert moved.denominator == sol.denominator == row.denominator == moved_row.denominator
    assert moved.numerators == tuple(sol.numerators[i] for i in q)
    assert moved.solution == sol.solution.submatrix(q, [0])
    assert moved_row.numerators == tuple(row.numerators[j] for j in p)
    assert moved_row.solution == row.solution.submatrix([0], p)


@pytest.mark.parametrize("complex_entries", [False, True])
def test_classical_ledgers_follow_permutations_with_their_sign(complex_entries):
    n = 24
    a = _full_rank(2600 + complex_entries, n, n, complex_entries)
    rng = random.Random(2600 + complex_entries)
    (p, sp), (q, sq) = _permutation(rng, n), _permutation(rng, n)
    u, c = rng.choice(UNITS), rng.choice(MULTIPLIERS)
    base = mp_inverse(a)
    moved = mp_inverse(a.submatrix(p, q))
    assert base.representation_used == moved.representation_used == "classical_inverse"
    assert _ledger(moved) == _scaled((base.numerators.submatrix(q, p), base.denominator), sp * sq, sp * sq)
    assert _ledger(mp_inverse(a * u)) == _scaled(_ledger(base), _unit_power(u, n - 1), _unit_power(u, n))
    assert _ledger(mp_inverse(a * c)) == _scaled(_ledger(base), c ** (n - 1), c**n)


@pytest.mark.parametrize("name", sorted(DRAZIN_CASES))
def test_drazin_ledgers_and_char_poly_follow_similarity_and_multiples(name):
    a = _drazin_input(name)
    n, (core, nil_sizes, _) = a.rows, DRAZIN_CASES[name]
    rng = random.Random(name)
    t, (p, _) = _diagonal_entries(rng, n), _permutation(rng, n)
    c = rng.choice(MULTIPLIERS)
    y = column_vector(_rhs(len(name), n))
    coeffs = char_poly_coeffs(a)  # a fresh A: Berkowitz on the last matrix of its chain
    whole = elimination.char_poly_pairs(a.pairs)  # the route through all of A, the reference
    assert coeffs == tuple(scalar_of(d, a.scale**k) for k, d in enumerate(whole) if k)
    lone = drazin_solve(a, y)  # the chain's factors applied to y: A keeps no inverse yet
    base = drazin_inverse(a)
    k, r = base.index, base.rank_core
    assert (k, r) == (max(nil_sizes, default=0), core)
    # T A T^-1 for a diagonal T and P A P^T for a permutation P; each T is applied to N and to y too.
    similar = (lambda x: _diagonal(x, t, t), lambda x: x.submatrix(p, p))
    apply = (lambda x: _diagonal(x, t, [1]), lambda x: x.submatrix(p, [0]))
    for sim, on_y in zip(similar, apply):
        moved_a = sim(a)
        moved_solve = drazin_solve(moved_a, on_y(y))
        moved = drazin_inverse(moved_a)
        assert (moved.index, moved.rank_core) == (k, r)
        assert _ledger(moved) == (sim(base.numerators), base.denominator)
        assert moved_solve.denominator == lone.denominator == base.denominator
        assert column_vector(moved_solve.numerators) == on_y(column_vector(lone.numerators))
        assert moved_solve.solution == on_y(lone.solution)
        assert char_poly_coeffs(moved_a) == coeffs
    e = r * (k + 1)
    assert _ledger(drazin_inverse(a * c)) == (_scaled(_ledger(base), c ** (e - 1), c**e) if r else _ledger(base))
