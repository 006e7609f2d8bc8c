"""Byte-identity digests of every operation's result on a seeded corpus.

``tests/data/ledger_digests.json`` maps each (input, operation) to the
sha256 of the result's exact text: for a ledger result its numerators,
denominator, quotient, tag, index and rank, for a matrix its shape, scale
and integer pairs, and for a refusal the exception and its message.  The
inputs are square, tall and wide, up to 14 on a side, at every rank from
0, with real and complex entries; some carry row contents and entries with
denominators of their own, some column contents that share factors, and
the square ones include Drazin index 0-3 and nilpotent matrices, and
inputs of index 1-3 whose rows, and those of every matrix of their Drazin
chain, carry contents.  Each operation runs alone on a fresh copy of its
input and in two shared orders on one copy (the operations in order, and
reversed), so kept results serve the later ones, and every run must give
the recorded digest; the literal eq1 and eq2 forms, which keep nothing,
run alone on the inputs up to 5 on a side.  The
test runs with ``elimination._INT_MIN`` at 0 (int rows and the dot-form
back substitution at every size, the certificate on every tall or wide
input), at 10 (the default) and at 10**9 (pairs everywhere, on the inputs
that reach 10 on a side): the gate picks a form, never a value.  It names
the first result that differs.

To record the file again from the current code (only when an output is
meant to change), run ``PYTHONPATH=src python tests/test_ledger_digests.py``
from the repository root.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from adjinv import (
    Matrix,
    adjugate,
    char_poly_coeffs,
    det,
    drazin_inverse,
    drazin_solve,
    drazin_times_a,
    group_inverse,
    index_of,
    lsq_solve,
    lsq_solve_row_system,
    mp_inverse,
    multiply,
    projector_p,
    projector_q,
    rank,
)
from adjinv import elimination
from adjinv.matrices import from_pairs
from conftest import drazin_case, exact_inverse, nilpotent_block, random_invertible, random_matrix, rank_forced_matrix

DIGESTS = Path(__file__).with_name("data") / "ledger_digests.json"

GATE = elimination._INT_MIN
INT_MINS = (0, GATE, 10**9)


@cache
def inputs() -> tuple[tuple[str, Matrix, Matrix, Matrix], ...]:
    """(name, A, y, z) for every input: A is m x n, y an m x 1 and z a 1 x n right side."""
    rng = random.Random(36)
    built = []
    for m, n in ((3, 2), (4, 4)):
        built.append((f"{m}x{n} zero", Matrix.zeros(m, n)))
    for m, n in ((1, 1), (4, 4), (5, 3), (3, 5)):
        for r in range(1, min(m, n) + 1):
            for cx in (False, True):
                built.append((f"{m}x{n} rank {r} {_kind(cx)}", rank_forced_matrix(rng, m, n, r, cx)))
    for m, n, ranks in ((10, 10, (5, 10)), (12, 14, (11, 12)), (14, 12, (7, 12))):
        for r in ranks:
            for cx in (False, True):
                built.append((f"{m}x{n} rank {r} {_kind(cx)}", rank_forced_matrix(rng, m, n, r, cx)))
    for m, n, r, cx in ((4, 4, 3, True), (5, 3, 2, False), (12, 12, 8, False), (11, 13, 11, True)):
        a = _with_contents(rng, rank_forced_matrix(rng, m, n, r, cx))
        built.append((f"{m}x{n} rank {r} {_kind(cx)} with contents", a))
    for n, ind, cx in [(4, ind, cx) for ind in range(4) for cx in (False, True)] + [(12, 3, False), (10, 2, True)]:
        built.append((f"{n}x{n} index {ind} {_kind(cx)}", drazin_case(rng, n, ind, cx)[0]))
    for n, ind, cx in ((5, 3, True), (11, 2, False)):
        s = random_invertible(rng, n, cx)
        built.append((f"{n}x{n} nilpotent of index {ind} {_kind(cx)}",
                      multiply(multiply(s, nilpotent_block(n, ind)), exact_inverse(s))))
    return _with_sides(rng, built) + _shared_content_cases() + _column_content_cases()


def _shared_content_cases() -> tuple[tuple[str, Matrix, Matrix, Matrix], ...]:
    """Index 1-3 inputs whose rows carry contents into every matrix of their Drazin chain, with their sides.

    k A scales every factor B_i, so every core M_i, by k; D A D^-1, for D an
    integer diagonal, makes each M_i similar to A's by a diagonal, so its
    rows carry contents of their own.  Both keep the index.  They draw from
    a generator of their own, so the inputs above keep their right sides.
    """
    rng = random.Random(37)
    cases = []
    for n in (5, 12):
        for ind in (1, 2, 3):
            for cx in (False, True):
                a = drazin_case(rng, n, ind, cx)[0]
                while rank(multiply(a, multiply(a, a))) < 2:  # a core of order 2 or more, so rows to share
                    a = drazin_case(rng, n, ind, cx)[0]
                k = rng.choice((6, 10, 30, 42))
                d = [rng.choice((1, 2, 3, 5, 6, 7)) for _ in range(n)]
                similar = Matrix(n, n, [a.at(i, j) * Fraction(d[i], d[j]) for i in range(n) for j in range(n)])
                for how, b in ((f"times {k}", a * k), ("diagonally similar", similar)):
                    cases.append((f"{n}x{n} index {ind} {_kind(cx)} {how}", b))
    return _with_sides(rng, cases)


def _column_content_cases() -> tuple[tuple[str, Matrix, Matrix, Matrix], ...]:
    """Inputs A diag(g) whose columns carry contents g_j that share factors, with their sides.

    A tall input of full column rank, a deficient wide one and a nonsingular
    square, real and complex, each with column j times g_j from
    {2, 3, 6, 10, 15}.  They draw from a generator of their own, so the
    inputs above keep their right sides.
    """
    rng = random.Random(38)
    cases = []
    for m, n, r in ((14, 10, 10), (12, 14, 9), (10, 10, 10)):
        for cx in (False, True):
            a = rank_forced_matrix(rng, m, n, r, cx)
            g = [rng.choice((2, 3, 6, 10, 15)) for _ in range(n)]
            scaled = Matrix(m, n, [a.at(i, j) * g[j] for i in range(m) for j in range(n)])
            cases.append((f"{m}x{n} rank {r} {_kind(cx)} with column contents", scaled))
    return _with_sides(rng, cases)


def _with_sides(rng: random.Random, built) -> tuple[tuple[str, Matrix, Matrix, Matrix], ...]:
    """(name, A, y, z) for each (name, A), with y an m x 1 and z a 1 x n right side drawn from ``rng``."""
    return tuple((name, a, random_matrix(rng, a.rows, 1, "complex" in name),
                  random_matrix(rng, 1, a.cols, "complex" in name)) for name, a in built)


def _kind(complex_entries: bool) -> str:
    return "complex" if complex_entries else "real"


def _with_contents(rng: random.Random, a: Matrix) -> Matrix:
    """A with row i times k_i / p_i and column j divided by q_j."""
    k = [rng.randint(2, 9) for _ in range(a.rows)]
    p = [rng.choice((1, 3, 7, 11)) for _ in range(a.rows)]
    q = [rng.choice((1, 2, 5, 13)) for _ in range(a.cols)]
    return Matrix(a.rows, a.cols, [a.at(i, j) * Fraction(k[i], p[i] * q[j])
                                   for i in range(a.rows) for j in range(a.cols)])


def operations(a: Matrix, y: Matrix, z: Matrix) -> list[tuple[str, object]]:
    """(name, op) for every public operation that takes ``a``; ``op`` takes a copy of ``a``."""
    ops = [("rank", rank), ("mp_inverse", mp_inverse), ("projector_p", projector_p),
           ("projector_q", projector_q), ("lsq_solve", lambda a: lsq_solve(a, y)),
           ("lsq_solve_row_system", lambda a: lsq_solve_row_system(z, a))]
    if a.rows == a.cols:
        ops += [("det", det), ("char_poly_coeffs", char_poly_coeffs), ("index_of", index_of),
                ("drazin_inverse", drazin_inverse), ("group_inverse", group_inverse),
                ("drazin_times_a", drazin_times_a), ("drazin_solve", lambda a: drazin_solve(a, y))]
        if a.rows <= 5:
            ops.append(("adjugate", adjugate))
    return ops


def literal_forms(a: Matrix) -> list[tuple[str, object]]:
    """The literal eq1 and eq2 forms on inputs up to 5 on a side: they never read or fill what A keeps."""
    if max(a.rows, a.cols) > 5:
        return []
    return [("mp_inverse eq1", lambda a: mp_inverse(a, "eq1")), ("mp_inverse eq2", lambda a: mp_inverse(a, "eq2"))]


def _text(value) -> str:
    """The exact text of a result: every field of a result class, a matrix's shape, scale and pairs."""
    if isinstance(value, Matrix):
        return f"Matrix {value.rows}x{value.cols} / {value.scale}: {value.pairs}"
    if is_dataclass(value):
        return f"{type(value).__name__}(" + ", ".join(f"{f.name}={_text(getattr(value, f.name))}"
                                                      for f in fields(value)) + ")"
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_text, value)) + ")"
    return f"{type(value).__name__} {value}"


def _digest(op, a: Matrix) -> str:
    try:
        text = _text(op(a))
    except (ArithmeticError, ValueError) as exc:
        text = f"raised {type(exc).__name__}: {exc}"
    return hashlib.sha256(text.encode()).hexdigest()


def _fresh(a: Matrix) -> Matrix:
    """A copy of ``a`` that keeps nothing yet."""
    return from_pairs(a.pairs, a.scale)


def results():
    """(key, run, digest) for each operation on each input: alone, then in order and reversed on one copy.

    Above ``GATE`` the inputs below it on every side are left out: every
    operand they make is below the gate, so they take the forms they take
    at it.
    """
    for name, a, y, z in inputs():
        if elimination._INT_MIN > GATE > max(a.rows, a.cols):
            continue
        ops = operations(a, y, z)
        for op_name, op in ops + literal_forms(a):
            yield f"{name}: {op_name}", "alone", _digest(op, _fresh(a))
        for run, order in (("in order", ops), ("reversed", ops[::-1])):
            shared = _fresh(a)
            for op_name, op in order:
                yield f"{name}: {op_name}", run, _digest(op, shared)


@pytest.mark.parametrize("int_min", INT_MINS)
def test_results_match_recorded_digests(int_min, monkeypatch):
    monkeypatch.setattr(elimination, "_INT_MIN", int_min)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    keys = set()
    for key, run, digest in results():
        keys.add(key)
        assert digest == recorded.get(key), f"{key} ({run}, _INT_MIN = {int_min}) differs from its recorded digest"
    assert keys == set(recorded) if int_min <= GATE else keys < set(recorded)


def _record() -> None:
    """Record each result's digest, after checking that every run at every gate gives the same one."""
    digests: dict[str, str] = {}
    real = elimination._INT_MIN
    try:
        for int_min in INT_MINS:
            elimination._INT_MIN = int_min
            for key, run, digest in results():
                if digests.setdefault(key, digest) != digest:
                    raise SystemExit(f"{key} ({run}, _INT_MIN = {int_min}) gives a second digest; nothing recorded")
    finally:
        elimination._INT_MIN = real
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=0) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests in {DIGESTS}", file=sys.stderr)


if __name__ == "__main__":
    _record()
