import random
from fractions import Fraction
from math import gcd, lcm

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
    row_vector,
)
from adjinv.elimination import integerize
from adjinv.matrices import from_pairs
from adjinv.matrix_io import parse_matrix_text, parse_vector_text
from adjinv.minors import Ledger
from adjinv.scalars import entry_parts, token_parts
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
        assert from_pairs(*integerize([[entry_parts(e) for e in row] for row in m.row_lists()])) == m


def test_from_pairs_at_scale_one_reads_no_part(monkeypatch):
    # The gcd of 1 and any parts is 1: at scale 1 the rows are in lowest terms as given.
    rows = [[(4, -2), (6, 0)], [(0, 0), (8, 10)]]
    monkeypatch.setattr(adjinv.matrices, "gcd", lambda *parts: pytest.fail("from_pairs took a gcd"))
    m = from_pairs(rows, 1)
    assert (m.pairs, m.scale, m.shape) == ((((4, -2), (6, 0)), ((0, 0), (8, 10))), 1, (2, 2))
    monkeypatch.undo()
    assert in_lowest_terms(m) and m == from_pairs([[(8, -4), (12, 0)], [(0, 0), (16, 20)]], 2)


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
    float_text = "float values are not exact; use int, Fraction, or a token string"
    for build, text in ((lambda: Matrix(1, 1, [0.5]), float_text),
                        (lambda: Matrix(1, 1, [object()]), "cannot build an exact rational from object"),
                        (lambda: Matrix(2, 2, [1.5]), float_text)):  # every entry is read before the count
        with pytest.raises(TypeError) as err:
            build()
        assert str(err.value) == text


# One value per row, each in every form an entry may take: int, Fraction,
# Scalar and tokens, some of them unreduced.
ENTRY_FORMS = [
    (Scalar(Fraction(1, 2)), [Fraction(1, 2), Scalar(Fraction(1, 2)), "1/2", "2/4", "0.50", "1/2+0i", "+1/2-0/3i"]),
    (Scalar(3), [3, Fraction(6, 2), Scalar(3), "3", "03", "6/2", "3.0", "3+0i"]),
    (Scalar(Fraction(-1, 3), 2), [Scalar(Fraction(-1, 3), 2), "-1/3+2i", "-2/6+4/2i", "-1/3--2.00i"]),
    (Scalar(0, Fraction(5, 4)), [Scalar(0, Fraction(5, 4)), "5/4i", "1.25i", "0+10/8i"]),
    (Scalar(0), [0, Fraction(0), Scalar(0), "0", "-0/7", "0.00", "0-0i"]),
    (Scalar(Fraction(-7, 6)), [Fraction(-7, 6), Scalar(Fraction(-7, 6)), "-7/6", "-14/12", "-7/6+0/5i"]),
]


def lowest_terms_of(values: list[Scalar]) -> tuple[tuple[tuple[tuple[int, int], ...], ...], int]:
    """The pairs and scale of the column ``values``, worked out from the reduced Fractions."""
    scale = lcm(*(q.denominator for v in values for q in (v.re, v.im)))
    return tuple(((int(v.re * scale), int(v.im * scale)),) for v in values), scale


@pytest.mark.parametrize("seed", range(12))
def test_every_route_into_the_format_gives_the_same_matrix(seed):
    rng = random.Random(seed)
    cases = rng.sample(ENTRY_FORMS, rng.randint(1, len(ENTRY_FORMS)))
    values = [v for v, _ in cases]
    forms = [rng.choice(f) for _, f in cases]
    tokens = [f if isinstance(f, str) else str(f) for f in forms]
    n = len(values)
    column = lowest_terms_of(values)
    row = (tuple(pair for (pair,) in column[0]),), column[1]
    routes = [
        (Matrix(n, 1, forms), column),
        (Matrix.from_rows([[f] for f in forms]), column),
        (column_vector(forms), column),
        (row_vector(forms), row),
        (parse_matrix_text(f"{n} 1\n" + "\n".join(tokens)), column),
        (parse_vector_text(" ".join(tokens)), row),
        (replace_column(Matrix.zeros(n, 1), 1, forms), column),
        (replace_row(Matrix.zeros(1, n), 1, forms), row),
    ]
    for got, (pairs, scale) in routes:
        assert (got.pairs, got.scale) == (pairs, scale)
    # A scalar factor in each of its forms; a token is no factor.
    for value, entry_forms in cases:
        want = lowest_terms_of([value])
        for f in entry_forms:
            if not isinstance(f, str):
                for got in (Matrix.identity(1) * f, f * Matrix.identity(1)):
                    assert (got.pairs, got.scale) == want


def test_integerize_scales_each_part_by_the_lcm_over_its_denominator():
    # Parts as written: unreduced, repeated and mixed denominators; an all-integer block stays at scale 1.
    written = [[token_parts(t) for t in row] for row in (["2/4", "1/6+1/4i"], ["-3", "5/6"], ["1/4i", "2/4"])]
    scale = lcm(*(q for row in written for _, b, _, d in row for q in (b, d)))
    want = [[(a * (scale // b), c * (scale // d)) for a, b, c, d in row] for row in written]
    integers = [[token_parts(t) for t in row] for row in (["-3", "4+2i"], ["0", "-7i"])]
    for convert in (integerize, adjinv.elimination._integerize):
        assert convert(written) == (want, 12)
        assert convert(integers) == ([[(-3, 0), (4, 2)], [(0, 0), (0, -7)]], 1)


def test_only_operations_call_the_traced_integerize(monkeypatch):
    # The benchmark counts elimination.integerize calls as conversions inside
    # operations; building a Matrix and reading text take _integerize.
    a = Matrix.from_rows([[1, "1/2"], [Fraction(1, 3), Scalar(0, 1)]])
    ledger = Ledger(a, Scalar(2, -1))

    def refuse(rows):
        raise AssertionError("elimination.integerize called")

    monkeypatch.setattr(adjinv.elimination, "integerize", refuse)
    built = [
        Matrix(2, 2, [1, "1/2", Fraction(1, 3), Scalar(0, 1)]),
        Matrix.from_rows([[1, "2/4"], ["1/3", "1i"]]),
        parse_matrix_text("2 2\n1 0.5\n2/6 0+1i"),
    ]
    assert all(m == a for m in built)
    assert parse_vector_text("1 2/4") == row_vector([1, Fraction(1, 2)]) == Matrix(1, 2, ["1", "1/2"])
    assert replace_column(a, 1, column_vector([2, 3])) == Matrix.from_rows([[2, "1/2"], [3, "1i"]])
    for operation in (lambda: a * Fraction(1, 2), lambda: Scalar(0, 1) * a, lambda: replace_column(a, 1, [2, 3]),
                      lambda: replace_row(a, 2, ["1/2", 3]), ledger.quotient):
        with pytest.raises(AssertionError, match="elimination.integerize called"):
            operation()


def test_matrix_validation_branches():
    a, b = Matrix.from_rows([[1, 2], [3, 4]]), Matrix.from_rows([[1, 0, 2], [0, 1, 1]])
    assert a @ b == multiply(a, b)
    for method in (a.__matmul__, a.__add__, a.__sub__, a.__mul__, a.__eq__):
        assert method("1") is NotImplemented
    assert a != "1" and a.__mul__(0.5) is NotImplemented
    with pytest.raises(TypeError):
        a @ [[1, 0], [0, 1]]
    with pytest.raises(ValueError, match="matrix dimensions must be at least 1x1"):
        Matrix(0, 1, [])
    with pytest.raises(ValueError, match="matrix needs at least one row and one column"):
        Matrix.from_rows([])
    for read, message in ((lambda: a.at(2, 0), r"entry \(2, 0\)"), (lambda: a.at(0, -1), r"entry \(0, -1\)"),
                          (lambda: a.row(-1), "row -1"), (lambda: a.column(2), "column 2")):
        with pytest.raises(IndexError, match=f"^{message} outside 2x2 matrix$"):
            read()
    for op, what in ((lambda: a + b, "add"), (lambda: a - b, "subtract")):
        with pytest.raises(ValueError, match=f"cannot {what} 2x2 and 2x3 matrices"):
            op()
    with pytest.raises(ValueError, match="replacement column must be a vector, got a 2x2 matrix"):
        replace_column(a, 1, a)
    with pytest.raises(ValueError, match=r"row index 0 outside 1\.\.2"):
        replace_row(a, 0, [1, 2])


def test_submatrix_checks_its_indices():
    a = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert a.submatrix([1, 0], [2, 2]) == Matrix.from_rows([[6, 6], [3, 3]])
    for rows, cols, message in (([-1], [0], "row -1"), ([0, 2], [0], "row 2"),
                                ([0], [-1], "column -1"), ([1], [0, 3], "column 3")):
        with pytest.raises(IndexError, match=f"^{message} outside 2x3 matrix$"):
            a.submatrix(rows, cols)


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
