"""Bundled worked examples with known exact values.

Two small systems exercise every representation end to end: a rank-3
rectangular-style least squares problem (square coefficient matrix, rank
deficient) and a singular square system of index 2 solved through the Drazin
inverse.  ``run_all`` recomputes every displayed quantity and reports an
exact pass/fail per value; the CLI exposes it as the ``paper-examples``
subcommand.
"""

from __future__ import annotations

from fractions import Fraction

from . import minors
from .drazin import drazin_inverse, index_of
from .matrices import Matrix, column_vector, conjugate_transpose, multiply, power, rank
from .pinv import mp_inverse_columns
from .scalars import Scalar
from .solvers import drazin_solve, lsq_solve

EXAMPLE1_MATRIX = Matrix.from_rows(
    [
        [2, 0, -5, 4],
        [7, -4, -9, "1.5"],
        [3, -4, 7, "-6.5"],
        [1, -4, 12, "-10.5"],
    ]
)

EXAMPLE1_RHS = column_vector([1, 2, 3, 1])

EXAMPLE1_CONJUGATE_TRANSPOSE = Matrix.from_rows(
    [
        [2, 7, 3, 1],
        [0, -4, -4, -4],
        [-5, -9, 7, 12],
        [4, "1.5", "-6.5", "-10.5"],
    ]
)

EXAMPLE1_GRAM = Matrix.from_rows(
    [
        [63, -44, -40, "-11.5"],
        [-44, 48, -40, 62],
        [-40, -40, 299, -205],
        ["-11.5", 62, -205, "170.75"],
    ]
)

EXAMPLE1_RANK = 3
EXAMPLE1_DENOMINATOR = Scalar(102060)
EXAMPLE1_L11 = Scalar(25779)

EXAMPLE1_PINV_NUMERATORS = Matrix.from_rows(
    [
        [25779, -4905, 20742, -5037],
        [-3840, -2880, -4800, -960],
        [28350, -17010, 22680, -5670],
        [39558, -18810, 26484, -13074],
    ]
)

EXAMPLE1_F = column_vector([26, -24, 10, -23])

# Component 2 is the reduced form of -24960/102060, i.e. -416/1701.
EXAMPLE1_SOLUTION = column_vector(
    [
        Fraction(12193, 17010),
        Fraction(-24960, 102060),
        Fraction(5, 9),
        Fraction(5693, 8505),
    ]
)


EXAMPLE2_MATRIX = Matrix.from_rows(
    [
        [1, -1, 1, 1],
        [0, 1, -1, 1],
        [1, -1, 1, 2],
        [1, -1, 1, 1],
    ]
)

EXAMPLE2_RHS = column_vector([1, 2, 3, 1])

EXAMPLE2_SQUARE = Matrix.from_rows(
    [
        [3, -4, 4, 3],
        [0, 1, -1, 0],
        [4, -5, 5, 4],
        [3, -4, 4, 3],
    ]
)

EXAMPLE2_CUBE = Matrix.from_rows(
    [
        [10, -14, 14, 10],
        [-1, 2, -2, -1],
        [13, -18, 18, 13],
        [10, -14, 14, 10],
    ]
)

EXAMPLE2_RANKS = (3, 2, 2)  # rank A, rank A^2, rank A^3
EXAMPLE2_INDEX = 2
EXAMPLE2_DENOMINATOR = Scalar(8)
EXAMPLE2_D11 = Scalar(4)

EXAMPLE2_DRAZIN = Matrix.from_rows(
    [
        ["1/2", "1/2", "-1/2", "1/2"],
        ["7/4", "5/2", "-5/2", "7/4"],
        ["5/4", "3/2", "-3/2", "5/4"],
        ["1/2", "1/2", "-1/2", "1/2"],
    ]
)

EXAMPLE2_G = column_vector([10, -1, 13, 10])
EXAMPLE2_SOLUTION = column_vector([Fraction(1, 2), 1, 1, Fraction(1, 2)])


def run_example1() -> list[tuple[str, bool]]:
    a = EXAMPLE1_MATRIX
    results = []
    results.append(("example1: rank(A) = 3", rank(a) == EXAMPLE1_RANK))
    results.append(
        ("example1: conjugate transpose display", conjugate_transpose(a) == EXAMPLE1_CONJUGATE_TRANSPOSE)
    )
    gram = multiply(conjugate_transpose(a), a)
    results.append(("example1: Gram matrix A*A display", gram == EXAMPLE1_GRAM))
    results.append(
        (
            "example1: order-3 principal-minor sum of A*A = 102060",
            minors.principal_minor_sum(gram, 3) == EXAMPLE1_DENOMINATOR,
        )
    )
    res = mp_inverse_columns(a)
    results.append(("example1: numerator l11 = 25779", res.numerators.at(0, 0) == EXAMPLE1_L11))
    results.append(("example1: denominator = 102060", res.denominator == EXAMPLE1_DENOMINATOR))
    results.append(("example1: pseudoinverse numerator matrix", res.numerators == EXAMPLE1_PINV_NUMERATORS))
    expected_pinv = EXAMPLE1_PINV_NUMERATORS * (Scalar(1) / EXAMPLE1_DENOMINATOR)
    results.append(("example1: pseudoinverse matrix", res.pseudo_inverse == expected_pinv))
    rep = lsq_solve(a, EXAMPLE1_RHS)
    results.append(("example1: transformed right side f = A*y", rep.transformed_rhs == EXAMPLE1_F))
    results.append(("example1: solution by component minor sums", rep.solution == EXAMPLE1_SOLUTION))
    results.append(
        (
            "example1: solution by pseudoinverse product",
            multiply(res.pseudo_inverse, EXAMPLE1_RHS) == EXAMPLE1_SOLUTION,
        )
    )
    return results


def run_example2() -> list[tuple[str, bool]]:
    a = EXAMPLE2_MATRIX
    results = []
    results.append(("example2: A^2 display", power(a, 2) == EXAMPLE2_SQUARE))
    results.append(("example2: A^3 display", power(a, 3) == EXAMPLE2_CUBE))
    got_ranks = (rank(a), rank(power(a, 2)), rank(power(a, 3)))
    results.append(("example2: ranks of A, A^2, A^3 are 3, 2, 2", got_ranks == EXAMPLE2_RANKS))
    results.append(("example2: index = 2", index_of(a) == EXAMPLE2_INDEX))
    results.append(
        (
            "example2: order-2 principal-minor sum of A^3 = 8",
            minors.principal_minor_sum(EXAMPLE2_CUBE, 2) == EXAMPLE2_DENOMINATOR,
        )
    )
    res = drazin_inverse(a)
    results.append(("example2: numerator d11 = 4", res.numerators.at(0, 0) == EXAMPLE2_D11))
    results.append(("example2: denominator = 8", res.denominator == EXAMPLE2_DENOMINATOR))
    results.append(("example2: Drazin inverse matrix", res.drazin_inverse == EXAMPLE2_DRAZIN))
    rep = drazin_solve(a, EXAMPLE2_RHS)
    results.append(("example2: transformed right side g = A^2 y", rep.transformed_rhs == EXAMPLE2_G))
    results.append(("example2: solution by component minor sums", rep.solution == EXAMPLE2_SOLUTION))
    results.append(
        (
            "example2: solution by Drazin-inverse product",
            multiply(res.drazin_inverse, EXAMPLE2_RHS) == EXAMPLE2_SOLUTION,
        )
    )
    return results


def run_all() -> list[tuple[str, bool]]:
    """Recompute every golden value; each entry is (label, exact match)."""
    return run_example1() + run_example2()
