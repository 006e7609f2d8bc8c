"""Exact generalized matrix inverses and Cramer-style solvers.

Moore-Penrose inverses, Drazin and group inverses, their projectors, and
least squares / singular-system solutions, all computed over exact Gaussian
rationals through adjugate-analogue minor sums, with independent oracles and
defining-equation checkers to validate every result.
"""

from .scalars import ONE, ZERO, Scalar, ScalarParseError, parse_scalar
from .matrices import (
    Matrix,
    column_vector,
    conjugate_transpose,
    hstack,
    multiply,
    power,
    rank,
    replace_column,
    replace_row,
    row_vector,
)
from .index_sets import enumerate_containing, enumerate_k_subsets
from .minors import adjugate, char_poly_coeffs, det, minor, principal_minor_sum
from .pinv import (
    PinvResult,
    ZeroMatrixError,
    mp_inverse,
    mp_inverse_columns,
    mp_inverse_rows,
    projector_p,
    projector_q,
)
from .drazin import (
    DrazinResult,
    GroupInverseError,
    drazin_inverse,
    drazin_times_a,
    group_inverse,
    index_of,
)
from .solvers import SolveReport, drazin_solve, lsq_solve, lsq_solve_row_system
from .verify import (
    VerifyReport,
    check_drazin,
    check_penrose,
    oracle_drazin,
    oracle_pinv,
    range_membership,
)
from .matrix_io import (
    MatrixFormatError,
    OutputFormat,
    format_matrix,
    format_output,
    format_scalar,
    parse_matrix_file,
    parse_matrix_text,
)

__version__ = "0.1.0"

__all__ = [
    "ONE",
    "ZERO",
    "Scalar",
    "ScalarParseError",
    "parse_scalar",
    "Matrix",
    "column_vector",
    "conjugate_transpose",
    "hstack",
    "multiply",
    "power",
    "rank",
    "replace_column",
    "replace_row",
    "row_vector",
    "enumerate_containing",
    "enumerate_k_subsets",
    "adjugate",
    "char_poly_coeffs",
    "det",
    "minor",
    "principal_minor_sum",
    "PinvResult",
    "ZeroMatrixError",
    "mp_inverse",
    "mp_inverse_columns",
    "mp_inverse_rows",
    "projector_p",
    "projector_q",
    "DrazinResult",
    "GroupInverseError",
    "drazin_inverse",
    "drazin_times_a",
    "group_inverse",
    "index_of",
    "SolveReport",
    "drazin_solve",
    "lsq_solve",
    "lsq_solve_row_system",
    "VerifyReport",
    "check_drazin",
    "check_penrose",
    "oracle_drazin",
    "oracle_pinv",
    "range_membership",
    "MatrixFormatError",
    "OutputFormat",
    "format_matrix",
    "format_output",
    "format_scalar",
    "parse_matrix_file",
    "parse_matrix_text",
]
