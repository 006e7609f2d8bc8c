"""Exact correctness checks and output digests for benchmark operations.

Each check returns a list of failure messages; an empty list is a pass.  All
comparisons are exact equalities on Gaussian rationals.  Checks run after the
timed loop, never inside an operation's latency.
"""

from __future__ import annotations

import hashlib
import json
import sys

from adjinv import matrices, verify
from adjinv.matrices import Matrix, conjugate_transpose, multiply, power
from adjinv.matrix_io import OutputFormat
from adjinv.scalars import Scalar


def scalar(e) -> Scalar:
    return Scalar(e[0], e[1])


def column(entries) -> Matrix:
    return matrices.column_vector([scalar(e) for e in entries])


def row(entries) -> Matrix:
    return matrices.row_vector([scalar(e) for e in entries])


def _require(ok: bool, message: str) -> list[str]:
    return [] if ok else [message]


def check_pinv(a: Matrix, x: Matrix) -> list[str]:
    report = verify.check_penrose(a, x)
    return [f"Penrose equation {name} fails" for name in report.failed_names()]


def check_ledger(ledger, value: Matrix, what: str) -> list[str]:
    """Every entry times the denominator equals the numerator entry."""
    return _require(
        bool(ledger.denominator) and value * ledger.denominator == ledger.numerators,
        f"{what} ledger does not reproduce the result",
    )


def check_ledger_vector(report) -> list[str]:
    """A solver's solution times its denominator equals its numerators."""
    sol = report.solution
    scaled = tuple(v * report.denominator for i in range(sol.rows) for v in sol.row(i))
    return _require(bool(report.denominator) and scaled == tuple(report.numerators),
                    "solver ledger does not reproduce the solution")


def check_solution(a: Matrix, y: Matrix, sol: Matrix) -> list[str]:
    return _require(multiply(a, sol) == y, "A x = y fails")


def check_projector_p(a: Matrix, x: Matrix, p: Matrix) -> list[str]:
    return _require(p == multiply(x, a), "projector A+A differs from X*A")


def check_projector_q(a: Matrix, x: Matrix, q: Matrix) -> list[str]:
    return _require(q == multiply(a, x), "projector AA+ differs from A*X")


def check_lsq(a: Matrix, y: Matrix, sol: Matrix, x: Matrix | None) -> list[str]:
    astar = conjugate_transpose(a)
    out = _require(multiply(astar, multiply(a, sol) - y).is_zero, "normal equations A*(Ax-y)=0 fail")
    out += _require(verify.range_membership(astar, sol), "solution not in R(A*)")
    if x is not None:
        out += _require(sol == multiply(x, y), "solution differs from A+ y")
    return out


def check_row_system(a: Matrix, y: Matrix, sol: Matrix, x: Matrix | None) -> list[str]:
    out = _require(
        multiply(multiply(sol, a) - y, conjugate_transpose(a)).is_zero,
        "normal equations (xA-y)A*=0 fail",
    )
    out += _require(verify.range_membership(a, conjugate_transpose(sol)), "solution* not in R(A)")
    if x is not None:
        out += _require(sol == multiply(y, x), "solution differs from y A+")
    return out


def check_drazin(a: Matrix, k: int, xd: Matrix) -> list[str]:
    report = verify.check_drazin(a, xd, k)
    return [f"Drazin equation {name} fails" for name in report.failed_names()]


def check_drazin_a(a: Matrix, xd: Matrix, p: Matrix) -> list[str]:
    return _require(p == multiply(xd, a), "A^D A differs from X*A")


def check_drazin_solve(a: Matrix, k: int, y: Matrix, sol: Matrix, xd: Matrix | None) -> list[str]:
    ak = power(a, k)
    out = _require(multiply(power(a, k + 1), sol) == multiply(ak, y), "A^(k+1)x = A^k y fails")
    out += _require(verify.range_membership(ak, sol), "solution not in R(A^k)")
    if xd is not None:
        out += _require(sol == multiply(xd, y), "solution differs from A^D y")
    return out


def check_char_poly(a: Matrix, coeffs, expected) -> list[str]:
    """d_1 = trace and d_n = det (0 for a singular constructed matrix), and the
    full coefficient list from the construction when it is known."""
    coeffs = tuple(coeffs)
    trace = sum((a.at(i, i) for i in range(a.rows)), Scalar(0))
    out = _require(len(coeffs) == a.rows, "wrong number of coefficients")
    out += _require(bool(coeffs) and coeffs[0] == trace, "d_1 differs from the trace")
    if expected:
        want = tuple(scalar(e) for e in expected)
        out += _require(coeffs[-1:] == want[-1:], "d_n differs from the determinant")
        out += _require(coeffs == want, "coefficients differ from the construction")
    return out


def check_fullrank_pinv(a: Matrix, x: Matrix) -> list[str]:
    """The Penrose equations for a full-rank A, in the cheaper equivalent form:
    XA = I and AX Hermitian (full column rank), or AX = I and XA Hermitian."""
    left, right = (x, a) if a.rows >= a.cols else (a, x)
    one_side = multiply(left, right)
    out = _require(one_side == Matrix.identity(one_side.rows), "X is not a one-sided inverse")
    if a.rows != a.cols:
        other = multiply(right, left)
        out += _require(conjugate_transpose(other) == other, "the other product is not Hermitian")
    return out


def check_inverse(a: Matrix, x: Matrix) -> list[str]:
    n = a.rows
    return _require(multiply(a, x) == Matrix.identity(n), "A X is not the identity")


# -- output layout and digests ------------------------------------------------------


_JSON = OutputFormat(json_layout=True)


def layout(value, extra: dict | None = None) -> str:
    """The exact JSON layout of an operation's output, as the CLI prints it."""
    # Looked up per call, so a traced run times the formatting layer too.
    text = sys.modules["adjinv.matrix_io"].format_output(value, _JSON)
    if extra:
        payload = json.loads(text)
        payload.update(extra)
        text = json.dumps(payload)
    return text


def result_layout(result) -> str:
    """JSON layout of a library result object, including its ledger tags."""
    if hasattr(result, "pseudo_inverse"):
        return layout(result.pseudo_inverse, {"denominator": str(result.denominator),
                                              "method": result.representation_used})
    if hasattr(result, "drazin_inverse"):
        return layout(result.drazin_inverse, {"denominator": str(result.denominator),
                                              "index": result.index, "rank_core": result.rank_core})
    if hasattr(result, "solution"):
        return layout(result.solution, {"denominator": str(result.denominator),
                                        "method": result.method})
    return layout(result)


def digest(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()
