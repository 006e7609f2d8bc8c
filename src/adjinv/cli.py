"""Command-line front end.

Subcommands cover every library operation: generalized inverses, projectors,
rank and index queries, characteristic coefficients, the three Cramer-style
solvers, a self-verifying mode, and the bundled worked-example check.  Output
defaults to exact rationals in matrix-file format (so it reparses losslessly);
``--decimal N`` switches the display to fixed decimals and ``--json`` emits a
machine-readable layout with exact string entries.

Exit codes: 0 success, 1 usage error, 2 input parse error, 3 mathematical
precondition violated, 4 internal verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import golden
from . import pinv as _pinv
from . import drazin as _drazin
from . import solvers as _solvers
from . import verify as _verify
from .drazin import DrazinResult, GroupInverseError
from .matrices import Matrix, column_vector, conjugate_transpose, multiply, rank, row_vector
from .matrix_io import (
    MatrixFormatError,
    OutputFormat,
    _json_value,
    format_output,
    parse_matrix_file,
)
from .minors import char_poly_coeffs
from .scalars import Scalar, ScalarParseError, parse_scalar

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_VERIFY = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through our own codes.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="adjinv", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    sub.required = True

    def add(name: str, needs_matrix: bool = True, rhs: bool = False, method: bool = False):
        p = sub.add_parser(name)
        if needs_matrix:
            p.add_argument("matrix", help="matrix file: 'm n' header then m rows of n tokens")
        if rhs:
            p.add_argument("--rhs", help="right-side vector as whitespace-separated tokens")
            p.add_argument("--rhs-file", help="right-side vector as an n x 1 or 1 x n matrix file")
        if method:
            p.add_argument("--method", choices=["eq1", "eq2", "auto"], default="auto")
        p.add_argument("--decimal", type=int, metavar="N", help="display N fixed decimals instead of rationals")
        p.add_argument("--json", action="store_true", help="emit the JSON layout (exact strings)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect (every path runs in one thread)")
        return p

    add("pinv", method=True)
    add("drazin")
    add("group-inverse")
    add("proj-p")
    add("proj-q")
    add("drazin-a")
    add("rank")
    add("index")
    add("charpoly")
    add("solve-lsq", rhs=True)
    add("solve-row", rhs=True)
    add("solve-drazin", rhs=True)
    add("verify", rhs=True)
    add("paper-examples", needs_matrix=False)
    return parser


def _parse_rhs_tokens(text: str) -> list[Scalar]:
    values = []
    for token in text.split():
        try:
            values.append(parse_scalar(token))
        except ScalarParseError as exc:
            raise MatrixFormatError(f"bad right-side token {token!r}: {exc}", 1) from None
    if not values:
        raise MatrixFormatError("right-side vector is empty", 1)
    return values


def _load_rhs(args, length: int, orientation: str) -> Matrix:
    inline = getattr(args, "rhs", None)
    from_file = getattr(args, "rhs_file", None)
    if inline is not None and from_file is not None:
        raise _UsageError("give either --rhs or --rhs-file, not both")
    if inline is None and from_file is None:
        raise _UsageError("this subcommand needs --rhs or --rhs-file")
    if inline is not None:
        values = _parse_rhs_tokens(inline)
    else:
        loaded = parse_matrix_file(from_file)
        if loaded.cols == 1:
            values = list(loaded.column(0))
        elif loaded.rows == 1:
            values = list(loaded.row(0))
        else:
            raise MatrixFormatError(
                f"right-side file must be a vector, got {loaded.rows} x {loaded.cols}", 1
            )
    if len(values) != length:
        raise ValueError(f"right side has {len(values)} entries, expected {length}")
    return row_vector(values) if orientation == "row" else column_vector(values)


def _emit(args, value, extra: dict | None = None) -> None:
    fmt = OutputFormat(decimal_digits=args.decimal, json_layout=args.json)
    if args.json:
        print(json.dumps({**_json_value(value), **(extra or {})}))
    else:
        print(format_output(value, fmt))


def _drazin_method_tag(res: DrazinResult) -> str:
    if res.index == 0:
        return "classical_inverse"
    if res.rank_core == 0:
        return "zero"
    return "eq11"


def _cmd_pinv(args) -> int:
    a = parse_matrix_file(args.matrix)
    res = _pinv.mp_inverse(a, method=args.method)
    _emit(args, res.pseudo_inverse,
          {"denominator": str(res.denominator), "method": res.representation_used})
    return EXIT_OK


def _cmd_drazin(args) -> int:
    a = parse_matrix_file(args.matrix)
    res = _drazin.drazin_inverse(a)
    _emit(args, res.drazin_inverse,
          {"denominator": str(res.denominator), "method": _drazin_method_tag(res)})
    return EXIT_OK


def _cmd_group_inverse(args) -> int:
    a = parse_matrix_file(args.matrix)
    res = _drazin.group_inverse(a)
    _emit(args, res.drazin_inverse,
          {"denominator": str(res.denominator), "method": _drazin_method_tag(res)})
    return EXIT_OK


def _cmd_proj_p(args) -> int:
    a = parse_matrix_file(args.matrix)
    _emit(args, _pinv.projector_p(a))
    return EXIT_OK


def _cmd_proj_q(args) -> int:
    a = parse_matrix_file(args.matrix)
    _emit(args, _pinv.projector_q(a))
    return EXIT_OK


def _cmd_drazin_a(args) -> int:
    a = parse_matrix_file(args.matrix)
    _emit(args, _drazin.drazin_times_a(a))
    return EXIT_OK


def _cmd_rank(args) -> int:
    _emit(args, rank(parse_matrix_file(args.matrix)))
    return EXIT_OK


def _cmd_index(args) -> int:
    _emit(args, _drazin.index_of(parse_matrix_file(args.matrix)))
    return EXIT_OK


def _cmd_charpoly(args) -> int:
    _emit(args, char_poly_coeffs(parse_matrix_file(args.matrix)))
    return EXIT_OK


def _cmd_solve_lsq(args) -> int:
    a = parse_matrix_file(args.matrix)
    y = _load_rhs(args, a.rows, "column")
    rep = _solvers.lsq_solve(a, y)
    _emit(args, rep.solution, {"denominator": str(rep.denominator), "method": rep.method})
    return EXIT_OK


def _cmd_solve_row(args) -> int:
    a = parse_matrix_file(args.matrix)
    y = _load_rhs(args, a.cols, "row")
    rep = _solvers.lsq_solve_row_system(y, a)
    _emit(args, rep.solution, {"denominator": str(rep.denominator), "method": rep.method})
    return EXIT_OK


def _cmd_solve_drazin(args) -> int:
    a = parse_matrix_file(args.matrix)
    y = _load_rhs(args, a.rows, "column")
    rep = _solvers.drazin_solve(a, y)
    _emit(args, rep.solution, {"denominator": str(rep.denominator), "method": rep.method})
    return EXIT_OK


def _cmd_verify(args) -> int:
    a = parse_matrix_file(args.matrix)
    checks: list[tuple[str, bool]] = []
    x = _pinv.mp_inverse(a).pseudo_inverse
    checks.extend(
        (f"penrose:{name}", ok) for name, ok in _verify.check_penrose(a, x).checks
    )
    if a.is_square:
        # One index search serves the Drazin check and the dsolve checks.
        powers = _drazin._index_powers(a)
        k, ak, b, _ = powers
        xd = _drazin._drazin(*powers).drazin_inverse
        checks.extend(
            (f"drazin:{name}", ok) for name, ok in _verify.check_drazin(a, xd, k).checks
        )
    has_rhs = getattr(args, "rhs", None) is not None or getattr(args, "rhs_file", None) is not None
    if has_rhs:
        y = _load_rhs(args, a.rows, "column")
        sol = _solvers.lsq_solve(a, y).solution
        astar = conjugate_transpose(a)
        checks.append(
            ("lsq:A*(Ax-y)=0", multiply(astar, multiply(a, sol) - y).is_zero)
        )
        checks.append(("lsq:x in R(A*)", _verify.range_membership(astar, sol)))
        if a.is_square:
            dsol = _solvers._drazin_solution(powers, y).solution
            checks.append(("dsolve:A^(k+1)x=A^k y", multiply(b, dsol) == multiply(ak, y)))
            checks.append(("dsolve:x in R(A^k)", _verify.range_membership(ak, dsol)))
    if args.json:
        print(json.dumps({"checks": [{"name": n, "passed": ok} for n, ok in checks]}))
    else:
        for name, ok in checks:
            print(f"{name}: {'pass' if ok else 'FAIL'}")
    failed = [name for name, ok in checks if not ok]
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_paper_examples(args) -> int:
    results = golden.run_all()
    for label, ok in results:
        print(f"{label}: {'pass' if ok else 'FAIL'}")
    failed = [label for label, ok in results if not ok]
    if failed:
        print(f"{len(failed)} golden value(s) did not match", file=sys.stderr)
        return EXIT_VERIFY
    print(f"all {len(results)} golden values match")
    return EXIT_OK


_HANDLERS = {
    "pinv": _cmd_pinv,
    "drazin": _cmd_drazin,
    "group-inverse": _cmd_group_inverse,
    "proj-p": _cmd_proj_p,
    "proj-q": _cmd_proj_q,
    "drazin-a": _cmd_drazin_a,
    "rank": _cmd_rank,
    "index": _cmd_index,
    "charpoly": _cmd_charpoly,
    "solve-lsq": _cmd_solve_lsq,
    "solve-row": _cmd_solve_row,
    "solve-drazin": _cmd_solve_drazin,
    "verify": _cmd_verify,
    "paper-examples": _cmd_paper_examples,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.json and args.decimal is not None:
            raise _UsageError("--json emits exact strings; it cannot be combined with --decimal")
        if args.decimal is not None and args.decimal < 0:
            raise _UsageError("--decimal needs a nonnegative digit count")
        if args.threads < 1:
            raise _UsageError("--threads needs a positive count")
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(parser.format_usage(), end="", file=sys.stderr)
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MatrixFormatError, ScalarParseError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (GroupInverseError, _pinv.ZeroMatrixError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ArithmeticError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
