"""Command-line front end.

Subcommands cover every library operation: generalized inverses, projectors,
rank and index queries, characteristic coefficients, the three Cramer-style
solvers, a self-verifying mode, and the bundled worked-example check.  One
table, ``_COMMANDS``, lists them: each entry names the handler and the
options of one subcommand, and the parser, the dispatch and the output all
come from it.  Output defaults to exact rationals in matrix-file format (so
it reparses losslessly); ``--decimal N`` switches the display to fixed
decimals (at most 10000) and ``--json`` emits a machine-readable layout with
exact string entries.  Every value is read and printed through
:mod:`adjinv.matrix_io`, so exact values of any length come through in full.

Exit codes: 0 success, 1 usage error, 2 input error (an unreadable or
malformed input), 3 mathematical precondition violated, 4 internal
verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, NamedTuple

from . import golden
from . import pinv as _pinv
from . import drazin as _drazin
from . import solvers as _solvers
from . import verify as _verify
from .drazin import GroupInverseError
from .matrices import Matrix, column_vector, conjugate_transpose, multiply, rank, row_vector
from .matrix_io import (
    MatrixFormatError,
    OutputFormat,
    _json_value,
    format_output,
    format_scalar,
    parse_matrix_file,
    parse_vector_text,
)
from .minors import char_poly_coeffs
from .scalars import ScalarParseError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_VERIFY = 4

# The --decimal display cost grows quadratically in N; at this cap it stays
# under a second for small matrices.
MAX_DECIMAL = 10_000


class _UsageError(Exception):
    pass


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through our own codes.
    def error(self, message):
        raise _UsageError(message)


def _has_rhs(args) -> bool:
    return args.rhs is not None or args.rhs_file is not None


def _read_matrix(path: str) -> Matrix:
    """The matrix in the file at ``path``; a file that cannot be read is an input error."""
    try:
        return parse_matrix_file(path)
    except OSError as exc:
        raise _InputError(exc) from None
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path!r} is not UTF-8 text: {exc}") from None


def _load_rhs(args, a: Matrix, orientation: str) -> Matrix:
    """The right side of A x = y ("column", length m) or x A = y ("row", length n)."""
    if args.rhs is not None and args.rhs_file is not None:
        raise _UsageError("give either --rhs or --rhs-file, not both")
    if not _has_rhs(args):
        raise _UsageError("this subcommand needs --rhs or --rhs-file")
    if args.rhs is not None:
        values = parse_vector_text(args.rhs)
    else:
        loaded = _read_matrix(args.rhs_file)
        if loaded.cols == 1:
            values = list(loaded.column(0))
        elif loaded.rows == 1:
            values = list(loaded.row(0))
        else:
            raise MatrixFormatError(
                f"right-side file must be a vector, got {loaded.rows} x {loaded.cols}", 1
            )
    length = a.cols if orientation == "row" else a.rows
    if len(values) != length:
        raise ValueError(f"right side has {len(values)} entries, expected {length}")
    return row_vector(values) if orientation == "row" else column_vector(values)


def _ledger(res) -> tuple:
    """A pinv, Drazin or solver result as (value, JSON extras)."""
    if isinstance(res, _pinv.PinvResult):
        value, method = res.pseudo_inverse, res.representation_used
    elif isinstance(res, _solvers.SolveReport):
        value, method = res.solution, res.method
    else:
        value = res.drazin_inverse
        method = "classical_inverse" if res.index == 0 else "zero" if res.rank_core == 0 else "eq11"
    return value, {"denominator": format_scalar(res.denominator), "method": method}


def _cmd_verify(args) -> int:
    a = _read_matrix(args.matrix)
    checks: list[tuple[str, bool]] = []
    x = _pinv.mp_inverse(a).pseudo_inverse
    checks.extend(
        (f"penrose:{name}", ok) for name, ok in _verify.check_penrose(a, x).checks
    )
    if a.is_square:
        # One index search serves the Drazin check and the dsolve checks.
        powers = _drazin._index_powers(a)
        k, ak, b = powers.index, powers.ak, powers.b
        xd = _drazin._drazin(powers).drazin_inverse
        checks.extend(
            (f"drazin:{name}", ok) for name, ok in _verify.check_drazin(a, xd, k).checks
        )
    if _has_rhs(args):
        y = _load_rhs(args, a, "column")
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


class _Command(NamedTuple):
    # run(args, a, y) returns (value, JSON extras) for main to print; a report's
    # run(args) prints its own output and returns the exit code.
    run: Callable
    rhs: str | None = None  # right-side orientation: None, "column" or "row"
    method: bool = False  # takes --method eq1|eq2|auto
    matrix: bool = True  # takes the matrix-file argument
    report: bool = False


# Library functions are looked up through module attributes at call time, so
# that a patched or traced function is the one that runs.
_COMMANDS = {
    "pinv": _Command(lambda args, a, y: _ledger(_pinv.mp_inverse(a, method=args.method)),
                     method=True),
    "drazin": _Command(lambda args, a, y: _ledger(_drazin.drazin_inverse(a))),
    "group-inverse": _Command(lambda args, a, y: _ledger(_drazin.group_inverse(a))),
    "proj-p": _Command(lambda args, a, y: (_pinv.projector_p(a), {})),
    "proj-q": _Command(lambda args, a, y: (_pinv.projector_q(a), {})),
    "drazin-a": _Command(lambda args, a, y: (_drazin.drazin_times_a(a), {})),
    "rank": _Command(lambda args, a, y: (rank(a), {})),
    "index": _Command(lambda args, a, y: (_drazin.index_of(a), {})),
    "charpoly": _Command(lambda args, a, y: (char_poly_coeffs(a), {})),
    "solve-lsq": _Command(lambda args, a, y: _ledger(_solvers.lsq_solve(a, y)),
                          rhs="column"),
    "solve-row": _Command(lambda args, a, y: _ledger(_solvers.lsq_solve_row_system(y, a)),
                          rhs="row"),
    "solve-drazin": _Command(lambda args, a, y: _ledger(_solvers.drazin_solve(a, y)),
                             rhs="column"),
    "verify": _Command(_cmd_verify, rhs="column", report=True),
    "paper-examples": _Command(_cmd_paper_examples, matrix=False, report=True),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="adjinv", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    sub.required = True
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name)
        if command.matrix:
            p.add_argument("matrix", help="matrix file: 'm n' header then m rows of n tokens")
        if command.rhs:
            p.add_argument("--rhs", help="right-side vector as whitespace-separated tokens")
            p.add_argument("--rhs-file", help="right-side vector as an n x 1 or 1 x n matrix file")
        if command.method:
            p.add_argument("--method", choices=["eq1", "eq2", "auto"], default="auto")
        p.add_argument("--decimal", type=int, metavar="N", help="display N fixed decimals instead of rationals")
        p.add_argument("--json", action="store_true", help="emit the JSON layout (exact strings)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect (every path runs in one thread)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.json and args.decimal is not None:
            raise _UsageError("--json emits exact strings; it cannot be combined with --decimal")
        if args.decimal is not None and args.decimal < 0:
            raise _UsageError("--decimal needs a nonnegative digit count")
        if args.decimal is not None and args.decimal > MAX_DECIMAL:
            raise _UsageError(f"--decimal takes at most {MAX_DECIMAL} digits")
        if args.threads < 1:
            raise _UsageError("--threads needs a positive count")
        command = _COMMANDS[args.command]
        if command.report:
            return command.run(args)
        a = _read_matrix(args.matrix)
        y = _load_rhs(args, a, command.rhs) if command.rhs else None
        value, extra = command.run(args, a, y)
        if args.json:
            print(json.dumps({**_json_value(value), **extra}))
        else:
            print(format_output(value, OutputFormat(decimal_digits=args.decimal)))
        return EXIT_OK
    except _UsageError as exc:
        print(parser.format_usage(), end="", file=sys.stderr)
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MatrixFormatError, ScalarParseError, _InputError) as exc:
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
