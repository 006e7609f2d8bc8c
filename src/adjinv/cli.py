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
verification failure, 141 output cut short because the reader closed
standard output (``adjinv pinv big.mat | head``); 141 is 128 + SIGPIPE,
the status a shell reports for a process that SIGPIPE ended, and no
traceback is printed.

:func:`main` with ``argv`` None is the process entry point (``adjinv`` and
``python -m adjinv``): it reads ``sys.argv`` and first calls
:func:`gc.freeze`.  Given an argv list, as tests and in-process callers
give it, :func:`main` never freezes.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import Callable, NamedTuple

from . import golden
from . import pinv as _pinv
from . import drazin as _drazin
from . import solvers as _solvers
from . import verify as _verify
from .matrices import Matrix, conjugate_transpose, from_pairs, multiply, power, rank
from .matrix_io import (
    MatrixFormatError,
    OutputFormat,
    _json_text,
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
EXIT_PIPE = 141

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
        v = parse_vector_text(args.rhs)
    else:
        v = _read_matrix(args.rhs_file)
        if v.cols != 1 and v.rows != 1:
            raise MatrixFormatError(f"right-side file must be a vector, got {v.rows} x {v.cols}", 1)
    entries = v.pairs[0] if v.rows == 1 else [row[0] for row in v.pairs]
    length = a.cols if orientation == "row" else a.rows
    if len(entries) != length:
        raise ValueError(f"right side has {len(entries)} entries, expected {length}")
    return from_pairs([entries] if orientation == "row" else [[p] for p in entries], v.scale)


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
    # A malformed or wrong-length right side fails before any work is done.
    y = _load_rhs(args, a, "column") if _has_rhs(args) else None
    checks: list[tuple[str, bool]] = []
    x = _pinv.mp_inverse(a).pseudo_inverse
    checks.extend(
        (f"penrose:{name}", ok) for name, ok in _verify.check_penrose(a, x).checks
    )
    if a.is_square:
        # A^k comes from power(), not from the solver's index search, and
        # serves the Drazin checks and the dsolve checks alike.
        res = _drazin.drazin_inverse(a)
        ak = power(a, res.index)
        checks.extend(
            (f"drazin:{name}", ok)
            for name, ok in _verify._drazin_checks(a, res.drazin_inverse, ak).checks
        )
    if y is not None:
        sol = _solvers.lsq_solve(a, y).solution
        astar = conjugate_transpose(a)
        checks.append(
            ("lsq:A*(Ax-y)=0", multiply(astar, multiply(a, sol) - y).is_zero)
        )
        checks.append(("lsq:x in R(A*)", _verify.range_membership(astar, sol)))
        if a.is_square:
            dsol = _solvers.drazin_solve(a, y).solution
            checks.append(("dsolve:A^(k+1)x=A^k y",
                           multiply(ak, multiply(a, dsol)) == multiply(ak, y)))
            checks.append(("dsolve:x in R(A^k)", _verify.range_membership(ak, dsol)))
    return _print_checks(args, checks, lambda failed: f"verification failed: {', '.join(failed)}")


def _cmd_paper_examples(args) -> int:
    results = golden.run_all()
    return _print_checks(args, results, lambda failed: f"{len(failed)} golden value(s) did not match",
                         f"all {len(results)} golden values match")


def _print_checks(args, checks: list[tuple[str, bool]], failure: Callable, summary: str = "") -> int:
    """Print a report's (name, passed) checks, one "name: pass" line each or as JSON under --json.

    A failed check prints ``failure(names)`` to stderr and returns
    EXIT_VERIFY; otherwise the text report ends with ``summary``, if any.
    """
    if args.json:
        print(_json_text({"checks": [{"name": n, "passed": ok} for n, ok in checks]}))
    else:
        for name, ok in checks:
            print(f"{name}: {'pass' if ok else 'FAIL'}")
    failed = [name for name, ok in checks if not ok]
    if failed:
        print(failure(failed), file=sys.stderr)
        return EXIT_VERIFY
    if summary and not args.json:
        print(summary)
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
    """Run one command and return its exit code.

    ``argv`` None means the command line of this process (``sys.argv[1:]``),
    and then the heap is frozen first (:func:`gc.freeze`).  An argv list
    never freezes: a frozen heap could not collect the cyclic garbage the
    caller holds at that moment.
    """
    if argv is None:
        # Whatever the process has imported lives until it exits, so no
        # garbage collection needs to walk it, including the one at exit.
        gc.freeze()
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
            code = command.run(args)
        else:
            a = _read_matrix(args.matrix)
            y = _load_rhs(args, a, command.rhs) if command.rhs else None
            value, extra = command.run(args, a, y)
            if args.json:
                print(_json_text({**_json_value(value), **extra}))
            else:
                print(format_output(value, OutputFormat(decimal_digits=args.decimal)))
            code = EXIT_OK
        sys.stdout.flush()  # a closed pipe shows here, and not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout.  As the Python docs advise for SIGPIPE,
        # point stdout at os.devnull, so that the flush at exit writes what
        # is left nowhere and raises nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except _UsageError as exc:
        print(parser.format_usage(), end="", file=sys.stderr)
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MatrixFormatError, ScalarParseError, _InputError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ArithmeticError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
