"""Matrix file parsing and exact or decimal output formatting.

File format: the first data line holds ``m n``; the next m data lines hold n
whitespace-separated scalar tokens.  A line ends at CR LF, CR or LF, in
matrix text and in a right-side text alike; every other whitespace
character separates tokens.  ``#`` starts a comment to end of line and
blank lines are ignored.  One leading UTF-8 byte-order mark is skipped,
whether the text comes from a path, a stream or a string.  Decimal tokens
are exact base-10 rationals.  Rational-mode output is itself a valid matrix
file, so formatting and parsing round-trip exactly.

The reader builds no Scalar: one row reader, shared by matrix files and
right-side vectors, reads each token's numerators and denominators as
written with the one token grammar (:func:`adjinv.scalars.token_parts`,
what the one entry rule :func:`adjinv.scalars.entry_parts` gives a token),
and the text's entries take the one scaling every entry takes:
:func:`adjinv.scalars._integerize` to the lcm of all their denominators,
then :func:`adjinv.matrices.from_pairs` to lowest terms, so reading a
matrix runs no kernel module.  A bad token is reported at the line and
column of its first offending character.

Exact values of any length are read and printed in full: every integer goes
to and from decimal text through :func:`adjinv.scalars.int_text` and
:func:`adjinv.scalars.int_of`, which pass CPython's int<->str digit cap
without changing it.

``json`` is imported on the first JSON output, not with this module, so a
process that prints no JSON never loads it.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from typing import NamedTuple

from .matrices import Matrix, from_pairs
from .scalars import Scalar, ScalarParseError, _integerize, complex_text, int_of, int_text, token_parts

Parts = tuple[int, int, int, int]  # a token's numerators and denominators, as token_parts gives them


class MatrixFormatError(ValueError):
    """A malformed matrix file; carries 1-based ``line`` and ``column``."""

    def __init__(self, message: str, line: int, column: int = 1) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class OutputFormat(NamedTuple):
    """Display settings: exact rationals by default, decimal opt-in.

    Decimal mode is display-only; values remain exact internally.
    """

    decimal_digits: int | None = None
    json_layout: bool = False


_WORD = re.compile(r"\S+")
# The one line rule (see the module docstring): the other characters that
# str.splitlines breaks at, \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029, only
# separate tokens.
_LINE_BREAK = re.compile(r"\r\n|\r|\n")


def _data_lines(text: str):
    # The lines _LINE_BREAK.split(text) gives, split about four times faster.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            yield lineno, body


def parse_matrix_text(text: str) -> Matrix:
    """Parse matrix-file content from a string, skipping one leading byte-order mark."""
    # Some editors put a byte-order mark (U+FEFF) before UTF-8 text.
    lines = _data_lines(text.removeprefix("\ufeff"))
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise MatrixFormatError("empty input: expected a dimensions header", 1) from None
    fields = header.split()
    # ASCII digits only: int() would also take "1_0", "+2" or other scripts' digits.
    if len(fields) != 2 or not all(f.isascii() and f.isdigit() for f in fields):
        raise MatrixFormatError(f"header must be two integers 'm n', got {header.strip()!r}", lineno)
    m, n = int_of(fields[0]), int_of(fields[1])
    if m < 1 or n < 1:
        raise MatrixFormatError(f"dimensions must be positive, got {int_text(m)} x {int_text(n)}", lineno)
    rows: list[list[Parts]] = []
    last_line = lineno
    for lineno, body in lines:
        last_line = lineno
        if len(rows) == m:
            raise MatrixFormatError(f"extra data beyond the declared {int_text(m)} rows", lineno)
        tokens = body.split()
        if len(tokens) != n:
            raise MatrixFormatError(
                f"expected {int_text(n)} entries in this row, got {len(tokens)}", lineno
            )
        rows.append(_read_row(tokens, body, lineno, "scalar"))
    if len(rows) != m:
        raise MatrixFormatError(f"expected {int_text(m)} data rows, found {len(rows)}", last_line + 1)
    return from_pairs(*_integerize(rows))


def parse_vector_text(text: str) -> Matrix:
    """Whitespace-separated scalar tokens, such as a right-side vector, as a one-row Matrix."""
    tokens = text.split()
    if not tokens:
        raise MatrixFormatError("right-side vector is empty", 1)
    return from_pairs(*_integerize([_read_row(tokens, text, 1, "right-side")]))


def _read_row(tokens: list[str], body: str, lineno: int, what: str) -> list[Parts]:
    """The :func:`adjinv.scalars.token_parts` of one row's tokens, their parts as written.

    A bad token is a MatrixFormatError at the line and column of its first
    offending character; ``body`` starts on line ``lineno`` and may span
    lines (a ``--rhs`` text does).
    """
    row = []
    try:
        for token in tokens:
            row.append(token_parts(token))
    except ScalarParseError as exc:
        match = list(_WORD.finditer(body))[len(row)]
        at = match.start() + exc.offset
        breaks = [b.end() for b in _LINE_BREAK.finditer(body, 0, at)]
        raise MatrixFormatError(f"bad {what} token {match.group()!r}: {exc}", lineno + len(breaks),
                                at - (breaks[-1] if breaks else 0) + 1) from None
    return row


def parse_matrix_file(source) -> Matrix:
    """Parse a matrix from a path or a readable text stream."""
    if hasattr(source, "read"):
        return parse_matrix_text(source.read())
    with open(os.fspath(source), encoding="utf-8") as handle:
        return parse_matrix_text(handle.read())


# -- formatting -----------------------------------------------------------------


def _decimal_fraction(q: Fraction, digits: int) -> str:
    scaled = round(q * 10**digits)  # round half to even
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**digits)
    if digits == 0:
        return f"{sign}{int_text(whole)}"
    return f"{sign}{int_text(whole)}.{int_text(frac).zfill(digits)}"


def format_scalar(s: Scalar, decimal_digits: int | None = None) -> str:
    """One scalar token: reduced rational by default, fixed decimals on request."""
    if decimal_digits is None:
        return str(s)
    if not isinstance(decimal_digits, int) or decimal_digits < 0:
        raise ValueError(f"decimal_digits must be None or an int >= 0, got {decimal_digits!r}")
    if not s:
        return "0"
    return complex_text(s.re, s.im, lambda q: _decimal_fraction(q, decimal_digits))


def format_matrix(a: Matrix, decimal_digits: int | None = None) -> str:
    """Matrix-file text: the 'm n' header plus one line of tokens per row."""
    rows = (" ".join(tokens) for tokens in matrix_tokens(a, decimal_digits))
    return "\n".join([f"{a.rows} {a.cols}", *rows])


def matrix_tokens(a: Matrix, decimal_digits: int | None = None) -> list[list[str]]:
    return [
        [format_scalar(e, decimal_digits) for e in a.row(i)] for i in range(a.rows)
    ]


def format_output(value, fmt: OutputFormat = OutputFormat()) -> str:
    """Render a Matrix, Scalar, int, or sequence of Scalars under ``fmt``."""
    if fmt.json_layout:
        return _json_text(_json_value(value))
    if isinstance(value, Matrix):
        return format_matrix(value, fmt.decimal_digits)
    if isinstance(value, Scalar):
        return format_scalar(value, fmt.decimal_digits)
    if isinstance(value, int):
        return int_text(value)
    return " ".join(format_scalar(s, fmt.decimal_digits) for s in value)


def _json_text(value) -> str:
    """``value`` as one line of JSON text."""
    import json

    return json.dumps(value)


def _json_value(value):
    if isinstance(value, Matrix):
        return {"rows": value.rows, "cols": value.cols, "entries": matrix_tokens(value)}
    if isinstance(value, Scalar):
        return {"value": str(value)}
    if isinstance(value, int):
        return {"value": int_text(value)}
    return {"values": [str(s) for s in value]}
