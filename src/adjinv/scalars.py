"""Exact Gaussian-rational scalar arithmetic.

Every single value in this package is a :class:`Scalar`: a complex number
whose real and imaginary parts are arbitrary-precision rationals.  A matrix
keeps its entries as integer pairs over one scale and hands them out as
Scalars when they are read.  All operations are exact, and a real Scalar
equals, and hashes like, the int or Fraction of the same value.  One rule,
the ``_scalar_operand`` decorator, gives every binary operator and ``==``
its operand: an int, Fraction or Scalar becomes a Scalar, and anything else
gets ``NotImplemented``, so Python defers to the other operand (a Scalar
times a Matrix, say) or raises ``TypeError``.  Floats are rejected everywhere
so binary rounding can never sneak in; decimal literals are parsed as exact
base-10 rationals.
One compiled grammar reads a token: :func:`token_parts` gives its
numerators and denominators as written, which :func:`parse_scalar` makes a
Scalar.  The same match names the first offending character of a bad token.
:func:`entry_parts` is the one rule by which a value enters a matrix: a
token's parts as written, a Scalar's, or an int's or Fraction's, and the
Scalar constructor's TypeError for anything else.
:func:`_integerize`, beside it, is the one scaling step: it scales rows of
those parts to the lcm of their denominators, a matrix's pairs over one
scale.  It lives here, not in :mod:`adjinv.elimination`, so that reading a
matrix runs no kernel module; operations run it as
:func:`adjinv.elimination.integerize`, the name the benchmark traces.
Integers of any length go to and from decimal text through :func:`int_text`
and :func:`int_of`, which never change the interpreter's int<->str digit cap.
:func:`complex_text` is the one spelling of a complex value from its parts,
shared by ``str(Scalar)`` and the decimal output of :mod:`adjinv.matrix_io`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import wraps
from itertools import chain
from math import lcm
from operator import itemgetter
from typing import Callable


class ScalarParseError(ValueError):
    """A malformed scalar token.  ``offset`` is the 0-based byte position."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError("float values are not exact; use int, Fraction, or a token string")
    raise TypeError(f"cannot build an exact rational from {type(value).__name__}")


def _scalar_operand(method):
    """Give ``method(self, o)`` its operand as a Scalar.

    An int, Fraction or Scalar operand is coerced once; any other operand
    gets ``NotImplemented``, so Python tries the other operand's method and
    otherwise raises ``TypeError`` (or, for ``==``, compares identity).
    """

    @wraps(method)
    def coerced(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return method(self, o)

    return coerced


class Scalar:
    """Exact complex rational ``re + im*i``.

    Both parts are reduced :class:`fractions.Fraction` values with positive
    denominators, so structural equality coincides with field equality.
    Instances are treated as immutable; no operation mutates its inputs.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else _to_fraction(re)
        self.im = im if type(im) is Fraction else _to_fraction(im)

    # -- arithmetic ---------------------------------------------------------

    @_scalar_operand
    def __add__(self, o):
        return Scalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    @_scalar_operand
    def __sub__(self, o):
        return Scalar(self.re - o.re, self.im - o.im)

    @_scalar_operand
    def __rsub__(self, o):
        return Scalar(o.re - self.re, o.im - self.im)

    @_scalar_operand
    def __mul__(self, o):
        a, b, c, d = self.re, self.im, o.re, o.im
        if not b and not d:
            return Scalar(a * c)
        return Scalar(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    @_scalar_operand
    def __truediv__(self, o):
        c, d = o.re, o.im
        if not c and not d:
            raise ZeroDivisionError("scalar division by zero")
        if not d:
            return Scalar(self.re / c, self.im / c)
        n2 = c * c + d * d
        return Scalar((self.re * c + self.im * d) / n2, (self.im * c - self.re * d) / n2)

    @_scalar_operand
    def __rtruediv__(self, o):
        return o / self

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus ``re*re + im*im`` as an exact rational."""
        return self.re * self.re + self.im * self.im

    # -- predicates and protocol methods -------------------------------------

    @property
    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    @_scalar_operand
    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # Equal values hash equal, and a real Scalar equals its int or Fraction.
        return hash(self.re) if not self.im else hash((self.re, self.im))

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        # Matches the token grammar, so str() output reparses exactly.
        return complex_text(self.re, self.im, _fraction_token)


def _coerce(value):
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    return None


def complex_text(re: Fraction, im: Fraction, part: Callable[[Fraction], str]) -> str:
    """re + im i as "re", "imi", "re+imi" or "re-imi", each part spelled by ``part``.

    A part is left out only when it is exactly zero; after a nonzero re,
    ``part`` gets the magnitude of im.
    """
    if not im:
        return part(re)
    if not re:
        return part(im) + "i"
    return f"{part(re)}{'+' if im > 0 else '-'}{part(abs(im))}i"


def _fraction_token(q: Fraction) -> str:
    if q.denominator == 1:
        return int_text(q.numerator)
    return f"{int_text(q.numerator)}/{int_text(q.denominator)}"


# CPython 3.11 and 3.10.7+ refuse int<->str conversions past a process-wide
# digit cap (4300 by default).  When they do, these go through Decimal, which
# converts exactly and has no such cap; it is imported there, on that path only.


def int_text(n: int) -> str:
    """Decimal text of the int ``n``, however many digits it has."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal
        return str(Decimal(n))


def int_of(digits: str) -> int:
    """The int that a run of ASCII digits ``0-9``, with an optional sign, spells, however long."""
    try:
        return int(digits)
    except ValueError:
        from decimal import Decimal
        return int(Decimal(digits))


ZERO = Scalar(0)
ONE = Scalar(1)


# -- token parsing ------------------------------------------------------------
#
# rational := ['+'|'-'] digits ['/' digits] | ['+'|'-'] digits '.' digits
# complex  := rational | rational ('+'|'-') rational 'i' | rational 'i'
#
# Digits are ASCII 0-9, a denominator is never zero, there is no whitespace
# inside a token, and scientific notation is rejected.  _TOKEN is this
# grammar with every digit run allowed to be empty, so it matches a prefix of
# any text: token_parts reads a good token from its groups and finds where a
# bad one breaks from the first empty run, zero denominator or unmatched
# character.  A rational's groups are its signed digits, its denominator and
# its decimal digits; the imaginary part's sign is the separator's times its
# own.

_RATIONAL = r"([+-]?[0-9]*)(?:/([0-9]*)|\.([0-9]*))?"
_TOKEN = re.compile(rf"{_RATIONAL}(?:([+-]){_RATIONAL})?(i?)")


def token_parts(text: str) -> tuple[int, int, int, int]:
    """One token as (real numerator, real denominator, imaginary numerator, imaginary denominator).

    The parts are as written, not reduced, and each denominator is positive:
    ``"2/4"`` gives (2, 4, 0, 1), and a decimal is its digits over a power of
    ten, so ``"1.50"`` gives (150, 100, 0, 1).  The match that reads the
    parts also finds a bad token's first offending character: raises
    :class:`ScalarParseError` with its offset.
    """
    match = _TOKEN.match(text)
    digits, den, frac, sep, im_digits, im_den, im_frac, i = match.groups()
    re_num, re_den = _rational_parts(match, 1, digits, den, frac)
    end = match.end()
    if sep is not None:
        im_num, im_den = _rational_parts(match, 5, im_digits, im_den, im_frac)
        if not i:
            raise ScalarParseError("expected 'i' after imaginary part", end)
    if end != len(text):
        raise ScalarParseError("trailing characters after 'i'" if i else f"unexpected character {text[end]!r}", end)
    if not i:
        return re_num, re_den, 0, 1
    if sep is None:
        return 0, 1, re_num, re_den
    return re_num, re_den, (-im_num if sep == "-" else im_num), im_den


def _rational_parts(match: re.Match, g: int, digits: str, den: str | None, frac: str | None) -> tuple[int, int]:
    """The rational in groups g, g+1 and g+2 of ``match``; raises at its first offending character."""
    if not digits.lstrip("+-"):
        raise ScalarParseError("expected a digit", match.end(g))
    if frac is not None:
        if not frac:
            raise ScalarParseError("expected a digit", match.start(g + 2))
        return int_of(digits + frac), 10 ** len(frac)
    if den is None:
        return int_of(digits), 1
    if not den.strip("0"):
        raise ScalarParseError("zero denominator" if den else "expected a digit", match.start(g + 1))
    return int_of(digits), int_of(den)


def parse_scalar(text: str) -> Scalar:
    """Parse one scalar token exactly: the Scalar of its :func:`token_parts`.

    Decimal literals become base-10 rationals with no float intermediary,
    so ``"1.5"`` is exactly ``3/2``.  Raises :class:`ScalarParseError` with
    the byte offset of the first offending character.
    """
    re_num, re_den, im_num, im_den = token_parts(text)
    return Scalar(Fraction(re_num, re_den), Fraction(im_num, im_den))


def entry_parts(value) -> tuple[int, int, int, int]:
    """One matrix entry as (real numerator, real denominator, imaginary numerator, imaginary denominator).

    The one entry rule: a token string gives its :func:`token_parts`, as
    written; a Scalar its reduced parts; anything else is made a rational by
    the Scalar constructor's own rule, so an int or a Fraction is a real
    entry, and a float or any other type raises the constructor's TypeError.
    """
    if isinstance(value, str):
        return token_parts(value)
    if isinstance(value, Scalar):
        re, im = value.re, value.im
        return re.numerator, re.denominator, im.numerator, im.denominator
    q = _to_fraction(value)
    return q.numerator, q.denominator, 0, 1


def _integerize(rows) -> tuple[list[list[tuple[int, int]]], int]:
    entries = list(chain.from_iterable(rows))
    denominators = {*map(itemgetter(1), entries), *map(itemgetter(3), entries)}
    scale = lcm(*denominators)
    # scale is a multiple of every denominator, so each quotient is an integer; one division per denominator.
    factor = {q: scale // q for q in denominators}
    return [[(a * factor[b], c * factor[d]) for a, b, c, d in row] for row in rows], scale
