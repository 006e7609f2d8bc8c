"""Exact Gaussian-rational scalar arithmetic.

Every single value in this package is a :class:`Scalar`: a complex number
whose real and imaginary parts are arbitrary-precision rationals.  A matrix
keeps its entries as integer pairs over one scale and hands them out as
Scalars when they are read.  All operations are exact, and a real Scalar
equals, and hashes like, the int or Fraction of the same value.  Floats are rejected everywhere so binary rounding can
never sneak in; decimal literals are parsed as exact base-10 rationals.
Integers of any length go to and from decimal text through :func:`int_text`
and :func:`int_of`, which never change the interpreter's int<->str digit cap.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction


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

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, o.re, o.im
        if not b and not d:
            return Scalar(a * c)
        return Scalar(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        c, d = o.re, o.im
        if not c and not d:
            raise ZeroDivisionError("scalar division by zero")
        if not d:
            return Scalar(self.re / c, self.im / c)
        n2 = c * c + d * d
        return Scalar((self.re * c + self.im * d) / n2, (self.im * c - self.re * d) / n2)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
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

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # Equal values hash equal, and a real Scalar equals its int or Fraction.
        return hash(self.re) if not self.im else hash((self.re, self.im))

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        # Matches the token grammar, so str() output reparses exactly.
        if not self.im:
            return _fraction_token(self.re)
        if not self.re:
            return _fraction_token(self.im) + "i"
        sign = "+" if self.im > 0 else "-"
        return f"{_fraction_token(self.re)}{sign}{_fraction_token(abs(self.im))}i"


def _coerce(value):
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    return None


def _fraction_token(q: Fraction) -> str:
    if q.denominator == 1:
        return int_text(q.numerator)
    return f"{int_text(q.numerator)}/{int_text(q.denominator)}"


# CPython 3.11 and 3.10.7+ refuse int<->str conversions past a process-wide
# digit cap (4300 by default).  When they do, these go through Decimal, which
# converts exactly and has no such cap.


def int_text(n: int) -> str:
    """Decimal text of the int ``n``, however many digits it has."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def int_of(digits: str) -> int:
    """The int that a run of ASCII digits ``0-9`` spells, however long."""
    try:
        return int(digits)
    except ValueError:
        return int(Decimal(digits))


ZERO = Scalar(0)
ONE = Scalar(1)


# -- token parsing ------------------------------------------------------------
#
# rational := ['+'|'-'] digits ['/' digits] | ['+'|'-'] digits '.' digits
# complex  := rational | rational ('+'|'-') rational 'i' | rational 'i'
#
# No whitespace inside a token; scientific notation is rejected.


def parse_scalar(text: str) -> Scalar:
    """Parse one scalar token exactly.

    Decimal literals become base-10 rationals with no float intermediary,
    so ``"1.5"`` is exactly ``3/2``.  Raises :class:`ScalarParseError` with
    the byte offset of the first offending character.
    """
    first, pos = _parse_rational(text, 0)
    if pos == len(text):
        return Scalar(first)
    ch = text[pos]
    if ch == "i":
        if pos + 1 != len(text):
            raise ScalarParseError("trailing characters after 'i'", pos + 1)
        return Scalar(0, first)
    if ch in "+-":
        sep = 1 if ch == "+" else -1
        second, pos = _parse_rational(text, pos + 1)
        if pos >= len(text) or text[pos] != "i":
            raise ScalarParseError("expected 'i' after imaginary part", pos)
        if pos + 1 != len(text):
            raise ScalarParseError("trailing characters after 'i'", pos + 1)
        return Scalar(first, sep * second)
    raise ScalarParseError(f"unexpected character {ch!r}", pos)


def _parse_digits(text: str, pos: int) -> tuple[str, int]:
    start = pos
    # ASCII only: str.isdigit() also accepts superscripts and other scripts' digits.
    while pos < len(text) and "0" <= text[pos] <= "9":
        pos += 1
    if pos == start:
        raise ScalarParseError("expected a digit", start)
    return text[start:pos], pos


def _parse_rational(text: str, pos: int) -> tuple[Fraction, int]:
    sign = 1
    if pos < len(text) and text[pos] in "+-":
        if text[pos] == "-":
            sign = -1
        pos += 1
    digits, pos = _parse_digits(text, pos)
    if pos < len(text) and text[pos] == "/":
        den_at = pos + 1
        den_digits, pos = _parse_digits(text, den_at)
        den = int_of(den_digits)
        if den == 0:
            raise ScalarParseError("zero denominator", den_at)
        return Fraction(sign * int_of(digits), den), pos
    if pos < len(text) and text[pos] == ".":
        frac, pos = _parse_digits(text, pos + 1)
        value = Fraction(int_of(digits + frac), 10 ** len(frac))
        return sign * value, pos
    return Fraction(sign * int_of(digits)), pos
