import operator
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adjinv import Matrix, Scalar, ScalarParseError, parse_scalar
from adjinv.scalars import token_parts

# The documented token grammar, written strictly: every digit run nonempty
# and a denominator never zero.  token_parts must accept exactly its tokens.
_RATIONAL = r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*)|\.([0-9]+))?"
GRAMMAR = re.compile(rf"{_RATIONAL}(?:(?:([+-]){_RATIONAL})?(i))?")
tokens = st.from_regex(GRAMMAR, fullmatch=True)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
scalars = st.builds(Scalar, rationals, rationals)


def test_parse_decimal_literals_exactly():
    assert parse_scalar("1.5") == Scalar(Fraction(3, 2))
    assert parse_scalar("-10.5") == Scalar(Fraction(-21, 2))
    assert parse_scalar("170.75") == Scalar(Fraction(683, 4))


def test_parse_complex_forms():
    assert parse_scalar("2+3i") == Scalar(2, 3)
    assert parse_scalar("2-3i") == Scalar(2, -3)
    assert parse_scalar("3i") == Scalar(0, 3)
    assert parse_scalar("-1/3i") == Scalar(0, Fraction(-1, 3))
    assert parse_scalar("1.5-2/3i") == Scalar(Fraction(3, 2), Fraction(-2, 3))
    assert parse_scalar("-7/4") == Scalar(Fraction(-7, 4))
    assert parse_scalar("+2") == Scalar(2)


@pytest.mark.parametrize(
    "token, offset",
    [
        ("", 0),
        ("i", 0),
        ("2 + 3i", 1),  # no whitespace inside a token
        ("1e5", 1),  # scientific notation rejected
        ("1/", 2),
        ("1.", 2),
        (".5", 0),
        ("1/0", 2),
        ("1+2/0i", 4),  # zero denominator in the imaginary part
        ("2+3", 3),  # missing trailing i
        ("2+3i4", 4),
        ("--2", 1),
        ("2i3", 2),
        ("\u00b2", 0),  # superscript two: str.isdigit() is true, int() fails
        ("1/\u00b2", 2),
        ("\u0663", 0),  # Arabic-Indic three: int() would read it as 3
        ("+i", 1),  # a sign with no digits
        ("1+", 2),
        ("1++-2i", 3),
        ("1+-i", 3),
        ("1+2.i", 4),
        ("1+2/i", 4),
        ("1/+2", 2),
        ("1/2/3", 3),
        ("1.5.2", 3),
        ("0/00", 2),
        ("1i+2", 2),
        ("1+2i3", 4),
        ("2+3x", 3),
    ],
)
def test_parse_errors_carry_offsets(token, offset):
    with pytest.raises(ScalarParseError) as err:
        parse_scalar(token)
    assert err.value.offset == offset


def _accepts(text: str) -> bool:
    try:
        token_parts(text)
    except ScalarParseError:
        return False
    return True


@settings(max_examples=200)
@example("1+-2i")
@example("1--2i")
@example("0/00")
@example("1.5-0/010i")
@given(st.one_of(st.text("0123456789+-/.i e\u00b2", max_size=9), tokens))
def test_token_parts_accepts_exactly_the_grammar(text):
    assert (GRAMMAR.fullmatch(text) is not None) == _accepts(text)


@settings(max_examples=200)
@given(tokens, st.characters().filter(lambda c: c not in "0123456789+-/.i"))
def test_first_character_outside_the_grammar_is_named(token, char):
    with pytest.raises(ScalarParseError) as err:
        token_parts(token + char)
    message = "trailing characters after 'i'" if token.endswith("i") else f"unexpected character {char!r}"
    assert str(err.value) == f"{message} at offset {len(token)}"
    assert err.value.offset == len(token)


def test_token_parts_are_as_written():
    assert token_parts("2/4") == (2, 4, 0, 1)
    assert token_parts("-1.50") == (-150, 100, 0, 1)
    assert token_parts("007/010i") == (0, 1, 7, 10)
    assert token_parts("1+-2i") == (1, 1, -2, 1)
    assert token_parts("1--2/3i") == (1, 1, 2, 3)
    assert token_parts("-0i") == (0, 1, 0, 1)


def test_floats_rejected():
    with pytest.raises(TypeError):
        Scalar(1.5)


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    zero, one = Scalar(0), Scalar(1)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + (-a) == zero
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * one == a
    if a:
        assert a * (one / a) == one


@given(scalars)
def test_conjugation_and_modulus(a):
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).re == a.abs2()
    assert not (a * a.conjugate()).im


@given(scalars)
def test_token_round_trip(a):
    assert parse_scalar(str(a)) == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Scalar(1) / Scalar(0)


def test_mixed_int_fraction_operands():
    assert Scalar(1, 2) * 2 == Scalar(2, 4)
    assert 1 + Scalar(Fraction(1, 2)) == Scalar(Fraction(3, 2))
    assert 1 / Scalar(0, 1) == Scalar(0, -1)  # 1/i = -i


def test_equality_and_hash_with_ints_and_fractions():
    from adjinv import Matrix, det

    assert Scalar(1) == 1 and 1 == Scalar(1)
    assert Scalar(1) == Fraction(1) and Fraction(1) == Scalar(1)
    assert Scalar(Fraction(-3, 4)) == Fraction(-3, 4)
    assert det(Matrix.zeros(2, 2)) == 0
    assert Scalar(1, 1) != 1 and Scalar(2) != 1 and Scalar(1) != "1"
    assert hash(Scalar(1)) == hash(1) == hash(Fraction(1))
    assert hash(Scalar(Fraction(-3, 4))) == hash(Fraction(-3, 4))
    assert len({Scalar(2), 2, Fraction(4, 2)}) == 1


@given(scalars, rationals)
def test_equality_agrees_with_hash(a, q):
    assert (a == q) == (a.re == q and not a.im)
    if a == q:
        assert hash(a) == hash(q)


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_X = Scalar(1, 2)
_Q = Fraction(-2, 3)

# (left, operator, right, expected): a Scalar written as a token, TypeError, or
# any other value that the result must equal and share the type of.
_PROTOCOL = [
    (_X, "+", 3, "4+2i"),
    (3, "+", _X, "4+2i"),
    (_X, "-", 3, "-2+2i"),
    (3, "-", _X, "2-2i"),
    (_X, "*", 3, "3+6i"),
    (3, "*", _X, "3+6i"),
    (_X, "/", 3, "1/3+2/3i"),
    (3, "/", _X, "3/5-6/5i"),
    (_X, "+", _Q, "1/3+2i"),
    (_Q, "+", _X, "1/3+2i"),
    (_X, "-", _Q, "5/3+2i"),
    (_Q, "-", _X, "-5/3-2i"),
    (_X, "*", _Q, "-2/3-4/3i"),
    (_Q, "*", _X, "-2/3-4/3i"),
    (_X, "/", _Q, "-3/2-3i"),
    (_Q, "/", _X, "-2/15+4/15i"),
    *[(_X, op, bad, TypeError) for op in _OPS for bad in ("3", 1.5, None)],
    *[(bad, op, _X, TypeError) for op in _OPS for bad in ("3", 1.5, None)],
    (Scalar(1), "==", "x", False),
    ("x", "==", Scalar(1), False),
    (Scalar(2), "*", Matrix.identity(2), Matrix.from_rows([[2, 0], [0, 2]])),
]


@pytest.mark.parametrize(
    "left, op, right, expected",
    [pytest.param(*case, id=f"{case[0]!r}{case[1]}{case[2]!r}".replace(" ", "")) for case in _PROTOCOL],
)
def test_operator_protocol(left, op, right, expected):
    apply = operator.eq if op == "==" else _OPS[op]
    if expected is TypeError:
        with pytest.raises(TypeError):
            apply(left, right)
        return
    if isinstance(expected, str):
        expected = parse_scalar(expected)
    got = apply(left, right)
    assert type(got) is type(expected)
    assert got == expected
