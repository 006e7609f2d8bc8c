from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adjinv import Scalar, ScalarParseError, parse_scalar

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
        ("2+3", 3),  # missing trailing i
        ("2+3i4", 4),
        ("--2", 1),
        ("2i3", 2),
        ("\u00b2", 0),  # superscript two: str.isdigit() is true, int() fails
        ("1/\u00b2", 2),
        ("\u0663", 0),  # Arabic-Indic three: int() would read it as 3
    ],
)
def test_parse_errors_carry_offsets(token, offset):
    with pytest.raises(ScalarParseError) as err:
        parse_scalar(token)
    assert err.value.offset == offset


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
