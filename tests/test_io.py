import io
import json
import sys
import threading
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjinv import (
    Matrix,
    MatrixFormatError,
    OutputFormat,
    Scalar,
    format_matrix,
    format_output,
    format_scalar,
    mp_inverse,
    parse_matrix_file,
    parse_matrix_text,
    parse_scalar,
    rank,
)
from adjinv.matrix_io import matrix_tokens, parse_vector_text

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=16)
scalars = st.builds(Scalar, rationals, rationals)


def bundled(name: str):
    return resources.files("adjinv").joinpath("data").joinpath(name)


def test_bundled_example_files(example1, example2):
    with resources.as_file(bundled("example1.mat")) as path:
        loaded = parse_matrix_file(path)
    assert loaded == example1
    assert rank(loaded) == 3
    with bundled("example2.mat").open("r") as handle:
        assert parse_matrix_file(handle) == example2


def test_byte_order_mark_is_skipped(tmp_path):
    plain = bundled("example1.mat").read_bytes()
    expected = parse_matrix_text(plain.decode("utf-8"))
    path = tmp_path / "bom.mat"
    path.write_bytes(b"\xef\xbb\xbf" + plain)
    assert parse_matrix_file(path) == expected
    # The same text from a stream or a string: the mark is part of the text.
    with open(path, encoding="utf-8") as handle:
        assert parse_matrix_file(handle) == expected
    text = path.read_text(encoding="utf-8")
    assert text.startswith("\ufeff")
    assert parse_matrix_text(text) == expected
    # One mark is skipped, not two.
    with pytest.raises(MatrixFormatError, match="header must be two integers"):
        parse_matrix_text("\ufeff" + text)


def test_parse_single_entry():
    assert parse_matrix_text("1 1\n5") == Matrix(1, 1, [5])


def test_parse_comments_and_blank_lines():
    text = "# heading\n\n2 2 # dims\n1 2\n\n# middle\n3 4.5\n"
    m = parse_matrix_text(text)
    assert m == Matrix.from_rows([[1, 2], [3, Fraction(9, 2)]])


def test_ragged_row_error_line_number():
    with pytest.raises(MatrixFormatError) as err:
        parse_matrix_text("2 2\n1 2\n3")
    assert err.value.line == 3
    assert "expected 2 entries" in str(err.value)


def test_missing_rows_error():
    with pytest.raises(MatrixFormatError) as err:
        parse_matrix_text("3 2\n1 2\n3 4\n")
    assert "expected 3 data rows" in str(err.value)


def test_extra_rows_error():
    with pytest.raises(MatrixFormatError) as err:
        parse_matrix_text("1 2\n1 2\n3 4\n")
    assert err.value.line == 3


def test_bad_token_diagnostic_has_line_and_column():
    with pytest.raises(MatrixFormatError) as err:
        parse_matrix_text("2 2\n1 2\n3 4x\n")
    assert err.value.line == 3
    assert err.value.column == 4  # the 'x' inside the second token
    with pytest.raises(MatrixFormatError) as err:
        parse_matrix_text("2 2\n1 1e5\n3 4\n")
    assert err.value.line == 2


# Whitespace inside a row: every str.isspace() character that does not end a
# line for str.splitlines().
IN_ROW_SPACES = [
    ch for ch in map(chr, range(sys.maxunicode + 1))
    if ch.isspace() and len(f"a{ch}b".splitlines()) == 1
]


@pytest.mark.parametrize("ch", IN_ROW_SPACES, ids=lambda ch: f"U+{ord(ch):04X}")
def test_in_row_separators(ch):
    assert parse_matrix_text(f"1 2\n1{ch}2\n") == Matrix.from_rows([[1, 2]])
    with pytest.raises(MatrixFormatError) as err:
        parse_matrix_text(f"1 2\n1{ch}x\n")
    assert (err.value.line, err.value.column) == (2, 3)


def test_in_row_separators_cover_tab_and_unicode_spaces():
    assert {"\t", "\x1f", " ", "\xa0"} | {chr(c) for c in range(0x2000, 0x200B)} <= set(IN_ROW_SPACES)


def test_header_errors():
    for text, fragment in [
        ("", "empty input"),
        ("2\n1 2\n", "header"),
        ("a b\n", "header"),
        ("0 2\n", "positive"),
        ("1_0 1\n", "header"),  # int() accepts digit separators
    ]:
        with pytest.raises(MatrixFormatError) as err:
            parse_matrix_text(text)
        assert fragment in str(err.value)


def test_parse_from_stream(example1):
    stream = io.StringIO(format_matrix(example1))
    assert parse_matrix_file(stream) == example1


@settings(max_examples=30)
@given(
    st.integers(1, 3).flatmap(
        lambda m: st.integers(1, 3).flatmap(
            lambda n: st.lists(scalars, min_size=m * n, max_size=m * n).map(
                lambda entries: Matrix(m, n, entries)
            )
        )
    )
)
def test_round_trip_rational_output(matrix):
    assert parse_matrix_text(format_matrix(matrix)) == matrix


def test_decimal_formatting():
    assert format_scalar(Scalar(Fraction(12193, 17010)), 6) == "0.716814"
    assert format_scalar(Scalar(Fraction(3, 2))) == "3/2"
    assert format_scalar(Scalar(0), 6) == "0"
    assert format_scalar(Scalar(0)) == "0"
    assert format_scalar(Scalar(Fraction(-1, 3)), 3) == "-0.333"
    assert format_scalar(Scalar(2), 2) == "2.00"
    assert format_scalar(Scalar(Fraction(1, 2), Fraction(-1, 4)), 2) == "0.50-0.25i"


@pytest.mark.parametrize("value, digits, text", [
    (Scalar(1, Fraction(-1, 1000)), 0, "1-0i"),
    (Scalar(Fraction(-1, 1000), 1), 0, "0+1i"),
    (Scalar(0, Fraction(1, 1000)), 0, "0i"),
    (Scalar(0, Fraction(1, 1000)), 2, "0.00i"),
    (Scalar(0, -2), 2, "-2.00i"),
    (Scalar(1, Fraction(-1, 1000)), None, "1-1/1000i"),
    (Scalar(0, -2), None, "-2i"),
    (Scalar(Fraction(-1, 2), 3), None, "-1/2+3i"),
])
def test_complex_spelling_in_both_modes(value, digits, text):
    # A part is left out only when it is exactly zero, not when it rounds to zero.
    assert format_scalar(value, digits) == text
    if digits is None:
        assert str(value) == text


def test_decimal_digits_must_be_a_nonnegative_int():
    # Any other count would turn 10**digits into a float and print garbage.
    for bad in (-1, -5, 1.5, "2"):
        with pytest.raises(ValueError, match="decimal_digits"):
            format_scalar(Scalar(Fraction(12345, 7)), bad)
    with pytest.raises(ValueError, match="decimal_digits"):
        format_scalar(Scalar(0), -1)
    with pytest.raises(ValueError, match="decimal_digits"):
        format_output(Matrix.identity(2), OutputFormat(decimal_digits=-1))
    with pytest.raises(ValueError, match="decimal_digits"):
        format_matrix(Matrix.identity(2), -1)
    assert format_scalar(Scalar(Fraction(12345, 7)), 0) == "1764"
    assert format_output(Matrix.identity(2), OutputFormat(decimal_digits=0)) == "2 2\n1 0\n0 1"


def test_decimal_rounds_half_to_even():
    assert format_scalar(Scalar(Fraction(1, 8)), 2) == "0.12"  # 0.125 -> even
    assert format_scalar(Scalar(Fraction(3, 8)), 2) == "0.38"  # 0.375 -> even
    assert format_scalar(Scalar(Fraction(-1, 8)), 2) == "-0.12"


def test_format_output_modes(example2):
    plain = format_output(example2)
    assert plain.splitlines()[0] == "4 4"
    as_json = format_output(example2, OutputFormat(json_layout=True))
    assert '"rows": 4' in as_json
    assert format_output(Scalar(Fraction(5, 9))) == "5/9"
    assert format_output(7) == "7"
    assert format_output((Scalar(1), Scalar(Fraction(1, 2)))) == "1 1/2"


def test_complex_tokens_round_trip():
    m = Matrix.from_rows([["2+3i", "-1/3i"], ["1.5-2/3i", 0]])
    assert parse_matrix_text(format_matrix(m)) == m


def _digit_cap():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


def test_long_exact_values_in_library_calls():
    # Past CPython's 4300-digit int<->str cap, which no call may change.
    cap = _digit_cap()
    nines = parse_matrix_text("1 1\n" + "9" * 5001)
    assert nines == Matrix(1, 1, [10**5001 - 1])
    with pytest.raises(MatrixFormatError):
        parse_matrix_text("1 1\n" + "9" * 5001 + "/0")
    big = 10**2500
    x = mp_inverse(Matrix.from_rows([[big, 1], [1, big]])).pseudo_inverse
    text = format_matrix(x)
    assert parse_matrix_text(text) == x
    assert format_output(x) == text
    assert format_output(x, OutputFormat(json_layout=True)).count('"') > 2
    assert format_scalar(x.at(0, 0)) == text.split()[2]
    assert _digit_cap() == cap


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit cap")
def test_long_values_from_several_threads():
    # The cap is one setting for the whole interpreter: a call that changed
    # it, even briefly, could break another thread's conversion or leave the
    # cap changed for good.
    cap = sys.get_int_max_str_digits()
    big = Scalar(10**5000 + 1)
    text = "1 1\n" + "9" * 5001
    errors = []

    def work():
        try:
            for _ in range(150):
                format_scalar(big)
                parse_matrix_text(text)
        except ValueError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sys.get_int_max_str_digits() == cap


def _check_long_values():
    """Every parse and print entry point on values far past 640 and 4300 digits."""
    nines, ten = "9" * 5001, "1" + "0" * 4999 + "1"  # 10**5001 - 1 and 10**5000 + 1
    big = Scalar(10**5000 + 1)
    assert parse_scalar(nines) == Scalar(10**5001 - 1)
    assert parse_scalar(f"{nines}.{nines}") == Scalar(Fraction(10**10002 - 1, 10**5001))
    assert str(big) == ten and repr(big) == f"Scalar({ten})"
    z = Scalar(Fraction(10**5001 - 1, 7), -big.re)
    assert str(z) == f"{nines}/7-{ten}i" and parse_scalar(str(z)) == z
    assert Matrix.from_rows([[nines]]) == Matrix(1, 1, [10**5001 - 1])
    assert repr(Matrix(1, 2, [big, 1])) == f"Matrix(1x2: {ten} 1)"
    assert str(Matrix(1, 1, [big])) == ten
    assert parse_vector_text(f"{ten} 1/{nines}") == [big, Scalar(Fraction(1, 10**5001 - 1))]
    with pytest.raises(MatrixFormatError, match=f"expected {nines} data rows"):
        parse_matrix_text(f"{nines} 1\n1\n")
    with pytest.raises(MatrixFormatError, match=f"got 0 x {nines}"):
        parse_matrix_text(f"0 {nines}\n")

    a = Matrix.from_rows([[10**2500, 1], [1, 10**2500]])
    res = mp_inverse(a)
    text = format_matrix(res.pseudo_inverse)
    assert parse_matrix_text(text) == res.pseudo_inverse
    assert parse_matrix_file(io.StringIO(text)) == res.pseudo_inverse
    assert format_output(res.pseudo_inverse) == text
    assert parse_scalar(format_scalar(res.denominator)) == res.denominator
    as_json = json.loads(format_output(res.pseudo_inverse, OutputFormat(json_layout=True)))
    assert Matrix.from_rows(as_json["entries"]) == res.pseudo_inverse
    assert matrix_tokens(res.pseudo_inverse) == as_json["entries"]
    assert format_output(10**5000 + 1) == ten
    assert json.loads(format_output(10**5000 + 1, OutputFormat(json_layout=True))) == {"value": ten}
    assert json.loads(format_output(res.denominator, OutputFormat(json_layout=True))) == {
        "value": format_scalar(res.denominator)}
    assert format_output([big, Scalar(1)]) == f"{ten} 1"
    third = Scalar(Fraction(10**5000 + 1, 3))
    assert format_scalar(third, 2) == "3" * 5000 + ".67"
    assert format_scalar(Scalar(Fraction(1, 3)), 5001) == "0." + "3" * 5001
    assert format_output(Matrix(1, 1, [third * Scalar(0, 1)]), OutputFormat(decimal_digits=0)) == f"1 1\n{'3' * 4999}4i"


def test_long_values_past_the_default_cap():
    cap = _digit_cap()
    _check_long_values()
    assert _digit_cap() == cap


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit cap")
def test_long_values_under_the_lowest_cap():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        _check_long_values()
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(saved)


def test_long_values_never_change_the_cap(monkeypatch):
    def refuse(maxdigits):
        raise AssertionError("the library changed the interpreter's digit cap")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
    _check_long_values()
