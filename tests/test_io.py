import io
import json
import random
import sys
import threading
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import example, given, settings
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
from adjinv.scalars import int_text

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


# Whitespace inside a row: every str.isspace() character but the line breaks \r and \n.
IN_ROW_SPACES = [ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace() and ch not in "\r\n"]


@pytest.mark.parametrize("ch", IN_ROW_SPACES, ids=lambda ch: f"U+{ord(ch):04X}")
def test_in_row_separators(ch):
    assert parse_matrix_text(f"1 2\n1{ch}2\n") == Matrix.from_rows([[1, 2]])
    with pytest.raises(MatrixFormatError) as err:
        parse_matrix_text(f"1 2\n1{ch}x\n")
    assert (err.value.line, err.value.column) == (2, 3)


def test_in_row_separators_cover_tab_and_unicode_spaces():
    assert {"\t", "\x1f", " ", "\xa0"} | {chr(c) for c in range(0x2000, 0x200B)} <= set(IN_ROW_SPACES)
    # Characters str.splitlines() also breaks at separate tokens within a line.
    assert set("\v\f\x1c\x1d\x1e\x85\u2028\u2029") <= set(IN_ROW_SPACES)


def test_lines_break_at_crlf_cr_and_lf_alone():
    # Four entries on one line are one row, not two.
    with pytest.raises(MatrixFormatError) as err:
        parse_matrix_text("2 2\n1 2\f3 4\n")
    assert str(err.value) == "line 2, column 1: expected 2 entries in this row, got 4"
    with pytest.raises(MatrixFormatError) as err:
        parse_matrix_text("2 2\n1 2\x85\n3 4x\n")
    assert (err.value.line, err.value.column) == (3, 4)
    with pytest.raises(MatrixFormatError) as err:
        parse_matrix_text("2 2\r\n1 2\r3 4x\r\n")
    assert (err.value.line, err.value.column) == (3, 4)
    assert parse_matrix_text("2 2\r\n1 2\r3 4\n") == Matrix.from_rows([[1, 2], [3, 4]])
    for text in ("1 2\r3 4x", "1 2\r\n3 4x", "1 2\n3 4x"):
        with pytest.raises(MatrixFormatError) as err:
            parse_vector_text(text)
        assert (err.value.line, err.value.column) == (2, 4)
    with pytest.raises(MatrixFormatError) as err:
        parse_vector_text("1 2\u20283 4x")
    assert (err.value.line, err.value.column) == (1, 8)


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


# Tokens written with their exact values, for the reader's property tests.
# Whole parts run past 640 digits, so these also cross the lowest int/str
# digit cap; int_text writes them under any cap.
naturals = st.one_of(st.integers(0, 10**6), st.integers(10**640, 10**700))


@st.composite
def rational_tokens(draw):
    """("[sign][zeros]digits[/q | .digits]", its Fraction)."""
    sign = draw(st.sampled_from(["", "+", "-"]))
    whole = draw(naturals)
    text, value = "0" * draw(st.integers(0, 2)) + int_text(whole), Fraction(whole)
    form = draw(st.sampled_from(["integer", "fraction", "decimal"]))
    if form == "fraction":
        # Small denominators share factors with each other and with the scale.
        q = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 10**650 + 1]))
        text, value = f"{text}/{'0' * draw(st.integers(0, 1))}{int_text(q)}", value / q
    elif form == "decimal":
        digits = draw(st.text("0123456789", min_size=1, max_size=4))  # trailing zeros too
        text, value = f"{text}.{digits}", value + Fraction(int(digits), 10 ** len(digits))
    return sign + text, -value if sign == "-" else value


@st.composite
def scalar_tokens(draw):
    """A token of every complex form, "re", "imi" and "re(+|-)imi" (so "1+-2i", "1--2i"), and its Scalar."""
    re_text, re_value = draw(rational_tokens())
    form = draw(st.sampled_from(["real", "imaginary", "complex"]))
    if form == "real":
        return re_text, Scalar(re_value)
    if form == "imaginary":
        return re_text + "i", Scalar(0, re_value)
    sep = draw(st.sampled_from("+-"))
    im_text, im_value = draw(rational_tokens())
    return f"{re_text}{sep}{im_text}i", Scalar(re_value, im_value if sep == "+" else -im_value)


zero_tokens = st.sampled_from(["0", "-0", "+00", "0/4", "-0.000", "-0i", "0+0i", "0--0/3i"]).map(
    lambda t: (t, Scalar(0)))


@st.composite
def token_matrices(draw):
    """(m, n, [(token, Scalar)] * m * n); some are all zero."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entry = zero_tokens if draw(st.booleans()) else st.one_of(scalar_tokens(), zero_tokens)
    return m, n, draw(st.lists(entry, min_size=m * n, max_size=m * n))


@settings(max_examples=150)
@example((1, 2, [("2/4", Scalar(Fraction(1, 2))), ("6/4", Scalar(Fraction(3, 2)))]))
@example((1, 3, [("1+-2i", Scalar(1, -2)), ("1--2i", Scalar(1, 2)), ("-0i", Scalar(0))]))
@example((2, 1, [("1.500", Scalar(Fraction(3, 2))), ("-007", Scalar(-7))]))
@given(token_matrices())
def test_reader_gives_the_entrywise_pairs_and_scale(case):
    m, n, entries = case
    tokens = [t for t, _ in entries]
    values = [v for _, v in entries]
    assert [parse_scalar(t) for t in tokens] == values
    text = f"{m} {n}\n" + "\n".join(" ".join(tokens[i * n:(i + 1) * n]) for i in range(m))
    got = parse_matrix_text(text)
    want = Matrix(m, n, [parse_scalar(t) for t in tokens])
    assert (got.pairs, got.scale) == (want.pairs, want.scale)
    assert want == Matrix(m, n, values)
    assert parse_vector_text(" ".join(tokens)) == Matrix(1, m * n, values)  # equal pairs and scale


# Malformed tokens: each with its message and the offset of its
# first offending character.  Tokens with inner whitespace, or none, cannot
# stand as one token in a row.
BAD_TOKENS = [
    ("i", "expected a digit", 0),
    ("1e5", "unexpected character 'e'", 1),
    ("1/", "expected a digit", 2),
    ("1.", "expected a digit", 2),
    (".5", "expected a digit", 0),
    ("1/0", "zero denominator", 2),
    ("2+3", "expected 'i' after imaginary part", 3),
    ("2+3i4", "trailing characters after 'i'", 4),
    ("--2", "expected a digit", 1),
    ("2i3", "trailing characters after 'i'", 2),
    ("\u00b2", "expected a digit", 0),
    ("1/\u00b2", "expected a digit", 2),
    ("\u0663", "expected a digit", 0),
    ("1+2/0i", "zero denominator", 4),  # a zero denominator in the imaginary part
    ("1-2/00i", "zero denominator", 4),
    ("+i", "expected a digit", 1),
    ("1+", "expected a digit", 2),
    ("1++-2i", "expected a digit", 3),
    ("1+-i", "expected a digit", 3),
    ("1+2.i", "expected a digit", 4),
    ("1+2/i", "expected a digit", 4),
    ("1/+2", "expected a digit", 2),
    ("1/2/3", "unexpected character '/'", 3),
    ("1.5.2", "unexpected character '.'", 3),
    ("0/00", "zero denominator", 2),
    ("1i+2", "trailing characters after 'i'", 2),
    ("1+2i3", "trailing characters after 'i'", 4),
    ("2+3x", "expected 'i' after imaginary part", 3),
]


@pytest.mark.parametrize("token, message, offset", BAD_TOKENS)
def test_bad_tokens_keep_their_message_line_and_column(token, message, offset):
    with pytest.raises(MatrixFormatError) as err:
        parse_matrix_text(f"# heading\n2 2\n1 2\n  3\t{token}  # note\n")
    # The token starts at column 5 of line 4.
    assert (err.value.line, err.value.column) == (4, 5 + offset)
    assert str(err.value) == f"line 4, column {5 + offset}: bad scalar token {token!r}: {message} at offset {offset}"
    with pytest.raises(MatrixFormatError) as err:
        parse_vector_text(f" 1 {token} 2")
    assert str(err.value) == f"line 1, column {4 + offset}: bad right-side token {token!r}: {message} at offset {offset}"


def test_reading_builds_no_scalar_or_fraction(monkeypatch):
    rng = random.Random(6)
    text = "6 6\n" + "\n".join(
        " ".join(f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}{rng.choice('+-')}{rng.randint(0, 9)}/{rng.randint(1, 9)}i"
                 for _ in range(6))
        for _ in range(6))
    want = Matrix(6, 6, text.split()[2:])

    def refuse(*args, **kwargs):
        raise AssertionError("reading a matrix text built a Scalar or a Fraction")

    monkeypatch.setattr(Scalar, "__init__", refuse)
    monkeypatch.setattr(Fraction, "__new__", refuse)
    got = parse_matrix_text(text)
    row = parse_vector_text(text.split("\n", 1)[1])
    monkeypatch.undo()
    assert got == want
    assert row == Matrix(1, 36, text.split()[2:])


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
    assert parse_vector_text(f"{ten} 1/{nines}") == Matrix(1, 2, [big, Fraction(1, 10**5001 - 1)])
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
