import pytest
from fractions import Fraction

from persplit.fileformat import matrix_record
from persplit.linalg import Matrix
from persplit.scalars import (FIELD_Q, FIELD_QI, Gaussian, as_field,
                              format_ratio, format_rational, parse_rational,
                              parse_scalar)


def test_gaussian_ring_arithmetic():
    a = Gaussian(1, 2)
    b = Gaussian(Fraction(1, 2), -1)
    assert a + b == Gaussian(Fraction(3, 2), 1)
    # (1 + 2i)(1/2 − i) = 1/2 − i + i − 2i² = 5/2
    assert a * b == Gaussian(Fraction(5, 2), 0)
    # i² = −1
    i = Gaussian(0, 1)
    assert i * i == Gaussian(-1, 0) == -1


def test_gaussian_division_exact():
    a = Gaussian(3, 4)
    b = Gaussian(1, 2)
    q = a / b
    assert q * b == a
    with pytest.raises(ZeroDivisionError):
        a / Gaussian(0, 0)


def test_conjugation_is_involutive_automorphism():
    a, b = Gaussian(2, -3), Gaussian(Fraction(1, 3), 5)
    assert a.conj().conj() == a
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()
    # fixes exactly the rationals
    assert Gaussian(7, 0).conj() == Gaussian(7, 0)
    assert a.conj() != a


def test_gaussian_mixed_comparisons():
    assert Gaussian(3, 0) == 3
    assert Gaussian(3, 0) == Fraction(3)
    assert Gaussian(3, 1) != 3
    assert bool(Gaussian(0, 0)) is False
    assert bool(Gaussian(0, 1)) is True


def test_as_field_coercions():
    assert as_field(Gaussian(2, 0), FIELD_Q) == Fraction(2)
    with pytest.raises(ValueError):
        as_field(Gaussian(2, 1), FIELD_Q)
    assert as_field(Fraction(1, 3), FIELD_QI) == Gaussian(Fraction(1, 3), 0)


def test_rational_string_round_trip():
    for text in ("0", "5", "-7", "3/4", "-22/7"):
        assert format_rational(parse_rational(text)) == text
    with pytest.raises(ValueError):
        parse_rational("one")


def test_zero_denominator_is_named_in_words():
    with pytest.raises(ValueError) as exc:
        parse_rational("1/0")
    assert str(exc.value) == "bad rational '1/0': zero denominator"


def test_format_ratio_matches_format_rational():
    for n in range(-12, 13):
        for q in range(1, 13):
            assert format_ratio(n, q) == format_rational(Fraction(n, q))
    assert format_ratio(-10**30, 4 * 10**29) == "-5/2"


@pytest.mark.parametrize("text", ["0.5", "1e5", "1e40000000", "1/2e3", "+3", " 3", "3/-4",
                                  "1_000", "½", "٣", 3, 0.5, None])
def test_parse_rational_accepts_only_the_canonical_form(text):
    """Despite its name, this checks only what is refused: decimals,
    exponents, a plus sign, spaces, underscores, non-ASCII digits, a signed
    denominator and non-strings.  Decimals and exponents are refused before
    any number is built, so a short string cannot stand for a huge integer.
    Non-canonical spellings of a value ("2/4", "-0", "01", "1/1") are
    accepted: see ``test_parse_rational_reads_noncanonical_spellings``."""
    with pytest.raises(ValueError, match="bad rational"):
        parse_rational(text)


def test_parse_rational_reads_noncanonical_spellings():
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational("-0") == 0
    assert parse_rational("01") == parse_rational("1/1") == 1


def test_scalar_serialization_both_fields():
    assert parse_scalar("2/3", FIELD_Q) == Fraction(2, 3)
    assert matrix_record(Matrix(1, 1, [[Fraction(2, 3)]]), {}) == [["2/3"]]
    g = parse_scalar({"re": "1/2", "im": "-3"}, FIELD_QI)
    assert g == Gaussian(Fraction(1, 2), -3)
    # real Gaussians serialize as plain strings
    assert matrix_record(Matrix(1, 2, [[g, Gaussian(4, 0)]], FIELD_QI), {}) == \
        [[{"re": "1/2", "im": "-3"}, "4"]]
    assert parse_scalar("4", FIELD_QI) == Gaussian(4, 0)
    with pytest.raises(ValueError):
        parse_scalar(1.5, FIELD_Q)
