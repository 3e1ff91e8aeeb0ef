"""The word grammar: parsing, error codes, canonical round-trips."""

import pytest

from helpers import format_class, format_word, parse_word
from twistlab import (
    ParseError,
    Surface,
    TwistLetter,
    TwistWord,
    canonicalize_word,
    parse_class,
)


def test_parse_basic_word():
    s = Surface(1, 1)
    word = parse_word("a1 b1^-1", s)
    assert len(word) == 2
    assert word.letters[0] == TwistLetter(s.a(1), 1)
    assert word.letters[1] == TwistLetter(s.b(1), -1)


def test_parse_vector_letter():
    s = Surface(1, 1)
    word = parse_word("[1,0]^3", s)
    assert len(word) == 1
    assert word.letters[0] == TwistLetter(s.a(1), 3)


def test_parse_d_classes_and_negatives():
    s = Surface(0, 3)
    word = parse_word("d1 d2^-2 [-1,-1]^4", s)
    assert [letter.exponent for letter in word.letters] == [1, -2, 4]
    assert word.letters[2].curve.coords == (-1, -1)


def test_empty_word():
    s = Surface(1, 1)
    word, text = canonicalize_word("   ", s)
    assert len(word) == 0 and text == ""


def _code(excinfo):
    return excinfo.value.code


def test_error_unknown_token():
    s = Surface(1, 1)
    for bad in ("x1", "a", "foo", "[1,2", "a1b2", "[1,]"):
        with pytest.raises(ParseError) as excinfo:
            parse_word(bad, s)
        assert _code(excinfo) == "unknown_token"


def test_error_index_out_of_range():
    s = Surface(1, 1)
    for bad in ("a9", "a0", "b2", "d1"):
        with pytest.raises(ParseError) as excinfo:
            parse_word(bad, s)
        assert _code(excinfo) == "index_out_of_range"


def test_error_malformed_exponent():
    s = Surface(1, 1)
    for bad in ("a1^", "a1^x", "a1^0", "a1^1.5", "a1^+2", "a1^2^3"):
        with pytest.raises(ParseError) as excinfo:
            parse_word(bad, s)
        assert _code(excinfo) == "malformed_exponent"


def test_error_vector_length_mismatch():
    s = Surface(1, 1)
    with pytest.raises(ParseError) as excinfo:
        parse_word("[1,2,3]", s)
    assert _code(excinfo) == "vector_length_mismatch"
    with pytest.raises(ParseError) as excinfo:
        parse_word("[1]", s)
    assert _code(excinfo) == "vector_length_mismatch"


def test_canonical_text_round_trip():
    s = Surface(2, 1)
    for text in ("a1 b1^-1", "[1,0,0,0]^3 b2", "a2^5 b1 a1^-1"):
        word, canonical = canonicalize_word(text, s)
        assert canonical == text
        again, canonical2 = canonicalize_word(canonical, s)
        assert canonical2 == canonical
        assert again == word


def test_canonicalization_normalizes_whitespace_and_digits():
    s = Surface(1, 1)
    _, canonical = canonicalize_word("  a1    b1^-1 ", s)
    assert canonical == "a1 b1^-1"
    _, canonical = canonicalize_word("a01^001", s)
    assert canonical == "a1"  # leading zeros dropped, ^1 omitted


def test_format_word_prefers_basis_tokens():
    s = Surface(1, 3)
    word = TwistWord.from_pairs(
        s,
        [(s.a(1), 1), (s.b(1), -2), (s.d(2), 3), (s.homology_class((1, 1, 0, 0)), 1)],
    )
    assert format_word(word) == "a1 b1^-2 d2^3 [1,1,0,0]"
    assert parse_word(format_word(word), s) == word


def test_format_class():
    s = Surface(2, 2)
    assert format_class(s.a(2)) == "a2"
    assert format_class(s.b(1)) == "b1"
    assert format_class(s.d(1)) == "d1"
    assert format_class(s.homology_class((0, 2, 0, 0, 0))) == "[0,2,0,0,0]"


def test_parse_class_standalone():
    s = Surface(1, 1)
    assert parse_class("a1", s) == s.a(1)
    assert parse_class("[0,1]", s) == s.b(1)
    with pytest.raises(ParseError):
        parse_class("a1^2", s)  # exponents belong to letters, not classes
