"""Parsing and canonical formatting of twist-word text.

Grammar: a word is a whitespace-separated sequence of letters.  A letter
is a curve token optionally followed by ``^<exponent>``.  Curve tokens
are basis names (``a1``, ``b2``, ``d1``) or explicit integer coordinate
vectors such as ``[1,0,-2]`` (no whitespace inside the brackets).
Exponents are nonzero integers; ``^1`` is dropped in canonical form.

An index, coordinate or exponent of more digits than the interpreter
reads as an integer (``sys.get_int_max_str_digits()``) is refused with
the code of its place.  Errors carry one of four stable codes:
``unknown_token``, ``index_out_of_range``, ``malformed_exponent``,
``vector_length_mismatch``.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .homology import HomologyClass, Surface, TwistLetter, TwistWord

UNKNOWN_TOKEN = "unknown_token"
INDEX_OUT_OF_RANGE = "index_out_of_range"
MALFORMED_EXPONENT = "malformed_exponent"
VECTOR_LENGTH_MISMATCH = "vector_length_mismatch"

_BASIS_RE = re.compile(r"([abd])([0-9]+)")
_VECTOR_RE = re.compile(r"\[(-?[0-9]+(?:,-?[0-9]+)*)\]")
_EXPONENT_RE = re.compile(r"-?[0-9]+")


def _integer(digits: str, code: str, token: str) -> int:
    """``int(digits)`` for digits the grammar matched, or a ParseError with
    ``code`` when there are more than the interpreter reads."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(code, f"{token!r} holds too many digits", token=token) from None


def parse_class(text: str, surface: Surface) -> HomologyClass:
    """Parse one curve token (basis name or coordinate vector)."""
    match = _BASIS_RE.fullmatch(text)
    if match:
        family, index_text = match.groups()
        index = _integer(index_text, INDEX_OUT_OF_RANGE, text)
        limit = surface.genus if family in ("a", "b") else max(surface.boundary - 1, 0)
        if not 1 <= index <= limit:
            raise ParseError(
                INDEX_OUT_OF_RANGE,
                f"basis class {family}{index} does not exist on a genus-"
                f"{surface.genus} surface with {surface.boundary} boundary "
                f"component(s)",
                token=text,
            )
        return getattr(surface, family)(index)
    match = _VECTOR_RE.fullmatch(text)
    if match:
        coords = tuple(_integer(part, UNKNOWN_TOKEN, text) for part in match.group(1).split(","))
        if len(coords) != surface.betti:
            raise ParseError(
                VECTOR_LENGTH_MISMATCH,
                f"vector has {len(coords)} entries, homology rank is "
                f"{surface.betti}",
                token=text,
            )
        return surface.homology_class(coords)
    raise ParseError(UNKNOWN_TOKEN, f"cannot read curve token {text!r}", token=text)


def _parse_letter(token: str, surface: Surface) -> tuple[TwistLetter, str]:
    base, caret, exponent_text = token.partition("^")
    if caret:
        if not _EXPONENT_RE.fullmatch(exponent_text):
            raise ParseError(
                MALFORMED_EXPONENT,
                f"exponent {exponent_text!r} is not an integer",
                token=token,
            )
        exponent = _integer(exponent_text, MALFORMED_EXPONENT, token)
        if exponent == 0:
            raise ParseError(
                MALFORMED_EXPONENT, "exponent must be nonzero", token=token
            )
    else:
        exponent = 1
    curve = parse_class(base, surface)
    return TwistLetter(curve, exponent), _letter_text(base, curve, exponent)


def _letter_text(base: str, curve: HomologyClass, exponent: int) -> str:
    if base.startswith("["):
        body = "[" + ",".join(str(c) for c in curve.coords) + "]"
    else:
        match = _BASIS_RE.fullmatch(base)
        body = match.group(1) + str(int(match.group(2)))
    return body if exponent == 1 else f"{body}^{exponent}"


def canonicalize_word(text: str, surface: Surface) -> tuple[TwistWord, str]:
    """Parse a word and return it with its canonical text.

    Canonical text keeps each letter's token style (basis name or
    vector), normalizes digits and spacing, and drops ``^1``; it equals
    the input up to whitespace.
    """
    letters = []
    rendered = []
    for token in text.split():
        letter, canonical = _parse_letter(token, surface)
        letters.append(letter)
        rendered.append(canonical)
    return TwistWord(tuple(letters), surface), " ".join(rendered)


def parse_word(text: str, surface: Surface) -> TwistWord:
    """Parse twist-word text on the given surface."""
    return canonicalize_word(text, surface)[0]


def format_class(cls: HomologyClass) -> str:
    """Render a class as a basis token when it is one, else as a vector."""
    coords = cls.coords
    nonzero = [i for i, c in enumerate(coords) if c != 0]
    if len(nonzero) == 1 and coords[nonzero[0]] == 1:
        position = nonzero[0]
        genus = cls.surface.genus
        if position < 2 * genus:
            family = "a" if position % 2 == 0 else "b"
            return f"{family}{position // 2 + 1}"
        return f"d{position - 2 * genus + 1}"
    return "[" + ",".join(str(c) for c in coords) + "]"


def format_word(word: TwistWord) -> str:
    """Canonical text of a word built programmatically."""
    parts = []
    for letter in word.letters:
        body = format_class(letter.curve)
        parts.append(body if letter.exponent == 1 else f"{body}^{letter.exponent}")
    return " ".join(parts)
