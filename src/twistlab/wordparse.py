"""Command-line input: the grammar, error codes and bounds of every value.

Integers follow one rule, ``parse_integer``: ASCII ``[+-]?[0-9]+``,
surrounding whitespace trimmed, of at most ``sys.get_int_max_str_digits()``
digits.  Word tokens and rationals match their narrower shape first and
read each integer in it by that rule.  A grammar error is a ``ParseError``
whose code names its place; a surface over ``MAX_RANK`` or a sweep over
``MAX_SWEEP_VALUES`` values is a ``PreconditionError``.

A word is a whitespace-separated sequence of letters.  A letter is a
curve token optionally followed by ``^<exponent>``.  Curve tokens are
basis names (``a1``, ``b2``, ``d1``) or explicit integer coordinate
vectors such as ``[1,0,-2]`` (no whitespace inside the brackets).
Exponents are nonzero integers; ``^1`` is dropped in canonical form.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from .errors import ParseError, PreconditionError
from .homology import HomologyClass, Surface, TwistLetter, TwistWord
from .sclbound import ILLUSTRATIVE_MODEL, CBoundModel, ModelFlag

UNKNOWN_TOKEN = "unknown_token"
INDEX_OUT_OF_RANGE = "index_out_of_range"
MALFORMED_EXPONENT = "malformed_exponent"
VECTOR_LENGTH_MISMATCH = "vector_length_mismatch"
MALFORMED_SURFACE = "malformed_surface"
MALFORMED_MODEL = "malformed_model"
MALFORMED_RATIONAL = "malformed_rational"
MALFORMED_RANGE = "malformed_range"
MALFORMED_CLASSES_FILE = "malformed_classes_file"

# Largest homology rank (2g + b - 1) that alexander and twistlb accept
# (exit 3 beyond it), checked before any vector or matrix is built: 5x the
# benchmark's largest rank, 40.  heightlb reads only b1 and is not capped.
MAX_RANK = 200

# Largest number of values one --n sweep may hold (exit 3 beyond it); the
# 200,001 values of -100000..100000 fit.
MAX_SWEEP_VALUES = 250_000

_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_BASIS_RE = re.compile(r"([abd])([0-9]+)")
_VECTOR_RE = re.compile(r"\[(-?[0-9]+(?:,-?[0-9]+)*)\]")
_EXPONENT_RE = re.compile(r"-?[0-9]+")
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

_SURFACE_FORM = "surface must be 'genus,boundary'"
_SWEEP_FORMS = "n must be an integer, 'lo..hi[..step]' or a comma list"


def parse_integer(text: str, code: str, message: str = "", token: str | None = None) -> int:
    """``text`` under the one integer rule, else a ParseError with ``code``,
    ``message`` and ``token`` (``text`` when not given)."""
    token = text if token is None else token
    digits = text.strip()
    if _INTEGER_RE.fullmatch(digits):
        try:
            return int(digits)
        except ValueError:  # more digits than the interpreter reads
            message = f"{token!r} holds more than {sys.get_int_max_str_digits()} digits"
    raise ParseError(code, message or f"{text!r} is not an integer", token=token)


def parse_rational(text: str) -> Fraction:
    """Accept ``[+-]digits[/digits]``, surrounding whitespace trimmed, with a
    positive denominator."""
    match = _RATIONAL_RE.fullmatch(text.strip())
    if match is not None:
        numerator = parse_integer(match[1], MALFORMED_RATIONAL, token=text)
        denominator = parse_integer(match[2] or "1", MALFORMED_RATIONAL, token=text)
        if denominator:
            return Fraction(numerator, denominator)
    raise ParseError(MALFORMED_RATIONAL, f"cannot read rational {text!r}", token=text)


def parse_surface(text: str, max_rank: int | None = MAX_RANK) -> Surface:
    """``genus,boundary``; a homology rank over ``max_rank`` is a PreconditionError."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(MALFORMED_SURFACE, _SURFACE_FORM, text)
    genus, boundary = (parse_integer(p, MALFORMED_SURFACE, _SURFACE_FORM, text) for p in parts)
    surface = Surface(genus, boundary)
    if max_rank is not None and surface.betti > max_rank:
        raise PreconditionError(
            f"surface has homology rank {surface.betti}; at most {max_rank} is allowed"
        )
    return surface


def parse_model(text: str | None) -> CBoundModel:
    """``alpha,beta`` (rationals), or the illustrative model when absent."""
    if text is None:
        return ILLUSTRATIVE_MODEL
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(MALFORMED_MODEL, "model must be 'alpha,beta'", text)
    alpha, beta = map(parse_rational, parts)
    return CBoundModel(alpha, beta, ModelFlag.USER_SUPPLIED)


def parse_sweep(text: str) -> range | list[int]:
    """``5`` | ``lo..hi`` | ``lo..hi..step`` | comma-separated list.

    The values come back ascending and without repeats; a range is
    returned as a ``range`` and counted without being built.
    """
    parts = text.split("..")
    if len(parts) in (2, 3):
        lo, hi, step = (
            parse_integer(part, MALFORMED_RANGE, _SWEEP_FORMS, text)
            for part in parts + ["1"] * (3 - len(parts))
        )
        if step < 1 or hi < lo:
            raise ParseError(MALFORMED_RANGE, _SWEEP_FORMS, text)
        _check_sweep_size((hi - lo) // step + 1)
        return range(lo, hi + 1, step)
    if len(parts) > 3:
        raise ParseError(MALFORMED_RANGE, _SWEEP_FORMS, text)
    items = text.split(",")
    _check_sweep_size(len(items))
    return sorted({parse_integer(item, MALFORMED_RANGE, _SWEEP_FORMS, text) for item in items})


def _check_sweep_size(count: int) -> None:
    if count > MAX_SWEEP_VALUES:
        raise PreconditionError(
            f"sweep holds {count} values of n; at most {MAX_SWEEP_VALUES} are allowed"
        )


def load_classes(path: str, surface: Surface) -> list[HomologyClass]:
    """A JSON array of curve tokens and integer coordinate arrays."""
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ParseError(MALFORMED_CLASSES_FILE, f"cannot read {path}: {exc}") from exc
    try:
        entries = json.loads(raw)
    except ValueError as exc:  # invalid JSON, or an integer too long to read
        raise ParseError(MALFORMED_CLASSES_FILE, f"{path} is not valid JSON") from exc
    if not isinstance(entries, list):
        raise ParseError(MALFORMED_CLASSES_FILE, "classes file must hold a JSON array")
    classes = []
    for entry in entries:
        if isinstance(entry, str):
            classes.append(parse_class(entry, surface))
        elif isinstance(entry, list) and all(
            isinstance(v, int) and not isinstance(v, bool) for v in entry
        ):
            classes.append(_vector_class(entry, surface, json.dumps(entry)))
        else:
            raise ParseError(
                MALFORMED_CLASSES_FILE, "entries must be curve tokens or integer coordinate arrays"
            )
    return classes


def _vector_class(coords, surface: Surface, token: str) -> HomologyClass:
    if len(coords) != surface.betti:
        raise ParseError(
            VECTOR_LENGTH_MISMATCH,
            f"vector has {len(coords)} entries, homology rank is {surface.betti}",
            token=token,
        )
    return surface.homology_class(coords)


def parse_class(text: str, surface: Surface) -> HomologyClass:
    """Parse one curve token (basis name or coordinate vector)."""
    return _parse_curve(text, surface)[0]


def _parse_curve(text: str, surface: Surface) -> tuple[HomologyClass, str]:
    """A curve token's class and its canonical text."""
    match = _BASIS_RE.fullmatch(text)
    if match:
        family, index_text = match.groups()
        index = parse_integer(index_text, INDEX_OUT_OF_RANGE, token=text)
        limit = surface.genus if family in ("a", "b") else max(surface.boundary - 1, 0)
        if not 1 <= index <= limit:
            raise ParseError(
                INDEX_OUT_OF_RANGE,
                f"basis class {family}{index} does not exist on a genus-"
                f"{surface.genus} surface with {surface.boundary} boundary "
                f"component(s)",
                token=text,
            )
        return getattr(surface, family)(index), f"{family}{index}"
    match = _VECTOR_RE.fullmatch(text)
    if match:
        coords = [parse_integer(part, UNKNOWN_TOKEN, token=text) for part in match[1].split(",")]
        return _vector_class(coords, surface, text), "[" + ",".join(map(str, coords)) + "]"
    raise ParseError(UNKNOWN_TOKEN, f"cannot read curve token {text!r}", token=text)


def _parse_letter(token: str, surface: Surface) -> tuple[TwistLetter, str]:
    base, caret, exponent_text = token.partition("^")
    if caret:
        if not _EXPONENT_RE.fullmatch(exponent_text):
            message = f"exponent {exponent_text!r} is not an integer"
            raise ParseError(MALFORMED_EXPONENT, message, token)
        exponent = parse_integer(exponent_text, MALFORMED_EXPONENT, token=token)
        if exponent == 0:
            raise ParseError(MALFORMED_EXPONENT, "exponent must be nonzero", token)
    else:
        exponent = 1
    curve, body = _parse_curve(base, surface)
    return TwistLetter(curve, exponent), body if exponent == 1 else f"{body}^{exponent}"


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
