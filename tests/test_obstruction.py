"""Twist-length obstruction certificates and rational complements."""

import random
from fractions import Fraction

import pytest

from helpers import random_class, random_word
from twistlab import (
    PreconditionError,
    Surface,
    TwistLetter,
    TwistWord,
    knot_monodromy_obstruction,
    orthogonal_complement,
    pair,
    verify_certificate,
    word_action,
)
from twistlab.homology import pairing_gradient
from twistlab.polynomials import determinant


def _rank(rows):
    """Rank over the rationals by plain elimination (local oracle)."""
    rows = [[Fraction(v) for v in row] for row in rows if any(row)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        hit = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_complement_examples():
    s = Surface(1, 1)
    full = orthogonal_complement(s, [])
    assert full == [(1, 0), (0, 1)]
    only_a = orthogonal_complement(s, [s.a(1)])
    assert only_a == [(1, 0)]  # span of a1
    assert orthogonal_complement(s, [s.a(1), s.b(1)]) == []


def test_complement_dimension_formula():
    rng = random.Random(23)
    for genus in (1, 2, 3):
        surface = Surface(genus, 1)
        for _ in range(30):
            classes = [
                random_class(surface, rng, -2, 2)
                for _ in range(rng.randint(0, 2 * genus + 1))
            ]
            basis = orthogonal_complement(surface, classes)
            rank = _rank([pairing_gradient(c) for c in classes])
            assert len(basis) + rank == surface.betti
            witness_ok = all(
                pair(surface.homology_class([int(v) for v in _cleared(vec)]), c) == 0
                for vec in basis
                for c in classes
            )
            assert witness_ok


def _cleared(vec):
    from twistlab.obstruction import clear_denominators

    return clear_denominators(vec)


def test_complement_surface_mismatch():
    with pytest.raises(PreconditionError):
        orthogonal_complement(Surface(1, 1), [Surface(2, 1).a(1)])


def test_obstruction_examples():
    g1 = Surface(1, 1)
    cert = knot_monodromy_obstruction(1, [g1.a(1)])
    assert cert is not None
    assert cert.witness == (1, 0)  # the class a1 itself

    g2 = Surface(2, 1)
    cert2 = knot_monodromy_obstruction(2, [g2.a(1), g2.b(1), g2.a(2)])
    assert cert2 is not None
    assert cert2.witness == (0, 0, 1, 0)  # a2 pairs to zero with all three

    assert knot_monodromy_obstruction(1, [g1.a(1), g1.b(1)]) is None


def test_obstruction_empty_class_list():
    cert = knot_monodromy_obstruction(1, [])
    assert cert is not None
    assert cert.surface == Surface(1, 1)
    assert verify_certificate(cert, TwistWord((), cert.surface))


def test_obstruction_counts_distinct_classes_once():
    s = Surface(1, 1)
    cert = knot_monodromy_obstruction(1, [s.a(1), s.a(1), s.a(1)])
    assert cert is not None
    assert cert.distinct_class_count == 1


def test_obstruction_preconditions():
    with pytest.raises(PreconditionError):
        knot_monodromy_obstruction(1, [Surface(1, 2).a(1)])
    with pytest.raises(PreconditionError):
        knot_monodromy_obstruction(2, [Surface(1, 1).a(1)])


def test_verify_certificate_examples():
    g1 = Surface(1, 1)
    cert = knot_monodromy_obstruction(1, [g1.a(1)])
    assert verify_certificate(cert, TwistWord.from_pairs(g1, [(g1.a(1), 7)]))
    assert verify_certificate(cert, TwistWord((), g1))

    g2 = Surface(2, 1)
    cert2 = knot_monodromy_obstruction(2, [g2.a(1), g2.b(1), g2.a(2)])
    word = TwistWord.from_pairs(g2, [(g2.a(1), 1), (g2.b(1), -2), (g2.a(2), 3)])
    assert verify_certificate(cert2, word)


def test_verify_certificate_rejects_foreign_letters():
    g1 = Surface(1, 1)
    cert = knot_monodromy_obstruction(1, [g1.a(1)])
    with pytest.raises(PreconditionError):
        verify_certificate(cert, TwistWord.from_pairs(g1, [(g1.b(1), 1)]))


def test_random_certificates_fix_witness():
    rng = random.Random(29)
    for genus in (1, 2, 3):
        surface = Surface(genus, 1)
        for _ in range(12):
            size = rng.randint(0, 2 * genus - 1)
            classes = [random_class(surface, rng, -2, 2) for _ in range(size)]
            cert = knot_monodromy_obstruction(genus, classes)
            assert cert is not None
            for _ in range(100):
                word = random_word(
                    surface, rng, classes=classes or None, max_len=6, exp_lo=-5, exp_hi=5
                ) if classes else TwistWord((), surface)
                assert verify_certificate(cert, word)
                m = word_action(word).entries
                n = surface.betti
                id_minus = [
                    [(1 if i == j else 0) - m[i][j] for j in range(n)]
                    for i in range(n)
                ]
                assert determinant(id_minus) == 0
