"""Surfaces, the intersection pairing, twist actions and Alexander reports."""

import random

import pytest

from helpers import cycled, matmul, random_class, random_word, transpose
from twistlab import (
    Classification,
    HomologyMatrix,
    PreconditionError,
    Surface,
    TwistLetter,
    TwistWord,
    alexander_report,
    characteristic_polynomial,
    pair,
    standard_form,
    twist_action,
    word_action,
)
from twistlab.homology import characteristic_value
from twistlab.polynomials import determinant


def test_betti_numbers():
    assert Surface(1, 1).betti == 2
    assert Surface(0, 3).betti == 2
    assert Surface(2, 1).betti == 4
    assert Surface(0, 1).betti == 0
    assert Surface(0, 0).betti == 0
    assert Surface(3, 0).betti == 6


def test_surface_validation():
    with pytest.raises(PreconditionError):
        Surface(-1, 1)
    with pytest.raises(PreconditionError):
        Surface(1, -2)


def test_standard_form_examples():
    assert standard_form(Surface(1, 1)) == ((0, 1), (-1, 0))
    assert standard_form(Surface(0, 3)) == ((0, 0), (0, 0))
    assert standard_form(Surface(2, 1)) == (
        (0, 1, 0, 0),
        (-1, 0, 0, 0),
        (0, 0, 0, 1),
        (0, 0, -1, 0),
    )


def test_standard_form_antisymmetric_and_degeneracy():
    for genus in range(0, 4):
        for boundary in range(0, 4):
            form = standard_form(Surface(genus, boundary))
            assert transpose(form) == tuple(
                tuple(-v for v in row) for row in form
            )
            degenerate = determinant(form) == 0
            assert degenerate == (boundary >= 2)


def test_pair_examples():
    s = Surface(2, 1)
    assert pair(s.a(1), s.b(1)) == 1
    assert pair(s.b(1), s.a(1)) == -1
    assert pair(s.a(1), s.a(1)) == 0
    assert pair(s.a(1), s.b(2)) == 0
    assert pair(s.a(2), s.b(2)) == 1


def test_pair_bilinear_antisymmetric():
    rng = random.Random(3)
    s = Surface(2, 2)
    for _ in range(50):
        x, y, z = (random_class(s, rng) for _ in range(3))
        assert pair(x, y) == -pair(y, x)
        assert pair(x, x) == 0
        xy = s.homology_class([a + b for a, b in zip(x.coords, y.coords)])
        assert pair(xy, z) == pair(x, z) + pair(y, z)


def test_pair_surface_mismatch():
    with pytest.raises(PreconditionError):
        pair(Surface(1, 1).a(1), Surface(2, 1).a(1))


def test_class_length_validation():
    with pytest.raises(PreconditionError):
        Surface(1, 1).homology_class((1, 0, 0))
    with pytest.raises(PreconditionError):
        Surface(1, 1).a(2)
    with pytest.raises(PreconditionError):
        Surface(1, 1).d(1)  # one boundary component has no d-classes


def test_twist_action_examples():
    s = Surface(1, 1)
    # hand-applied transvection on the two basis vectors
    assert twist_action(s.a(1)).entries == ((1, -1), (0, 1))
    assert twist_action(s.b(1)).entries == ((1, 0), (1, 1))
    assert twist_action(s.zero_class()).entries == ((1, 0), (0, 1))


def test_twist_action_fixes_curve_and_matches_powers():
    rng = random.Random(5)
    for surface in (Surface(1, 1), Surface(2, 1), Surface(1, 3)):
        for _ in range(20):
            c = random_class(surface, rng)
            m = twist_action(c)
            assert m.apply(c) == c
            power = HomologyMatrix.identity(surface)
            for _ in range(3):
                power = m.compose(power)
            assert twist_action(c, 3) == power
            assert twist_action(c, -1).compose(m) == HomologyMatrix.identity(surface)


def test_boundary_parallel_classes_act_trivially():
    s = Surface(1, 3)
    eye = HomologyMatrix.identity(s)
    assert twist_action(s.d(1)) == eye
    assert twist_action(s.d(2), 5) == eye


def test_word_action_examples():
    s = Surface(1, 1)
    eye = HomologyMatrix.identity(s)
    assert word_action(TwistWord((), s)) == eye
    cancel = TwistWord.from_pairs(s, [(s.a(1), 1), (s.a(1), -1)])
    assert word_action(cancel) == eye
    trefoil = word_action(TwistWord.from_pairs(s, [(s.a(1), 1), (s.b(1), 1)]))
    assert trefoil.entries == ((1, -1), (1, 0))
    assert sum(trefoil.entries[i][i] for i in range(2)) == 1
    assert determinant(trefoil.entries) == 1


FOLD_SURFACES = [Surface(g, 1) for g in range(1, 21)] + [
    Surface(2, 0),
    Surface(1, 3),
    Surface(3, 3),
]


def _product_path(word):
    """Oracle: the word's action as a product of validated letter matrices."""
    result = HomologyMatrix.identity(word.surface)
    for letter in word.letters:
        result = twist_action(letter.curve, letter.exponent).compose(result)
    return result


def _inverse(word):
    return TwistWord(
        tuple(TwistLetter(x.curve, -x.exponent) for x in reversed(word.letters)),
        word.surface,
    )


def test_word_action_matches_product_path():
    rng = random.Random(23)
    for surface in FOLD_SURFACES:
        for _ in range(3 if surface.betti <= 12 else 1):
            word = random_word(surface, rng, max_len=8)
            assert word_action(word) == _product_path(word)


def test_word_action_times_inverse_is_identity():
    rng = random.Random(29)
    for surface in FOLD_SURFACES:
        eye = HomologyMatrix.identity(surface)
        for _ in range(3 if surface.betti <= 12 else 1):
            word = random_word(surface, rng, max_len=12)
            assert word_action(word) @ word_action(_inverse(word)) == eye


def test_word_action_skips_boundary_letters():
    rng = random.Random(31)
    for surface in (Surface(1, 3), Surface(3, 3)):
        boundary = [surface.d(j) for j in (1, 2)]
        for _ in range(10):
            word = random_word(surface, rng, max_len=8)
            padded = TwistWord(
                tuple(
                    x
                    for letter in word.letters
                    for x in (letter, TwistLetter(rng.choice(boundary), 2))
                ),
                surface,
            )
            assert word_action(padded) == word_action(word) == _product_path(padded)


def test_word_letters_must_share_surface():
    s, t = Surface(1, 1), Surface(2, 1)
    with pytest.raises(PreconditionError):
        TwistWord((TwistLetter(t.a(1), 1),), s)


def test_letter_exponent_nonzero():
    s = Surface(1, 1)
    with pytest.raises(PreconditionError):
        TwistLetter(s.a(1), 0)


def test_homology_matrix_rejects_bad_matrices():
    s = Surface(1, 1)
    with pytest.raises(PreconditionError):
        HomologyMatrix(((2, 0), (0, 1)), s)  # determinant 2
    with pytest.raises(PreconditionError):
        HomologyMatrix(((0, 1), (1, 0)), s)  # determinant -1, breaks the form
    with pytest.raises(PreconditionError):
        HomologyMatrix(((1, 0),), s)


def test_homology_matrix_checks_determinant_on_degenerate_forms():
    # these preserve a degenerate form, so only the determinant rejects them
    with pytest.raises(PreconditionError, match="determinant"):
        HomologyMatrix(((2, 0), (0, 1)), Surface(0, 3))
    with pytest.raises(PreconditionError, match="determinant"):
        HomologyMatrix(((1, 0, 0), (0, 1, 0), (0, 0, -1)), Surface(1, 2))
    assert HomologyMatrix(((1, 0, 0), (0, 1, 0), (5, -2, 1)), Surface(1, 2))


def test_word_action_preserves_form_and_determinant():
    rng = random.Random(9)
    for surface in (Surface(1, 1), Surface(2, 1), Surface(2, 0), Surface(1, 3)):
        form = standard_form(surface)
        for _ in range(25):
            m = word_action(random_word(surface, rng)).entries
            assert matmul(matmul(transpose(m), form), m) == form
            assert determinant(m) == 1


def test_characteristic_polynomial_reciprocal_on_one_boundary():
    rng = random.Random(13)
    for surface in (Surface(1, 1), Surface(2, 1), Surface(3, 1)):
        for _ in range(20):
            poly = characteristic_polynomial(word_action(random_word(surface, rng)))
            assert poly.coefficients == tuple(reversed(poly.coefficients))


def test_characteristic_value_matches_characteristic_polynomial():
    rng = random.Random(37)
    # ranks 2..12; odd ranks carry one boundary class
    surfaces = [Surface(r // 2, 1 + r % 2) for r in range(2, 13)]
    surfaces += [Surface(2, 0), Surface(1, 3)]
    for surface in surfaces:
        for _ in range(10):
            m = word_action(random_word(surface, rng, max_len=8))
            poly = characteristic_polynomial(m)
            for t in (1, 2):
                assert characteristic_value(m, t) == poly.evaluate(t)


def test_characteristic_polynomial_cyclic_invariance():
    rng = random.Random(17)
    surface = Surface(2, 1)
    for _ in range(20):
        word = random_word(surface, rng)
        poly = characteristic_polynomial(word_action(word))
        for shift in range(len(word)):
            shifted = characteristic_polynomial(word_action(cycled(word, shift)))
            assert shifted == poly


def test_single_letter_words_have_delta_one_zero():
    rng = random.Random(19)
    for surface in (Surface(1, 1), Surface(2, 1), Surface(0, 3)):
        for _ in range(20):
            c = random_class(surface, rng)
            word = TwistWord((TwistLetter(c, rng.choice([-3, -1, 1, 2, 5])),), surface)
            assert alexander_report(word).delta_one == 0


def test_alexander_examples():
    s = Surface(1, 1)
    trefoil = alexander_report(TwistWord.from_pairs(s, [(s.a(1), 1), (s.b(1), 1)]))
    assert trefoil.action.entries == ((1, -1), (1, 0))
    assert trefoil.poly.coefficients == (1, -1, 1)
    assert trefoil.delta_one == 1
    assert trefoil.classification is Classification.KNOT_COMPATIBLE
    assert trefoil.normalized == trefoil.poly

    single = alexander_report(TwistWord.from_pairs(s, [(s.a(1), 1)]))
    assert single.poly.coefficients == (1, -2, 1)
    assert single.delta_one == 0
    assert single.classification is Classification.MULTI_COMPONENT_COMPATIBLE

    pants = Surface(0, 3)
    empty = alexander_report(TwistWord((), pants))
    assert empty.poly.coefficients == (1, -2, 1)
    assert empty.delta_one == 0


def test_alexander_sign_normalization():
    s = Surface(1, 1)
    figure8 = alexander_report(TwistWord.from_pairs(s, [(s.a(1), 1), (s.b(1), -1)]))
    assert figure8.poly.coefficients == (1, -3, 1)
    assert figure8.delta_one == -1
    assert figure8.classification is Classification.KNOT_COMPATIBLE
    assert figure8.normalized.coefficients == (-1, 3, -1)
    assert figure8.normalized.evaluate(1) == 1


def test_alexander_neither_classification():
    s = Surface(1, 1)
    # T_b1^2 T_a1 has trace 0, so the polynomial is t^2 + 1 with value 2 at 1
    word = TwistWord.from_pairs(s, [(s.a(1), 1), (s.b(1), 2)])
    report = alexander_report(word)
    assert report.poly.coefficients == (1, 0, 1)
    assert report.delta_one == 2
    assert report.classification is Classification.NEITHER
