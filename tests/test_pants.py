"""The pair-of-pants family: twist length, cuts, obstruction, homology."""

import random

from twistlab import (
    PANTS_SURFACE,
    Classification,
    HomologyMatrix,
    PantsClass,
    PantsFamilyMember,
    alexander_report,
    cut_annulus_twists,
    hopf_deplumbing_obstructed,
    pants_twist_length,
    pants_word,
    word_action,
)
from twistlab.homology import TwistLetter, TwistWord


def _random_pants_class(rng):
    return PantsClass(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))


def test_twist_length_family_and_edge_cases():
    for n in range(0, 101):
        assert pants_twist_length(PantsFamilyMember(n).mapping_class) == n + 2
    assert pants_twist_length(PantsClass(0, 0, 0)) == 0
    assert pants_twist_length(PantsClass(2, 3, -1)) == 6
    # negative exponents read through the absolute value
    assert pants_twist_length(PantsFamilyMember(-4).mapping_class) == 6


def test_twist_length_is_a_norm():
    rng = random.Random(47)
    for _ in range(60):
        u, v = _random_pants_class(rng), _random_pants_class(rng)
        assert (pants_twist_length(u) == 0) == (u == PantsClass(0, 0, 0))
        # the twists commute, so inverse and product are componentwise
        inverse = PantsClass(-u.p, -u.q, -u.r)
        product = PantsClass(u.p + v.p, u.q + v.q, u.r + v.r)
        assert pants_twist_length(u) == pants_twist_length(inverse)
        assert pants_twist_length(product) <= pants_twist_length(
            u
        ) + pants_twist_length(v)


def test_cut_annulus_examples():
    cuts0 = cut_annulus_twists(0).arcs
    assert [c.full_twists for c in cuts0] == [0, 1, -1]
    assert [c.is_hopf_band for c in cuts0] == [False, True, True]

    cuts3 = cut_annulus_twists(3).arcs
    assert [c.full_twists for c in cuts3] == [0, 4, 2]
    assert not any(c.is_hopf_band for c in cuts3)

    cuts_neg = cut_annulus_twists(-1).arcs
    assert [c.full_twists for c in cuts_neg] == [0, 0, -2]
    assert not any(c.is_hopf_band for c in cuts_neg)


def test_cut_annulus_gap_invariant():
    for n in range(-1000, 1001):
        arcs = cut_annulus_twists(n).arcs
        assert arcs[1].full_twists - arcs[2].full_twists == 2
        assert arcs[0].full_twists == 0


def test_deplumbing_obstruction_ranges():
    for n in range(3, 1001):
        assert hopf_deplumbing_obstructed(n)
        assert hopf_deplumbing_obstructed(-n)
    for n in (-2, 0, 2):
        assert not hopf_deplumbing_obstructed(n)
    # the arc criterion also fires at |n| = 1 (twists 0, +-2, 0)
    assert hopf_deplumbing_obstructed(1)
    assert hopf_deplumbing_obstructed(-1)


def test_pants_acts_trivially_on_homology():
    assert word_action(pants_word(PantsClass(0, 0, 0))) == HomologyMatrix.identity(
        PANTS_SURFACE
    )
    rng = random.Random(59)
    for _ in range(30):
        w = _random_pants_class(rng)
        assert word_action(pants_word(w)) == HomologyMatrix.identity(PANTS_SURFACE)


def test_pants_alexander_report():
    rng = random.Random(61)
    for _ in range(30):
        report = alexander_report(pants_word(_random_pants_class(rng)))
        assert report.poly.coefficients == (1, -2, 1)
        assert report.delta_one == 0
        assert report.classification is Classification.MULTI_COMPONENT_COMPATIBLE


def test_pants_alexander_matches_explicit_word():
    # cross-check against a word assembled by hand from explicit coordinates
    rng = random.Random(67)
    d1 = PANTS_SURFACE.homology_class((1, 0))
    d2 = PANTS_SURFACE.homology_class((0, 1))
    c = PANTS_SURFACE.homology_class((-1, -1))
    for _ in range(20):
        w = _random_pants_class(rng)
        letters = tuple(
            TwistLetter(curve, e)
            for curve, e in ((d1, w.p), (d2, w.q), (c, w.r))
            if e != 0
        )
        manual = alexander_report(TwistWord(letters, PANTS_SURFACE))
        via_module = alexander_report(pants_word(w))
        assert manual.poly == via_module.poly
        assert manual.delta_one == via_module.delta_one
