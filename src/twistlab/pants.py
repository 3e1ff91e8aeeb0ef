"""The pair of pants: twist length, the Stallings family, cut-arc analysis.

The mapping class group of a pair of pants (fixing the boundary
pointwise) is free abelian of rank three, generated by the right-handed
twists about the three boundary curves a, b, c.  That makes twist length
an exact L1 norm here, not just a lower bound.  The one-parameter family

    member n  <->  exponents (1, -1, n)

is the n-fold Stallings twist on the connected sum of a positive and a
negative Hopf band.  Cutting the fibre surface along the three
non-separating arcs (joining a-b, b-c, a-c) leaves unknotted annuli with
0, n+1, n-1 full twists; an annulus is a fibre surface only for a single
positive or negative full twist, which yields the deplumbing
obstruction for every n outside {-2, 0, 2}.  ``pants_word`` writes a
class as a twist word on the rank-2 homology, where it acts trivially.
"""

from __future__ import annotations

from dataclasses import dataclass

from .homology import Surface, TwistLetter, TwistWord

PANTS_SURFACE = Surface(0, 3)

ARC_NAMES = ("ab", "bc", "ac")


@dataclass(frozen=True)
class PantsClass:
    """Exponents (p, q, r) of the commuting twists about a, b, c."""

    p: int
    q: int
    r: int


def pants_twist_length(w: PantsClass) -> int:
    """Word length over the twist generators and inverses: |p| + |q| + |r|."""
    return abs(w.p) + abs(w.q) + abs(w.r)


@dataclass(frozen=True)
class PantsFamilyMember:
    """The n-fold Stallings twist on the summed positive/negative Hopf bands."""

    n: int

    @property
    def mapping_class(self) -> PantsClass:
        return PantsClass(1, -1, self.n)


@dataclass(frozen=True)
class ArcCut:
    """Annulus left by cutting along one non-separating arc."""

    arc: str
    full_twists: int

    @property
    def is_hopf_band(self) -> bool:
        return self.full_twists in (1, -1)


@dataclass(frozen=True)
class CutReport:
    arcs: tuple[ArcCut, ArcCut, ArcCut]


def cut_annulus_twists(n: int) -> CutReport:
    """Full twists of the annuli obtained by cutting the n-th family member.

    The arcs join the boundary pairs a-b, b-c, a-c and leave 0, n+1, n-1
    full twists respectively.
    """
    return CutReport(
        (
            ArcCut(ARC_NAMES[0], 0),
            ArcCut(ARC_NAMES[1], n + 1),
            ArcCut(ARC_NAMES[2], n - 1),
        )
    )


def hopf_deplumbing_obstructed(n: int) -> bool:
    """True when no cut arc leaves a Hopf band, so no last plumbing can be undone."""
    return not any(cut.is_hopf_band for cut in cut_annulus_twists(n).arcs)


def pants_word(w: PantsClass) -> TwistWord:
    """The mapping class as a twist word on the rank-2 homology of the pants.

    Boundary classes in the d-basis: a -> d1, b -> d2, c -> -d1 - d2.
    """
    curves = (
        PANTS_SURFACE.d(1),
        PANTS_SURFACE.d(2),
        PANTS_SURFACE.homology_class((-1, -1)),
    )
    letters = tuple(
        TwistLetter(curve, e)
        for curve, e in zip(curves, (w.p, w.q, w.r))
        if e != 0
    )
    return TwistWord(letters, PANTS_SURFACE)
