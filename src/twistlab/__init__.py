"""Exact computation with fibre-surface monodromies given as Dehn-twist words.

The package models the homological (symplectic) shadow of a mapping
class: Alexander polynomials via the action on first homology,
twist-length obstruction certificates for fibred-knot monodromies, the
pair-of-pants Stallings family, and certified lower bounds on
stabilisation height driven by stable-commutator-length inequalities.
Everything is computed in exact integer/rational arithmetic.

The names below are the package's API, each imported once from the
layer that defines it.
"""

from .errors import ParseError, PreconditionError, VerificationError
from .homology import (
    AlexanderReport,
    Classification,
    HomologyClass,
    HomologyMatrix,
    Surface,
    TwistLetter,
    TwistWord,
    alexander_report,
    characteristic_polynomial,
    pair,
    standard_form,
    word_action,
)
from .obstruction import (
    ObstructionCertificate,
    knot_monodromy_obstruction,
    orthogonal_complement,
    verify_certificate,
)
from .pants import (
    PANTS_SURFACE,
    ArcCut,
    CutReport,
    PantsClass,
    PantsFamilyMember,
    cut_annulus_twists,
    hopf_deplumbing_obstructed,
    pants_twist_length,
    pants_word,
)
from .polynomials import IntegerPolynomial, polynomial_text
from .sclbound import (
    BoundKind,
    CBoundModel,
    Derivation,
    HeightQuery,
    HeightResult,
    ILLUSTRATIVE_MODEL,
    ModelFlag,
    RationalBound,
    Rule,
    chain_lower,
    height_lower_bound,
    korkmaz_lower,
    lower,
    power_rule,
    replay,
    verify_derivation,
)
from .wordparse import canonicalize_word, parse_class
