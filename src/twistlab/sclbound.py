"""Exact rational calculus of stable-commutator-length inequalities.

The rules encoded here, for mapping classes of closed orientable
surfaces of genus at least three (a perfect group):

  * KORKMAZ   scl(T) >= 1/(18g - 6) for a Dehn twist T about an
              essential curve (Endo-Kotschick for separating curves,
              Korkmaz in general);
  * POWER     scl(T^n) = |n| scl(T) (homogeneity), used as a lower bound;
  * CHAIN     the product rule scl(gh) >= scl(g) + scl(h) - 1, iterated
              across a factorisation into k + 2 pieces:
              scl(f_1 ... f_{k+2}) >= sum_i scl(f_i) - (k + 1), clamped
              at zero once at the end (the product rule has no node of
              its own);
  * CAP       capping boundary components with discs does not increase
              scl, so a lower bound for the capped class transfers;
  * MODEL     a pluggable affine upper bound C(m) = alpha*m + beta on the
              scl of a monodromy written as m Dehn twists on a surface
              with first Betti number m.  No certified formula for C is
              encoded; the default model alpha=1, beta=0 is flagged
              illustrative and every conclusion is conditional on it.

``height_lower_bound`` combines these into a certified lower bound on
the stabilisation height of a fibre surface whose monodromy is composed
with the n-th power of a twist about an essential curve: a common
stabilisation reachable with k Hopf plumbings (plus at most six
auxiliary ones, always charged in full) would force

    L(k) = max(|n| / (18*gcap(k) - 6) - (k + 7), 0)  <=  C(m(k)),

with m(k) = fibre_b1 + k + 6 and gcap(k) = max(m(k) // 2, 3) the
largest genus the capped stabilisation can have (larger genus weakens
the twist bound, so this is the conservative choice).  The smallest k
satisfying the inequality bounds the height from below; it grows without
bound in |n| for every affine model.

The search itself compares in integers; the derivation trees of the
two k it brackets carry the same inequality in ``fractions.Fraction``,
so ``verify_derivation`` and a comparison of the trees' values check
the reported height by another route.  Derivations are immutable trees
that replay bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .errors import PreconditionError, VerificationError


class BoundKind(Enum):
    LOWER = "LOWER"
    UPPER = "UPPER"


@dataclass(frozen=True)
class RationalBound:
    """An exact rational bound on an scl value.

    Lower bounds are clamped to >= 0 on construction, since scl is
    non-negative on every element in scope.
    """

    value: Fraction
    kind: BoundKind
    subject: str = ""

    def __post_init__(self):
        value = Fraction(self.value)
        if self.kind is BoundKind.LOWER and value < 0:
            value = Fraction(0)
        object.__setattr__(self, "value", value)


def lower(value, subject: str = "") -> RationalBound:
    return RationalBound(value, BoundKind.LOWER, subject)


def upper(value, subject: str = "") -> RationalBound:
    return RationalBound(value, BoundKind.UPPER, subject)


class Rule(Enum):
    KORKMAZ = "KORKMAZ"
    POWER = "POWER"
    CHAIN = "CHAIN"
    CAP = "CAP"
    MODEL = "MODEL"


@dataclass(frozen=True)
class Derivation:
    """One applied inequality rule with its inputs and stored result.

    ``inputs`` holds child derivations and/or leaf bounds; ``params``
    is an ordered tuple of (name, value) pairs carrying the rule's
    non-bound arguments (exponents, counts, model coefficients).  The
    stored result is recomputable from the inputs by reapplying the
    rule; ``replay``/``verify_derivation`` check that exactly.
    """

    rule: Rule
    inputs: tuple
    result: RationalBound
    params: tuple[tuple[str, object], ...] = ()

    def param(self, name: str):
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)


def _bound(item) -> RationalBound:
    """The bound an input stands for: a derivation's stored result, or the leaf."""
    return item.result if isinstance(item, Derivation) else item


def replay(derivation: Derivation) -> RationalBound:
    """Recompute a derivation bottom-up, ignoring every stored result."""
    values = [
        replay(item).value if isinstance(item, Derivation) else item.value
        for item in derivation.inputs
    ]
    return _apply_rule(derivation, values)


def verify_derivation(derivation: Derivation) -> bool:
    """True iff every node's stored result matches its replayed value exactly.

    Children are checked first, so each node's rule is then applied once,
    to its inputs' stored results: those equal their replayed values.
    """
    children = [item for item in derivation.inputs if isinstance(item, Derivation)]
    if not all(map(verify_derivation, children)):
        return False
    applied = _apply_rule(derivation, [_bound(item).value for item in derivation.inputs])
    return (applied.value, applied.kind) == (derivation.result.value, derivation.result.kind)


def _apply_rule(derivation: Derivation, values: list[Fraction]) -> RationalBound:
    """The node's rule applied to the given values of its inputs."""
    rule = derivation.rule
    if rule is Rule.KORKMAZ:
        g = derivation.param("genus")
        if g < 3:
            raise VerificationError("twist bound replay needs genus >= 3")
        return lower(Fraction(1, 18 * g - 6))
    if rule is Rule.POWER:
        if len(values) != 1:
            raise VerificationError("power rule takes one input")
        return lower(abs(derivation.param("exponent")) * values[0])
    if rule is Rule.CHAIN:
        applications = derivation.param("products_applied")
        zero_terms = derivation.param("zero_terms")
        if len(values) + zero_terms != applications + 1:
            raise VerificationError("chain factor count mismatch")
        return lower(sum(values, Fraction(0)) - applications)
    if rule is Rule.CAP:
        if len(values) != 1:
            raise VerificationError("cap rule takes one input")
        return lower(values[0])
    if rule is Rule.MODEL:
        alpha = derivation.param("alpha")
        beta = derivation.param("beta")
        m = derivation.param("argument")
        return upper(alpha * m + beta)
    raise VerificationError(f"unknown rule {rule}")


# ---------------------------------------------------------------------------
# individual rules


def korkmaz_lower(g: int) -> RationalBound:
    """scl(T) >= 1/(18g - 6) for a twist on a closed genus-g surface, g >= 3."""
    if g < 3:
        raise PreconditionError("the twist bound requires genus at least 3")
    return lower(Fraction(1, 18 * g - 6), f"Dehn twist on a closed genus-{g} surface")


def derive_korkmaz(g: int) -> Derivation:
    return Derivation(Rule.KORKMAZ, (), korkmaz_lower(g), (("genus", g),))


def power_rule(l: RationalBound, n: int) -> RationalBound:
    """scl(g^n) >= |n| scl(g) (equality by homogeneity)."""
    if l.kind is not BoundKind.LOWER:
        raise PreconditionError("power rule scales a lower bound")
    return lower(abs(n) * l.value, f"power {n} of: {l.subject}" if l.subject else "power")


def derive_power(base, n: int) -> Derivation:
    return Derivation(Rule.POWER, (base,), power_rule(_bound(base), n), (("exponent", n),))


def derive_cap(inner: Derivation, subject: str = "monodromy before capping") -> Derivation:
    """Transfer a lower bound from the capped-off closed surface."""
    return Derivation(
        Rule.CAP, (inner,), RationalBound(inner.result.value, BoundKind.LOWER, subject)
    )


def derive_chain(inputs, zero_terms: int, subject: str) -> Derivation:
    """Iterated product rule over the inputs and ``zero_terms`` factors bounded by 0.

    With j = len(inputs) + zero_terms - 1 product applications the bound is
    max(sum of the inputs' bounds - j, 0), clamped once at the end.
    """
    inputs = tuple(inputs)
    applications = len(inputs) + zero_terms - 1
    total = sum((_bound(item).value for item in inputs), Fraction(0)) - applications
    params = (("products_applied", applications), ("zero_terms", zero_terms))
    return Derivation(Rule.CHAIN, inputs, lower(total, subject), params)


def chain_lower(
    twist_lowers, phi0_lower: RationalBound, tc_lower: RationalBound, n: int
) -> Derivation:
    """Iterated product rule across k twist factors, a base map and a twist power.

    Returns the derivation of
        max( sum(twist_lowers) + phi0_lower + |n| * tc_lower - (k + 1), 0 ).
    """
    twist_lowers = tuple(twist_lowers)
    for bound in (*twist_lowers, phi0_lower, tc_lower):
        if bound.kind is not BoundKind.LOWER:
            raise PreconditionError("chain inputs must be lower bounds")
    inputs = (*twist_lowers, phi0_lower, derive_power(tc_lower, n))
    return derive_chain(inputs, 0, "composite monodromy")


# ---------------------------------------------------------------------------
# the height calculator


class ModelFlag(Enum):
    ILLUSTRATIVE = "illustrative"
    USER_SUPPLIED = "user_supplied"


@dataclass(frozen=True)
class CBoundModel:
    """Affine stand-in C(m) = alpha*m + beta for the twist-product scl ceiling."""

    alpha: Fraction
    beta: Fraction
    flag: ModelFlag = ModelFlag.ILLUSTRATIVE

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.alpha < 0:
            raise PreconditionError("the model must be non-decreasing (alpha >= 0)")

    def evaluate(self, m: int) -> Fraction:
        return self.alpha * m + self.beta


ILLUSTRATIVE_MODEL = CBoundModel(Fraction(1), Fraction(0), ModelFlag.ILLUSTRATIVE)


@dataclass(frozen=True)
class HeightQuery:
    """A fibre surface (by first Betti number), twist exponent and C-model."""

    fibre_b1: int
    n: int
    model: CBoundModel = ILLUSTRATIVE_MODEL

    def __post_init__(self):
        if self.fibre_b1 < 0:
            raise PreconditionError("first Betti number must be non-negative")


@dataclass(frozen=True)
class HeightResult:
    """Certified lower bound for a query, with the binding derivations.

    ``derivations`` is built when first read, once per result.  For
    h_lb > 0 it holds four entries: the chain lower bound and model upper
    bound at k = h_lb - 1 (contradictory, excluding that many plumbings)
    followed by the same pair at k = h_lb (compatible, so the search
    stops).  For h_lb = 0 only the compatible pair is present.
    Monotonicity of the two sides extends the exclusion to every smaller k.
    """

    query: HeightQuery
    h_lb: int

    @cached_property
    def derivations(self) -> tuple[Derivation, ...]:
        steps = (self.h_lb - 1, self.h_lb) if self.h_lb > 0 else (0,)
        return tuple(node for k in steps for node in _step_derivations(self.query, k))


def stabilisation_betti(query: HeightQuery, k: int) -> int:
    """b1 of the k-fold plumbed surface with the six auxiliary bands charged."""
    return query.fibre_b1 + k + 6


def capped_genus(query: HeightQuery, k: int) -> int:
    """Largest genus the capped stabilisation can have (floored at 3)."""
    return max(stabilisation_betti(query, k) // 2, 3)


def _step_derivations(query: HeightQuery, k: int) -> tuple[Derivation, Derivation]:
    """The lower/upper pair for a hypothetical k-plumbing stabilisation."""
    g = capped_genus(query, k)
    m = stabilisation_betti(query, k)
    power_node = derive_power(derive_korkmaz(g), query.n)
    # k + 6 plumbed twists and the base map, all bounded by 0
    chain = derive_chain((power_node,), k + 7, f"capped monodromy, {k} plumbings")
    cap = derive_cap(chain, f"stabilised monodromy, {k} plumbings")
    model_node = Derivation(
        Rule.MODEL,
        (),
        upper(query.model.evaluate(m), f"{m}-twist product ceiling"),
        (
            ("alpha", query.model.alpha),
            ("beta", query.model.beta),
            ("argument", m),
        ),
    )
    return cap, model_node


def height_lower_bound(query: HeightQuery) -> HeightResult:
    """Smallest k with L(k) <= C(m(k)); every smaller k is contradicted.

    L is non-increasing and C non-decreasing in k, so the crossover is
    unique and found by bracketing plus binary search.  Non-decreasing in
    |n| for a fixed fibre and model.  The search compares in integers;
    the result's derivations give the same comparison in ``Fraction``.
    """
    model = query.model
    if model.alpha == 0 and model.beta < 0:
        raise PreconditionError(
            "model ceiling is negative for every size; no stabilisation is consistent"
        )
    # With scale = den(alpha) * den(beta), C(m) = (slope * m + offset) / scale.
    scale = model.alpha.denominator * model.beta.denominator
    slope = model.alpha.numerator * model.beta.denominator
    offset = model.beta.numerator * model.alpha.denominator
    twist = abs(query.n) * scale

    def excluded(k: int) -> bool:
        # max(|n|/D - (k + 7), 0) > C(m) with D = 18*gcap - 6 > 0 holds iff
        # C(m) < 0 or |n|/D - (k + 7) > C(m); the latter times D * scale.
        ceiling = slope * stabilisation_betti(query, k) + offset
        denom = 18 * capped_genus(query, k) - 6
        return ceiling < 0 or twist > denom * ((k + 7) * scale + ceiling)

    if not excluded(0):
        h_lb = 0
    else:
        lo, hi = 0, 1
        while excluded(hi):
            lo, hi = hi, hi * 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if excluded(mid):
                lo = mid
            else:
                hi = mid
        h_lb = hi
    return HeightResult(query, h_lb)
