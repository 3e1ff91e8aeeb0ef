"""Twist-length obstructions for fibred-knot monodromies.

A product of Dehn twists about curves whose homology classes span a
subspace V of rank < 2g fixes every class in the symplectic complement
of V; on a genus-g surface with one boundary component that complement
is nonzero, so the characteristic polynomial of the product vanishes at
t = 1.  A fibred knot of genus g instead has value +-1 there, so its
monodromy needs at least 2g distinct twist classes.  The certificate
below materializes the argument: an exact rational basis of the
complement and a primitive integer witness vector fixed by every word
over the given classes.

All kernel computations use exact rational arithmetic with a
deterministic echelon form (pivots chosen at the lowest column index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .homology import (
    HomologyClass,
    Surface,
    TwistWord,
    characteristic_value,
    pair,
    pairing_gradient,
    word_action,
)


def _reduced_echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns the nonzero rows and pivot columns."""
    rows = [list(row) for row in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        hit = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _kernel_basis(rows, ncols: int) -> list[tuple[Fraction, ...]]:
    """Deterministic rational basis of the right kernel, one vector per free column."""
    echelon, pivots = _reduced_echelon([[Fraction(v) for v in row] for row in rows])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -echelon[i][f]
        basis.append(tuple(vec))
    return basis


def clear_denominators(vec) -> tuple[int, ...]:
    """Scale a rational vector by the lcm of its denominators."""
    fracs = [Fraction(v) for v in vec]
    scale = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
    return tuple(int(f * scale) for f in fracs)


def orthogonal_complement(surface: Surface, classes) -> list[tuple[Fraction, ...]]:
    """Exact basis of {x : pair(x, c) = 0 for every given class c}.

    The dimension is the homology rank minus the rank of the pairing
    constraints.  An empty class list yields the full space.
    """
    for c in classes:
        if c.surface != surface:
            raise PreconditionError("all classes must live on the given surface")
    constraints = [pairing_gradient(c) for c in classes]
    return _kernel_basis(constraints, surface.betti)


@dataclass(frozen=True)
class ObstructionCertificate:
    """Witness that a class list is too small for a genus-g knot monodromy.

    Checked on construction: the witness is nonzero, pairs to zero with
    every listed class, and the complement has dimension at least
    2g - (number of distinct classes).
    """

    surface: Surface
    genus: int
    classes: tuple[HomologyClass, ...]
    complement_basis: tuple[tuple[Fraction, ...], ...]
    witness: tuple[int, ...]

    def __post_init__(self):
        if all(w == 0 for w in self.witness):
            raise PreconditionError("certificate witness must be nonzero")
        witness_class = self.surface.homology_class(self.witness)
        for c in self.classes:
            if pair(witness_class, c) != 0:
                raise PreconditionError("witness must pair to zero with every class")
        if self.surface.boundary == 1:
            needed = 2 * self.genus - self.distinct_class_count
            if len(self.complement_basis) < needed:
                raise PreconditionError("complement dimension below 2g - n")

    @property
    def distinct_class_count(self) -> int:
        return len({c.coords for c in self.classes})

    @property
    def witness_class(self) -> HomologyClass:
        return self.surface.homology_class(self.witness)


def knot_monodromy_obstruction(genus: int, classes, surface: Surface | None = None):
    """Certificate that < 2g distinct twist classes cannot give a genus-g knot.

    Distinctness is counted on homology coordinate vectors; repeated
    twists about one class count once.  Returns None when the list
    already has at least 2g distinct classes (the bound is not violated).
    The witness is the first vector of the deterministic echelon basis of
    the complement, cleared to integer coordinates.
    """
    classes = tuple(classes)
    if classes:
        surface = classes[0].surface
    elif surface is None:
        surface = Surface(genus, 1)
    if surface.boundary != 1:
        raise PreconditionError("the obstruction applies to one-boundary surfaces")
    if surface.genus != genus:
        raise PreconditionError(
            f"surface genus {surface.genus} does not match the queried genus {genus}"
        )
    distinct = {c.coords for c in classes}
    if len(distinct) >= 2 * genus:
        return None
    basis = orthogonal_complement(surface, classes)
    witness = clear_denominators(basis[0])
    return ObstructionCertificate(surface, genus, classes, tuple(basis), witness)


def verify_certificate(cert: ObstructionCertificate, word: TwistWord) -> bool:
    """Check the certificate against one word over its classes.

    True iff the word action fixes the witness and its characteristic
    polynomial vanishes at 1, evaluated as det(id - M).  For any word
    built from the certified classes this must hold; False signals an
    implementation bug.
    """
    allowed = {c.coords for c in cert.classes}
    for letter in word.letters:
        if letter.curve.surface != cert.surface or letter.curve.coords not in allowed:
            raise PreconditionError("word uses a class not listed in the certificate")
    action = word_action(word)
    if action.apply_vector(cert.witness) != cert.witness:
        return False
    return characteristic_value(action, 1) == 0


def knot_twist_length_lower_bound(genus: int) -> int:
    """Minimal number of distinct twist factors for a genus-g knot monodromy: 2g."""
    if genus < 0:
        raise PreconditionError("genus must be non-negative")
    return 2 * genus
