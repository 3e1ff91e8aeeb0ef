"""Surfaces with boundary, their first homology, and Dehn-twist actions.

Basis convention: a surface of genus g with b boundary components has
first homology of rank 2g + max(b - 1, 0), ordered

    a_1, b_1, a_2, b_2, ..., a_g, b_g, d_1, ..., d_{b-1},

where (a_j, b_j) is a handle pair with intersection number
i(a_j, b_j) = +1 and the d_j are boundary-parallel classes pairing to
zero with everything.  The pairing matrix is block diagonal with g
copies of [[0, 1], [-1, 0]] followed by zero rows; it is non-degenerate
exactly when the surface has at most one boundary component.

A right-handed Dehn twist about a curve in class c acts on homology by
the transvection x -> x + i(x, c) * c.  In a twist word the first letter
acts first, so the matrix of a word is the product M_k ... M_1; it is
folded one letter at a time by rank-one updates and validated once, as
a finished product.  All arithmetic is exact over the integers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from operator import mul

from .errors import PreconditionError
from .polynomials import (
    IntegerPolynomial,
    characteristic_polynomial_from_rows,
    determinant,
)


@dataclass(frozen=True)
class Surface:
    """An oriented surface given by genus and boundary component count."""

    genus: int
    boundary: int

    def __post_init__(self):
        if self.genus < 0 or self.boundary < 0:
            raise PreconditionError("genus and boundary count must be non-negative")

    @property
    def betti(self) -> int:
        """Rank of the first homology group."""
        return 2 * self.genus + max(self.boundary - 1, 0)

    def homology_class(self, coords) -> HomologyClass:
        return HomologyClass(tuple(int(c) for c in coords), self)

    def zero_class(self) -> HomologyClass:
        return self.homology_class((0,) * self.betti)

    def a(self, i: int) -> HomologyClass:
        """The handle class a_i (1-based, i <= genus)."""
        return self._basis_class(2 * (i - 1), i, self.genus, "a")

    def b(self, i: int) -> HomologyClass:
        """The handle class b_i (1-based, i <= genus)."""
        return self._basis_class(2 * (i - 1) + 1, i, self.genus, "b")

    def d(self, j: int) -> HomologyClass:
        """The boundary-parallel class d_j (1-based, j <= boundary - 1)."""
        return self._basis_class(
            2 * self.genus + (j - 1), j, max(self.boundary - 1, 0), "d"
        )

    def _basis_class(self, position, index, limit, family) -> HomologyClass:
        if not 1 <= index <= limit:
            raise PreconditionError(
                f"{family}{index} is not a basis class of genus-{self.genus} "
                f"boundary-{self.boundary} homology"
            )
        coords = [0] * self.betti
        coords[position] = 1
        return HomologyClass(tuple(coords), self)


@dataclass(frozen=True)
class HomologyClass:
    """An integer vector in the fixed homology basis of one surface."""

    coords: tuple[int, ...]
    surface: Surface

    def __post_init__(self):
        coords = tuple(int(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) != self.surface.betti:
            raise PreconditionError(
                f"class has {len(coords)} coordinates, surface has rank "
                f"{self.surface.betti}"
            )

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __neg__(self) -> HomologyClass:
        return HomologyClass(tuple(-c for c in self.coords), self.surface)


@dataclass(frozen=True)
class TwistLetter:
    """A Dehn twist about ``curve``, raised to a nonzero integer power."""

    curve: HomologyClass
    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "exponent", int(self.exponent))
        if self.exponent == 0:
            raise PreconditionError("twist letters must have nonzero exponent")


@dataclass(frozen=True)
class TwistWord:
    """An ordered product of twist letters on one surface.

    The empty word is allowed and acts as the identity.
    """

    letters: tuple[TwistLetter, ...]
    surface: Surface

    def __post_init__(self):
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        for letter in letters:
            if letter.curve.surface != self.surface:
                raise PreconditionError("all letters must live on the word's surface")

    @classmethod
    def from_pairs(cls, surface: Surface, pairs) -> TwistWord:
        """Build a word from (class, exponent) pairs."""
        return cls(tuple(TwistLetter(c, e) for c, e in pairs), surface)

    def __len__(self) -> int:
        return len(self.letters)


@functools.lru_cache(maxsize=None)
def standard_form(surface: Surface) -> tuple[tuple[int, ...], ...]:
    """Matrix of the intersection pairing in the a/b/d basis."""
    n = surface.betti
    rows = [[0] * n for _ in range(n)]
    for j in range(surface.genus):
        rows[2 * j][2 * j + 1] = 1
        rows[2 * j + 1][2 * j] = -1
    return tuple(tuple(row) for row in rows)


def pair(x: HomologyClass, y: HomologyClass) -> int:
    """Algebraic intersection number i(x, y)."""
    if x.surface != y.surface:
        raise PreconditionError("intersection pairing needs classes on one surface")
    total = 0
    for j in range(x.surface.genus):
        total += x.coords[2 * j] * y.coords[2 * j + 1]
        total -= x.coords[2 * j + 1] * y.coords[2 * j]
    return total


def pairing_gradient(c: HomologyClass) -> tuple[int, ...]:
    """The vector w with pair(x, c) = sum_i x[i] * w[i] for all x."""
    w = [0] * c.surface.betti
    for j in range(c.surface.genus):
        w[2 * j] = c.coords[2 * j + 1]
        w[2 * j + 1] = -c.coords[2 * j]
    return tuple(w)


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _preserves_form(entries, surface: Surface) -> bool:
    """M^T J M == J, entry (i, j) being the pairing of columns i and j.

    M^T J M is antisymmetric for every M, as J is, so the entries above
    the diagonal decide.
    """
    g2 = 2 * surface.genus
    form = standard_form(surface)
    cols = [(col[0:g2:2], col[1:g2:2]) for col in zip(*entries)]
    for i, (ai, bi) in enumerate(cols):
        for j in range(i + 1, len(cols)):
            aj, bj = cols[j]
            if sum(map(mul, ai, bj)) - sum(map(mul, bi, aj)) != form[i][j]:
                return False
    return True


@dataclass(frozen=True)
class HomologyMatrix:
    """Matrix of a mapping class on first homology (columns convention).

    Construction checks the two defining invariants exactly: the matrix
    preserves the intersection form (M^T J M = J, with J possibly
    degenerate) and has determinant one.  For a non-degenerate J (at most
    one boundary component) the first implies the second, because
    Pf(M^T J M) = det(M) Pf(J) and Pf(J) = 1; the determinant is computed
    only when J is degenerate.
    """

    entries: tuple[tuple[int, ...], ...]
    surface: Surface

    def __post_init__(self):
        entries = tuple(tuple(int(v) for v in row) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        n = self.surface.betti
        if len(entries) != n or any(len(row) != n for row in entries):
            raise PreconditionError(f"expected a {n}x{n} matrix")
        if not _preserves_form(entries, self.surface):
            raise PreconditionError("matrix does not preserve the intersection form")
        if self.surface.boundary >= 2 and determinant(entries) != 1:
            raise PreconditionError("matrix determinant is not 1")

    @classmethod
    def identity(cls, surface: Surface) -> HomologyMatrix:
        n = surface.betti
        rows = tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )
        return cls(rows, surface)

    def apply_vector(self, vec) -> tuple[int, ...]:
        n = self.surface.betti
        return tuple(
            sum(self.entries[i][j] * vec[j] for j in range(n)) for i in range(n)
        )

    def apply(self, x: HomologyClass) -> HomologyClass:
        if x.surface != self.surface:
            raise PreconditionError("class and matrix live on different surfaces")
        return HomologyClass(self.apply_vector(x.coords), self.surface)

    def compose(self, other: HomologyMatrix) -> HomologyMatrix:
        """self after other (matrix product self * other)."""
        if other.surface != self.surface:
            raise PreconditionError("matrices live on different surfaces")
        return HomologyMatrix(_matmul(self.entries, other.entries), self.surface)

    def __matmul__(self, other: HomologyMatrix) -> HomologyMatrix:
        return self.compose(other)


def twist_action(c: HomologyClass, exponent: int = 1) -> HomologyMatrix:
    """Action of the exponent-th power of a right-handed twist about c.

    The transvection x -> x + exponent * i(x, c) * c; in particular the
    curve's own class is fixed, and the zero class gives the identity.
    """
    w = pairing_gradient(c)
    n = c.surface.betti
    rows = tuple(
        tuple(
            (1 if i == j else 0) + exponent * c.coords[i] * w[j] for j in range(n)
        )
        for i in range(n)
    )
    return HomologyMatrix(rows, c.surface)


def word_action(word: TwistWord) -> HomologyMatrix:
    """Matrix of a twist word; the first letter acts first.

    The letter T_c^e multiplies the running product M on the left by
    id + e * c w^T, with w = pairing_gradient(c), which is the rank-one
    update M <- M + c (e * w^T M): O(n^2) per letter, and letters whose
    class pairs to zero with everything are skipped.  Only the finished
    product is built as a HomologyMatrix, so it is validated once.
    """
    n = word.surface.betti
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for letter in word.letters:
        w = pairing_gradient(letter.curve)
        update = [0] * n
        for k, wk in enumerate(w):
            if wk:
                update = [u + wk * v for u, v in zip(update, rows[k])]
        if not any(update):
            continue
        for i, ci in enumerate(letter.curve.coords):
            if ci:
                f = letter.exponent * ci
                rows[i] = [v + f * u for v, u in zip(rows[i], update)]
    return HomologyMatrix(tuple(map(tuple, rows)), word.surface)


def characteristic_polynomial(matrix: HomologyMatrix) -> IntegerPolynomial:
    """det(t*id - M), computed exactly over the integers."""
    return characteristic_polynomial_from_rows(matrix.entries)


def characteristic_value(matrix: HomologyMatrix, t: int) -> int:
    """det(t*id - M), the characteristic polynomial's value at t, by Bareiss."""
    return determinant(
        [
            [(t if i == j else 0) - v for j, v in enumerate(row)]
            for i, row in enumerate(matrix.entries)
        ]
    )


class Classification(Enum):
    """Compatibility of a polynomial's value at 1 with link geometry.

    A fibred knot has Alexander value +-1 at t = 1; a fibred link with
    two or more components has value 0.
    """

    KNOT_COMPATIBLE = "knot_compatible"
    MULTI_COMPONENT_COMPATIBLE = "multi_component_compatible"
    NEITHER = "neither"


@dataclass(frozen=True)
class AlexanderReport:
    """Characteristic polynomial of a word action plus its value at 1.

    ``normalized`` multiplies by -1 when the value at 1 is -1, matching
    the convention in which knots have Alexander value +1.  ``action`` is
    the word's matrix the polynomial was computed from.
    """

    poly: IntegerPolynomial
    delta_one: int
    classification: Classification
    normalized: IntegerPolynomial
    action: HomologyMatrix


def alexander_report(word: TwistWord) -> AlexanderReport:
    """Alexander-style report for the homological action of a word."""
    action = word_action(word)
    poly = characteristic_polynomial(action)
    delta_one = poly.evaluate(1)
    if abs(delta_one) == 1:
        kind = Classification.KNOT_COMPATIBLE
    elif delta_one == 0:
        kind = Classification.MULTI_COMPONENT_COMPATIBLE
    else:
        kind = Classification.NEITHER
    normalized = -poly if delta_one == -1 else poly
    return AlexanderReport(poly, delta_one, kind, normalized, action)
