"""Characteristic polynomials and determinants against independent oracles."""

import random
from fractions import Fraction

from twistlab.polynomials import (
    IntegerPolynomial,
    characteristic_polynomial_from_rows,
    determinant,
    polynomial_text,
)


# --- oracle: det(t*I - M) by cofactor expansion over Z[t] -----------------
# Naive polynomial arithmetic and Laplace expansion, fully independent of
# the Berkowitz recurrence under test.


def _padd(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def _pmul(a, b):
    if not a or not b:
        return [0]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pdet(m):
    n = len(m)
    if n == 0:
        return [1]
    if n == 1:
        return m[0][0]
    total = [0]
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = _pmul(m[0][j], _pdet(minor))
        if j % 2:
            term = [-c for c in term]
        total = _padd(total, term)
    return total


def laplace_charpoly(rows):
    n = len(rows)
    entries = [
        [[-rows[i][j], 1] if i == j else [-rows[i][j]] for j in range(n)]
        for i in range(n)
    ]
    return IntegerPolynomial(tuple(_pdet(entries)))


def test_charpoly_matches_laplace_oracle():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(0, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert characteristic_polynomial_from_rows(rows) == laplace_charpoly(rows)


def test_charpoly_identity_matrices():
    # (t - 1)^n expanded, degrees 0..4
    binomials = {
        0: (1,),
        1: (-1, 1),
        2: (1, -2, 1),
        3: (-1, 3, -3, 1),
        4: (1, -4, 6, -4, 1),
    }
    for n, coeffs in binomials.items():
        eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert characteristic_polynomial_from_rows(eye).coefficients == coeffs


def test_charpoly_frozen_instances():
    # values hand-checked from 2x2 trace/determinant
    assert characteristic_polynomial_from_rows([[1, -1], [1, 0]]).coefficients == (1, -1, 1)
    assert characteristic_polynomial_from_rows([[1, -1], [-1, 2]]).coefficients == (1, -3, 1)


def test_determinant_against_charpoly_constant_term():
    # det(M) = (-1)^n * p(0) with p = det(t*I - M)
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        p0 = laplace_charpoly(rows).evaluate(0)
        assert determinant(rows) == (-1) ** n * p0
    assert determinant([]) == 1


def test_determinant_singular():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 5]]
    assert determinant(rows) == 0


def test_polynomial_normalization_and_degree():
    p = IntegerPolynomial((1, 2, 0, 0))
    assert p.coefficients == (1, 2)
    assert p.degree == 1
    zero = IntegerPolynomial((0, 0))
    assert zero.is_zero and zero.degree == -1


def test_polynomial_evaluate_exact():
    p = IntegerPolynomial((1, -3, 1))
    assert p.evaluate(1) == -1
    assert p.evaluate(Fraction(1, 2)) == Fraction(-1, 4)
    assert isinstance(p.evaluate(Fraction(1, 2)), Fraction)


def test_polynomial_text():
    assert polynomial_text(IntegerPolynomial((1, -1, 1))) == "t^2 - t + 1"
    assert polynomial_text(IntegerPolynomial((1, -3, 1))) == "t^2 - 3t + 1"
    assert polynomial_text(IntegerPolynomial((-1, 3, -1))) == "-t^2 + 3t - 1"
    assert polynomial_text(IntegerPolynomial(())) == "0"
    assert polynomial_text(IntegerPolynomial((5,))) == "5"
    assert polynomial_text(IntegerPolynomial((0, 1))) == "t"
    assert polynomial_text(IntegerPolynomial((-1, 2))) == "2t - 1"
    assert polynomial_text(IntegerPolynomial((0, 0, 7))) == "7t^2"
