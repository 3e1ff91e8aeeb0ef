"""Exact integer polynomials and fraction-free matrix routines.

Everything here runs on plain Python integers, so there is no overflow
and no rounding; floating point is never used.  Matrices are sequences
of row sequences.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IntegerPolynomial:
    """A polynomial with integer coefficients, constant term first.

    Trailing zero coefficients are stripped on construction; the zero
    polynomial is the empty tuple and has degree -1.
    """

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def evaluate(self, x):
        """Evaluate by Horner's rule; exact for int and Fraction arguments."""
        acc = 0 * x
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __neg__(self) -> IntegerPolynomial:
        return IntegerPolynomial(tuple(-c for c in self.coefficients))

    def __str__(self) -> str:
        return polynomial_text(self)


def polynomial_text(poly: IntegerPolynomial) -> str:
    """Render in ``t`` with terms in descending degree, e.g. ``t^2 - t + 1``."""
    if poly.is_zero:
        return "0"
    terms = []
    for k in range(poly.degree, -1, -1):
        c = poly.coefficients[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "t" if mag == 1 else f"{mag}t"
        else:
            body = f"t^{k}" if mag == 1 else f"{mag}t^{k}"
        terms.append((c < 0, body))
    negative, body = terms[0]
    out = ("-" if negative else "") + body
    for negative, body in terms[1:]:
        out += (" - " if negative else " + ") + body
    return out


def characteristic_coefficients(rows) -> tuple[int, ...]:
    """Coefficients of det(t*I - M), highest degree first.

    Samuelson-Berkowitz recurrence: iterates over leading principal
    submatrices, multiplying the coefficient vector by a Toeplitz matrix
    whose column is built from -R * M^j * C.  Division-free, so the
    result is exact over the integers.
    """
    n = len(rows)
    coeffs = [1]
    for k in range(1, n + 1):
        r = rows[k - 1][: k - 1]
        col = [rows[i][k - 1] for i in range(k - 1)]
        head = [1, -rows[k - 1][k - 1]]
        v = list(col)
        for _ in range(k - 1):
            head.append(-sum(a * b for a, b in zip(r, v)))
            v = [sum(rows[i][j] * v[j] for j in range(k - 1)) for i in range(k - 1)]
        nxt = [0] * (k + 1)
        for j, q in enumerate(coeffs):
            for d, h in enumerate(head):
                if j + d <= k:
                    nxt[j + d] += h * q
        coeffs = nxt
    return tuple(coeffs)


def characteristic_polynomial_from_rows(rows) -> IntegerPolynomial:
    """det(t*I - M) as an IntegerPolynomial (monic of degree n)."""
    return IntegerPolynomial(tuple(reversed(characteristic_coefficients(rows))))


def determinant(rows) -> int:
    """Exact integer determinant by Bareiss fraction-free elimination."""
    a = [list(row) for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss: this division is exact.
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
