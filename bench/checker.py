"""Output checker for benchmark requests, independent of ``twistlab``.

Every check recomputes what it compares from the request's own inputs
with code in this file: the transvection fold and Bareiss determinant for
``alexander``, the intersection pairing for ``twistlb``, the height
crossover and chain value in ``Fraction`` for ``scl``, and the cut
formulas for ``pants``.  ``check`` returns None for a correct report and
a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from workloads import Request, rank

CLASSIFICATIONS = {1: "knot_compatible", 0: "multi_component_compatible"}


class CheckFailure(Exception):
    pass


def expect(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailure(reason)


def check(request: Request, returncode: int, payload: bytes) -> str | None:
    try:
        expect(returncode == 0, f"exit code {returncode}")
        text = payload.decode()
        fmt = request.expect["format"]
        doc = json.loads(text) if fmt == "json" else _tsv(text)
        _CHECKS[request.kind](request.expect, doc, fmt)
    except CheckFailure as exc:
        return f"{request.kind}: {exc}"
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"{request.kind}: malformed report ({type(exc).__name__}: {exc})"
    return None


def _tsv(text: str) -> list[dict]:
    expect(text.endswith("\n"), "TSV report must end with a newline")
    header, *lines = text[:-1].split("\n")
    names = header.split("\t")
    rows = [dict(zip(names, line.split("\t"), strict=True)) for line in lines]
    return rows


def _bool(text: str) -> bool:
    expect(text in ("true", "false"), f"not a TSV boolean: {text!r}")
    return text == "true"


def frac(text: str) -> Fraction:
    expect(re.fullmatch(r"-?[0-9]+/[0-9]+", text) is not None, f"not a p/q rational: {text!r}")
    value = Fraction(text)
    expect(f"{value.numerator}/{value.denominator}" == text, f"rational not reduced: {text}")
    return value


def frac_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# alexander


def gradient(coords, genus: int) -> list[int]:
    """w with i(x, c) = x . w: each (a_j, b_j) pairs +1, boundary classes pair 0."""
    w = [0] * len(coords)
    for j in range(0, 2 * genus, 2):
        w[j], w[j + 1] = coords[j + 1], -coords[j]
    return w


def fold(letters, n: int, genus: int) -> list[list[int]]:
    """Word action, first letter first, as rank-one updates M += e c (w^T M)."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for coords, exponent in letters:
        w = gradient(coords, genus)
        row = [sum(w[k] * m[k][j] for k in range(n) if w[k]) for j in range(n)]
        for i in range(n):
            if coords[i]:
                scale = exponent * coords[i]
                m[i] = [a + scale * b for a, b in zip(m[i], row)]
    return m


def bareiss_det(rows) -> int:
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


_TERM = re.compile(r"([0-9]*)(t(?:\^([0-9]+))?)?")


def parse_polynomial(text: str) -> list[int]:
    """``t^2 - 3t + 1`` -> [1, -3, 1], constant first."""
    parts = text.split(" ")
    first = parts[0]
    terms = [("-" if first.startswith("-") else "+", first.removeprefix("-"))]
    terms += zip(parts[1::2], parts[2::2])
    expect(len(parts) % 2 == 1, f"bad polynomial text {text!r}")
    coeffs: dict[int, int] = {}
    for sign, body in terms:
        match = _TERM.fullmatch(body)
        expect(sign in "+-" and match is not None and body != "", f"bad term {body!r}")
        magnitude = int(match.group(1)) if match.group(1) else 1
        degree = int(match.group(3) or 1) if match.group(2) else 0
        expect(degree not in coeffs, "repeated degree in polynomial text")
        coeffs[degree] = -magnitude if sign == "-" else magnitude
    return [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]


def polynomial_text(coeffs) -> str:
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c:
            mag = abs(c)
            body = str(mag) if k == 0 else ("" if mag == 1 else str(mag)) + ("t" if k == 1 else f"t^{k}")
            terms.append(("-" if c < 0 else "+", body))
    out = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    return out + "".join(f" {s} {b}" for s, b in terms[1:])


def check_alexander(exp, doc, fmt) -> None:
    genus, boundary = exp["genus"], exp["boundary"]
    n = rank(genus, boundary)
    matrix = fold(exp["letters"], n, genus)
    if fmt == "json":
        expect(doc["command"] == "alexander", "wrong command")
        expect(doc["surface"] == {"genus": genus, "boundary": boundary, "betti": n}, "surface")
        expect(doc["word"] == exp["word"], "canonical word differs from the input")
        expect(doc["action_matrix"] == matrix, "action matrix differs from the transvection fold")
        poly = doc["characteristic_polynomial"]
        coeffs = poly["coefficients_constant_first"]
        expect(poly["degree"] == len(coeffs) - 1, "degree field")
        expect(poly["text"] == polynomial_text(coeffs), "polynomial text")
        delta_one, classification = doc["delta_one"], doc["classification"]
        normalized = doc["normalized_polynomial"]["coefficients_constant_first"]
        flip = -1 if delta_one == -1 else 1
        expect(normalized == [flip * c for c in coeffs], "normalized polynomial")
        expect(doc.get("verified") is (True if exp["verify"] else None), "verified flag")
    else:
        (row,) = doc
        expect((int(row["genus"]), int(row["boundary"])) == (genus, boundary), "surface")
        expect(row["word"] == exp["word"], "canonical word differs from the input")
        coeffs = parse_polynomial(row["polynomial"])
        expect(polynomial_text(coeffs) == row["polynomial"], "polynomial text is not canonical")
        delta_one, classification = int(row["delta_one"]), row["classification"]
    expect(len(coeffs) == n + 1 and coeffs[-1] == 1, f"not monic of degree {n}")
    expect(coeffs[-2] == -sum(matrix[i][i] for i in range(n)), "t^(n-1) coefficient is not -trace")
    expect(coeffs[0] == (-1) ** n, "constant term is not (-1)^n det M")
    expect(delta_one == sum(coeffs), "delta_one is not p(1)")
    identity_minus = [[int(i == j) - matrix[i][j] for j in range(n)] for i in range(n)]
    expect(delta_one == bareiss_det(identity_minus), "p(1) is not det(I - M)")
    expected_class = CLASSIFICATIONS.get(abs(delta_one), "neither")
    expect(classification == expected_class, f"classification {classification}")
    if boundary <= 1:
        expect(coeffs == coeffs[::-1], "polynomial is not reciprocal")


# ---------------------------------------------------------------------------
# twistlb


def pairing(x, y) -> int:
    return sum(a * b for a, b in zip(x, gradient(y, len(y) // 2)))


def check_twistlb(exp, doc, fmt) -> None:
    genus, classes, distinct = exp["genus"], exp["classes"], exp["distinct"]
    applicable = distinct < 2 * genus
    if fmt == "json":
        expect(doc["command"] == "twistlb", "wrong command")
        expect(doc["classes"] == classes, "classes differ from the file")
        expect(doc["distinct_classes"] == distinct, "distinct class count")
        expect(doc["required_distinct_classes"] == 2 * genus, "required count")
        expect(doc["applicable"] is applicable, "applicable flag")
        cert, verification = doc["certificate"], doc["verification"]
        expect(verification["passed"] is True, "verification did not pass")
        if not applicable:
            expect(cert is None and verification["words"] == 0, "certificate without obstruction")
            return
        witness = cert["witness"]
        basis = [[frac(v) for v in vec] for vec in cert["complement_basis"]]
        expect(cert["classes"] == classes, "certificate classes")
        expect(len(basis) >= 2 * genus - distinct, "complement dimension below 2g - n")
        for vec in basis:
            expect(all(pairing(vec, c) == 0 for c in classes), "basis vector leaves the complement")
        scale = math.lcm(*(v.denominator for v in basis[0]))
        expect(witness == [int(v * scale) for v in basis[0]], "witness is not the cleared basis[0]")
        expect(verification["words"] >= 1, "no verification words")
        checks = cert["checks"]
        expect(checks["witness_nonzero"] is True and checks["witness_pairings_zero"] is True, "checks")
        expect(checks["complement_dimension"] == len(basis), "complement dimension field")
    else:
        (row,) = doc
        expect(int(row["genus"]) == genus and int(row["boundary"]) == 1, "surface")
        expect(int(row["distinct_classes"]) == distinct, "distinct class count")
        expect(int(row["required_distinct_classes"]) == 2 * genus, "required count")
        expect(_bool(row["applicable"]) is applicable, "applicable flag")
        if not applicable:
            expect(row["witness"] == "-", "witness without obstruction")
            return
        witness = [int(v) for v in row["witness"].split(" ")]
    expect(len(witness) == 2 * genus and any(witness), "witness is zero or has the wrong rank")
    expect(all(pairing(witness, c) == 0 for c in classes), "witness pairs nonzero with a class")


# ---------------------------------------------------------------------------
# scl


def height_excluded(b1: int, n: int, alpha: Fraction, beta: Fraction, k: int) -> bool:
    return chain_value(b1, n, k) > model_value(b1, alpha, beta, k)


def chain_value(b1: int, n: int, k: int) -> Fraction:
    m = b1 + k + 6  # >= 6, so the capped genus m // 2 is at least 3
    return max(Fraction(abs(n), 18 * (m // 2) - 6) - (k + 7), Fraction(0))


def model_value(b1: int, alpha: Fraction, beta: Fraction, k: int) -> Fraction:
    return alpha * (b1 + k + 6) + beta


def height(b1: int, n: int, alpha: Fraction, beta: Fraction) -> int:
    """Smallest k not excluded, started from the closed-form crossover.

    With m = b1 + k + 6 and m // 2 ~ m / 2 the crossover solves
    |n| = (9m - 6)((1 + alpha) m + beta + 1 - b1); the walk from the root
    corrects the floor and the clamp exactly.
    """
    a = 9 * (1 + alpha)
    b = 9 * (beta + 1 - b1) - 6 * (1 + alpha)
    c = -6 * (beta + 1 - b1) - abs(n)
    disc = b * b - 4 * a * c
    root = (-b + math.isqrt(max(math.floor(disc), 0))) / (2 * a)
    k = max(math.floor(root) - b1 - 6, 0)
    while k > 0 and not height_excluded(b1, n, alpha, beta, k - 1):
        k -= 1
    while height_excluded(b1, n, alpha, beta, k):
        k += 1
    return k


def _model(exp) -> tuple[str, Fraction, Fraction]:
    if exp["model"] is None:
        return "illustrative", Fraction(1), Fraction(0)
    alpha, beta = exp["model"].split(",")
    return "user_supplied", Fraction(alpha), Fraction(beta)


def check_heightlb(exp, doc, fmt) -> None:
    b1, ns = exp["fibre_b1"], exp["ns"]
    kind, alpha, beta = _model(exp)
    heights = [height(b1, n, alpha, beta) for n in ns]
    if fmt == "tsv":
        expect([(int(r["n"]), int(r["h_lb"])) for r in doc] == list(zip(ns, heights)), "h_lb rows")
        return
    expect(doc["command"] == "heightlb" and doc["fibre_b1"] == b1, "fibre")
    expect(doc["model"] == {"kind": kind, "alpha": frac_text(alpha), "beta": frac_text(beta)}, "model")
    expect(doc["rows"] == [{"n": n, "h_lb": h} for n, h in zip(ns, heights)], "h_lb rows")
    expect(doc["verified"] is True, "verified flag")
    if len(ns) != 1:
        expect("derivations" not in doc, "sweep rendered derivations")
        return
    n, h = ns[0], heights[0]
    steps = ([h - 1] if h > 0 else []) + [h]
    derivations = doc["derivations"]
    expect(len(derivations) == 2 * len(steps), "derivation count")
    for i, k in enumerate(steps):
        lower, upper = derivations[2 * i], derivations[2 * i + 1]
        expect(lower["rule"] == "CAP" and upper["rule"] == "MODEL", "derivation rules")
        expect(frac(lower["result"]["value"]) == chain_value(b1, n, k), f"chain bound at k={k}")
        expect(frac(upper["result"]["value"]) == model_value(b1, alpha, beta, k), f"model at k={k}")


def check_sclbound(exp, doc, fmt) -> None:
    twists = [max(Fraction(t), 0) for t in exp["twists"]]
    tc, phi0, n = max(Fraction(exp["tc"]), 0), max(Fraction(exp["phi0"]), 0), exp["n"]
    value = max(sum(twists, Fraction(0)) + phi0 + abs(n) * tc - (len(twists) + 1), Fraction(0))
    if fmt == "tsv":
        (row,) = doc
        got = (int(row["k"]), frac(row["phi0"]), frac(row["tc"]), int(row["n"]), frac(row["value"]))
        expect(got == (len(twists), phi0, tc, n, value), "sclbound row")
        return
    expect(doc["command"] == "sclbound" and doc["verified"] is True, "command or verified flag")
    inputs = doc["inputs"]
    expect([frac(t) for t in inputs["twist_lower_bounds"]] == twists, "twist inputs")
    expect(frac(inputs["tc_lower_bound"]) == tc and inputs["n"] == n, "tc or n input")
    expect(frac(inputs["phi0_lower_bound"]) == phi0, "phi0 input")
    expect(frac(doc["value"]) == value, "chain value")
    tree = doc["derivation"]
    expect(tree["rule"] == "CHAIN" and frac(tree["result"]["value"]) == value, "derivation root")
    expect(tree["params"]["products_applied"] == len(twists) + 1, "products applied")
    power = tree["inputs"][-1]
    expect(power["rule"] == "POWER" and frac(power["result"]["value"]) == abs(n) * tc, "power node")


# ---------------------------------------------------------------------------
# pants

PANTS_TSV = ("twist_length", "arc_ab", "arc_bc", "arc_ac", "hopf_ab", "hopf_bc", "hopf_ac", "obstructed")


def pants_fields(n: int) -> tuple:
    cuts = (0, n + 1, n - 1)
    hopf = tuple(c in (1, -1) for c in cuts)
    return (2 + abs(n), *cuts, *hopf, not any(hopf))


def check_pants(exp, doc, fmt) -> None:
    ns = range(exp["lo"], exp["hi"] + 1)
    if fmt == "tsv":
        expect(len(doc) == len(ns), "row count")
        for n, row in zip(ns, doc):
            got = (int(row["n"]), *(int(row[k]) for k in PANTS_TSV[:4]), *(_bool(row[k]) for k in PANTS_TSV[4:]))
            expect(got == (n, *pants_fields(n)), f"pants row n={n}")
        return
    expect(doc["command"] == "pants", "wrong command")
    expect(doc.get("verified") is (True if exp["verify"] else None), "verified flag")
    rows = doc["rows"]
    expect(len(rows) == len(ns), "row count")
    for n, row in zip(ns, rows):
        cuts = row["cuts"]
        got = (
            row["n"],
            row["twist_length"],
            *(c["full_twists"] for c in cuts),
            *(c["is_hopf_band"] for c in cuts),
            row["deplumbing_obstructed"],
        )
        expect(got == (n, *pants_fields(n)), f"pants row n={n}")
        expect([c["arc"] for c in cuts] == ["ab", "bc", "ac"], "arc names")
        expect(row["exponents"] == {"a": 1, "b": -1, "c": n}, f"exponents n={n}")


_CHECKS = {
    "alexander": check_alexander,
    "twistlb": check_twistlb,
    "heightlb": check_heightlb,
    "sclbound": check_sclbound,
    "pants": check_pants,
}
