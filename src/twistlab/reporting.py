"""Deterministic JSON/TSV rendering of reports and certificates.

Rationals are always rendered as reduced ``p/q`` strings with positive
denominator (never floats); documents are plain dicts built in a fixed
field order so identical inputs give byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import ParseError
from .obstruction import ObstructionCertificate
from .polynomials import IntegerPolynomial, polynomial_text
from .sclbound import Derivation, RationalBound
from .homology import Surface, pair

MALFORMED_RATIONAL = "malformed_rational"


def fraction_text(value) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(text: str) -> Fraction:
    """Accept ``p/q`` or a bare integer."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(
            MALFORMED_RATIONAL, f"cannot read rational {text!r}", token=text
        ) from exc


def surface_doc(surface: Surface) -> dict:
    return {
        "genus": surface.genus,
        "boundary": surface.boundary,
        "betti": surface.betti,
    }


def polynomial_doc(poly: IntegerPolynomial) -> dict:
    return {
        "text": polynomial_text(poly),
        "coefficients_constant_first": list(poly.coefficients),
        "degree": poly.degree,
    }


def bound_doc(bound: RationalBound) -> dict:
    return {
        "kind": bound.kind.value,
        "value": fraction_text(bound.value),
        "subject": bound.subject,
    }


def _param_value(value):
    if isinstance(value, Fraction):
        return fraction_text(value)
    return value


def derivation_doc(derivation: Derivation) -> dict:
    inputs = []
    for item in derivation.inputs:
        if isinstance(item, Derivation):
            inputs.append(derivation_doc(item))
        else:
            inputs.append({"leaf": bound_doc(item)})
    return {
        "rule": derivation.rule.value,
        "result": bound_doc(derivation.result),
        "params": {name: _param_value(value) for name, value in derivation.params},
        "inputs": inputs,
    }


def certificate_doc(cert: ObstructionCertificate) -> dict:
    return {
        "surface": surface_doc(cert.surface),
        "genus": cert.genus,
        "classes": [list(c.coords) for c in cert.classes],
        "complement_basis": [
            [fraction_text(v) for v in vec] for vec in cert.complement_basis
        ],
        "witness": list(cert.witness),
        "checks": {
            "witness_nonzero": any(w != 0 for w in cert.witness),
            "witness_pairings_zero": all(
                pair(cert.witness_class, c) == 0 for c in cert.classes
            ),
            "complement_dimension": len(cert.complement_basis),
            "dimension_lower_bound": max(
                2 * cert.genus - cert.distinct_class_count, 0
            ),
        },
    }


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def tsv_text(header, rows) -> str:
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return fraction_text(value)
    return str(value)
