"""Deterministic JSON/TSV rendering of reports and certificates.

Rationals are always rendered as reduced ``p/q`` strings with positive
denominator (never floats); documents are plain dicts built in a fixed
field order so identical inputs give byte-identical output.

Sweep subcommands (``pants``, ``heightlb``) give their rows as tuples of
scalars described by one ``RowSchema`` each, which renders both formats:
rows go through a JSON row template compiled once from
``json.dumps(..., indent=2)``, so the output is byte-identical to dumping
the row dicts, and the TSV columns are read off the same schema.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from operator import itemgetter

from .errors import ParseError
from .obstruction import ObstructionCertificate
from .pants import ARC_NAMES
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


# ---------------------------------------------------------------------------
# sweep rows

# Placeholders never equal a report string: those hold no NUL character.
_FIRST, _SECOND = "\0first", "\0second"


def _rows_layout() -> tuple[str, str, str]:
    """What json.dumps writes before, between and after the items of a
    report's top-level "rows" list, read off two placeholder rows."""
    text = json.dumps({"rows": [_FIRST, _SECOND]}, indent=2)
    head, _, rest = text.partition(json.dumps(_FIRST))
    separator, _, tail = rest.partition(json.dumps(_SECOND))
    return head, separator, tail


_ROWS_HEAD, _ROWS_SEPARATOR, _ROWS_TAIL = _rows_layout()


def cell(column: str) -> str:
    """Placeholder for a column's value in the JSON shape of a ``RowSchema``."""
    return "\0" + column


class RowSchema:
    """The rows of one sweep subcommand, rendered as JSON and as TSV.

    A row is a tuple of scalars, one per entry of ``columns`` (column name
    to ``int`` or ``bool``) in that order.  ``shape`` is the JSON of one
    row in the report, with ``cell(name)`` where each column's value goes;
    ``tsv`` names the TSV columns in order.  Both formats write a boolean
    as ``true``/``false`` and an integer in decimal.
    """

    def __init__(self, columns: dict[str, type], shape: dict, tsv: tuple[str, ...]):
        names = list(columns)
        if not set(columns.values()) <= {int, bool}:
            raise ValueError("row columns must be int or bool")
        self._bools = tuple(i for i, kind in enumerate(columns.values()) if kind is bool)
        order: list[int] = []

        def slot(match) -> str:
            order.append(names.index(match[1]))
            return "%s"

        shaped = json.dumps({"rows": [shape]}, indent=2)
        row_text = shaped[len(_ROWS_HEAD) : -len(_ROWS_TAIL)].replace("%", "%%")
        self._json = re.sub(r'"\\u0000([^"\\]*)"', slot, row_text)
        self._json_cells = itemgetter(*order)
        self._tsv_header = "\t".join(tsv) + "\n"
        self._tsv = "\t".join(["%s"] * len(tsv)) + "\n"
        self._tsv_cells = itemgetter(*(names.index(name) for name in tsv))

    def _texts(self, row) -> list:
        texts = list(row)
        for i in self._bools:
            texts[i] = "true" if texts[i] else "false"
        return texts

    def json_rows(self, rows) -> str:
        """The rows as they sit in a report's "rows" list, without brackets."""
        template, cells = self._json, self._json_cells
        return _ROWS_SEPARATOR.join([template % cells(self._texts(row)) for row in rows])

    def tsv(self, rows) -> str:
        template, cells = self._tsv, self._tsv_cells
        lines = [template % cells(self._texts(row)) for row in rows]
        return self._tsv_header + "".join(lines)


PANTS_ROW = RowSchema(
    {
        "n": int,
        "a": int,
        "b": int,
        "c": int,
        "twist_length": int,
        "arc_ab": int,
        "arc_bc": int,
        "arc_ac": int,
        "hopf_ab": bool,
        "hopf_bc": bool,
        "hopf_ac": bool,
        "obstructed": bool,
    },
    shape={
        "n": cell("n"),
        "exponents": {"a": cell("a"), "b": cell("b"), "c": cell("c")},
        "twist_length": cell("twist_length"),
        "cuts": [
            {
                "arc": arc,
                "full_twists": cell(f"arc_{arc}"),
                "is_hopf_band": cell(f"hopf_{arc}"),
            }
            for arc in ARC_NAMES
        ],
        "deplumbing_obstructed": cell("obstructed"),
    },
    tsv=(
        "n",
        "twist_length",
        "arc_ab",
        "arc_bc",
        "arc_ac",
        "hopf_ab",
        "hopf_bc",
        "hopf_ac",
        "obstructed",
    ),
)

HEIGHT_ROW = RowSchema(
    {"n": int, "h_lb": int},
    shape={"n": cell("n"), "h_lb": cell("h_lb")},
    tsv=("n", "h_lb"),
)


def sweep_report(doc: dict, schema: RowSchema, fmt: str) -> str:
    """``doc`` as JSON, or its rows as TSV; ``doc["rows"]`` holds row tuples.

    The rest of the document goes through ``dumps`` and the rendered rows
    are spliced in where its "rows" list sits.
    """
    rows = doc["rows"]
    if fmt == "tsv":
        return schema.tsv(rows)
    if not rows:
        return dumps(doc)
    head, _, tail = dumps({**doc, "rows": [_FIRST]}).partition(json.dumps(_FIRST))
    return head + schema.json_rows(rows) + tail


def tsv_text(header, rows) -> str:
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
