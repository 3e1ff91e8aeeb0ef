"""Deterministic JSON/TSV rendering of reports and certificates.

Rationals are always rendered as reduced ``p/q`` strings with positive
denominator (never floats); documents are plain dicts built in a fixed
field order so identical inputs give byte-identical output.

Each subcommand gives ``render`` its document, its one ``RowSchema`` and
its rows as tuples of scalars; ``render`` alone picks the format.  A
sweep (``pants``, ``heightlb``) also holds its rows in the document,
where they go through a JSON row template compiled once from
``json.dumps(..., indent=2)``, byte-identical to dumping row dicts.  A
report integer past the interpreter's digit limit for integer text is a
precondition failure (exit 3).
"""

from __future__ import annotations

import functools
import json
import re
import sys
from fractions import Fraction
from operator import itemgetter

from .errors import PreconditionError
from .obstruction import ObstructionCertificate
from .pants import ARC_NAMES
from .polynomials import IntegerPolynomial, polynomial_text
from .sclbound import Derivation, RationalBound
from .homology import Surface, pair

def _within_digit_limit(function):
    """Turn the ValueError of an integer too long to write as text into exit 3."""

    @functools.wraps(function)
    def checked(*args):
        try:
            return function(*args)
        except ValueError as exc:
            raise PreconditionError(
                f"the report holds an integer of more than "
                f"{sys.get_int_max_str_digits()} digits, the interpreter's "
                f"limit for integer text"
            ) from exc

    return checked


@_within_digit_limit
def fraction_text(value) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def surface_doc(surface: Surface) -> dict:
    return {
        "genus": surface.genus,
        "boundary": surface.boundary,
        "betti": surface.betti,
    }


@_within_digit_limit
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


@_within_digit_limit
def witness_text(cert: ObstructionCertificate | None) -> str:
    """The witness as one TSV cell: its coordinates, or ``-`` without one."""
    return " ".join(map(str, cert.witness)) if cert is not None else "-"


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
# report rows

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
    """The rows of one subcommand: TSV always, JSON for a sweep's rows.

    A row is a tuple of scalars, one per entry of ``columns`` (column name
    to ``int``, ``bool`` or ``str``) in that order.  ``tsv`` names the TSV
    columns in order, all of them by default.  ``shape``, given only by
    the sweep subcommands, is the JSON of one row in the report, with
    ``cell(name)`` where each column's value goes; it holds no ``str``
    column, whose text would need JSON escaping.  Both formats write a
    boolean as ``true``/``false`` and an integer in decimal.
    """

    def __init__(
        self,
        columns: dict[str, type],
        shape: dict | None = None,
        tsv: tuple[str, ...] | None = None,
    ):
        names, kinds = list(columns), list(columns.values())
        if not set(kinds) <= {int, bool, str}:
            raise ValueError("row columns must be int, bool or str")
        self._bools = tuple(i for i, kind in enumerate(kinds) if kind is bool)
        tsv = names if tsv is None else tsv
        self._tsv_header = "\t".join(tsv) + "\n"
        self._tsv = "\t".join(["%s"] * len(tsv)) + "\n"
        self._tsv_cells = itemgetter(*(names.index(name) for name in tsv))
        if shape is None:
            return
        order: list[int] = []

        def slot(match) -> str:
            order.append(names.index(match[1]))
            return "%s"

        shaped = json.dumps({"rows": [shape]}, indent=2)
        row_text = shaped[len(_ROWS_HEAD) : -len(_ROWS_TAIL)].replace("%", "%%")
        self._json = re.sub(r'"\\u0000([^"\\]*)"', slot, row_text)
        if any(kinds[i] is str for i in order):
            raise ValueError("str columns cannot be placed in a JSON shape")
        self._json_cells = itemgetter(*order)

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


ALEXANDER_ROW = RowSchema(
    dict(genus=int, boundary=int, word=str, polynomial=str, delta_one=int, classification=str)
)

TWISTLB_ROW = RowSchema(
    dict(genus=int, boundary=int, distinct_classes=int, required_distinct_classes=int)
    | dict(applicable=bool, witness=str)
)

SCLBOUND_ROW = RowSchema(dict(k=int, phi0=str, tc=str, n=int, value=str))

_ARCS = [f"arc_{arc}" for arc in ARC_NAMES]
_HOPFS = [f"hopf_{arc}" for arc in ARC_NAMES]

PANTS_ROW = RowSchema(
    dict.fromkeys(["n", "a", "b", "c", "twist_length", *_ARCS], int)
    | dict.fromkeys([*_HOPFS, "obstructed"], bool),
    shape={
        "n": cell("n"),
        "exponents": {"a": cell("a"), "b": cell("b"), "c": cell("c")},
        "twist_length": cell("twist_length"),
        "cuts": [
            {"arc": arc, "full_twists": cell(full), "is_hopf_band": cell(hopf)}
            for arc, full, hopf in zip(ARC_NAMES, _ARCS, _HOPFS)
        ],
        "deplumbing_obstructed": cell("obstructed"),
    },
    tsv=("n", "twist_length", *_ARCS, *_HOPFS, "obstructed"),
)

HEIGHT_ROW = RowSchema(
    {"n": int, "h_lb": int},
    shape={"n": cell("n"), "h_lb": cell("h_lb")},
)


@_within_digit_limit
def render(doc: dict, schema: RowSchema, rows, fmt: str) -> str:
    """The report in ``fmt``: ``rows`` as TSV, or ``doc`` as JSON.

    A sweep's document holds its row tuples under "rows": the rest of the
    document goes through ``dumps`` and the rows, rendered through the
    schema's JSON template, are spliced in where that list sits.
    """
    if fmt == "tsv":
        return schema.tsv(rows)
    if "rows" not in doc or not rows:
        return dumps(doc)
    head, _, tail = dumps({**doc, "rows": [_FIRST]}).partition(json.dumps(_FIRST))
    return head + schema.json_rows(rows) + tail
