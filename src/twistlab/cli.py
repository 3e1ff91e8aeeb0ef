"""Command-line workbench for fibre-surface monodromy computations.

Subcommands: ``alexander`` (word to polynomial report), ``twistlb``
(class list to obstruction certificate), ``sclbound`` (chain inputs to a
bound with its derivation), ``heightlb`` (stabilisation-height sweep),
``pants`` (pair-of-pants family sweep).

Reports are deterministic: identical inputs produce byte-identical
output, rationals are reduced ``p/q`` strings, polynomial terms are in
descending degree, sweep rows are in ascending n.  Exit codes: 0
success, 2 parse error (argument errors included), 3 precondition
violation, 4 internal verification failure.  Errors go to stderr as
JSON.  Every input is parsed and bounded in ``wordparse``: a sweep
holds at most ``wordparse.MAX_SWEEP_VALUES`` values of n, and
``alexander``/``twistlb`` take surfaces of homology rank at most
``wordparse.MAX_RANK``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import reporting, wordparse
from .errors import ParseError, PreconditionError, VerificationError
from .homology import (
    Classification,
    HomologyMatrix,
    TwistLetter,
    TwistWord,
    alexander_report,
    characteristic_value,
    pair,
    word_action,
)
from .obstruction import knot_monodromy_obstruction, verify_certificate
from .pants import (
    PANTS_SURFACE,
    PantsFamilyMember,
    cut_annulus_twists,
    pants_twist_length,
    pants_word,
)
from .sclbound import HeightQuery, chain_lower, height_lower_bound, lower, verify_derivation

MALFORMED_ARGUMENTS = "malformed_arguments"
MISSING_ARGUMENT = "missing_argument"
UNWRITABLE_OUTPUT = "unwritable_output"


# ---------------------------------------------------------------------------
# subcommand handlers


def _run_alexander(args):
    surface = wordparse.parse_surface(args.surface)
    word, canonical = wordparse.canonicalize_word(args.word, surface)
    report = alexander_report(word)
    doc = {
        "command": "alexander",
        "surface": reporting.surface_doc(surface),
        "word": canonical,
        "action_matrix": [list(row) for row in report.action.entries],
        "characteristic_polynomial": reporting.polynomial_doc(report.poly),
        "delta_one": report.delta_one,
        "classification": report.classification.value,
        "normalized_polynomial": reporting.polynomial_doc(report.normalized),
    }
    if args.verify:
        _verify_alexander(word, report)
        doc["verified"] = True
    row = (
        surface.genus,
        surface.boundary,
        canonical,
        doc["characteristic_polynomial"]["text"],
        report.delta_one,
        report.classification.value,
    )
    return doc, reporting.ALEXANDER_ROW, [row]


# Classification by the value at 1, as documented; any other value is NEITHER.
_CLASSIFICATION_AT_ONE = {
    1: Classification.KNOT_COMPATIBLE,
    -1: Classification.KNOT_COMPATIBLE,
    0: Classification.MULTI_COMPONENT_COMPATIBLE,
}


def _verify_alexander(word: TwistWord, report) -> None:
    # Four checks, each by another algorithm than the path it checks.  Replay
    # each basis vector by x -> x + e*i(x, c)*c, without the fold's gradient.
    surface, action = word.surface, report.action
    for j, column in enumerate(zip(*action.entries)):
        x = surface.homology_class(i == j for i in range(surface.betti))
        for letter in word.letters:
            k = letter.exponent * pair(x, letter.curve)
            if k:
                x = surface.homology_class(
                    v + k * c for v, c in zip(x.coords, letter.curve.coords)
                )
        if x.coords != column:
            raise VerificationError("letter-by-letter replay does not give the action matrix")
    if surface.boundary <= 1:
        coeffs = report.poly.coefficients
        if coeffs != tuple(reversed(coeffs)):
            raise VerificationError("characteristic polynomial is not reciprocal")
    # Bareiss, not Berkowitz: a lone wrong c_k moves p(2) by a multiple of 2^k.
    if characteristic_value(action, 1) != report.delta_one:
        raise VerificationError("delta_one is not det(id - M)")
    if characteristic_value(action, 2) != report.poly.evaluate(2):
        raise VerificationError("characteristic polynomial at 2 is not det(2*id - M)")
    # The last two fields follow from delta_one by the documented rule.
    expected = _CLASSIFICATION_AT_ONE.get(report.delta_one, Classification.NEITHER)
    if report.classification is not expected:
        raise VerificationError("classification does not follow delta_one")
    if report.normalized != (-report.poly if report.delta_one == -1 else report.poly):
        raise VerificationError("normalized polynomial does not follow delta_one")


# Random words that twistlb --verify checks against a certificate.
BATTERY_WORDS = 100


def _certificate_battery(cert) -> int:
    """Deterministic random words over the certified classes; all must verify."""
    rng = random.Random(0)
    classes = list(cert.classes)
    if not classes:
        if not verify_certificate(cert, TwistWord((), cert.surface)):
            raise VerificationError("empty word failed certificate verification")
        return 1
    exponents = [e for e in range(-5, 6) if e != 0]
    for index in range(BATTERY_WORDS):
        length = rng.randint(0, 2 * len(classes) + 3)
        letters = tuple(
            TwistLetter(rng.choice(classes), rng.choice(exponents))
            for _ in range(length)
        )
        if not verify_certificate(cert, TwistWord(letters, cert.surface)):
            raise VerificationError(f"certificate verification failed on word {index}")
    return BATTERY_WORDS


def _run_twistlb(args):
    surface = wordparse.parse_surface(args.surface)
    classes = wordparse.load_classes(args.classes, surface)
    cert = knot_monodromy_obstruction(surface.genus, classes, surface)
    distinct = len({c.coords for c in classes})
    doc = {
        "command": "twistlb",
        "surface": reporting.surface_doc(surface),
        "classes": [list(c.coords) for c in classes],
        "distinct_classes": distinct,
        "required_distinct_classes": 2 * surface.genus,
        "applicable": cert is not None,
        "certificate": reporting.certificate_doc(cert) if cert is not None else None,
    }
    if args.verify:
        words = _certificate_battery(cert) if cert is not None else 0
        doc["verification"] = {"words": words, "passed": True}
    row = (
        surface.genus,
        surface.boundary,
        distinct,
        2 * surface.genus,
        cert is not None,
        reporting.witness_text(cert),
    )
    return doc, reporting.TWISTLB_ROW, [row]


def _run_sclbound(args):
    n = wordparse.parse_integer(args.n, wordparse.MALFORMED_RANGE, "sclbound takes one integer n")
    twists = [
        lower(wordparse.parse_rational(text), f"twist factor {i + 1}")
        for i, text in enumerate(args.twists.split(",") if args.twists.strip() else [])
    ]
    phi0 = lower(wordparse.parse_rational(args.phi0), "base monodromy")
    tc = lower(wordparse.parse_rational(args.tc), "surgery twist")
    chain = chain_lower(twists, phi0, tc, n)
    phi0_text = reporting.fraction_text(phi0.value)
    tc_text = reporting.fraction_text(tc.value)
    value_text = reporting.fraction_text(chain.result.value)
    doc = {
        "command": "sclbound",
        "inputs": {
            "twist_lower_bounds": [reporting.fraction_text(b.value) for b in twists],
            "phi0_lower_bound": phi0_text,
            "tc_lower_bound": tc_text,
            "n": n,
        },
        "value": value_text,
        "derivation": reporting.derivation_doc(chain),
    }
    if args.verify:
        if not verify_derivation(chain):
            raise VerificationError("derivation replay does not reproduce the bound")
        doc["verified"] = True
    row = (len(twists), phi0_text, tc_text, n, value_text)
    return doc, reporting.SCLBOUND_ROW, [row]


def _run_heightlb(args):
    if args.fibre_b1 is not None:
        fibre_b1 = wordparse.parse_integer(
            args.fibre_b1, MALFORMED_ARGUMENTS, "--fibre-b1 must be an integer"
        )
    elif args.surface is not None:
        fibre_b1 = wordparse.parse_surface(args.surface, max_rank=None).betti
    else:
        raise ParseError(MISSING_ARGUMENT, "heightlb needs --fibre-b1 or --surface")
    if fibre_b1 < 0:
        raise PreconditionError("first Betti number must be non-negative")
    model = wordparse.parse_model(args.model)
    ns = wordparse.parse_sweep(args.n)
    results = [height_lower_bound(HeightQuery(fibre_b1, n, model)) for n in ns]
    rows = [(n, result.h_lb) for n, result in zip(ns, results)]
    doc = {
        "command": "heightlb",
        "fibre_b1": fibre_b1,
        "model": {
            "kind": model.flag.value,
            "alpha": reporting.fraction_text(model.alpha),
            "beta": reporting.fraction_text(model.beta),
        },
        "rows": rows,
    }
    if len(ns) == 1:
        doc["derivations"] = [
            reporting.derivation_doc(d) for d in results[0].derivations
        ]
    if args.verify:
        for result in results:
            _verify_height(result)
        doc["verified"] = True
    return doc, reporting.HEIGHT_ROW, rows


def _verify_height(result) -> None:
    # The printed trees are the certificate: each must replay, and their
    # Fraction values must cross exactly at h_lb, which the integer search
    # found.  The trees are (CAP, MODEL) at h_lb - 1 when h_lb > 0, then at h_lb.
    trees = result.derivations
    if not all(map(verify_derivation, trees)):
        raise VerificationError("height derivation replay failed")
    cap, model = trees[-2:]
    if cap.result.value > model.result.value:
        raise VerificationError("reported h_lb is still contradicted")
    if result.h_lb > 0:
        cap, model = trees[:2]
        if not cap.result.value > model.result.value:
            raise VerificationError("reported h_lb is not minimal")


_PANTS_IDENTITY = HomologyMatrix.identity(PANTS_SURFACE)


def _verify_pants(n: int, obstructed: bool) -> None:
    member = PantsFamilyMember(n)
    cuts = cut_annulus_twists(n).arcs
    if cuts[1].full_twists - cuts[2].full_twists != 2:
        raise VerificationError("cut twists of the b-c and a-c arcs must differ by 2")
    # The cuts leave 0, n + 1 and n - 1 full twists, and only +-1 is a Hopf
    # band, so some arc leaves one exactly when n is -2, 0 or 2.
    if obstructed != (n not in (-2, 0, 2)):
        raise VerificationError("obstruction flag disagrees with the cut report")
    # The identity action forces the polynomial (t - 1)^2 and its value 0 at 1.
    if word_action(pants_word(member.mapping_class)) != _PANTS_IDENTITY:
        raise VerificationError("pants family must act trivially on homology")


def _run_pants(args):
    ns = wordparse.parse_sweep(args.n)
    rows = []
    for n in ns:
        exponents = PantsFamilyMember(n).mapping_class
        cuts = cut_annulus_twists(n).arcs
        hopf = [cut.is_hopf_band for cut in cuts]
        rows.append(
            (
                n,
                exponents.p,
                exponents.q,
                exponents.r,
                pants_twist_length(exponents),
                *[cut.full_twists for cut in cuts],
                *hopf,
                not any(hopf),
            )
        )
    doc = {"command": "pants", "rows": rows}
    if args.verify:
        for row in rows:
            _verify_pants(row[0], row[-1])
        doc["verified"] = True
    return doc, reporting.PANTS_ROW, rows


# ---------------------------------------------------------------------------
# argument wiring


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors as a ``ParseError`` instead of exiting."""

    def error(self, message: str):
        raise ParseError(MALFORMED_ARGUMENTS, f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    common = _ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "tsv"), default="json")
    common.add_argument("--out", help="write the report to this path instead of stdout")
    common.add_argument(
        "--verify", action="store_true", help="re-check emitted certificates/derivations"
    )

    parser = _ArgumentParser(
        prog="twistlab",
        description="exact monodromy computations for fibre surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alexander", parents=[common], help="word action and polynomial")
    p.add_argument("--surface", required=True, metavar="g,b")
    p.add_argument("--word", required=True)

    p = sub.add_parser("twistlb", parents=[common], help="twist-length certificate")
    p.add_argument("--surface", required=True, metavar="g,b")
    p.add_argument("--classes", required=True, metavar="FILE")

    p = sub.add_parser("sclbound", parents=[common], help="chain lower bound")
    p.add_argument("--tc", required=True, help="lower bound for the twisted curve")
    p.add_argument("--phi0", default="0", help="lower bound for the base map")
    p.add_argument("--twists", default="", help="comma list of per-factor lower bounds")
    p.add_argument("--n", required=True, help="twist exponent")

    p = sub.add_parser("heightlb", parents=[common], help="stabilisation-height bounds")
    fibre = p.add_mutually_exclusive_group()
    fibre.add_argument("--fibre-b1", default=None)
    fibre.add_argument("--surface", default=None, metavar="g,b")
    p.add_argument("--model", default=None, metavar="alpha,beta")
    p.add_argument("--n", required=True, help="exponent or sweep lo..hi[..step]")

    p = sub.add_parser("pants", parents=[common], help="pair-of-pants family sweep")
    p.add_argument("--n", required=True, help="exponent or sweep lo..hi[..step]")

    return parser


# Each handler returns the JSON document, the row schema and the rows that
# reporting.render turns into the report.
_HANDLERS = {
    "alexander": _run_alexander,
    "twistlb": _run_twistlb,
    "sclbound": _run_sclbound,
    "heightlb": _run_heightlb,
    "pants": _run_pants,
}


def _emit_error(code: str, message: str, token: str | None = None) -> None:
    payload = {"error": {"code": code, "message": message}}
    if token is not None:
        payload["error"]["token"] = token
    sys.stderr.write(json.dumps(payload) + "\n")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        text = reporting.render(*_HANDLERS[args.command](args), args.format)
    except ParseError as exc:
        _emit_error(exc.code, str(exc), exc.token)
        return 2
    except PreconditionError as exc:
        _emit_error("precondition", str(exc))
        return 3
    except VerificationError as exc:
        _emit_error("verification", str(exc))
        return 4
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            _emit_error(UNWRITABLE_OUTPUT, f"cannot write {args.out}: {exc.strerror}")
            return 3
    else:
        sys.stdout.write(text)
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
