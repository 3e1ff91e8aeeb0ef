"""Command-line workbench for fibre-surface monodromy computations.

Subcommands: ``alexander`` (word to polynomial report), ``twistlb``
(class list to obstruction certificate), ``sclbound`` (chain inputs to a
bound with its derivation), ``heightlb`` (stabilisation-height sweep),
``pants`` (pair-of-pants family sweep).

Reports are deterministic: identical inputs produce byte-identical
output, rationals are reduced ``p/q`` strings, polynomial terms are in
descending degree, sweep rows are in ascending n.  Exit codes: 0
success, 2 parse error, 3 precondition violation, 4 internal
verification failure.  Errors go to stderr as JSON.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import reporting
from .errors import ParseError, PreconditionError, VerificationError
from .homology import (
    Surface,
    TwistLetter,
    TwistWord,
    alexander_report,
    characteristic_polynomial,
    word_action,
)
from .obstruction import knot_monodromy_obstruction, verify_certificate
from .pants import (
    PantsFamilyMember,
    cut_annulus_twists,
    hopf_deplumbing_obstructed,
    pants_alexander,
    pants_twist_length,
)
from .sclbound import (
    CBoundModel,
    HeightQuery,
    ILLUSTRATIVE_MODEL,
    ModelFlag,
    chain_lower,
    height_chain_bound,
    height_lower_bound,
    height_model_bound,
    lower,
    verify_derivation,
)
from .wordparse import canonicalize_word, parse_class

MALFORMED_SURFACE = "malformed_surface"
MALFORMED_MODEL = "malformed_model"
MALFORMED_RANGE = "malformed_range"
MALFORMED_CLASSES_FILE = "malformed_classes_file"
MISSING_ARGUMENT = "missing_argument"
UNWRITABLE_OUTPUT = "unwritable_output"


def _parse_surface(text: str) -> Surface:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(MALFORMED_SURFACE, "surface must be 'genus,boundary'", text)
    try:
        genus, boundary = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParseError(MALFORMED_SURFACE, "surface must be 'genus,boundary'", text) from exc
    if genus < 0 or boundary < 0:
        raise PreconditionError("genus and boundary count must be non-negative")
    return Surface(genus, boundary)


def _parse_model(text: str | None) -> CBoundModel:
    if text is None:
        return ILLUSTRATIVE_MODEL
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(MALFORMED_MODEL, "model must be 'alpha,beta'", text)
    alpha = reporting.parse_rational(parts[0])
    beta = reporting.parse_rational(parts[1])
    return CBoundModel(alpha, beta, ModelFlag.USER_SUPPLIED)


def _parse_sweep(text: str) -> list[int]:
    """``5`` | ``lo..hi`` | ``lo..hi..step`` | comma-separated list."""
    try:
        if ".." in text:
            parts = text.split("..")
            if len(parts) == 2:
                lo, hi, step = int(parts[0]), int(parts[1]), 1
            elif len(parts) == 3:
                lo, hi, step = int(parts[0]), int(parts[1]), int(parts[2])
            else:
                raise ValueError(text)
            if step < 1 or hi < lo:
                raise ValueError(text)
            return list(range(lo, hi + 1, step))
        if "," in text:
            return [int(part) for part in text.split(",")]
        return [int(text)]
    except ValueError as exc:
        raise ParseError(
            MALFORMED_RANGE, "n must be an integer, 'lo..hi[..step]' or a comma list", text
        ) from exc


def _parse_rational_list(text: str) -> list[Fraction]:
    if not text.strip():
        return []
    return [reporting.parse_rational(part) for part in text.split(",")]


# ---------------------------------------------------------------------------
# subcommand handlers


def _run_alexander(args) -> str:
    surface = _parse_surface(args.surface)
    word, canonical = canonicalize_word(args.word, surface)
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
    if args.format == "tsv":
        return reporting.tsv_text(
            ("genus", "boundary", "word", "polynomial", "delta_one", "classification"),
            [
                (
                    surface.genus,
                    surface.boundary,
                    canonical,
                    doc["characteristic_polynomial"]["text"],
                    report.delta_one,
                    report.classification.value,
                )
            ],
        )
    return reporting.dumps(doc)


def _verify_alexander(word: TwistWord, report) -> None:
    for shift in range(max(len(word), 1)):
        conjugate = characteristic_polynomial(word_action(word.cycled(shift)))
        if conjugate != report.poly:
            raise VerificationError("characteristic polynomial not conjugation-invariant")
    if word.surface.boundary <= 1:
        coeffs = report.poly.coefficients
        if coeffs != tuple(reversed(coeffs)):
            raise VerificationError("characteristic polynomial is not reciprocal")


def _load_classes(path: str, surface: Surface):
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ParseError(MALFORMED_CLASSES_FILE, f"cannot read {path}: {exc}") from exc
    try:
        entries = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(MALFORMED_CLASSES_FILE, f"{path} is not valid JSON") from exc
    if not isinstance(entries, list):
        raise ParseError(MALFORMED_CLASSES_FILE, "classes file must hold a JSON array")
    classes = []
    for entry in entries:
        if isinstance(entry, str):
            classes.append(parse_class(entry, surface))
        elif isinstance(entry, list) and all(
            isinstance(v, int) and not isinstance(v, bool) for v in entry
        ):
            if len(entry) != surface.betti:
                raise ParseError(
                    "vector_length_mismatch",
                    f"vector has {len(entry)} entries, homology rank is {surface.betti}",
                    token=json.dumps(entry),
                )
            classes.append(surface.homology_class(entry))
        else:
            raise ParseError(
                MALFORMED_CLASSES_FILE,
                "entries must be curve tokens or integer coordinate arrays",
            )
    return classes


def _certificate_battery(cert, count: int = 100) -> int:
    """Deterministic random words over the certified classes; all must verify."""
    rng = random.Random(0)
    classes = list(cert.classes)
    if not classes:
        if not verify_certificate(cert, TwistWord((), cert.surface)):
            raise VerificationError("empty word failed certificate verification")
        return 1
    exponents = [e for e in range(-5, 6) if e != 0]
    for index in range(count):
        length = rng.randint(0, 2 * len(classes) + 3)
        letters = tuple(
            TwistLetter(rng.choice(classes), rng.choice(exponents))
            for _ in range(length)
        )
        if not verify_certificate(cert, TwistWord(letters, cert.surface)):
            raise VerificationError(f"certificate verification failed on word {index}")
    return count


def _run_twistlb(args) -> str:
    surface = _parse_surface(args.surface)
    classes = _load_classes(args.classes, surface)
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
        if cert is not None:
            words = _certificate_battery(cert)
            doc["verification"] = {"words": words, "passed": True}
        else:
            doc["verification"] = {"words": 0, "passed": True}
    if args.format == "tsv":
        witness = " ".join(str(v) for v in cert.witness) if cert is not None else "-"
        return reporting.tsv_text(
            (
                "genus",
                "boundary",
                "distinct_classes",
                "required_distinct_classes",
                "applicable",
                "witness",
            ),
            [
                (
                    surface.genus,
                    surface.boundary,
                    distinct,
                    2 * surface.genus,
                    cert is not None,
                    witness,
                )
            ],
        )
    return reporting.dumps(doc)


def _run_sclbound(args) -> str:
    ns = _parse_sweep(args.n)
    if len(ns) != 1:
        raise ParseError(MALFORMED_RANGE, "sclbound takes a single n", args.n)
    n = ns[0]
    twists = [
        lower(value, f"twist factor {i + 1}")
        for i, value in enumerate(_parse_rational_list(args.twists))
    ]
    phi0 = lower(reporting.parse_rational(args.phi0), "base monodromy")
    tc = lower(reporting.parse_rational(args.tc), "surgery twist")
    chain = chain_lower(twists, phi0, tc, n)
    doc = {
        "command": "sclbound",
        "inputs": {
            "twist_lower_bounds": [reporting.fraction_text(b.value) for b in twists],
            "phi0_lower_bound": reporting.fraction_text(phi0.value),
            "tc_lower_bound": reporting.fraction_text(tc.value),
            "n": n,
        },
        "value": reporting.fraction_text(chain.result.value),
        "derivation": reporting.derivation_doc(chain),
    }
    if args.verify:
        if not verify_derivation(chain):
            raise VerificationError("derivation replay does not reproduce the bound")
        doc["verified"] = True
    if args.format == "tsv":
        return reporting.tsv_text(
            ("k", "phi0", "tc", "n", "value"),
            [
                (
                    len(twists),
                    reporting.fraction_text(phi0.value),
                    reporting.fraction_text(tc.value),
                    n,
                    reporting.fraction_text(chain.result.value),
                )
            ],
        )
    return reporting.dumps(doc)


def _run_heightlb(args) -> str:
    if args.fibre_b1 is not None:
        fibre_b1 = args.fibre_b1
    elif args.surface is not None:
        fibre_b1 = _parse_surface(args.surface).betti
    else:
        raise ParseError(MISSING_ARGUMENT, "heightlb needs --fibre-b1 or --surface")
    if fibre_b1 < 0:
        raise PreconditionError("first Betti number must be non-negative")
    model = _parse_model(args.model)
    ns = sorted(set(_parse_sweep(args.n)))
    rows = []
    results = {}
    for n in ns:
        result = height_lower_bound(HeightQuery(fibre_b1, n, model))
        results[n] = result
        rows.append({"n": n, "h_lb": result.h_lb})
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
            reporting.derivation_doc(d) for d in results[ns[0]].derivations
        ]
    if args.verify:
        for n in ns:
            _verify_height(HeightQuery(fibre_b1, n, model), results[n])
        doc["verified"] = True
    if args.format == "tsv":
        return reporting.tsv_text(
            ("n", "h_lb"), [(row["n"], row["h_lb"]) for row in rows]
        )
    return reporting.dumps(doc)


def _verify_height(query: HeightQuery, result) -> None:
    # Independent re-check of the crossover against its definition.
    h = result.h_lb
    if height_chain_bound(query, h) > height_model_bound(query, h):
        raise VerificationError("reported h_lb is still contradicted")
    if h > 0 and not (
        height_chain_bound(query, h - 1) > height_model_bound(query, h - 1)
    ):
        raise VerificationError("reported h_lb is not minimal")
    for derivation in result.derivations:
        if not verify_derivation(derivation):
            raise VerificationError("height derivation replay failed")


def _pants_row(n: int) -> dict:
    member = PantsFamilyMember(n)
    cuts = cut_annulus_twists(n)
    return {
        "n": n,
        "exponents": {
            "a": member.mapping_class.p,
            "b": member.mapping_class.q,
            "c": member.mapping_class.r,
        },
        "twist_length": pants_twist_length(member.mapping_class),
        "cuts": [
            {
                "arc": cut.arc,
                "full_twists": cut.full_twists,
                "is_hopf_band": cut.is_hopf_band,
            }
            for cut in cuts.arcs
        ],
        "deplumbing_obstructed": hopf_deplumbing_obstructed(n),
    }


def _verify_pants(n: int) -> None:
    member = PantsFamilyMember(n)
    cuts = cut_annulus_twists(n).arcs
    if cuts[1].full_twists - cuts[2].full_twists != 2:
        raise VerificationError("cut twists of the b-c and a-c arcs must differ by 2")
    if hopf_deplumbing_obstructed(n) == any(cut.is_hopf_band for cut in cuts):
        raise VerificationError("obstruction flag disagrees with the cut report")
    report = pants_alexander(member.mapping_class)
    if report.poly.coefficients != (1, -2, 1) or report.delta_one != 0:
        raise VerificationError("pants family must act trivially on homology")


def _run_pants(args) -> str:
    ns = sorted(set(_parse_sweep(args.n)))
    rows = [_pants_row(n) for n in ns]
    doc = {"command": "pants", "rows": rows}
    if args.verify:
        for n in ns:
            _verify_pants(n)
        doc["verified"] = True
    if args.format == "tsv":
        return reporting.tsv_text(
            (
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
            [
                (
                    row["n"],
                    row["twist_length"],
                    row["cuts"][0]["full_twists"],
                    row["cuts"][1]["full_twists"],
                    row["cuts"][2]["full_twists"],
                    row["cuts"][0]["is_hopf_band"],
                    row["cuts"][1]["is_hopf_band"],
                    row["cuts"][2]["is_hopf_band"],
                    row["deplumbing_obstructed"],
                )
                for row in rows
            ],
        )
    return reporting.dumps(doc)


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "tsv"), default="json")
    common.add_argument("--out", help="write the report to this path instead of stdout")
    common.add_argument(
        "--verify", action="store_true", help="re-check emitted certificates/derivations"
    )

    parser = argparse.ArgumentParser(
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
    p.add_argument("--fibre-b1", type=int, default=None)
    p.add_argument("--surface", default=None, metavar="g,b")
    p.add_argument("--model", default=None, metavar="alpha,beta")
    p.add_argument("--n", required=True, help="exponent or sweep lo..hi[..step]")

    p = sub.add_parser("pants", parents=[common], help="pair-of-pants family sweep")
    p.add_argument("--n", required=True, help="exponent or sweep lo..hi[..step]")

    return parser


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
    args = _build_parser().parse_args(argv)
    try:
        text = _HANDLERS[args.command](args)
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
