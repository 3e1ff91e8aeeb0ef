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
JSON.  A sweep holds at most ``MAX_SWEEP_VALUES`` values of n, and
``alexander``/``twistlb`` take surfaces of homology rank at most
``MAX_RANK``.
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
    HomologyMatrix,
    Surface,
    TwistLetter,
    TwistWord,
    alexander_report,
    characteristic_polynomial,
    word_action,
)
from .obstruction import knot_monodromy_obstruction, verify_certificate
from .pants import (
    PANTS_SURFACE,
    PantsFamilyMember,
    cut_annulus_twists,
    hopf_deplumbing_obstructed,
    pants_twist_length,
    pants_word,
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
MALFORMED_ARGUMENTS = "malformed_arguments"
MISSING_ARGUMENT = "missing_argument"
UNWRITABLE_OUTPUT = "unwritable_output"

# Largest number of values one --n sweep may hold (exit 3 beyond it); the
# 200,001 values of -100000..100000 fit.
MAX_SWEEP_VALUES = 250_000
_SWEEP_FORMS = "n must be an integer, 'lo..hi[..step]' or a comma list"

# Largest homology rank (2g + b - 1) that alexander and twistlb accept
# (exit 3 beyond it), checked before any vector or matrix is built: 5x the
# benchmark's largest rank, 40.  heightlb reads only b1 and is not capped.
MAX_RANK = 200


def _parse_surface(text: str, max_rank: int | None = MAX_RANK) -> Surface:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(MALFORMED_SURFACE, "surface must be 'genus,boundary'", text)
    try:
        genus, boundary = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParseError(MALFORMED_SURFACE, "surface must be 'genus,boundary'", text) from exc
    surface = Surface(genus, boundary)
    if max_rank is not None and surface.betti > max_rank:
        raise PreconditionError(
            f"surface has homology rank {surface.betti}; at most {max_rank} is allowed"
        )
    return surface


def _parse_model(text: str | None) -> CBoundModel:
    if text is None:
        return ILLUSTRATIVE_MODEL
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(MALFORMED_MODEL, "model must be 'alpha,beta'", text)
    alpha = reporting.parse_rational(parts[0])
    beta = reporting.parse_rational(parts[1])
    return CBoundModel(alpha, beta, ModelFlag.USER_SUPPLIED)


def _parse_sweep(text: str) -> range | list[int]:
    """``5`` | ``lo..hi`` | ``lo..hi..step`` | comma-separated list.

    The values come back ascending and without repeats; a range is
    returned as a ``range`` and counted without being built.
    """
    parts = text.split("..")
    if len(parts) in (2, 3):
        lo, hi, step = _sweep_integers(text, parts + ["1"] * (3 - len(parts)))
        if step < 1 or hi < lo:
            raise ParseError(MALFORMED_RANGE, _SWEEP_FORMS, text)
        _check_sweep_size((hi - lo) // step + 1)
        return range(lo, hi + 1, step)
    if len(parts) > 3:
        raise ParseError(MALFORMED_RANGE, _SWEEP_FORMS, text)
    items = text.split(",")
    _check_sweep_size(len(items))
    return sorted(set(_sweep_integers(text, items)))


def _sweep_integers(text: str, parts: list[str]) -> list[int]:
    try:
        return [int(part) for part in parts]
    except ValueError as exc:
        raise ParseError(MALFORMED_RANGE, _SWEEP_FORMS, text) from exc


def _check_sweep_size(count: int) -> None:
    if count > MAX_SWEEP_VALUES:
        raise PreconditionError(
            f"sweep holds {count} values of n; at most {MAX_SWEEP_VALUES} are allowed"
        )


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
        fibre_b1 = _parse_surface(args.surface, max_rank=None).betti
    else:
        raise ParseError(MISSING_ARGUMENT, "heightlb needs --fibre-b1 or --surface")
    if fibre_b1 < 0:
        raise PreconditionError("first Betti number must be non-negative")
    model = _parse_model(args.model)
    ns = _parse_sweep(args.n)
    results = [height_lower_bound(HeightQuery(fibre_b1, n, model)) for n in ns]
    doc = {
        "command": "heightlb",
        "fibre_b1": fibre_b1,
        "model": {
            "kind": model.flag.value,
            "alpha": reporting.fraction_text(model.alpha),
            "beta": reporting.fraction_text(model.beta),
        },
        "rows": [(n, result.h_lb) for n, result in zip(ns, results)],
    }
    if len(ns) == 1:
        doc["derivations"] = [
            reporting.derivation_doc(d) for d in results[0].derivations
        ]
    if args.verify:
        for result in results:
            _verify_height(result)
        doc["verified"] = True
    return reporting.sweep_report(doc, reporting.HEIGHT_ROW, args.format)


def _verify_height(result) -> None:
    # Independent re-check of the crossover against its definition.
    query, h = result.query, result.h_lb
    if height_chain_bound(query, h) > height_model_bound(query, h):
        raise VerificationError("reported h_lb is still contradicted")
    if h > 0 and not (
        height_chain_bound(query, h - 1) > height_model_bound(query, h - 1)
    ):
        raise VerificationError("reported h_lb is not minimal")
    for derivation in result.derivations:
        if not verify_derivation(derivation):
            raise VerificationError("height derivation replay failed")


_PANTS_IDENTITY = HomologyMatrix.identity(PANTS_SURFACE)


def _verify_pants(n: int) -> None:
    member = PantsFamilyMember(n)
    cuts = cut_annulus_twists(n).arcs
    if cuts[1].full_twists - cuts[2].full_twists != 2:
        raise VerificationError("cut twists of the b-c and a-c arcs must differ by 2")
    if hopf_deplumbing_obstructed(n) == any(cut.is_hopf_band for cut in cuts):
        raise VerificationError("obstruction flag disagrees with the cut report")
    # The identity action forces the polynomial (t - 1)^2 and its value 0 at 1.
    if word_action(pants_word(member.mapping_class)) != _PANTS_IDENTITY:
        raise VerificationError("pants family must act trivially on homology")


def _run_pants(args) -> str:
    ns = _parse_sweep(args.n)
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
        for n in ns:
            _verify_pants(n)
        doc["verified"] = True
    return reporting.sweep_report(doc, reporting.PANTS_ROW, args.format)


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
    try:
        args = _build_parser().parse_args(argv)
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
