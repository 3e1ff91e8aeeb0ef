"""Sweep rows rendered from one schema per subcommand, against dict rendering.

The reference documents below are built the way the sweep subcommands
built them before their row schemas: nested dicts through
``json.dumps(indent=2)``, and hand-written TSV tuple tables through
``tsv_text``.
"""

import json
from fractions import Fraction

import pytest

from twistlab import cli, reporting
from twistlab.pants import (
    PantsFamilyMember,
    cut_annulus_twists,
    hopf_deplumbing_obstructed,
    pants_twist_length,
)
from twistlab.reporting import RowSchema, cell
from twistlab.sclbound import (
    CBoundModel,
    HeightQuery,
    ILLUSTRATIVE_MODEL,
    ModelFlag,
    height_lower_bound,
)


def tsv_text(header, rows) -> str:
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def pants_reference(ns, verify, fmt) -> str:
    rows = []
    for n in ns:
        member = PantsFamilyMember(n)
        rows.append(
            {
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
                    for cut in cut_annulus_twists(n).arcs
                ],
                "deplumbing_obstructed": hopf_deplumbing_obstructed(n),
            }
        )
    if fmt == "tsv":
        return tsv_text(
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
    doc = {"command": "pants", "rows": rows}
    if verify:
        doc["verified"] = True
    return json.dumps(doc, indent=2) + "\n"


def heightlb_reference(fibre_b1, ns, model_text, verify, fmt) -> str:
    if model_text is None:
        model = ILLUSTRATIVE_MODEL
    else:
        alpha, beta = model_text.split(",")
        model = CBoundModel(Fraction(alpha), Fraction(beta), ModelFlag.USER_SUPPLIED)
    results = {n: height_lower_bound(HeightQuery(fibre_b1, n, model)) for n in ns}
    rows = [{"n": n, "h_lb": results[n].h_lb} for n in ns]
    if fmt == "tsv":
        return tsv_text(("n", "h_lb"), [(row["n"], row["h_lb"]) for row in rows])
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
    if verify:
        doc["verified"] = True
    return json.dumps(doc, indent=2) + "\n"


# (--n text, the values it names in report order)
PANTS_SWEEPS = [
    ("7", [7]),
    ("-12..3", list(range(-12, 4))),
    ("-20..40..7", list(range(-20, 41, 7))),
    ("5,-3,0,5,2,-1", [-3, -1, 0, 2, 5]),
]

TRILLION = 10**12
# (fibre flags, b1, --n text, values, --model)
HEIGHT_SWEEPS = [
    (("--fibre-b1", "2"), 2, "123456", [123456], None),
    (("--surface", "3,2"), 7, f"-{TRILLION}", [-TRILLION], "3/2,-1"),
    (("--fibre-b1", "0"), 0, "-5..5", list(range(-5, 6)), None),
    (
        ("--surface", "1,3"),
        4,
        f"-{TRILLION}..{TRILLION}..99999999999",
        list(range(-TRILLION, TRILLION + 1, 99999999999)),
        "5/4,-2",
    ),
    (("--fibre-b1", "12"), 12, f"{10**9},-7,0,{10**9},31", [-7, 0, 31, 10**9], "2/3,1"),
]


@pytest.mark.parametrize("fmt", ("json", "tsv"))
@pytest.mark.parametrize("verify", (False, True))
@pytest.mark.parametrize("text, ns", PANTS_SWEEPS)
def test_pants_report_matches_dict_rendering(capsys, text, ns, verify, fmt):
    argv = ["pants", f"--n={text}", "--format", fmt] + ["--verify"] * verify
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == pants_reference(ns, verify, fmt)


@pytest.mark.parametrize("fmt", ("json", "tsv"))
@pytest.mark.parametrize("verify", (False, True))
@pytest.mark.parametrize("fibre, b1, text, ns, model", HEIGHT_SWEEPS)
def test_heightlb_report_matches_dict_rendering(
    capsys, fibre, b1, text, ns, model, verify, fmt
):
    argv = ["heightlb", *fibre, f"--n={text}", "--format", fmt] + ["--verify"] * verify
    if model is not None:
        argv += ["--model", model]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == heightlb_reference(b1, ns, model, verify, fmt)


def test_row_schema_template_matches_json_dumps():
    schema = RowSchema(
        {"x": int, "ok": bool, "y": int},
        shape={"x": cell("x"), "note": "50% off", "pair": [cell("ok"), {"y": cell("y")}]},
        tsv=("y", "ok", "x"),
    )
    rows = [(0, True, -1), (-(10**30), False, 7), (12, True, 10**40)]
    dicts = [{"x": x, "note": "50% off", "pair": [ok, {"y": y}]} for x, ok, y in rows]
    doc = {"command": "test", "rows": rows, "verified": True}
    expected = json.dumps({**doc, "rows": dicts}, indent=2) + "\n"
    assert reporting.render(doc, schema, rows, "json") == expected
    assert reporting.render(doc, schema, rows, "tsv") == tsv_text(
        ("y", "ok", "x"), [(y, ok, x) for x, ok, y in rows]
    )
    empty = {"command": "test", "rows": []}
    assert reporting.render(empty, schema, [], "json") == reporting.dumps(empty)
    assert reporting.render(empty, schema, [], "tsv") == "y\tok\tx\n"


def test_row_schema_str_columns_render_in_tsv_only():
    schema = RowSchema({"n": int, "word": str, "ok": bool})
    assert schema.tsv([(3, "a1 b1^-2", True)]) == "n\tword\tok\n3\ta1 b1^-2\ttrue\n"
    RowSchema({"n": int, "word": str}, shape={"n": cell("n")})
    with pytest.raises(ValueError, match="str columns"):
        RowSchema({"n": int, "word": str}, shape={"n": cell("n"), "word": cell("word")})
