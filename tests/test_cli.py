"""The command-line workbench: reports, determinism, exit codes."""

import dataclasses
import hashlib
import json
import sys
from types import SimpleNamespace

import pytest

from twistlab import cli, homology, obstruction, polynomials, reporting, wordparse
from twistlab.errors import PreconditionError, VerificationError
from twistlab.homology import HomologyMatrix, TwistWord, twist_action
from twistlab.pants import PANTS_SURFACE
from twistlab.sclbound import Derivation, lower


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_alexander_json_document(capsys):
    code, out, err = run_cli(
        capsys, "alexander", "--surface", "1,1", "--word", "a1 b1", "--verify"
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["word"] == "a1 b1"
    assert doc["characteristic_polynomial"]["text"] == "t^2 - t + 1"
    assert doc["delta_one"] == 1
    assert doc["classification"] == "knot_compatible"
    assert doc["action_matrix"] == [[1, -1], [1, 0]]
    assert doc["verified"] is True


def test_alexander_tsv(capsys):
    code, out, _ = run_cli(
        capsys, "alexander", "--surface", "1,1", "--word", "a1 b1^-1", "--format", "tsv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split("\t") == [
        "genus",
        "boundary",
        "word",
        "polynomial",
        "delta_one",
        "classification",
    ]
    assert lines[1].split("\t")[3] == "t^2 - 3t + 1"


def test_byte_identical_runs(tmp_path, capsys):
    out1 = tmp_path / "one.json"
    out2 = tmp_path / "two.json"
    for path in (out1, out2):
        code, _, _ = run_cli(
            capsys,
            "alexander",
            "--surface",
            "2,1",
            "--word",
            "a1 b2^-3 [1,1,0,0]",
            "--out",
            str(path),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_twistlb_certificate(tmp_path, capsys):
    classes = tmp_path / "classes.json"
    classes.write_text(json.dumps(["a1", "b1", [0, 0, 1, 0]]))
    code, out, err = run_cli(
        capsys, "twistlb", "--surface", "2,1", "--classes", str(classes), "--verify"
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["applicable"] is True
    assert doc["distinct_classes"] == 3
    assert doc["required_distinct_classes"] == 4
    assert doc["certificate"]["witness"] == [0, 0, 1, 0]
    assert doc["certificate"]["checks"]["witness_pairings_zero"] is True
    assert doc["verification"] == {"words": 100, "passed": True}


def test_twistlb_not_applicable(tmp_path, capsys):
    classes = tmp_path / "classes.json"
    classes.write_text(json.dumps(["a1", "b1"]))
    code, out, _ = run_cli(
        capsys, "twistlb", "--surface", "1,1", "--classes", str(classes)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["applicable"] is False
    assert doc["certificate"] is None


def test_twistlb_boundary_precondition(tmp_path, capsys):
    classes = tmp_path / "classes.json"
    classes.write_text(json.dumps(["a1"]))
    code, _, err = run_cli(
        capsys, "twistlb", "--surface", "1,2", "--classes", str(classes)
    )
    assert code == 3
    assert json.loads(err)["error"]["code"] == "precondition"


def test_sclbound_chain(capsys):
    code, out, _ = run_cli(
        capsys,
        "sclbound",
        "--tc",
        "1/48",
        "--twists",
        "1/48,1/48",
        "--n",
        "480",
        "--verify",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "169/24"
    assert doc["derivation"]["rule"] == "CHAIN"
    assert doc["derivation"]["params"]["products_applied"] == 3
    assert doc["verified"] is True


def test_heightlb_single_and_sweep(capsys):
    code, out, _ = run_cli(capsys, "heightlb", "--fibre-b1", "2", "--n", "0", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == [{"n": 0, "h_lb": 0}]
    assert doc["model"]["kind"] == "illustrative"
    assert "derivations" in doc

    code, out, _ = run_cli(
        capsys,
        "heightlb",
        "--fibre-b1",
        "2",
        "--n",
        "0,100,10000",
        "--format",
        "tsv",
        "--verify",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n\th_lb"
    assert lines[1] == "0\t0"
    assert lines[2] == "100\t0"
    assert int(lines[3].split("\t")[1]) > 0


def test_heightlb_model_flag_and_surface(capsys):
    code, out, _ = run_cli(
        capsys, "heightlb", "--surface", "0,3", "--model", "1,0", "--n", "0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["fibre_b1"] == 2
    assert doc["model"]["kind"] == "user_supplied"


def test_heightlb_requires_fibre(capsys):
    code, _, err = run_cli(capsys, "heightlb", "--n", "0")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "missing_argument"


def test_pants_sweep(capsys):
    code, out, _ = run_cli(capsys, "pants", "--n", "0..5", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 6
    for row in doc["rows"]:
        hopf_present = any(cut["is_hopf_band"] for cut in row["cuts"])
        assert row["deplumbing_obstructed"] == (not hopf_present)
    assert doc["rows"][0]["twist_length"] == 2


def test_sweep_with_step(capsys):
    code, out, _ = run_cli(
        capsys, "heightlb", "--fibre-b1", "2", "--n", "0..30..10", "--format", "tsv"
    )
    assert code == 0
    assert [line.split("\t")[0] for line in out.splitlines()[1:]] == [
        "0",
        "10",
        "20",
        "30",
    ]


def test_pants_tsv_negative_range(capsys):
    code, out, _ = run_cli(capsys, "pants", "--n=-2..2", "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[1].startswith("-2\t4\t0\t-1\t-3")


def test_parse_errors_exit_2(tmp_path, capsys):
    cases = [
        ("alexander", "--surface", "1,1", "--word", "a9"),
        ("alexander", "--surface", "one,1", "--word", "a1"),
        ("sclbound", "--tc", "zebra", "--n", "5"),
        ("sclbound", "--tc", "1/48", "--n", "1..3"),
        ("pants", "--n", "5..1"),
        ("heightlb", "--fibre-b1", "2", "--n", "x"),
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "error" in json.loads(err)
    missing = tmp_path / "missing.json"
    code, _, err = run_cli(
        capsys, "twistlb", "--surface", "1,1", "--classes", str(missing)
    )
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _, err = run_cli(capsys, "twistlb", "--surface", "1,1", "--classes", str(bad))
    assert code == 2


def test_classes_file_rejects_booleans(tmp_path, capsys):
    classes = tmp_path / "classes.json"
    classes.write_text(json.dumps([[True, False, False, False]]))
    code, out, err = run_cli(
        capsys, "twistlb", "--surface", "2,1", "--classes", str(classes)
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "malformed_classes_file"


def test_out_into_missing_directory_exits_3(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(
        capsys, "alexander", "--surface", "1,1", "--word", "a1", "--out", str(target)
    )
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["code"] == "unwritable_output"
    assert not target.parent.exists()


def test_precondition_errors_exit_3(capsys):
    code, _, err = run_cli(capsys, "alexander", "--surface=-1,1", "--word", "a1")
    assert code == 3
    code, _, err = run_cli(capsys, "heightlb", "--fibre-b1=-2", "--n", "0")
    assert code == 3
    code, _, err = run_cli(
        capsys, "heightlb", "--fibre-b1", "2", "--model", "0,-5", "--n", "5"
    )
    assert code == 3
    assert json.loads(err)["error"]["code"] == "precondition"


def test_verification_failure_exit_4(capsys, monkeypatch):
    def broken(args):
        raise VerificationError("forced failure")

    monkeypatch.setitem(cli._HANDLERS, "pants", broken)
    code, _, err = run_cli(capsys, "pants", "--n", "0")
    assert code == 4
    assert json.loads(err)["error"]["code"] == "verification"


def test_unknown_flag_exits_2(capsys):
    cases = [
        ("alexander", "--nope"),
        ("alexander", "--surface", "1,1", "--word", "a1", "--nope"),
        ("pants",),
        ("pants", "--n", "1", "--format", "xml"),
        ("heightlb", "--fibre-b1", "two", "--n", "1"),
        ("frobnicate",),
        (),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert json.loads(err)["error"]["code"] == "malformed_arguments", argv
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["pants", "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("usage: twistlab pants")


def test_sweep_size_is_capped(capsys):
    limit = wordparse.MAX_SWEEP_VALUES
    assert len(wordparse.parse_sweep(f"1..{limit}")) == limit
    assert len(wordparse.parse_sweep(",".join(["7"] * limit))) == 1
    cases = [
        ("pants", f"--n=0..{10**15}"),
        ("pants", f"--n=1..{limit + 1}", "--format", "tsv"),
        ("heightlb", "--fibre-b1", "2", f"--n=-{10**15}..{10**15}..2"),
        ("heightlb", "--fibre-b1", "2", "--n", ",".join(["7"] * (limit + 1))),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == "", argv
        assert json.loads(err)["error"]["code"] == "precondition", argv
    code, out, _ = run_cli(capsys, "pants", f"--n=0..{10**15}..{10**12}", "--format", "tsv")
    assert code == 0
    assert out.splitlines()[-1].startswith(f"{10**15}\t")
    assert len(out.splitlines()) == 1002


@pytest.mark.parametrize("n", ["5..5", "5,5,5", "1..9..10", f"0..{10**15}", "5.0"])
def test_sclbound_n_takes_exactly_one_integer(capsys, n):
    code, out, err = run_cli(capsys, "sclbound", "--tc", "1/48", f"--n={n}")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "code": "malformed_range",
        "message": "sclbound takes one integer n",
        "token": n,
    }
    code, out, _ = run_cli(capsys, "sclbound", "--tc", "1/48", "--n= +5 ")
    assert code == 0 and json.loads(out)["inputs"]["n"] == 5


def test_pants_verify_requires_identity_action(capsys, monkeypatch):
    # A unipotent action still has polynomial (t - 1)^2 and value 0 at 1,
    # so only the identity check catches a fold that returns it.
    fold = homology.word_action

    def unipotent_on_pants(word):
        if word.surface == PANTS_SURFACE:
            return HomologyMatrix(((1, 1), (0, 1)), PANTS_SURFACE)
        return fold(word)

    monkeypatch.setattr(homology, "word_action", unipotent_on_pants)
    monkeypatch.setattr(cli, "word_action", unipotent_on_pants)
    code, out, err = run_cli(capsys, "pants", "--n", "3", "--verify")
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == {
        "code": "verification",
        "message": "pants family must act trivially on homology",
    }


def _verification_failure(capsys, *argv) -> str:
    code, out, err = run_cli(capsys, *argv, "--verify")
    assert code == 4 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "verification"
    return error["message"]


@pytest.mark.parametrize(
    "surface, word",
    [
        ("3,1", "a1^2 b1^-1 a2^3 b2 a3^-2 b3^2"),
        ("7,1", " ".join(f"a{i}^{i + 1} b{i}^-{i}" for i in range(1, 8))),
    ],
    ids=["g3", "g7"],
)
def test_alexander_verify_catches_dropped_exponents(capsys, monkeypatch, surface, word):
    # The replay pushes each basis vector through the word by the transvection
    # formula, so it does not share the fold's error.
    fold = homology.word_action

    def dropped(w):
        return fold(TwistWord.from_pairs(w.surface, [(x.curve, 1) for x in w.letters]))

    monkeypatch.setattr(homology, "word_action", dropped)
    monkeypatch.setattr(cli, "word_action", dropped)
    message = _verification_failure(capsys, "alexander", "--surface", surface, "--word", word)
    assert message == "letter-by-letter replay does not give the action matrix"


def test_alexander_verify_catches_a_charpoly_off_by_one(capsys, monkeypatch):
    berkowitz = polynomials.characteristic_coefficients

    def off_by_one(rows):
        coeffs = list(berkowitz(rows))
        if len(rows) >= 14:
            coeffs[2] += 1
        return tuple(coeffs)

    monkeypatch.setattr(polynomials, "characteristic_coefficients", off_by_one)
    word = " ".join(f"a{i} b{i}^-2" for i in range(1, 8))
    message = _verification_failure(capsys, "alexander", "--surface", "7,1", "--word", word)
    assert message == "characteristic polynomial is not reciprocal"


def _gradient_skips_index_0(monkeypatch):
    # word_action reads the gradient; the replay and the pairing do not.
    gradient = homology.pairing_gradient
    monkeypatch.setattr(homology, "pairing_gradient", lambda c: (0,) + gradient(c)[1:])


def _berkowitz_error(errors):
    def patch(monkeypatch):
        berkowitz = polynomials.characteristic_coefficients

        def wrong(rows):
            coeffs = list(berkowitz(rows))
            for i, error in errors.items():
                coeffs[i] += error
            return tuple(coeffs)

        monkeypatch.setattr(polynomials, "characteristic_coefficients", wrong)

    return patch


def _delta_one_at_minus_one(monkeypatch):
    report = cli.alexander_report

    def wrong(word):
        right = report(word)
        return dataclasses.replace(right, delta_one=right.poly.evaluate(-1))

    monkeypatch.setattr(cli, "alexander_report", wrong)


_WORD_2_1 = "a1 b1^2 a2^-1 b2 a1^3"
_WORD_3_3 = "a1 [1,0,-1,2,0,1,1,0] d1^2 b3^-1 d2 a2^3"
_WORD_7_1 = " ".join(f"a{i} b{i}^-2" for i in range(1, 8))


@pytest.mark.parametrize(
    "mutate, surface, word, message",
    [
        (_gradient_skips_index_0, "2,1", _WORD_2_1,
         "letter-by-letter replay does not give the action matrix"),
        # c_1 and c_{n-1} (highest degree first): the polynomial stays reciprocal.
        (_berkowitz_error({1: 1, -2: 1}), "7,1", _WORD_7_1, "delta_one is not det(id - M)"),
        (_berkowitz_error({2: 1}), "3,3", _WORD_3_3, "delta_one is not det(id - M)"),
        (_delta_one_at_minus_one, "2,1", _WORD_2_1, "delta_one is not det(id - M)"),
        # p(1) is unchanged; only p(2) sees it.
        (_berkowitz_error({1: 1, 2: -1}), "3,3", _WORD_3_3,
         "characteristic polynomial at 2 is not det(2*id - M)"),
    ],
    ids=[
        "fold-gradient",
        "palindromic-charpoly",
        "charpoly-3-boundaries",
        "delta-one",
        "charpoly-same-p1",
    ],
)
def test_alexander_verify_catches_consistent_errors(
    capsys, monkeypatch, mutate, surface, word, message
):
    # Each error is the same on every conjugate and on the inverse word, so
    # only a check by another algorithm than the one at fault sees it.
    mutate(monkeypatch)
    argv = ("alexander", "--surface", surface, "--word", word)
    assert _verification_failure(capsys, *argv) == message


@pytest.mark.parametrize(
    "surface, word",
    [
        ("2,1", "a1 b1^-1 a2^2 b2"),
        ("4,1", " ".join(f"{'ab'[i % 2]}{i // 2 % 4 + 1}^{i % 3 - 3}" for i in range(40))),
    ],
    ids=["4-letters", "40-letters"],
)
def test_alexander_verify_folds_once_and_takes_one_charpoly(
    capsys, monkeypatch, surface, word
):
    calls = {"fold": 0, "charpoly": 0}
    fold = homology.word_action
    berkowitz = polynomials.characteristic_coefficients

    def counted_fold(w):
        calls["fold"] += 1
        return fold(w)

    def counted_charpoly(rows):
        calls["charpoly"] += 1
        return berkowitz(rows)

    monkeypatch.setattr(homology, "word_action", counted_fold)
    monkeypatch.setattr(cli, "word_action", counted_fold)
    monkeypatch.setattr(polynomials, "characteristic_coefficients", counted_charpoly)
    code, _, _ = run_cli(capsys, "alexander", "--surface", surface, "--word", word, "--verify")
    assert code == 0
    assert calls == {"fold": 1, "charpoly": 1}


def test_twistlb_verify_catches_a_fold_that_moves_the_witness(capsys, monkeypatch, tmp_path):
    classes = tmp_path / "classes.json"
    classes.write_text(json.dumps(["a1", "b1", "a2"]))
    fold = obstruction.word_action

    def drifting(word):  # the witness a2 pairs to 1 with b2
        return twist_action(word.surface.b(2)) @ fold(word)

    monkeypatch.setattr(obstruction, "word_action", drifting)
    argv = ("twistlb", "--surface", "2,1", "--classes", str(classes))
    message = _verification_failure(capsys, *argv)
    assert message == "certificate verification failed on word 0"


def test_sclbound_verify_catches_a_forged_chain_value(capsys, monkeypatch):
    chain_lower = cli.chain_lower

    def forged(*args):
        chain = chain_lower(*args)
        return dataclasses.replace(chain, result=lower(chain.result.value + 1))

    monkeypatch.setattr(cli, "chain_lower", forged)
    argv = ("sclbound", "--tc", "1/48", "--twists", "1/48", "--n", "480")
    message = _verification_failure(capsys, *argv)
    assert message == "derivation replay does not reproduce the bound"


def test_heightlb_verify_catches_h_lb_off_by_one(capsys, monkeypatch):
    height_lower_bound = cli.height_lower_bound

    def off_by_one(query):
        result = height_lower_bound(query)
        return dataclasses.replace(result, h_lb=result.h_lb + 1)

    monkeypatch.setattr(cli, "height_lower_bound", off_by_one)
    message = _verification_failure(capsys, "heightlb", "--fibre-b1", "2", "--n", "123456")
    assert message == "reported h_lb is not minimal"


@pytest.mark.parametrize(
    "text, accepted", [("1_0", False), ("\u0663", False), (" 5 ", True), ("+5", True)]
)
@pytest.mark.parametrize(
    "argv, code",
    [
        (("pants", "--n={}"), "malformed_range"),
        (("pants", "--n={}..20"), "malformed_range"),
        (("pants", "--n=1..{}"), "malformed_range"),
        (("pants", "--n=1..20..{}"), "malformed_range"),
        (("pants", "--n=1,{}"), "malformed_range"),
        (("alexander", "--surface={},1", "--word", "a1"), "malformed_surface"),
        (("alexander", "--surface=1,{}", "--word", "a1"), "malformed_surface"),
        (("heightlb", "--fibre-b1={}", "--n", "5"), "malformed_arguments"),
    ],
)
def test_every_integer_field_follows_one_rule(capsys, argv, code, text, accepted):
    # Underscores and non-ASCII digits (U+0663 is an Arabic-Indic 3) are
    # refused with the code of their place; whitespace and '+' are not.
    status, out, err = run_cli(capsys, *(arg.format(text) for arg in argv))
    if accepted:
        assert status == 0 and err == ""
    else:
        assert status == 2 and out == ""
        assert json.loads(err)["error"]["code"] == code


def test_heightlb_takes_fibre_b1_or_surface_not_both(capsys):
    code, out, err = run_cli(capsys, "heightlb", "--fibre-b1", "2", "--surface", "5,1", "--n", "1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "malformed_arguments"


def test_homology_rank_is_capped(capsys, tmp_path):
    assert wordparse.MAX_RANK == 200
    classes = tmp_path / "classes.json"
    classes.write_text('["a1"]')
    code, out, _ = run_cli(capsys, "twistlb", "--surface", "100,1", "--classes", str(classes))
    assert code == 0 and json.loads(out)["surface"]["betti"] == 200
    cases = [
        ("twistlb", "--surface", "101,1", "--classes", str(classes)),
        ("alexander", "--surface", "100000,1", "--word", "a1"),
        ("alexander", "--surface", "0,202", "--word", "d1"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == "", argv
        assert json.loads(err)["error"]["code"] == "precondition", argv
    # heightlb reads only b1 from the surface
    code, out, _ = run_cli(capsys, "heightlb", "--surface", "100000,1", "--n", "5")
    assert code == 0 and json.loads(out)["fibre_b1"] == 200_000


# Classes files of the twistlb goldens, written under these names into the
# test's directory; a report does not contain the path.
CLASSES_FILES = {
    "certified.json": ["a1", "b1", [0, 0, 1, 0]],
    "uncertified.json": ["a1", "b1"],
}

# sha256 and length of stdout.  The first four were captured from an
# implementation that built every derivation eagerly and replayed every
# subtree under --verify; the rest from one that rendered the one-row
# reports (alexander, twistlb, sclbound) as hand-built TSV tables.  The
# reports must not depend on how derivations are built or rows rendered.
GOLDEN_REPORTS = {
    ("sclbound", "--tc", "1/48", "--twists", "1/48,1/48", "--n", "480", "--verify"): (
        "924be9573ab122f570f6def2e0ed445e01405bfa87ab2eb99556dd1a117ee009",
        1311,
    ),
    ("sclbound", "--tc", "3/11", "--phi0", "1/5", "--twists", "2/7,1/3", "--n=-13"): (
        "5ea7d1191f339edad997c1347a8af39b5f6ef40bf9d2f5f7bd18e895369bd781",
        1294,
    ),
    ("heightlb", "--fibre-b1", "2", "--n", "123456", "--verify"): (
        "1a6e36f207a84952c74dcb5bd1ab23142417fa6bb5f929ab0301721f54c9df0d",
        3418,
    ),
    ("heightlb", "--fibre-b1", "2", "--n", "0", "--verify"): (
        "4195cc61ede65f5b60de3dfff5f8e63d75b1f90b632ec4f0d5fbacec266bcbd0",
        1785,
    ),
    ("alexander", "--surface", "1,1", "--word", "a1 b1"): (
        "f675ebeaf42bb72d0fa348e28380aac60525e0dd278b28fefa6528e8e3f75f70",
        561,
    ),
    ("alexander", "--surface", "1,1", "--word", "a1 b1", "--verify"): (
        "cded2c9c8c9d1a7c88e0e6e2c0acec5082badf6f9e8a3fa40b33bc6027f0cfd6",
        581,
    ),
    ("alexander", "--surface", "1,1", "--word", "a1 b1", "--format", "tsv"): (
        "8803341576e64c43b48c8d18d0174515162072a33087973bb2c7874e38546dbf",
        96,
    ),
    ("alexander", "--surface", "1,1", "--word", "a1 b1", "--format", "tsv", "--verify"): (
        "8803341576e64c43b48c8d18d0174515162072a33087973bb2c7874e38546dbf",
        96,
    ),
    ("alexander", "--surface", "1,3", "--word", "a1 d1 b1^-2 [1,0,1,-1] d2^3"): (
        "d180b0254a6ae173d305aee9115358199fb7c8def7bf3fccdcb19695a6d5ca7d",
        801,
    ),
    ("alexander", "--surface", "1,3", "--word", "a1 d1 b1^-2 [1,0,1,-1] d2^3", "--verify"): (
        "c40d91c3e7ab2f3ef98ece9c13752d80929d62046108403c95fa5b51060bbae8",
        821,
    ),
    ("alexander", "--surface", "1,3", "--word", "a1 d1 b1^-2 [1,0,1,-1] d2^3", "--format", "tsv"): (
        "8a18e19baf335b8c34420b8f8ec556aa09faa09350397d24e5105811c78a6493",
        145,
    ),
    ("alexander", "--surface", "1,3", "--word", "a1 d1 b1^-2 [1,0,1,-1] d2^3", "--format", "tsv", "--verify"): (
        "8a18e19baf335b8c34420b8f8ec556aa09faa09350397d24e5105811c78a6493",
        145,
    ),
    ("twistlb", "--surface", "2,1", "--classes", "certified.json"): (
        "2caf157ae98d84c2afbcc3362efc7784a11bfb2050d9b8c0136b8ef6c50eb063",
        987,
    ),
    ("twistlb", "--surface", "2,1", "--classes", "certified.json", "--verify"): (
        "878bad2c221b880164d9258a99380f14c318647e8db2cef2ee69520f01448e1c",
        1049,
    ),
    ("twistlb", "--surface", "2,1", "--classes", "certified.json", "--format", "tsv"): (
        "8b330c6887feba31697956fcc573815c1af6f975815318e49043b227fe814ebe",
        98,
    ),
    ("twistlb", "--surface", "2,1", "--classes", "certified.json", "--format", "tsv", "--verify"): (
        "8b330c6887feba31697956fcc573815c1af6f975815318e49043b227fe814ebe",
        98,
    ),
    ("twistlb", "--surface", "1,1", "--classes", "uncertified.json"): (
        "a2ab0df202ea0a607fec54bc072fde8acf253a03c1f76ebeb53c9a95509201ea",
        281,
    ),
    ("twistlb", "--surface", "1,1", "--classes", "uncertified.json", "--verify"): (
        "8360c79af0b69089d28691101355135da904aba89b6bd89c154e6dcec0d5404d",
        341,
    ),
    ("twistlb", "--surface", "1,1", "--classes", "uncertified.json", "--format", "tsv"): (
        "046060611962ad0a38a364d4d34f851194b92778c35c1b2bd2ccc99e534590a0",
        93,
    ),
    ("twistlb", "--surface", "1,1", "--classes", "uncertified.json", "--format", "tsv", "--verify"): (
        "046060611962ad0a38a364d4d34f851194b92778c35c1b2bd2ccc99e534590a0",
        93,
    ),
    ("sclbound", "--tc", "1/48", "--twists", "1/48,1/48", "--n", "480"): (
        "8aacd48ce9f1902fcdf5106c0e614d49fec025b5f1f9baa99b9885a10caaf15f",
        1291,
    ),
    ("sclbound", "--tc", "1/48", "--twists", "1/48,1/48", "--n", "480", "--verify"): (
        "924be9573ab122f570f6def2e0ed445e01405bfa87ab2eb99556dd1a117ee009",
        1311,
    ),
    ("sclbound", "--tc", "1/48", "--twists", "1/48,1/48", "--n", "480", "--format", "tsv"): (
        "f279c3344faee448a9e1586682894986587ffa0afe16a7713a163a7352c5d67e",
        40,
    ),
    ("sclbound", "--tc", "1/48", "--twists", "1/48,1/48", "--n", "480", "--format", "tsv", "--verify"): (
        "f279c3344faee448a9e1586682894986587ffa0afe16a7713a163a7352c5d67e",
        40,
    ),
    ("pants", "--n=-7..7", "--format", "tsv", "--verify"): (
        "947899a3df821355a5b1909621a8d0890a299e6d256c6314c8a391cc7212a9fe",
        586,
    ),
    ("heightlb", "--fibre-b1", "2", "--n", "0..2000000..99999", "--format", "tsv"): (
        "dbec0da9c0d854d2a455e24bcecd0c010b5101dcb7d88b44fed2db839fe756b9",
        238,
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN_REPORTS), ids=" ".join)
def test_derivation_reports_match_golden_bytes(capsys, tmp_path, argv):
    for name, entries in CLASSES_FILES.items():
        (tmp_path / name).write_text(json.dumps(entries))
    real = [str(tmp_path / a) if a in CLASSES_FILES else a for a in argv]
    code, out, err = run_cli(capsys, *real)
    assert code == 0 and err == ""
    data = out.encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == GOLDEN_REPORTS[argv]


@pytest.fixture
def derivation_nodes(monkeypatch):
    """Counts the Derivation nodes built while the test runs."""
    built = []
    init = Derivation.__init__

    def counting_init(node, *args, **kwargs):
        built.append(node)
        init(node, *args, **kwargs)

    monkeypatch.setattr(Derivation, "__init__", counting_init)
    return built


def test_heightlb_builds_derivations_only_when_read(capsys, derivation_nodes):
    code, out, _ = run_cli(capsys, "heightlb", "--fibre-b1", "2", "--n", "0..500")
    assert code == 0 and "derivations" not in json.loads(out)
    assert derivation_nodes == []
    # A single n prints its trees: 5 nodes per step, steps h_lb - 1 and h_lb.
    code, out, _ = run_cli(capsys, "heightlb", "--fibre-b1", "2", "--n", "123456")
    assert code == 0 and len(json.loads(out)["derivations"]) == 4
    assert len(derivation_nodes) == 10
    # --verify checks the trees of every n of a sweep.
    del derivation_nodes[:]
    code, out, _ = run_cli(capsys, "heightlb", "--fibre-b1", "2", "--n", "0,123456", "--verify")
    assert code == 0 and "derivations" not in json.loads(out)
    assert len(derivation_nodes) == 5 + 10


LONG = "1" * 5000  # more digits than the interpreter reads as an integer


@pytest.mark.parametrize(
    "argv, classes, code",
    [
        (("alexander", "--surface", "1,1", "--word", f"[{LONG},0]"), None, "unknown_token"),
        (("alexander", "--surface", "1,1", "--word", f"a1^{LONG}"), None, "malformed_exponent"),
        (("alexander", "--surface", "1,1", "--word", f"a{LONG}"), None, "index_out_of_range"),
        (("twistlb", "--surface", "1,1"), f"[[{LONG},0]]", "malformed_classes_file"),
        (("twistlb", "--surface", "1,1"), f'["b{LONG}"]', "index_out_of_range"),
    ],
    ids=["vector", "exponent", "index", "classes-vector", "classes-token"],
)
def test_oversized_integer_tokens_exit_2(capsys, tmp_path, argv, classes, code):
    if classes is not None:
        path = tmp_path / "classes.json"
        path.write_text(classes)
        argv += ("--classes", str(path))
    status, out, err = run_cli(capsys, *argv)
    assert status == 2 and out == ""
    assert json.loads(err)["error"]["code"] == code


@pytest.mark.parametrize("fmt", ("json", "tsv"))
@pytest.mark.parametrize(
    "argv",
    [
        ("sclbound", "--tc", "1" + "0" * 3000, "--n", "1" + "0" * 3000),
        ("alexander", "--surface", "1,1", "--word", f"a1^{'7' * 3001} b1^{'7' * 3001}"),
        ("pants", f"--n={'9' * 4300}"),
    ],
    ids=["sclbound", "alexander", "pants"],
)
def test_report_integers_past_the_text_limit_exit_3(capsys, argv, fmt):
    # The inputs are readable; the report's value, polynomial or twist
    # length (n + 2) is not.
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "precondition"
    assert f"{sys.get_int_max_str_digits()} digits" in error["message"]


def test_witness_past_the_text_limit_is_a_precondition():
    with pytest.raises(PreconditionError, match="digits"):
        reporting.witness_text(SimpleNamespace(witness=(1, 10**5000)))


@pytest.mark.parametrize(
    "text", ["2.5e-1", "0.5", "1e3", "1e9999999", "1_000", "1/0", "1/-2", "--1", "1 /2", "", "½"]
)
def test_rationals_follow_the_documented_grammar(capsys, text):
    for argv in (
        ("sclbound", f"--tc={text}", "--n", "5"),
        ("sclbound", "--tc", "1/48", f"--twists=1/48,{text}", "--n", "5"),
        ("heightlb", "--fibre-b1", "2", f"--model={text},1", "--n", "5"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert json.loads(err)["error"]["code"] == "malformed_rational", argv
    code, out, _ = run_cli(
        capsys, "sclbound", "--tc", " +3/6 ", "--phi0", "1/4\n", "--n", "5", "--format", "tsv"
    )
    assert code == 0 and out.splitlines()[1] == "0\t1/4\t1/2\t5\t7/4"
