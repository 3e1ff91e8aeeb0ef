"""The command-line workbench: reports, determinism, exit codes."""

import hashlib
import json

import pytest

from twistlab import cli, homology
from twistlab.errors import VerificationError
from twistlab.homology import HomologyMatrix
from twistlab.pants import PANTS_SURFACE
from twistlab.sclbound import Derivation


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
    limit = cli.MAX_SWEEP_VALUES
    assert len(cli._parse_sweep(f"1..{limit}")) == limit
    assert len(cli._parse_sweep(",".join(["7"] * limit))) == 1
    cases = [
        ("pants", f"--n=0..{10**15}"),
        ("pants", f"--n=1..{limit + 1}", "--format", "tsv"),
        ("heightlb", "--fibre-b1", "2", f"--n=-{10**15}..{10**15}..2"),
        ("heightlb", "--fibre-b1", "2", "--n", ",".join(["7"] * (limit + 1))),
        ("sclbound", "--tc", "1/48", f"--n=0..{10**15}"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == "", argv
        assert json.loads(err)["error"]["code"] == "precondition", argv
    code, out, _ = run_cli(capsys, "pants", f"--n=0..{10**15}..{10**12}", "--format", "tsv")
    assert code == 0
    assert out.splitlines()[-1].startswith(f"{10**15}\t")
    assert len(out.splitlines()) == 1002


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


def test_homology_rank_is_capped(capsys, tmp_path):
    assert cli.MAX_RANK == 200
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


# sha256 and length of stdout, captured from an implementation that built
# every derivation eagerly and replayed every subtree under --verify; the
# reports must not depend on how derivations are built or checked.
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
}


@pytest.mark.parametrize("argv", list(GOLDEN_REPORTS), ids=" ".join)
def test_derivation_reports_match_golden_bytes(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
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
