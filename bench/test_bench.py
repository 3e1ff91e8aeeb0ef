"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py -q

Run from the root of a checkout.  Every test uses tiny rounds, which keep
only the smallest slots of each workload.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from checker import check  # noqa: E402
from run import Tally, Worker  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from workloads import COMBINED, WORKLOADS, make_round  # noqa: E402


def tiny_round(workload, tmp_path, seed=7):
    return make_round(workload, seed, 0, tmp_path, ROOT, tiny=True)


@pytest.mark.parametrize("workload", (*WORKLOADS, *COMBINED))
def test_tiny_round_passes_checker(workload, tmp_path):
    requests = tiny_round(workload, tmp_path)
    tally = Tally()
    with Worker(ROOT) as worker:
        tally.run(worker, requests)
        worker.finish()
    assert tally.attempted == len(requests) > 0
    assert tally.failures == []


def test_rounds_are_seeded(tmp_path):
    for workload in (*WORKLOADS, *COMBINED):
        a = tiny_round(workload, tmp_path / "a")
        b = tiny_round(workload, tmp_path / "b")
        c = tiny_round(workload, tmp_path / "c", seed=8)
        assert [r.expect for r in a] == [r.expect for r in b]
        assert [r.expect for r in a] != [r.expect for r in c]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_reports_are_byte_identical(workload, tmp_path):
    requests = tiny_round(workload, tmp_path)
    plain, traced = Tally(), Tally()
    with Worker(ROOT) as worker:
        plain.run(worker, requests)
        worker.trace()
        traced.run(worker, requests)
        layers = worker.finish()["layers"]
    assert plain.digests == traced.digests
    assert traced.failures == []
    assert layers["cli.calls"] == len(requests)
    assert sum(layers[f"{layer}.share"] for layer in LAYERS) == pytest.approx(1.0)


def _bindings():
    import twistlab.cli  # noqa: F401, PLC0415 - loads every submodule

    modules = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "twistlab"}
    table = {(n, attr): value for n, m in modules.items() for attr, value in vars(m).items()}
    derivation = modules["twistlab.sclbound"].Derivation
    return modules, table, derivation.__dict__["__init__"]


def test_wrapped_bindings_are_restored():
    modules, before, init_before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        for name in ("twistlab.homology", "twistlab.polynomials"):
            assert modules[name].determinant is not before[(name, "determinant")]
        assert modules["twistlab.homology"].determinant is modules["twistlab.polynomials"].determinant
        assert modules["twistlab.cli"].word_action is not before[("twistlab.cli", "word_action")]
    finally:
        tracer.restore()
    _, after, init_after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert init_after is init_before


def _report(request):
    with Worker(ROOT) as worker:
        ((rc, _, payload, _),) = worker.run([request.argv])
        worker.finish()
    assert check(request, rc, payload) is None
    return payload


def _pick(requests, kind, fmt="json", **expect):
    return next(
        r for r in requests
        if r.kind == kind and r.expect["format"] == fmt and all(r.expect[k] == v for k, v in expect.items())
    )


def test_checker_rejects_corrupted_reports(tmp_path):
    rounds = {w: tiny_round(w, tmp_path / w) for w in WORKLOADS}

    alexander = _pick(rounds["alexander"], "alexander", genus=3)
    doc = json.loads(_report(alexander))
    doc["characteristic_polynomial"]["coefficients_constant_first"][2] += 1
    assert check(alexander, 0, json.dumps(doc).encode()) is not None

    twistlb = next(r for r in rounds["twistlb"] if r.expect["format"] == "json" and r.expect["classes"]
                   and r.expect["distinct"] < 2 * r.expect["genus"])
    doc = json.loads(_report(twistlb))
    doc["certificate"]["witness"][0] += 1
    assert check(twistlb, 0, json.dumps(doc).encode()) is not None

    height = _pick(rounds["scl"], "heightlb")
    doc = json.loads(_report(height))
    doc["rows"][-1]["h_lb"] += 1
    assert check(height, 0, json.dumps(doc).encode()) is not None

    pants = _pick(rounds["pants"], "pants", "tsv")
    lines = _report(pants).decode().split("\n")
    cells = lines[1].split("\t")
    cells[3] = str(int(cells[3]) + 1)
    lines[1] = "\t".join(cells)
    assert check(pants, 0, "\n".join(lines).encode()) is not None

    assert check(pants, 3, b"") is not None
