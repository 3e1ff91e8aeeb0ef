"""Seeded, stdlib-only benchmark of twistlab, timed from outside the package.

    python3 bench/run.py --workload matrix --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1

``matrix`` (alexander + twistlb requests) and ``sweeps`` (scl + pants) are
the workloads of ``BENCHMARK.json``; ``all`` runs alexander, twistlb, scl and
pants one after another, each on its own.

Run from the root of a checkout; the program is imported from ``src/``.
Each workload runs in its own fresh worker process (``worker.py``), which
replays seeded requests through ``twistlab.cli.main`` in a closed loop:
one thread, one request at a time, stdout captured in memory.  Requests
come in rounds of fixed composition (``workloads.py``); a run executes
whole rounds, at least ``MIN_ROUNDS``, while one more round is expected to
end within half a round of ``--seconds`` of request time, so that a run
measures ``--seconds`` on average even where a round lasts a third of it
(``matrix``).  Every report is checked by
``checker.py``, which does not import twistlab, while the worker waits, so
no check is timed.

``--trace 0`` prints the end-to-end metrics:

    requests_per_s   requests completed / closed-loop request time
    request_p50_ms   median in-process request latency
    request_tail_ms  latency at the highest whole percentile that leaves at
                     least 10 requests beyond it in MIN_ROUNDS rounds; the
                     percentile is fixed per workload so it does not move
                     with the number of rounds a faster program completes
    setup_s          median wall time of a fresh ``python -m twistlab.cli``
                     process running the workload's smallest request
    peak_rss_mb      ru_maxrss of the worker process that ran the workload

Beside them it prints ``failed_frac``, the share of checked requests (the
loop's and the fresh processes') with a nonzero exit code or a failed check,
and sha256 digests of the inputs and of the report bytes of the first
``MIN_ROUNDS`` rounds, which every run completes.

``--trace 1`` runs whole rounds untraced for ``--seconds / 2``, then the
same requests again with the span recorder of ``spans.py`` installed,
checks that both passes give byte-identical reports, and prints per-layer
self time, share of request time and calls, the layer counters (totals
per round; ``max_*`` are maxima) and ``trace.overhead``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a results file with the run metadata is
written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
sys.path.insert(0, str(BENCH))

from checker import check  # noqa: E402
from spans import COUNTERS, LAYERS  # noqa: E402
from workloads import COMBINED, WORKLOADS, make_round  # noqa: E402

MIN_ROUNDS = 2
TAIL_BEYOND = 10
SETUP_REPEATS = 15

END_TO_END = {
    "requests_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.self_s": "s", f"{layer}.share": "ratio", f"{layer}.calls": "count"})
    for name in COUNTERS:
        units[name] = "bits" if name.endswith("_bits") else "B" if name.endswith("bytes_out") else "count"
    units["trace.overhead"] = "ratio"
    return units


class Worker:
    """A fresh worker process; close() always reaps it."""

    def __init__(self, root: Path):
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")],
            cwd=root,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )

    def _send(self, message: dict) -> None:
        self.process.stdin.write(json.dumps(message).encode() + b"\n")
        self.process.stdin.flush()

    def _header(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.process.wait()}")
        return json.loads(line)

    def run(self, argvs) -> list[tuple[int, float, bytes, str]]:
        """Run requests back to back; (exit code, seconds, report, stderr) each."""
        self._send({"requests": [list(argv) for argv in argvs]})
        replies = []
        for _ in argvs:
            header = self._header()
            payload = self.process.stdout.read(header["bytes"])
            replies.append((header["rc"], header["seconds"], payload, header["stderr"]))
        return replies

    def trace(self) -> None:
        self._send({"op": "trace"})

    def finish(self, rounds: int = 1, spans_path: str | None = None) -> dict:
        self._send({"op": "finish", "rounds": rounds, "spans_path": spans_path})
        return self._header()

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Tally:
    """Checked requests of one pass: latencies, digests and failures."""

    def __init__(self):
        self.seconds: list[float] = []
        self.digests: list[str] = []
        self.failures: list[str] = []
        self.attempted = 0

    def run(self, worker: Worker, requests) -> None:
        replies = worker.run([r.argv for r in requests])
        for request, (rc, seconds, payload, stderr) in zip(requests, replies):
            self.record(request, rc, payload, stderr)
            self.seconds.append(seconds)

    def record(self, request, rc, payload, stderr) -> None:
        self.attempted += 1
        self.digests.append(hashlib.sha256(payload).hexdigest())
        reason = check(request, rc, payload)
        if reason is not None:
            self.failures.append(f"{reason} {stderr.strip()}".strip())


class Setup:
    """Fresh ``python -m twistlab.cli`` processes, one at a time.

    The first process is untimed: it writes the bytecode cache, which users
    pay for once.  The timed ones are spread over the run, between rounds,
    so that their median does not hang on one moment's machine speed.
    """

    def __init__(self, request, root: Path):
        self.request = request
        self.root = root
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), self.env.get("PYTHONPATH")]))
        self.times: list[float] = []
        self.tally = Tally()
        self._run()

    def _run(self) -> tuple[float, subprocess.CompletedProcess]:
        argv = [sys.executable, "-m", "twistlab.cli", *self.request.argv]
        start = perf_counter()
        done = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True, timeout=60)
        return perf_counter() - start, done

    def measure_until(self, count: float) -> None:
        while len(self.times) < min(count, SETUP_REPEATS):
            elapsed, done = self._run()
            self.times.append(elapsed)
            self.tally.record(self.request, done.returncode, done.stdout, done.stderr.decode(errors="replace"))


def tail_percentile(round_size: int) -> int:
    """Highest whole percentile with TAIL_BEYOND requests beyond it in MIN_ROUNDS rounds."""
    return math.floor(100 * (1 - TAIL_BEYOND / (MIN_ROUNDS * round_size)))


def nearest_rank(values: list[float], percentile: int) -> tuple[float, int]:
    """(value at the percentile, number of values beyond it)."""
    ordered = sorted(values)
    rank = max(math.ceil(percentile / 100 * len(ordered)), 1)
    return ordered[rank - 1], len(ordered) - rank


def run_rounds(worker, tally, next_round, budget, min_rounds, setup=None) -> list[list]:
    """Whole rounds while one more round is expected to end within half a round of ``budget`` seconds."""
    rounds: list[list] = []
    while len(rounds) < min_rounds or sum(tally.seconds) * (len(rounds) + 0.5) / len(rounds) <= budget:
        rounds.append(next_round(len(rounds)))
        tally.run(worker, rounds[-1])
        if setup is not None:
            setup.measure_until(SETUP_REPEATS * sum(tally.seconds) / budget)
    return rounds


def measure_plain(next_round, seconds: float, root: Path) -> tuple[list[list], Tally, dict, dict]:
    loop = Tally()
    setup = Setup(min(next_round(0), key=lambda r: r.cost), root)
    with Worker(root) as worker:
        rounds = run_rounds(worker, loop, next_round, seconds, MIN_ROUNDS, setup)
        setup.measure_until(SETUP_REPEATS)
        maxrss_kb = worker.finish()["maxrss_kb"]
    value, beyond = nearest_rank(loop.seconds, tail_percentile(len(rounds[0])))
    metrics = {
        "requests_per_s": len(loop.seconds) / sum(loop.seconds),
        "request_p50_ms": 1000 * statistics.median(loop.seconds),
        "request_tail_ms": 1000 * value,
        "setup_s": statistics.median(setup.times),
        "peak_rss_mb": maxrss_kb / 1024,
    }
    loop.attempted += setup.tally.attempted
    loop.failures += setup.tally.failures
    info = {"tail_beyond": beyond, "setup_repeats": len(setup.times)}
    return rounds, loop, metrics, info


def measure_traced(next_round, seconds: float, root: Path, spans_path: Path):
    loop, traced = Tally(), Tally()
    with Worker(root) as worker:
        rounds = run_rounds(worker, loop, next_round, seconds / 2, 1)
        worker.trace()
        for requests in rounds:
            traced.run(worker, requests)
        layers = worker.finish(len(rounds), str(spans_path))["layers"]
    mismatched = sum(a != b for a, b in zip(loop.digests, traced.digests, strict=True))
    if mismatched:
        loop.failures.append(f"{mismatched} traced reports differ from the untraced ones")
    loop.attempted += traced.attempted
    loop.failures += traced.failures
    metrics = dict(layers, **{"trace.overhead": sum(traced.seconds) / sum(loop.seconds) - 1})
    return rounds, loop, metrics, {"spans_file": str(spans_path.relative_to(root))}


def digest(items) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    work = RESULTS / f"work-{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)

    def next_round(index: int) -> list:
        return make_round(workload, seed, index, work, root)

    try:
        if trace:
            spans_path = RESULTS / f"{workload}-seed{seed}-spans.json"
            rounds, loop, metrics, info = measure_traced(next_round, seconds, root, spans_path)
            units = per_layer_units()
        else:
            rounds, loop, metrics, info = measure_plain(next_round, seconds, root)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    covered = [r for requests in rounds[:MIN_ROUNDS] for r in requests]
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "seconds": seconds,
        "rounds": len(rounds),
        "round_size": len(rounds[0]),
        "requests": sum(map(len, rounds)),
        "request_seconds": sum(loop.seconds),
        "tail_percentile": tail_percentile(len(rounds[0])),
        **info,
        "failed_frac": len(loop.failures) / loop.attempted,
        "inputs_sha256": digest([[list(r.argv), r.expect] for r in covered]),
        "reports_sha256": digest(loop.digests[: len(covered)]),
        "failures": loop.failures[:20],
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def report(result: dict) -> None:
    print(
        f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
        f"{result['requests']} requests in {result['rounds']} rounds of {result['round_size']}, "
        f"{result['request_seconds']:.2f} s of request time; python {result['python']}, "
        f"nproc {result['nproc']}"
    )
    for name, metric in result["metrics"].items():
        note = ""
        if name == "request_tail_ms":
            note = f"  (p{result['tail_percentile']} of {result['requests']} requests, {result['tail_beyond']} beyond)"
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"  failed_frac {result['failed_frac']:.6g} ({result['failed']} of {result['attempted']} checked)")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(f"  inputs_sha256  {result['inputs_sha256']}  (first {MIN_ROUNDS} rounds)")
    print(f"  reports_sha256 {result['reports_sha256']}  (first {MIN_ROUNDS} rounds)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*COMBINED, *WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "twistlab" / "cli.py").is_file():
        print(f"no twistlab sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    correct = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), root)
        path = RESULTS / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=2) + "\n")
        report(result)
        print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
