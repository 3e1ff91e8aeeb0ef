"""Request executor: one process, one thread, one request at a time.

Runs ``twistlab.cli.main`` from the checkout's ``src/`` in this process,
with stdout and stderr captured in memory.  The driver (``run.py``)
sends one JSON message per line on stdin:

    {"requests": [argv, ...]}   run these requests back to back, each timed
    {"op": "trace"}             install the span recorder
    {"op": "finish", ...}       report peak RSS and layer figures, exit

For each request the reply on stdout is a JSON header line
``{"rc", "seconds", "bytes", "stderr"}`` followed by exactly ``bytes``
bytes of report.  The driver sends one round at a time and checks its
reports while this process waits for the next round, so checking never
falls inside a timed region and the requests of a round run without gaps.
"""

from __future__ import annotations

import io
import json
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def run_request(cli, argv) -> tuple[int, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    text = out.getvalue()
    return rc, perf_counter() - start, text, err.getvalue()


def serve(stdin, stdout) -> None:
    from twistlab import cli  # noqa: PLC0415 - after sys.path points at src/

    tracer = None
    request = 0
    for line in iter(stdin.readline, ""):
        message = json.loads(line)
        if "requests" in message:
            for argv in message["requests"]:
                if tracer is not None:
                    tracer.begin_request(request)
                rc, seconds, text, err = run_request(cli, argv)
                payload = text.encode()
                if tracer is not None:
                    tracer.end_request(len(payload))
                request += 1
                header = {"rc": rc, "seconds": seconds, "bytes": len(payload), "stderr": err[-500:]}
                stdout.write(json.dumps(header).encode() + b"\n")
                stdout.write(payload)
                stdout.flush()
        elif message["op"] == "trace":
            from spans import Tracer  # noqa: PLC0415

            tracer = Tracer()
            tracer.install()
        elif message["op"] == "finish":
            result = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            if tracer is not None:
                tracer.restore()
                result["layers"] = tracer.summary(message["rounds"])
                if message.get("spans_path"):
                    Path(message["spans_path"]).write_text(json.dumps(
                        {"fields": ["request", "name", "parent", "start", "end"], "spans": tracer.kept}
                    ))
            stdout.write(json.dumps(result).encode() + b"\n")
            stdout.flush()
            return


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout.buffer)
