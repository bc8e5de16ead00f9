"""Run one ``cmlimit`` command in this fresh process and report on it.

Usage: ``python3 bench/worker.py SPEC`` where SPEC is a JSON object with
``argv`` (the command line), ``spawned`` (the parent's ``time.monotonic()``
just before it started this process) and ``trace`` (install the span
recorder).  The package is imported from the checkout's own ``src``.  The
command's standard output and error are captured in memory; the worker
prints one JSON line with the timings, the exit code, the captured text, its
peak resident set and, when traced, its spans and counts.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    import cmlimit.cli as cli

    setup_s = time.monotonic() - spec["spawned"]

    import contextlib
    import io
    import resource

    recorder = None
    if spec["trace"]:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(list(spec["argv"]))
        run_s = time.perf_counter() - start

    report = {
        "setup_s": setup_s,
        "run_s": run_s,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cmlimit_file": cli.__file__,
    }
    if recorder is not None:
        report["spans"] = recorder.spans
        report["counts"] = dict(recorder.counts)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
