"""End-to-end and per-layer benchmark of the ``cmlimit`` experiments.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every command of a workload runs through ``cmlimit.cli.main(argv)`` in its
own fresh worker process (``bench/worker.py``), as a CLI user runs it, with
BLAS and OpenMP pinned to one thread.  With ``--trace 0`` the run repeats
whole passes over the workload's command list for about S seconds and
reports, on the last line of standard output, one JSON object with the
end-to-end metrics:

* ``setup_s``: median over the run's workers of the time from process start
  until ``cmlimit.cli`` is imported;
* ``batch_s``: median over passes of the summed ``main(argv)`` times;
* ``peak_rss_mb``: the largest peak resident set of any worker.

With ``--trace 1`` it runs the command lists of all three workloads once
untraced and once with the span recorder of ``bench/spans.py``, writes the
spans to ``bench/out/trace_spans.jsonl`` and reports the per-layer metrics.
Outputs are checked after timing (``bench/workloads.py``).  The exit code is
0 when the run completed, and 2 without a result line when the checkout has
no ``src/cmlimit`` or ``tests/oracles.py`` to run and check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import workloads  # noqa: E402

MIN_PASSES = 3
WORKER_TIMEOUT_S = 60
# At the default thread count the first complex eigh of a fresh process
# stalls 0.1-0.9 s in some processes and not in others on a 2-core machine.
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Fatal(Exception):
    """The benchmark cannot run here; no result is printed."""


def run_worker(argv, trace: bool) -> dict:
    """Run one command in a fresh worker; ``failure`` is None when it succeeded."""
    env = dict(os.environ, **THREAD_PIN)
    spec = {"argv": list(argv), "trace": trace, "spawned": time.monotonic()}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, env=env, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"failure": f"timed out after {WORKER_TIMEOUT_S} s"}
    if proc.returncode != 0 or not proc.stdout:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"failure": f"worker exited {proc.returncode}: {tail[0]}"}
    try:
        report = json.loads(proc.stdout.splitlines()[-1])
    except json.JSONDecodeError:
        return {"failure": "worker printed no report"}
    if not Path(report["cmlimit_file"]).resolve().is_relative_to(ROOT / "src"):
        raise Fatal(f"cmlimit was imported from {report['cmlimit_file']}, not {ROOT / 'src'}")
    marker = [line for line in report["stdout"].splitlines() if line.startswith("# FAILED")]
    report["failure"] = None
    if report["exit"] != 0 or marker:
        message = report["stderr"].strip() or " ".join(marker)
        report["failure"] = f"exit {report['exit']}: {message}"
    return report


def check_outputs(name, commands, reports, seed) -> list:
    """Run the workload's checks on one pass; a failed command is not checked."""
    if any(r["failure"] for r in reports):
        return []
    try:
        return workloads.CHECKS[name](commands, [r["stdout"] for r in reports], seed)
    except (ValueError, KeyError, IndexError, StopIteration) as exc:
        return [f"{name}: unreadable output ({type(exc).__name__}: {exc})"]


def environment() -> dict:
    import numpy
    import scipy

    import cmlimit

    def blas(config):
        return config["Build Dependencies"]["blas"].get("version")

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy.__config__.CONFIG),
        "openblas_scipy": blas(scipy.__config__.CONFIG),
        "thread_pin": THREAD_PIN,
        "nproc": len(os.sched_getaffinity(0)),
        "cmlimit": cmlimit.__file__,
    }


def timed_run(name: str, seed: int, seconds: float):
    commands = workloads.COMMANDS[name](seed)
    passes = []
    started = time.monotonic()
    while True:
        pass_start = time.monotonic()
        passes.append([run_worker(cmd.argv, trace=False) for cmd in commands])
        pass_wall = time.monotonic() - pass_start
        if len(passes) >= MIN_PASSES and time.monotonic() - started + pass_wall > seconds:
            break

    first = passes[0]
    problems, failed = check_outputs(name, commands, first, seed), 0
    for reports in passes:
        for cmd, report, reference in zip(commands, reports, first):
            if report["failure"]:
                failed += 1
                print(f"# failed {name}/{cmd.label}: {report['failure']}")
            elif not reference["failure"] and report["stdout"] != reference["stdout"]:
                failed += 1
                problems.append(f"{cmd.label}: output differs between passes")
    workers = [r for reports in passes for r in reports if not r["failure"]]
    batches = [sum(r["run_s"] for r in reports) for reports in passes
               if not any(r["failure"] for r in reports)]
    print(f"# {name}: {len(passes)} passes of {len(commands)} commands; batch_s per pass "
          + " ".join(f"{b:.4f}" for b in batches))
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in workers), "s") if workers else None,
        "batch_s": (statistics.median(batches), "s") if batches else None,
        "peak_rss_mb": (max(r["maxrss_kb"] for r in workers) / 1024.0, "MB") if workers else None,
    }
    return len(passes) * len(commands), failed, problems, metrics


TIMED_LAYER_METRICS = (
    "ccr_algebra.commutator_wide", "ccr_algebra.commutator_deep", "ccr_algebra.residual",
    "ccr_algebra.cm_observables", "hilbert_rep.cm_operators", "hilbert_rep.states",
    "hilbert_rep.expectations", "dynamics.build_hamiltonian", "dynamics.evolve_quantum",
    "dynamics.evolve_classical", "cli",
)
COUNT_METRICS = (
    "ccr_algebra.commutator.calls", "ccr_algebra.term_pairs", "ccr_algebra.output_terms",
    "hilbert_rep.cm_operators.calls", "hilbert_rep.operator_nnz",
    "hilbert_rep.expectations.calls", "dynamics.samples", "dynamics.sampled_amplitudes",
)
LAYERS = ("ccr_algebra", "hilbert_rep", "dynamics", "cli")


def traced_run(seed: int):
    from spans import self_times

    plan = [(name, cmd) for name in workloads.WORKLOADS for cmd in workloads.COMMANDS[name](seed)]
    untraced, traced = [], []
    for index, (_, cmd) in enumerate(plan):
        # alternate which runs first: a worker right after one of the same command runs faster
        first = index % 2 == 0
        reports = {first: run_worker(cmd.argv, trace=first),
                   not first: run_worker(cmd.argv, trace=not first)}
        untraced.append(reports[False])
        traced.append(reports[True])

    problems, failed = [], dict.fromkeys(workloads.WORKLOADS, 0)
    for (name, cmd), plain, report in zip(plan, untraced, traced):
        for r in (plain, report):
            if r["failure"]:
                failed[name] += 1
                print(f"# failed {name}/{cmd.label}: {r['failure']}")
        if not plain["failure"] and not report["failure"] and plain["stdout"] != report["stdout"]:
            problems.append(f"{cmd.label}: traced output differs from the untraced output")
    for name in workloads.WORKLOADS:
        indices = [i for i, (w, _) in enumerate(plan) if w == name]
        problems += check_outputs(name, [plan[i][1] for i in indices],
                                  [untraced[i] for i in indices], seed)

    OUT.mkdir(exist_ok=True)
    selfs, counts, output_bytes = {}, {}, 0
    by_workload = {name: dict.fromkeys(LAYERS + ("batch",), 0.0) for name in workloads.WORKLOADS}
    with open(OUT / "trace_spans.jsonl", "w", encoding="utf-8") as handle:
        for index, ((name, cmd), report) in enumerate(zip(plan, traced)):
            if report["failure"]:
                continue
            for span_name, parent, start, end in report["spans"]:
                handle.write(json.dumps({"command": index, "workload": name,
                                         "label": cmd.label, "span": span_name,
                                         "parent": parent, "start": start, "end": end}) + "\n")
            for span_name, value in self_times(report["spans"]).items():
                selfs[span_name] = selfs.get(span_name, 0.0) + value
                by_workload[name][span_name.split(".")[0]] += value
            for key, value in report["counts"].items():
                counts[key] = counts.get(key, 0) + value
            output_bytes += len(report["stdout"].encode())
            by_workload[name]["batch"] += report["run_s"]

    ok = [i for i in range(len(plan)) if not untraced[i]["failure"] and not traced[i]["failure"]]
    traced_batch = sum(traced[i]["run_s"] for i in ok)
    untraced_batch = sum(untraced[i]["run_s"] for i in ok)
    metrics = {f"{key}.self_s": (selfs.get(key, 0.0), "s") for key in TIMED_LAYER_METRICS}
    for layer in LAYERS[:3]:
        metrics[f"{layer}.self_s"] = (
            sum(v for k, v in selfs.items() if k.startswith(layer + ".")), "s")
    metrics.update({key: (counts.get(key, 0), "count") for key in COUNT_METRICS})
    metrics["cli.output_bytes"] = (output_bytes, "bytes")
    metrics["trace.batch_s"] = (traced_batch, "s")
    metrics["trace.untraced_batch_s"] = (untraced_batch, "s")
    metrics["trace.unattributed_s"] = (traced_batch - sum(selfs.values()), "s")
    if untraced_batch > 0:
        metrics["trace.overhead_pct"] = (100.0 * (traced_batch / untraced_batch - 1.0), "%")

    print("# workload attempted failed | traced self time (s): " + " ".join(LAYERS) + " batch")
    for name, row in by_workload.items():
        attempted = 2 * sum(1 for w, _ in plan if w == name)
        print(f"# {name} {attempted} {failed[name]} | "
              + " ".join(f"{row[k]:.4f}" for k in LAYERS + ("batch",)))
    return 2 * len(plan), sum(failed.values()), problems, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "cmlimit" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    try:
        if args.trace:
            attempted, failed, problems, metrics = traced_run(args.seed)
        else:
            attempted, failed, problems, metrics = timed_run(
                args.workload, args.seed, args.seconds)
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"# check failed: {problem}")
    if problems:  # every pass reproduces the checked outputs, so a failed check fails all
        failed = attempted
    print(f"# attempted {attempted} failed {failed}")
    print("# env " + json.dumps(environment()))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items() if v},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
