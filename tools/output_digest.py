"""Digest of every benchmark command's output, for byte-identity checks.

Usage::

    python3 tools/output_digest.py [ROOT] [--save DIR] [--against DIR]

Runs each command of the three benchmark workloads (``bench/workloads.py``
of ROOT, read and not edited), seeds 1 to 5, in this process through ROOT's
``cmlimit.cli.main``, and prints one line per command::

    workload seed label exit md5-of-standard-output

ROOT defaults to the checkout holding this file; naming another checkout
(say, a parent commit unpacked elsewhere) digests that one, so a change's
outputs are compared with its parent's by one ``diff`` of the two listings.
``--save DIR`` also writes each output to ``DIR/<workload>-<seed>-<n>-<label>.csv``
for a cell-by-cell look at the commands whose digests differ.
``--against DIR`` reads the outputs that ``--save DIR`` wrote for another
checkout (its parent, say) and ends the line of each output that differs
from its saved one with the number of differing cells (comma-separated
fields) and the largest relative and absolute difference of a numeric cell;
a differing cell that is not a number, or a missing or reshaped output,
reads ``inf``.  A last line counts the outputs that differ.

BLAS and OpenMP are pinned to one thread before numpy loads, as the
benchmark pins its workers: LAPACK's ``eigh`` rounds differently under two
threads, which would show as differences the code did not make.
"""

import argparse
import contextlib
import hashlib
import io
import math
import os
import sys
from pathlib import Path

SEEDS = range(1, 6)


def cell_differences(text: str, saved: str) -> tuple:
    """The number of cells in which two outputs differ, and the largest relative
    and absolute difference over them; the differences are inf once a differing
    cell is not a number, or when the outputs' rows or cells do not line up."""
    ours = [line.split(",") for line in text.splitlines()]
    theirs = [line.split(",") for line in saved.splitlines()]
    if [len(row) for row in ours] != [len(row) for row in theirs]:
        return max(sum(map(len, ours)), 1), math.inf, math.inf
    count, relative, absolute = 0, 0.0, 0.0
    for a, b in zip((c for row in ours for c in row), (c for row in theirs for c in row)):
        if a == b:
            continue
        count += 1
        try:
            x, y = float(a), float(b)
        except ValueError:
            relative = absolute = math.inf
            continue
        absolute = max(absolute, abs(x - y))
        relative = max(relative, abs(x - y) / max(abs(x), abs(y)))
    return count, relative, absolute


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--save", type=Path, help="write each command's output here")
    parser.add_argument("--against", type=Path,
                        help="compare each output with the one --save wrote here")
    args = parser.parse_args()
    root = args.root.resolve()
    # before numpy loads, which importing cmlimit does
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from cmlimit import cli

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        sys.exit(f"cmlimit was imported from {cli.__file__}, not from {root / 'src'}")
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
    outputs = differing = 0
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for n, command in enumerate(workloads.COMMANDS[workload](seed)):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(list(command.argv))
                text = out.getvalue()
                name = f"{workload}-{seed}-{n:02d}-{command.label}.csv"
                if args.save is not None:
                    (args.save / name).write_text(text)
                digest = hashlib.md5(text.encode()).hexdigest()
                line = [workload, seed, command.label, code, digest]
                outputs += 1
                if args.against is not None:
                    saved = args.against / name
                    saved = saved.read_text() if saved.is_file() else None
                    if saved != text:
                        differing += 1
                        cells, relative, absolute = cell_differences(text, saved or "")
                        line.append(f"differs: {cells} cells, largest relative {relative:.2g}, "
                                    f"absolute {absolute:.2g}")
                print(*line, flush=True)
    if args.against is not None:
        print(f"{differing} of {outputs} outputs differ from {args.against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
