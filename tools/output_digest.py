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
fields), the ``table.column`` of those cells with their counts, and the
largest relative and absolute difference of a numeric cell; a differing
cell that is not a number, or a missing or reshaped output, reads ``inf``.
A last line counts the outputs that differ.

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


def _cell_names(text: str) -> list:
    """The ``table.column`` name of each comma-separated cell of an output, in
    order: a ``# name`` line starts a table and the next line is its header; the
    cells of those two lines are named by the table alone, and the columns of a
    lone table (named '') by the column alone."""
    names, table, header = [], "", None
    for line in text.splitlines():
        cells = line.split(",")
        if line.startswith("# "):
            table, header = line[2:], None
        elif header is None:
            header = [f"{table}.{column}" if table else column for column in cells]
        else:
            names += [header[j] if j < len(header) else table for j in range(len(cells))]
            continue
        names += [table] * len(cells)
    return names


def cell_differences(text: str, saved: str) -> tuple:
    """The number of cells in which two outputs differ, the largest relative and
    absolute difference over them, and the number of differing cells per
    ``table.column``; the differences are inf once a differing cell is not a
    number, and inf with no columns named when the outputs' rows or cells do not
    line up."""
    ours = [line.split(",") for line in text.splitlines()]
    theirs = [line.split(",") for line in saved.splitlines()]
    if [len(row) for row in ours] != [len(row) for row in theirs]:
        return max(sum(map(len, ours)), 1), math.inf, math.inf, {}
    count, relative, absolute, columns = 0, 0.0, 0.0, {}
    for name, a, b in zip(_cell_names(text), (c for row in ours for c in row),
                          (c for row in theirs for c in row)):
        if a == b:
            continue
        count += 1
        columns[name] = columns.get(name, 0) + 1
        try:
            x, y = float(a), float(b)
        except ValueError:
            relative = absolute = math.inf
            continue
        absolute = max(absolute, abs(x - y))
        relative = max(relative, abs(x - y) / max(abs(x), abs(y)))
    return count, relative, absolute, columns


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
                        cells, relative, absolute, columns = cell_differences(text, saved or "")
                        named = ", ".join(f"{name} {n}" for name, n in columns.items())
                        line.append(f"differs: {cells} cells ({named or 'not lined up'}), "
                                    f"largest relative {relative:.2g}, absolute {absolute:.2g}")
                print(*line, flush=True)
    if args.against is not None:
        print(f"{differing} of {outputs} outputs differ from {args.against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
