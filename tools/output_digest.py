"""Digest of every benchmark command's output, for byte-identity checks.

Usage::

    python3 tools/output_digest.py [ROOT] [--save DIR]

Runs each command of the three benchmark workloads (``bench/workloads.py``
of ROOT, read and not edited), seeds 1 to 5, in this process through ROOT's
``cmlimit.cli.main``, and prints one line per command::

    workload seed label exit md5-of-standard-output

ROOT defaults to the checkout holding this file; naming another checkout
(say, a parent commit unpacked elsewhere) digests that one, so a change's
outputs are compared with its parent's by one ``diff`` of the two listings.
``--save DIR`` also writes each output to ``DIR/<workload>-<seed>-<n>-<label>.csv``
for a cell-by-cell look at the commands whose digests differ.

BLAS and OpenMP are pinned to one thread before numpy loads, as the
benchmark pins its workers: LAPACK's ``eigh`` rounds differently under two
threads, which would show as differences the code did not make.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

SEEDS = range(1, 6)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--save", type=Path, help="write each command's output here")
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
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for n, command in enumerate(workloads.COMMANDS[workload](seed)):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(list(command.argv))
                text = out.getvalue()
                if args.save is not None:
                    name = f"{workload}-{seed}-{n:02d}-{command.label}.csv"
                    (args.save / name).write_text(text)
                digest = hashlib.md5(text.encode()).hexdigest()
                print(workload, seed, command.label, code, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
