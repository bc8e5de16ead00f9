"""The benchmark's checks accept the program's real outputs and reject tampered ones.

Run with ``python3 -m pytest bench/test_workloads.py -q`` from the repository
root.  Each workload's command list (seed 0) runs once in-process through
``cmlimit.cli.main``; each test then changes one cell of one table and
expects the workload's check to report it.
"""

import contextlib
import functools
import io
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import workloads  # noqa: E402
from cmlimit.cli import main  # noqa: E402

SEED = 0


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@functools.lru_cache(maxsize=None)
def _outputs(name):
    commands = workloads.COMMANDS[name](SEED)
    return commands, tuple(_run(cmd.argv) for cmd in commands)


def _check(name, commands, outputs):
    return workloads.CHECKS[name](commands, outputs, SEED)


def _tamper(text: str, table: str, row: int, column: str, change) -> str:
    """Apply ``change`` to one cell, addressed by table name, row index and column."""
    lines = text.split("\n")
    current, header, index = "", None, -1
    for i, line in enumerate(lines):
        if line.startswith("# "):
            current, header, index = line[2:], None, -1
            continue
        if not line:
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            continue
        index += 1
        if current == table and index == row:
            col = header.index(column)
            cells[col] = change(cells[col])
            lines[i] = ",".join(cells)
            return "\n".join(lines)
    raise LookupError(f"no row {row} in table {table!r}")


def _scaled(factor):
    return lambda cell: repr(float(cell) * factor)


# (workload, command label, table, row, column, change)
TAMPERS = [
    ("exact_algebra", "scaling-uniform", "", 8, "comm_magnitude", _scaled(1 + 1e-9)),
    ("exact_algebra", "scaling-random-256", "", 0, "uncertainty_bound", _scaled(2.0)),
    ("exact_algebra", "residuals", "", 0, "eps_valuation", lambda cell: "2"),
    ("exact_algebra", "residuals", "", 30, "eps_valuation", lambda cell: "1"),
    ("cm_evolve", "harmonic-long", "quantum", 1500, "x_cm", lambda c: repr(float(c) + 1e-5)),
    ("cm_evolve", "double-well", "quantum", 10, "norm", lambda c: "1.00000002"),
    ("cm_evolve", "dense-quartic-1024", "quantum", 50, "energy", _scaled(1 + 1e-6)),
    ("cm_evolve", "quartic-N1", "quantum", 0, "dv", _scaled(0.99)),
    ("cm_evolve", "quartic-N64", "deviation", 0, "value", _scaled(1e6)),
    ("tensor_modes", "uncertainty-d8", "", 5, "ratio", _scaled(1 + 1e-8)),
    ("tensor_modes", "uncertainty-d12", "", 2, "comm_expectation_im", _scaled(1.001)),
    ("tensor_modes", "full-N3", "quantum", 100, "x_cm", lambda c: repr(float(c) + 2e-6)),
]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_real_outputs_pass(name):
    commands, outputs = _outputs(name)
    assert _check(name, commands, outputs) == []


@pytest.mark.parametrize("target", TAMPERS, ids=lambda t: f"{t[1]}-{t[4]}")
def test_tampered_output_fails(target):
    name, label, table, row, column, change = target
    commands, outputs = _outputs(name)
    index = next(i for i, cmd in enumerate(commands) if cmd.label == label)
    tampered = list(outputs)
    tampered[index] = _tamper(outputs[index], table, row, column, change)
    assert tampered[index] != outputs[index]
    assert _check(name, commands, tampered)


def test_failed_marker_is_unreadable():
    with pytest.raises(ValueError):
        workloads.parse_tables("t,x\n0,1\n# FAILED NormDriftError: norm drifted\n")
