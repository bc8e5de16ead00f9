"""The benchmark's workloads: command lists generated from a seed, and their checks.

Each workload is a fixed list of ``cmlimit`` command lines.  The seed picks
the inputs (masses, hbar, initial positions and momenta, residual seeds)
from ranges on which every command succeeds; it never changes the sizes, so
the cost of a pass does not depend on the seed.

Each workload's ``check`` runs after timing.  It compares the outputs with
values the benchmark computes itself or with properties the method must
have, never with stored output, and returns one message per violation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("exact_algebra", "cm_evolve", "tensor_modes")

QUARTIC = "0.1*x^4"
HARMONIC = "0.5*x^2"  # U = k x^2 / 2 with k = 1
DOUBLE_WELL = "x^4 - 2*x^2 + 1"

NORM_TOLERANCE = 1e-8
ENERGY_TOLERANCE = 1e-9  # relative; eigendecomposition conserves <H> to round-off
CLOSED_FORM_TOLERANCE = 1e-6
EXACT_TOLERANCE = 1e-9
PRINTED_DIGITS = 1e-11  # relative round-off of the CLI's 12-significant-digit floats
HBAR = 1.0  # the evolve and uncertainty commands run at the default hbar


@dataclass(frozen=True)
class Command:
    """One ``cmlimit`` invocation and the inputs its checks need."""

    label: str
    argv: tuple
    inputs: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Output parsing
# ---------------------------------------------------------------------------


def parse_tables(text: str) -> dict:
    """CSV output -> {table name: list of row dicts}; a lone table is named ''."""
    tables, name, header = {}, "", None
    for line in text.splitlines():
        if line.startswith("# FAILED"):
            raise ValueError(line)
        if line.startswith("# "):
            name, header = line[2:], None
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            tables[name] = []
        else:
            if len(cells) != len(header):
                raise ValueError(f"row of {len(cells)} cells under {len(header)} columns")
            tables[name].append(dict(zip(header, cells)))
    return tables


def _close(value: float, expected: float, tol: float) -> bool:
    """Relative agreement; every checked quantity here is far from zero."""
    return abs(value - expected) <= tol * abs(expected)


# ---------------------------------------------------------------------------
# exact_algebra
# ---------------------------------------------------------------------------

SCALING_N = (1, 2, 4, 8, 16, 32, 64, 128, 256)
RANDOM_MASS_COUNTS = (128, 256)
RESIDUAL_SEEDS = 3
PRODUCT_SAMPLES = 12
COMMUTATOR_SAMPLE_SIZES = (2, 5, 16)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def _text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def exact_algebra(seed: int) -> list:
    rng = random.Random(f"exact_algebra:{seed}")
    hbar = rng.choice((0.5, 1.0, 1.5, 2.0))
    mbar = _rational(rng)
    commands = [Command(
        "scaling-uniform",
        ("scaling", "--N", ",".join(map(str, SCALING_N)), "--mbar", _text(mbar),
         "--hbar", repr(hbar)),
        {"masses": [(mbar,) * n for n in SCALING_N], "hbar": hbar},
    )]
    for n in RANDOM_MASS_COUNTS:
        masses = tuple(_rational(rng) for _ in range(n))
        commands.append(Command(
            f"scaling-random-{n}",
            ("scaling", "--masses", ",".join(map(_text, masses)), "--hbar", repr(hbar)),
            {"masses": [masses], "hbar": hbar},
        ))
    for _ in range(RESIDUAL_SEEDS):
        commands.append(Command(
            "residuals",
            ("residuals", "--max-degree", "8", "--samples", "50",
             "--seed", str(rng.randrange(10**6))),
        ))
    return commands


def _check_scaling(cmd: Command, tables: dict) -> list:
    rows = tables[""]
    if len(rows) != len(cmd.inputs["masses"]):
        return [f"{cmd.label}: {len(rows)} rows for {len(cmd.inputs['masses'])} systems"]
    problems = []
    hbar = cmd.inputs["hbar"]
    for row, masses in zip(rows, cmd.inputs["masses"]):
        total = sum(masses, Fraction(0))
        expected = {"N": len(masses), "comm_magnitude": hbar / float(total),
                    "uncertainty_bound": hbar / (2.0 * float(total)),
                    "eps": 1.0 / float(total)}
        for column, value in expected.items():
            if not _close(float(row[column]), value, PRINTED_DIGITS):
                problems.append(f"{cmd.label}: N={len(masses)} {column} = {row[column]}, "
                                f"expected {value!r}")
    return problems


def _check_residuals(cmd: Command, tables: dict) -> list:
    problems = []
    rows = tables[""]
    for row in rows:
        valuation = row["eps_valuation"]
        if row["case"] == "power":
            n, m = (int(part.split("=")[1]) for part in row["params"].split(";"))
            if min(n, m) == 1 and valuation != "inf":
                problems.append(f"{cmd.label}: power {row['params']} reads {valuation}, not inf")
        if valuation != "inf" and int(valuation) < 2:
            problems.append(f"{cmd.label}: {row['case']} {row['params']} has valuation "
                            f"{valuation} < 2")
    cases = [row["case"] for row in rows]
    if (cases.count("power"), cases.count("poisson")) != (64, 50):
        problems.append(f"{cmd.label}: expected 64 power and 50 poisson rows")
    return problems


def _check_algebra_directly(commands: list, seed: int) -> list:
    """Exact commutators and products, against the required value and the swap oracle."""
    # imported here, so the benchmark's own process loads cmlimit only after timing
    from cmlimit.ccr_algebra import (
        GaussianRational, Monomial, ParticleSystem, build_particle_algebra, cm_algebra,
        cm_observables, commutator,
    )
    from oracles import random_polynomial, slow_mul

    problems = []
    masses = next(c for c in commands if c.label.startswith("scaling-random")).inputs["masses"][0]
    for n in COMMUTATOR_SAMPLE_SIZES:
        system = ParticleSystem(masses=masses[:n])
        x_cm, v_cm, _ = cm_observables(system)
        expected = {Monomial(1, 0, ()): GaussianRational(0, 1 / system.total_mass)}
        if dict(commutator(x_cm, v_cm).terms) != expected:
            problems.append(f"commutator(x_cm, v_cm) on {n} masses is not i*hbar/M")
    rng = random.Random(f"products:{seed}")
    two_pairs = build_particle_algebra(ParticleSystem(masses=(1, 1)))
    for index in range(PRODUCT_SAMPLES):
        algebra = cm_algebra() if index % 2 == 0 else two_pairs
        f = random_polynomial(rng, algebra, max_degree=4, n_terms=3)
        g = random_polynomial(rng, algebra, max_degree=4, n_terms=3)
        if f * g != slow_mul(f, g):
            problems.append(f"product sample {index} differs from the single-swap oracle")
    return problems


def check_exact_algebra(commands: list, outputs: list, seed: int) -> list:
    problems = []
    for cmd, text in zip(commands, outputs):
        tables = parse_tables(text)
        check = _check_scaling if cmd.argv[0] == "scaling" else _check_residuals
        problems += check(cmd, tables)
    return problems + _check_algebra_directly(commands, seed)


# ---------------------------------------------------------------------------
# cm_evolve and tensor_modes: trajectories
# ---------------------------------------------------------------------------

QUARTIC_SWEEP_N = (1, 2, 4, 8, 16, 32, 64)


def _evolve(label, potential, n, dim, t, x0, p0, model="effective") -> Command:
    argv = ("evolve", "--potential", potential, "--N", str(n), "--model", model,
            "--dim", str(dim), "--t", repr(t), "--dt", "0.01", "--x0", repr(x0),
            "--p0", repr(p0))
    return Command(label, argv, {"potential": potential, "N": n, "x0": x0, "p0": p0})


def _uniform(rng: random.Random, low: float, high: float) -> float:
    return round(rng.uniform(low, high), 3)


def cm_evolve(seed: int) -> list:
    rng = random.Random(f"cm_evolve:{seed}")
    x0, p0 = _uniform(rng, 0.8, 1.2), _uniform(rng, -0.2, 0.2)
    commands = [_evolve(f"quartic-N{n}", QUARTIC, n, 160, 2.0, x0, p0)
                for n in QUARTIC_SWEEP_N]
    commands.append(_evolve("harmonic-long", HARMONIC, 4, 160, 20.0,
                            _uniform(rng, 0.8, 1.2), _uniform(rng, -0.2, 0.2)))
    commands.append(_evolve("double-well", DOUBLE_WELL, 4, 256, 8.0,
                            _uniform(rng, 0.8, 1.2), _uniform(rng, -0.2, 0.2)))
    commands.append(_evolve("dense-quartic-1024", QUARTIC, 16, 1024, 2.0,
                            _uniform(rng, 0.8, 1.2), _uniform(rng, -0.2, 0.2)))
    commands.append(_evolve("dense-double-well-1024", DOUBLE_WELL, 32, 1024, 2.0,
                            _uniform(rng, 0.8, 1.2), _uniform(rng, -0.2, 0.2)))
    return commands


def _harmonic_closed_form(x0: float, p0: float, mass: float, t: float):
    omega = math.sqrt(1.0 / mass)
    x = x0 * math.cos(omega * t) + p0 / (mass * omega) * math.sin(omega * t)
    v = -x0 * omega * math.sin(omega * t) + p0 / mass * math.cos(omega * t)
    return x, v


def _check_trajectory(cmd: Command, tables: dict) -> list:
    """Norm, energy and uncertainty on every sample; closed form when harmonic."""
    rows = tables["quantum"]
    mass = float(cmd.inputs["N"])  # mbar = 1
    bound = HBAR / (2.0 * mass)
    problems = []
    energy0 = float(rows[0]["energy"])
    for row in rows:
        t = float(row["t"])
        if abs(float(row["norm"]) - 1.0) > NORM_TOLERANCE:
            problems.append(f"{cmd.label}: norm {row['norm']} at t = {t}")
        if not _close(float(row["energy"]), energy0, ENERGY_TOLERANCE):
            problems.append(f"{cmd.label}: energy {row['energy']} at t = {t}, "
                            f"started at {energy0!r}")
        if float(row["dx"]) * float(row["dv"]) < bound * (1.0 - PRINTED_DIGITS):
            problems.append(f"{cmd.label}: dx*dv below hbar/2M at t = {t}")
        if cmd.inputs["potential"] == HARMONIC:
            x, v = _harmonic_closed_form(cmd.inputs["x0"], cmd.inputs["p0"], mass, t)
            if (abs(float(row["x_cm"]) - x) > CLOSED_FORM_TOLERANCE
                    or abs(float(row["v_cm"]) - v) > CLOSED_FORM_TOLERANCE):
                problems.append(f"{cmd.label}: ({row['x_cm']}, {row['v_cm']}) at t = {t} "
                                f"is not the closed form ({x!r}, {v!r})")
    return problems


def _max_deviation(tables: dict) -> float:
    return float(next(r["value"] for r in tables["deviation"]
                      if r["metric"] == "max_x_deviation"))


def check_cm_evolve(commands: list, outputs: list, seed: int) -> list:
    problems, sweep = [], []
    for cmd, text in zip(commands, outputs):
        tables = parse_tables(text)
        problems += _check_trajectory(cmd, tables)
        if cmd.label.startswith("quartic-N"):
            sweep.append((cmd.inputs["N"], _max_deviation(tables)))
    for (n1, d1), (n2, d2) in zip(sweep, sweep[1:]):
        if not d2 < d1:
            problems.append(f"quartic max deviation does not fall from N={n1} ({d1!r}) "
                            f"to N={n2} ({d2!r})")
    return problems


# ---------------------------------------------------------------------------
# tensor_modes
# ---------------------------------------------------------------------------

FULL_MODEL_RUNS = ((2, 24, 2.0, (0.6, 1.0), (-0.3, 0.3)),
                   (3, 10, 1.0, (0.2, 0.4), (-0.1, 0.1)))


def tensor_modes(seed: int) -> list:
    rng = random.Random(f"tensor_modes:{seed}")
    commands = []
    for ns, dim in (((1, 2, 3, 4, 5, 6), 8), ((1, 2, 3, 4, 5), 12)):
        x0, p0 = _uniform(rng, 0.0, 0.3), _uniform(rng, -0.3, 0.3)
        commands.append(Command(
            f"uncertainty-d{dim}",
            ("uncertainty", "--N", ",".join(map(str, ns)), "--dim", str(dim),
             "--x0", repr(x0), "--p0", repr(p0)),
            {"N": ns},
        ))
    for n, dim, t, x_range, p_range in FULL_MODEL_RUNS:
        x0, p0 = _uniform(rng, *x_range), _uniform(rng, *p_range)
        commands.append(_evolve(f"full-N{n}", HARMONIC, n, dim, t, x0, p0, model="full"))
        commands.append(_evolve(f"effective-N{n}", HARMONIC, n, 64, t, x0, p0))
    return commands


def _check_uncertainty(cmd: Command, tables: dict) -> list:
    rows = tables[""]
    if [int(r["N"]) for r in rows] != list(cmd.inputs["N"]):
        return [f"{cmd.label}: rows for N = {[r['N'] for r in rows]}"]
    problems = []
    for row in rows:
        n = int(row["N"])
        if not _close(float(row["ratio"]), 1.0, EXACT_TOLERANCE):
            problems.append(f"{cmd.label}: N={n} ratio {row['ratio']}")
        if not _close(float(row["comm_expectation_im"]), HBAR / n, EXACT_TOLERANCE):
            problems.append(f"{cmd.label}: N={n} commutator {row['comm_expectation_im']}, "
                            f"expected {HBAR / n!r}")
    return problems


def check_tensor_modes(commands: list, outputs: list, seed: int) -> list:
    problems, x_tracks = [], {}
    for cmd, text in zip(commands, outputs):
        tables = parse_tables(text)
        if cmd.argv[0] == "uncertainty":
            problems += _check_uncertainty(cmd, tables)
            continue
        problems += _check_trajectory(cmd, tables)
        x_tracks[cmd.label] = [float(r["x_cm"]) for r in tables["quantum"]]
    for n, *_ in FULL_MODEL_RUNS:
        full, effective = x_tracks[f"full-N{n}"], x_tracks[f"effective-N{n}"]
        if len(full) != len(effective) or any(
                abs(a - b) > CLOSED_FORM_TOLERANCE for a, b in zip(full, effective)):
            problems.append(f"full-model x_cm at N={n} differs from the effective model")
    return problems


COMMANDS = {"exact_algebra": exact_algebra, "cm_evolve": cm_evolve,
            "tensor_modes": tensor_modes}
CHECKS = {"exact_algebra": check_exact_algebra, "cm_evolve": check_cm_evolve,
          "tensor_modes": check_tensor_modes}
