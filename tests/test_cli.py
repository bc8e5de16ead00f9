"""Harness tests: potential parsing, experiment tables, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cmlimit.cli as cli
from cmlimit.cli import (
    _FIELDS,
    ConfigError,
    PotentialSyntaxError,
    _float_rows,
    _fmt,
    build_config,
    main,
    parse_potential,
)
from cmlimit.dynamics import PolynomialPotential
from oracles import composite_uncertainty_row, evaluate, render_potential


# ---------------------------------------------------------------------------
# Potential expressions
# ---------------------------------------------------------------------------


def test_parse_simple_quadratic():
    assert parse_potential("0.5*x^2").coeffs == {2: Fraction(1, 2)}


def test_parse_polynomial_against_point_evaluation():
    u = parse_potential("x^4 - 2*x^2 + 1")
    assert u.coeffs == {4: 1, 2: -2, 0: 1}
    for x in (-2, -1, 0, 1, 2):
        assert evaluate(u, x) == x**4 - 2 * x**2 + 1


def test_parse_rational_and_sign_forms():
    assert parse_potential("3/2*x").coeffs == {1: Fraction(3, 2)}
    assert parse_potential("-x").coeffs == {1: -1}
    assert parse_potential("+x^3").coeffs == {3: 1}
    assert parse_potential("2").coeffs == {0: 2}
    assert parse_potential("x").coeffs == {1: 1}
    assert parse_potential("0").coeffs == {}
    assert parse_potential(" x ^ 2 - x ").coeffs == {2: 1, 1: -1}
    assert parse_potential("x + x").coeffs == {1: 2}
    assert parse_potential("x - x").coeffs == {}


def test_parse_errors_with_position():
    with pytest.raises(PotentialSyntaxError) as err:
        parse_potential("x^-1")
    assert err.value.position == 2
    with pytest.raises(PotentialSyntaxError):
        parse_potential("")
    with pytest.raises(PotentialSyntaxError):
        parse_potential("2x")
    with pytest.raises(PotentialSyntaxError):
        parse_potential("x^2.5")
    with pytest.raises(PotentialSyntaxError):
        parse_potential("1/0")
    with pytest.raises(PotentialSyntaxError):
        parse_potential("x + ")
    with pytest.raises(PotentialSyntaxError) as err:
        parse_potential("x^2 + y")
    assert err.value.position == 6
    with pytest.raises(PotentialSyntaxError):
        parse_potential("x x")


def test_render_parse_roundtrip_random():
    rng = random.Random(71)
    for _ in range(100):
        coeffs = {}
        for _ in range(rng.randint(0, 5)):
            degree = rng.randint(0, 8)
            if rng.random() < 0.5:
                coeffs[degree] = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
            else:
                coeffs[degree] = Fraction(rng.randint(-20, 20))
        p = PolynomialPotential.from_coeffs(coeffs)
        assert parse_potential(render_potential(p)) == p


# ---------------------------------------------------------------------------
# Experiment tables through main()
# ---------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_scaling_values(capsys):
    code, out = run_cli(capsys, "scaling", "--N", "1,3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N,mbar,eps,comm_magnitude,uncertainty_bound"
    assert lines[1] == "1,1,1,1,0.5"
    assert lines[2].startswith("3,1,0.333333333333,0.333333333333,")


def test_scaling_explicit_masses(capsys):
    code, out = run_cli(capsys, "scaling", "--masses", "1,2,3,1,2,3")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[0] == "6"
    assert row[3] == "0.0833333333333"  # hbar / 12


def test_scaling_invalid_masses(capsys):
    code = main(["scaling", "--masses", "1,-2"])
    assert code == 1


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("flag, value", [("N", "4"), ("mbar", "7")])
def test_scaling_masses_refuse_n_and_mbar(tmp_path, capsys, form, flag, value):
    # --masses fixes the one system; an explicit --N or --mbar beside it was ignored
    if form == "flag":
        argv = ("scaling", "--masses", "1,2", f"--{flag}", value)
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"masses = 1,2\n{flag} = {value}\n", encoding="utf-8")
        argv = ("scaling", "--config", str(cfg))
    _assert_flag_config_error(capsys, argv, f"--masses, --{flag}")


def test_residuals_rows(capsys):
    code, out = run_cli(capsys, "residuals", "--max-degree", "5", "--samples", "5")
    assert code == 0
    rows = {tuple(line.split(",")[:2]): line.split(",")[2:]
            for line in out.strip().split("\n")[1:]}
    assert rows[("power", "n=2;m=2")] == ["2", "2"]
    assert rows[("power", "n=1;m=5")] == ["inf", "0"]
    for (case, params), (valuation, _) in rows.items():
        assert valuation == "inf" or int(valuation) >= 2


def test_residuals_degree_guard(capsys):
    assert main(["residuals", "--max-degree", "9"]) == 1
    assert capsys.readouterr().err == "error: --max-degree: expected at most 8, got 9\n"


def test_residuals_samples_guard(capsys):
    # every row is held until the table prints; 10^8 samples once ran past a minute
    assert main(["residuals", "--max-degree", "1", "--samples", "100001"]) == 1
    assert capsys.readouterr().err == "error: --samples: expected at most 100000, got 100001\n"


@pytest.mark.parametrize("argv, flag", [
    (("scaling", "--N", "100001"), "--N"),
    (("scaling", "--N", "1,2,99998"), "--N"),
    (("scaling", "--masses", ",".join(["1/2"] * 100001)), "--masses"),
])
def test_scaling_particle_guard(capsys, argv, flag):
    # the cost is linear in the particles, 5 s for 10^5: 10^8 would run past an
    # hour and then out of memory
    assert main(list(argv)) == 1
    assert capsys.readouterr().err == (
        f"error: {flag}: expected at most 100000 particles in total, got 100001\n")


def test_scaling_particle_guard_runs_before_any_system_is_built(monkeypatch, capsys):
    built = []

    class Recording:
        def __init__(self, masses):
            built.append(len(masses))
            raise ValueError("built")

        @classmethod
        def uniform(cls, n, mbar):
            built.append(n)
            raise ValueError("built")

    monkeypatch.setattr(cli, "ParticleSystem", Recording)
    assert main(["scaling", "--N", "1,100000"]) == 1
    assert "particles in total" in capsys.readouterr().err and built == []
    for argv in (["--N", "100000"], ["--masses", ",".join(["1"] * 100000)]):
        assert main(["scaling", *argv]) == 1  # at the bound the guard lets it through
        assert capsys.readouterr().err == "error: built\n"
    assert built == [100000, 100000]


def test_uncertainty_saturation(capsys):
    code, out = run_cli(capsys, "uncertainty", "--N", "2,4", "--dim", "8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N,d,product,bound,ratio,comm_expectation_im,trunc_weight,flag"
    assert lines[1] == "2,8,0.25,0.25,1,0.5,0,ok"
    assert lines[2] == "4,8,0.125,0.125,1,0.25,0,ok"


def test_uncertainty_flagged_row_exit_code(capsys):
    code, out = run_cli(capsys, "uncertainty", "--N", "2", "--dim", "8", "--x0", "100")
    assert code == 2
    row = out.strip().split("\n")[1]
    assert row.endswith("truncation")
    assert "nan" in row


def test_evolve_free_final_position(capsys):
    code, out = run_cli(capsys, "evolve", "--potential", "0", "--N", "2",
                        "--x0", "1", "--p0", "1", "--t", "1", "--dt", "0.25")
    assert code == 0
    sections = out.strip().split("# ")
    quantum = next(s for s in sections if s.startswith("quantum"))
    last_row = quantum.strip().split("\n")[-1].split(",")
    assert last_row[0] == "1"
    assert last_row[1] == "1.5"
    deviation = next(s for s in sections if s.startswith("deviation"))
    assert "max_x_deviation" in deviation


def test_evolve_harmonic_sanity_row(capsys):
    code, out = run_cli(capsys, "evolve", "--potential", "0.5*x^2",
                        "--t", "1", "--dt", "0.05")
    assert code == 0
    assert "quadratic_deviation_lt_1e-06,PASS" in out


def test_evolve_full_model_matches_effective(capsys):
    code_e, out_e = run_cli(capsys, "evolve", "--potential", "1.5*x^2", "--N", "3",
                            "--model", "effective", "--dim", "32",
                            "--x0", "0.5", "--t", "1", "--dt", "0.1")
    code_f, out_f = run_cli(capsys, "evolve", "--potential", "1.5*x^2", "--N", "3",
                            "--model", "full", "--dim", "8",
                            "--x0", "0.5", "--t", "1", "--dt", "0.1")
    assert code_e == 0 and code_f == 0

    def final_x(text):
        quantum = next(s for s in text.strip().split("# ") if s.startswith("quantum"))
        return float(quantum.strip().split("\n")[-1].split(",")[1])

    assert final_x(out_e) == pytest.approx(final_x(out_f), abs=1e-6)


def test_evolve_json_format(capsys):
    code, out = run_cli(capsys, "evolve", "--potential", "0", "--t", "0.5",
                        "--dt", "0.25", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["experiment"] == "evolve"
    names = [t["name"] for t in payload["tables"]]
    assert names == ["quantum", "classical", "deviation", "sanity"]
    assert payload["failed"] is None


def test_evolve_truncation_failure(capsys):
    # spreading free packet at a tiny basis: gate violation mid-run
    code, out = run_cli(capsys, "evolve", "--potential", "0", "--dim", "8",
                        "--x0", "1", "--t", "2", "--dt", "0.25")
    assert code == 2
    assert "# FAILED ExcessiveTruncationError" in out


def test_evolve_harmonic_sanity_above_dense_limit(capsys):
    # d = 4096 is past the dense eigendecomposition; the sparse propagator stays unitary
    code, out = run_cli(capsys, "evolve", "--potential", "0.5*x^2", "--N", "16",
                        "--dim", "4096", "--t", "2", "--dt", "0.01")
    assert code == 0
    assert "quadratic_deviation_lt_1e-06,PASS" in out


def test_evolve_parse_error_exit_code(capsys):
    assert main(["evolve", "--potential", "x^-1"]) == 1


def test_evolve_bad_grid_exit_code(capsys):
    assert main(["evolve", "--potential", "0", "--t", "1", "--dt", "0.3"]) == 1
    assert capsys.readouterr().err == (
        "error: --t, --dt: t_final must be an integer multiple of dt\n")


def test_evolve_nonpositive_dt_exit_code(capsys):
    assert main(["evolve", "--potential", "0", "--dt", "0"]) == 1


@pytest.mark.parametrize("argv, flag", [
    (("scaling", "--N", "2", "--hbar", "nan"), "--hbar"),
    (("evolve", "--t", "nan"), "--t"),
    (("evolve", "--t", "inf"), "--t"),
    (("evolve", "--x0", "nan"), "--x0"),
])
def test_non_finite_flag_is_config_error(capsys, argv, flag):
    _assert_flag_config_error(capsys, argv, flag)


# positive rationals whose float is 0 or overflows
TINY = "1/1" + "0" * 330
HUGE = "1" + "0" * 330


@pytest.mark.parametrize("argv, flag", [
    (("scaling", "--N", "2", "--hbar", "-1"), "--hbar"),
    (("evolve", "--mbar", "0"), "--mbar"),
    (("evolve", "--hbar", "-1"), "--hbar"),
    (("uncertainty", "--mbar", "-1"), "--mbar"),
    (("uncertainty", "--hbar", "0"), "--hbar"),
    (("scaling", "--mbar", "0"), "--mbar"),
    (("scaling", "--masses", "1,0"), "--masses"),
    (("uncertainty", "--N", "1", "--dim", "1"), "--dim"),
    (("evolve", "--dim", "1"), "--dim"),
    (("evolve", "--potential", "0", "--mbar", TINY, "--t", "0.02"), "--mbar"),
    (("scaling", "--N", "2", "--mbar", TINY), "--mbar"),
    (("scaling", "--N", "2", "--mbar", HUGE), "--mbar"),
    (("scaling", "--masses", f"1,{HUGE}"), "--masses"),
    (("scaling", "--N", "2", "--mbar", "1e308"), "--mbar"),  # total mass overflows
    (("scaling", "--masses", "1e308,1e308"), "--masses"),
    (("evolve", "--potential", "x^-1"), "--potential"),  # a negative exponent
])
def test_nonpositive_flag_is_config_error(capsys, argv, flag):
    _assert_flag_config_error(capsys, argv, flag)


@pytest.mark.parametrize("argv, flag", [
    # the momentum scale m*hbar/2 overflows, or underflows to zero
    (("uncertainty", "--N", "1", "--mbar", "1e300", "--dim", "2", "--hbar", "1e300"),
     "--mbar, --hbar"),
    (("uncertainty", "--N", "2", "--mbar", "1e-300", "--p0", "-1", "--hbar", "1e-300"),
     "--mbar, --hbar"),
    (("evolve", "--N", "1000", "--mbar", "1e306"), "--N, --mbar, --hbar"),  # M = inf
    (("residuals", "--max-degree", "2", "--hbar", "1e300"), "--hbar"),  # hbar^2
    (("evolve", "--potential", "x^20", "--mbar", "1e-300", "--p0", "-1", "--model", "full"),
     "--potential, --x0, --p0, --mbar"),  # x^19 overflows in the classical twin
    # a power of X_CM overflows while the twin stays finite: build_hamiltonian refuses
    # power 303 of 400 at d = 64 and power 171 at d = 2100, on either side of the
    # dense limit, and power 3 when the mass puts X_CM near 1e150
    (("evolve", "--potential", "x^400", "--x0", "0.5", "--dim", "64", "--t", "0.1",
      "--dt", "0.1"), "--potential, --N, --mbar, --hbar, --dim"),
    (("evolve", "--potential", "x^400", "--x0", "0.5", "--dim", "2100", "--t", "0.01",
      "--dt", "0.01"), "--potential, --N, --mbar, --hbar, --dim"),
    (("evolve", "--potential", "x^20", "--mbar", "1e-300", "--x0", "0", "--p0", "0",
      "--dim", "16", "--t", "0.1", "--dt", "0.1"), "--potential, --N, --mbar, --hbar, --dim"),
    (("evolve", "--potential", "x^100000", "--x0", "0", "--dim", "8"),
     "--potential, --N, --mbar, --hbar, --dim"),  # stops at power 661, not 100000
    # every power is finite, the coefficient times X_CM^4 is not
    (("evolve", "--potential", "1" + "0" * 305 + "*x^4", "--x0", "0", "--p0", "0", "--dim", "64",
      "--t", "0.1", "--dt", "0.1"), "--potential, --N, --mbar, --hbar, --dim"),
    # H is finite, but the first Lanczos coefficient of H / hbar is not: the norm of
    # H psi0 / hbar overflows in its squares
    (("evolve", "--potential", "0.5*x^2", "--N", "1", "--dim", "2100", "--t", "0.01",
      "--dt", "0.01", "--x0", "0", "--p0", "0", "--mbar", "1e-300"),
     "--potential, --N, --mbar, --hbar, --dim"),
    (("evolve", "--potential", "x^4", "--N", "1", "--dim", "2100", "--t", "0.01",
      "--dt", "0.01", "--x0", "0", "--p0", "0", "--mbar", "1e-150"),
     "--potential, --N, --mbar, --hbar, --dim"),
    # hbar * eps and hbar / 2M overflow, or underflow to zero
    (("scaling", "--N", "1", "--mbar", "1e-300", "--hbar", "1e300"), "--mbar, --hbar"),
    (("scaling", "--N", "1", "--mbar", "1e300", "--hbar", "1e-300"), "--mbar, --hbar"),
    (("scaling", "--masses", "1e-300,1e-300", "--hbar", "1e300"), "--masses, --hbar"),
    # the phases of a Lanczos step leave the floating-point range: their NaN
    # coordinates never certify, and the substep they give is refused, silently
    (("evolve", "--potential", "0.5*x^2", "--N", "1", "--mbar", "1e-150", "--dim", "2100",
      "--x0", "0", "--p0", "0", "--t", "1e300", "--dt", "1e299"),
     "--potential, --N, --mbar, --hbar, --dim"),
    # each mode's scales fit, the bound hbar / 2 N mbar is subnormal
    (("uncertainty", "--N", "5", "--mbar", "2e307", "--dim", "2"), "--N, --mbar, --hbar"),
    (("uncertainty", "--N", "5", "--mbar", "2e307", "--dim", "2", "--x0", "1"),
     "--N, --mbar, --hbar"),
    # the symmetrization (H + H^T) / 2 overflows: the Hamiltonian is checked as returned
    (("evolve", "--potential", "x^2", "--mbar", "5e-307", "--dim", "64", "--x0", "0",
      "--p0", "0", "--t", "0.01"), "--potential, --N, --mbar, --hbar, --dim"),
    (("evolve", "--potential", "x^2", "--mbar", "1e-307", "--dim", "16", "--x0", "0",
      "--p0", "0", "--t", "0.01"), "--potential, --N, --mbar, --hbar, --dim"),
    # at d = 6 H is finite and the spectrum of its whole-block eigh is not; at d = 8
    # its symmetrization overflows
    (("evolve", "--potential", "x^4", "--model", "full", "--N", "3", "--mbar",
      "2.814739464453614e-154", "--dim", "6", "--x0", "0", "--p0", "0", "--t", "0.01"),
     "--potential, --N, --mbar, --hbar, --dim"),
    (("evolve", "--potential", "x^4", "--model", "full", "--N", "3", "--mbar",
      "2.814739464453614e-154", "--dim", "8", "--x0", "0", "--p0", "0", "--t", "0.01"),
     "--potential, --N, --mbar, --hbar, --dim"),
    # N * mbar converts a 311-digit N to a float
    (("evolve", "--N", "1" + "0" * 310, "--dim", "8", "--t", "0.1"), "--N, --mbar"),
    (("uncertainty", "--N", "1" + "0" * 310, "--dim", "8"), "--N, --mbar"),
])
def test_float_range_is_config_error(capsys, argv, flag):
    _assert_flag_config_error(capsys, argv, flag)


def test_eigh_failure_is_config_error(capsys, monkeypatch):
    # numpy's LinAlgError is a ValueError: it names the flags of the Hamiltonian
    def fail(a, UPLO="L"):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigh", fail)
    _assert_flag_config_error(capsys, ("evolve", "--dim", "16", "--t", "0.01"),
                              "--potential, --N, --mbar, --hbar, --dim")


def _quantum_rows(out):
    return out.split("# quantum\n")[1].split("\n#")[0].splitlines()[1:]


@pytest.mark.parametrize("argv", [
    ("--potential", "0.5*x^2 + 0.05*x", "--model", "full", "--N", "2", "--dim", "46",
     "--x0", "0.3", "--p0", "0.05"),
    ("--potential", "0.5*x^2", "--N", "16", "--dim", "4096"),
])
def test_single_sample_above_dense_limit(capsys, argv):
    # a grid of one sample is psi0 itself; expm_multiply needs two points
    code, out = run_cli(capsys, "evolve", *argv, "--t", "0")
    assert code == 0
    rows = _quantum_rows(out)
    assert len(rows) == 1
    if "--model" in argv:
        assert rows == ["0,0.3,0.025,0.5,0.5,0.435625,1,0"]
        code, out = run_cli(capsys, "evolve", *argv, "--t", "1")
        assert code == 0
        assert _quantum_rows(out)[0] == rows[0]


def test_evolve_step_limit(capsys):
    # 2e299 steps used to hang in the classical loop
    assert main(["evolve", "--t", "0.2", "--dt", "1e-300"]) == 1
    assert "exceeds the limit of 100000" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # 888,030 occupation states of 20 levels each: past the slot cap of the basis
    ("evolve", "--model", "full", "--N", "20", "--dim", "8"),
    # 357,760 states, but P_TOT^2 would form 12.9 million slots
    ("evolve", "--model", "full", "--N", "3", "--dim", "128"),
    # C(3615, 15) states, and 16^3600 composite amplitudes: the count stops at the cap
    ("evolve", "--potential", "0", "--model", "full", "--N", "3600", "--dim", "16",
     "--x0", "0"),
    ("evolve", "--model", "full", "--N", "1", "--dim", str(10**30)),
])
def test_amplitude_cap_names_n_and_dim(capsys, argv):
    # the full model holds the occupation states of --N modes of --dim levels
    err = _assert_flag_config_error(capsys, argv, "--N, --dim")
    assert len(err) < 200


def _x_cm(out):
    """The x_cm column of an evolve table."""
    lines = out.split("# classical")[0].splitlines()  # "# quantum", the header, the rows
    column = lines[1].split(",").index("x_cm")
    return [float(line.split(",")[column]) for line in lines[2:]]


def test_full_model_runs_past_the_composite_cap(capsys):
    # 8^7 composite amplitudes were refused; the 3,432 occupation states run in
    # 0.3 s, and the CM track is the effective mode's
    argv = ("evolve", "--potential", "0.5*x^2", "--N", "7", "--x0", "0.3", "--t", "0.5")
    code, full = run_cli(capsys, *argv, "--model", "full", "--dim", "8")
    assert code == 0
    code, effective = run_cli(capsys, *argv)
    assert code == 0
    x_full, x_effective = _x_cm(full), _x_cm(effective)
    assert len(x_full) == len(x_effective) == 51
    assert max(abs(a - b) for a, b in zip(x_full, x_effective)) <= 1e-6
    # at the default x0 = 1 each 8-level mode spreads onto its top level: the gate
    code, out = run_cli(capsys, "evolve", "--model", "full", "--N", "7", "--dim", "8")
    assert code == 2
    assert "# FAILED ExcessiveTruncationError: truncation weight" in out


def test_full_model_runs_on_the_classical_twins_total_mass(monkeypatch, capsys):
    # one M for both twins, N * mbar: six masses of 0.7 sum to 4.2, while the
    # classical twin's 6 * 0.7 is 4.199999999999999
    trajectories, evolve = [], cli.evolve_quantum
    monkeypatch.setattr(cli, "evolve_quantum",
                        lambda *args: trajectories.append(evolve(*args)) or trajectories[-1])
    code, out = run_cli(capsys, "evolve", "--potential", "0.5*x^2", "--model", "full", "--N", "6",
                        "--dim", "8", "--mbar", "0.7", "--x0", "0.1", "--t", "1")
    assert code == 0 and "FAILED" not in out
    (traj,) = trajectories
    assert traj.total_mass == 6 * 0.7 != 0.7 + 0.7 + 0.7 + 0.7 + 0.7 + 0.7


def test_full_model_quartic_at_six_modes_within_budget(capsys):
    # 1,716 occupation states; the composite path took 54 s here, the occupation
    # basis 0.7 s on a 2-core container
    start = time.perf_counter()
    code, out = run_cli(capsys, "evolve", "--model", "full", "--potential", "0.1*x^4", "--N", "6",
                        "--dim", "8", "--t", "0.5", "--x0", "0.3")
    elapsed = time.perf_counter() - start
    assert code == 0 and "FAILED" not in out
    assert elapsed < 5.0


@pytest.mark.parametrize("argv", [
    ("evolve", "--model", "full", "--N", "1000000", "--dim", "2"),
])
def test_amplitude_cap_is_checked_before_the_modes_exist(capsys, argv):
    # a million modes once took 4 s and 200 MB before the cap refused them
    tracemalloc.start()
    try:
        _assert_flag_config_error(capsys, argv, "--N, --dim")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("argv", [
    ("--N", "7", "--dim", "8"),
    ("--N", "3600", "--dim", "16"),
    ("--N", "1000000", "--dim", "2"),
    ("--N", "1000000", "--dim", "8"),
])
def test_uncertainty_runs_past_the_amplitude_cap(capsys, argv):
    # the row is one mode's record rescaled: no d^N amplitudes, whatever N and d
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out = run_cli(capsys, "uncertainty", *argv)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    header, line = out.strip().split("\n")
    row = dict(zip(header.split(","), line.split(",")))
    n = int(argv[1])
    assert abs(float(row["ratio"]) - 1) <= 1e-10
    assert abs(float(row["comm_expectation_im"]) * n - 1) <= 1e-10  # hbar / N at mbar = 1
    assert peak < 2**20
    assert elapsed < 1.0


@pytest.mark.parametrize("dim", [str(10**30), str(2**20 + 1)])
def test_uncertainty_cap_names_dim(capsys, dim):
    # one mode of --dim levels gives the row at every --N, so the cap depends on --dim alone
    err = _assert_flag_config_error(capsys, ("uncertainty", "--N", "1", "--dim", dim), "--dim")
    assert err == "error: --dim: composite dimension exceeds the cap of 1048576 amplitudes\n"


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(1, 6), st.integers(2, 12), st.floats(-3, 3), st.floats(-3, 3),
       st.floats(1e-3, 1e3), st.floats(1e-2, 1e2))
# the composite commutator prints ...654 here; ...655 is the 50-digit value of c_1 / N
@example(5, 11, -0.2820545746297993, -71.72241832532909, 54.27065072267146, 18.7678001190143)
def test_uncertainty_row_matches_the_composite_record(n, dim, x0, p0, mbar, hbar):
    # every printed field of the one-mode row is the composite record's text; the
    # composite sums d^N terms, so at a rounding boundary its own roundoff may move
    # the 12th digit, and a field that differs must agree to one unit there
    assume(dim**n <= 2**20)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["uncertainty", "--N", str(n), "--dim", str(dim), f"--x0={x0!r}",
                     f"--p0={p0!r}", f"--mbar={mbar!r}", f"--hbar={hbar!r}"])
    row = tuple(out.getvalue().strip().split("\n")[1].split(","))
    expected = composite_uncertainty_row(n, dim, x0, p0, mbar, hbar)
    for got, want in zip(row, expected, strict=True):
        assert got == want or abs(float(got) - float(want)) <= 1e-11 * abs(float(want)), (
            row, expected)
    assert code == (2 if row[-1] == "truncation" else 0)


@pytest.mark.parametrize("dim", [str(10**30), str(2**20 + 1)])
def test_effective_evolve_cap_names_dim(capsys, dim):
    # the effective model's one CM mode holds all --dim levels, whatever --N is
    err = _assert_flag_config_error(capsys, ("evolve", "--N", "4", "--dim", dim, "--t", "0.1"),
                                    "--dim")
    assert err == "error: --dim: composite dimension exceeds the cap of 1048576 amplitudes\n"


@pytest.mark.parametrize("target", ["directory", "missing parent"])
def test_unwritable_out_names_out(capsys, tmp_path, target):
    out = tmp_path if target == "directory" else tmp_path / "missing" / "x.csv"
    err = _assert_flag_config_error(capsys, ("scaling", "--N", "1", "--out", str(out)), "--out")
    assert err.startswith(f"error: --out: cannot write {str(out)!r}: ")
    assert len(err) < 200


@pytest.mark.parametrize("argv, md5", [
    (("residuals", "--max-degree", "8", "--samples", "50", "--seed", "7"),
     "bd88e7b7db9ae738b43b956ae6f1a69c"),
    (("scaling", "--masses", "1/3,2/7,5/9,7/11,13/17", "--hbar", "1.5"),
     "79e80f63b839162161050fc9de946b4b"),
    (("residuals", "--max-degree", "6", "--samples", "30", "--seed", "11", "--hbar", "1.5"),
     "b9cb2eca9f1e1e67fbfc2752b77d855c"),
    (("scaling", "--N", "1,2,4,8,16,32,64,128,256", "--mbar", "3/7", "--hbar", "1.0"),
     "7aa6362470da1a9534899d45f98045c2"),
])
def test_algebra_commands_are_byte_identical(capsys, argv, md5):
    # pinned stdout of the exact-algebra commands; any change in the arithmetic shows here
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == md5


@pytest.mark.parametrize("argv, md5", [
    (("--N", "1,2,3,4,5,6", "--dim", "8", "--x0", "0.25", "--p0", "-0.15"),
     "98ed66d9bc537eb6090e9043a78cde23"),
    (("--N", "1,2,3,4,5", "--dim", "12", "--x0", "0.25", "--p0", "-0.15"),
     "c0cd9cf5fcc3536d9fe2b7c2da72c64a"),
], ids=["d8", "d12"])
def test_uncertainty_commands_are_byte_identical(capsys, argv, md5):
    # pinned stdout of the benchmark's two uncertainty shapes (up to 262,144
    # amplitudes); the mode-by-mode apply must round every row the same way
    code, out = run_cli(capsys, "uncertainty", *argv)
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == md5


@pytest.mark.parametrize("argv, md5", [
    # 2001 samples at d = 160: 20 row blocks of 102
    (("--potential", "0.5*x^2", "--N", "4", "--dim", "160", "--t", "20", "--dt", "0.01",
      "--x0", "1.1", "--p0", "-0.1"),
     "362794e7eb7b7ea8cf0e1e65e9da6d3d"),
    (("--potential=x^4-2*x^2+1", "--N", "4", "--dim", "256", "--t", "8", "--dt", "0.01",
      "--x0", "0.9", "--p0", "0.05"),
     "68d4bcf0f5b61e9a198879c631d64a86"),
    (("--potential", "0.5*x^2", "--N", "3", "--model", "full", "--dim", "10", "--t", "1",
      "--dt", "0.01", "--x0", "0.3", "--p0", "0.05"),
     "fe87fabd5f4c7028ebd5283fa7e8bb7d"),
    # 2,080 occupation states, past the dense limit: the Lanczos sampler
    (("--potential", "0.5*x^2", "--model", "full", "--N", "2", "--dim", "64", "--t", "0.1",
      "--dt", "0.01", "--x0", "0.3", "--p0", "0.05"),
     "63244430d680606174eb2ac08818ff31"),
    # an odd term couples the parity sectors, 15 row blocks: one Lanczos run streams them
    (("--potential", "0.5*x^2 + 0.05*x", "--model", "full", "--N", "2", "--dim", "64",
      "--t", "1", "--dt", "0.01", "--x0", "0.3", "--p0", "0.05"),
     "7644a546304907597235acb2bc1db7fa"),
    (("--potential", "0.5*x^2", "--model", "full", "--N", "2", "--dim", "12", "--t", "1",
      "--dt", "0.05", "--x0", "0.3", "--p0", "0.05", "--format", "json"),
     "0024f6117016e9f27673d08e967c1070"),
    # quartic plus cubic above the dense limit (2,600 states): on several modes, where an
    # entry of H sums more than two products, and on one
    (("--potential", "0.1*x^4+0.2*x^3+0.5*x^2", "--model", "full", "--N", "3", "--dim", "24",
      "--t", "0.1", "--dt", "0.01", "--x0", "0.3", "--p0", "0.05"),
     "50f9998febe16dba329af26757eee3bb"),
    (("--potential", "0.1*x^4+0.3*x^3", "--N", "16", "--dim", "2100", "--t", "0.1",
      "--dt", "0.01", "--x0", "0.5"),
     "5d9e1cfbbfc706d7b2b38b46bb0a31bb"),
    # |alpha|^2 = 32 fills half of each 80-row parity sector: no level cut, the whole sectors
    (("--potential", "0.1*x^4", "--N", "64", "--dim", "160", "--t", "2", "--dt", "0.01",
      "--x0", "1"),
     "c9a6984e7e0e1175fa499af18763b097"),
    # extreme scales of a d = 1024 run keep their tables, cut or not
    (("--potential", "0.5*x^2", "--N", "16", "--dim", "1024", "--t", "2", "--dt", "0.01",
      "--x0", "0", "--hbar", "1e-300"),
     "7ffe05fbb3c70894287296fe220b4ddb"),
    (("--potential", "0.5*x^2", "--N", "16", "--dim", "1024", "--t", "2", "--dt", "0.01",
      "--x0", "0", "--hbar", "1e300"),
     "d21d3fb331b9492e32153fe5736696e0"),
    (("--potential", "0.5*x^2", "--N", "16", "--dim", "1024", "--t", "1e-320",
      "--dt", "1e-320", "--x0", "0"),
     "d36296992066a8afc441a84bac3037f7"),
    (("--potential", "0.5*x^2", "--N", "16", "--dim", "1024", "--t", "0", "--dt", "0.01",
      "--x0", "0"),
     "3b1d04d5a9afd2ebe6cb6e6535b4660c"),
], ids=["harmonic-5-row-blocks", "double-well-parity-blocks", "full-model",
        "full-model-expm-multiply", "odd-expm-multiply", "full-model-json",
        "full-quartic-cubic-expm-multiply", "effective-quartic-cubic-expm-multiply",
        "quartic-no-certified-cut", "tiny-hbar", "huge-hbar", "denormal-t", "zero-t"])
def test_evolve_commands_are_byte_identical(argv, md5):
    # pinned stdout of evolve runs whose samples span several row blocks, and
    # of full-model runs on both propagators and in JSON; one BLAS thread,
    # because LAPACK's eigh rounds differently under two
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "cmlimit", "evolve", *argv],
                         capture_output=True, env=env, check=True)
    assert hashlib.md5(run.stdout).hexdigest() == md5


def test_float_rows_format_like_fmt():
    # the evolve tables format whole columns; each cell is the text of _fmt
    values = [0.0, -0.0, 1.0, 0.1, -2.5e-300, 5e-324, 1.7976931348623157e308, 1 / 3,
              123456789012345.0, float("inf"), float("-inf"), float("nan")]
    columns = (values, values[::-1], [v * 7.0 for v in values])
    rows = _float_rows(*columns)
    assert rows == tuple(tuple(map(_fmt, row)) for row in zip(*columns))


def test_scaling_bound_at_largest_total_mass(capsys):
    code, out = run_cli(capsys, "scaling", "--N", "1", "--mbar", "1e308")
    assert code == 0
    assert out.strip().split("\n")[1] == "1,1e+308,1e-308,1e-308,5e-309"


def test_scaling_subnormal_results_print_the_digits_they_hold(capsys):
    # hbar * eps underflows into the subnormal range, where a double holds a few
    # digits: the nearest doubles to 1e-318 and 5e-319 print as such, not as
    # 9.99998748496e-319 and 4.99999374248e-319
    code, out = run_cli(capsys, "scaling", "--N", "1", "--mbar", "1e308", "--hbar", "1e-10")
    assert code == 0
    assert out.strip().split("\n")[1] == "1,1e+308,1e-308,1e-318,5e-319"


@pytest.mark.parametrize("x0", ["1e200", "1e308"])
def test_uncertainty_huge_displacement_is_truncation(capsys, x0):
    code, out = run_cli(capsys, "uncertainty", "--N", "1", "--x0", x0)
    assert code == 2
    assert out.strip().split("\n")[1].endswith(",truncation")


def test_evolve_huge_displacement_is_truncation(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(capsys, "evolve", "--N", "16", "--x0", "1e308")
    assert code == 2
    assert out.rstrip("\n").split("\n")[-1].startswith("# FAILED ExcessiveTruncationError")
    assert not caught


def _assert_flag_config_error(capsys, argv, flag):
    """Exit 1, nothing on stdout, a message naming the flag and no warning; returns stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag}: ")
    assert not caught
    return captured.err


# ---------------------------------------------------------------------------
# Config handling and determinism
# ---------------------------------------------------------------------------


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 1,2\nmbar = 2\n# comment line\n\n", encoding="utf-8")
    code, out = run_cli(capsys, "scaling", "--config", str(cfg), "--N", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2  # flag overrode the config's N list
    assert lines[1].split(",")[0] == "4"
    assert lines[1].split(",")[1] == "2"  # config mbar survived


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n", encoding="utf-8")
    assert main(["scaling", "--config", str(cfg)]) == 1


def test_config_missing_file():
    assert main(["scaling", "--config", "/nonexistent/path.cfg"]) == 1


def test_config_file_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"N = \xff\n")
    assert main(["scaling", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file ")
    assert not re.match(r"error: \w+(Error|Exception): ", err)  # main's catch-all


def test_config_malformed_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n", encoding="utf-8")
    assert main(["scaling", "--config", str(cfg)]) == 1


def test_unknown_flag_is_config_error():
    assert main(["scaling", "--frequency", "2"]) == 1
    assert main(["evolve", "--seed", "1"]) == 1  # only residuals draws random cases


@pytest.mark.parametrize("argv, token", [
    ([], "expected an experiment"),
    (["simulate"], "'simulate'"),
    (["--N", "2", "evolve"], "'--N'"),
    (["evolve", "--pot", "0.5*x^2"], "'--pot'"),  # a flag is never abbreviated
    (["evolve", "-N", "2"], "'-N'"),
    (["evolve", "2"], "'2'"),
    (["evolve", "--", "--N", "2"], "'--'"),
    (["evolve", "--N"], "--N: expected a value"),
    (["evolve", "--N", "2", "--dim"], "--dim: expected a value"),
    (["uncertainty", "--N=2", "--config"], "--config: expected a value"),
    (["evolve", "--potential", "-h"], "--potential: invalid potential"),  # -h is its value
])
def test_refused_command_line_names_the_token(capsys, argv, token):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and token in captured.err


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("experiment", ["scaling", "residuals", "uncertainty", "evolve"])
def test_help_lists_every_flag(capsys, experiment, flag):
    assert main([experiment, "--format", "json", flag]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    for name in ["config", *(field.name for field in _FIELDS[experiment])]:
        assert f"  --{name} VALUE  " in captured.out


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_the_experiments(capsys, flag):
    assert main([flag]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "{scaling,residuals,uncertainty,evolve}" in captured.out


def test_the_token_after_a_flag_is_its_value():
    cfg = build_config(["evolve", "--potential", "-x^4", "--x0", "-0.5", "--p0=-1e-3"])
    assert (cfg["potential"], cfg["x0"], cfg["p0"]) == ("-x^4", -0.5, -1e-3)


def test_cli_import_loads_no_argument_parser():
    # the flags are read from _FIELDS: neither argparse nor the gettext it loads is
    # imported, a fixed cost every command would pay
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; from cmlimit.cli import main; "
            "code = main(['scaling', '--N', '1,2']) + main(['evolve', '--help']); "
            "print(code, *sorted({'argparse', 'gettext'} & set(sys.modules)), file=sys.stderr)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert run.stderr.split() == ["0"]


def test_byte_identical_reruns(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["residuals", "--max-degree", "3", "--samples", "8", "--seed", "42"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # a different seed changes the random section
    out3 = tmp_path / "c.csv"
    assert main(argv[:-1] + ["7", "--out", str(out3)]) == 0
    assert out1.read_bytes() != out3.read_bytes()


def test_output_file_uses_lf_endings(tmp_path):
    out = tmp_path / "scaling.csv"
    assert main(["scaling", "--N", "1,2", "--out", str(out)]) == 0
    data = out.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")


def test_build_config_defaults():
    cfg = build_config(["evolve"])
    assert cfg["potential"] == "0"
    assert cfg["model"] == "effective"
    assert cfg["dt"] == 0.01
    with pytest.raises(ConfigError):
        build_config(["evolve", "--model", "both"])
