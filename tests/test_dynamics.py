"""Tests for quantum/classical propagation and their comparison."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.csgraph import connected_components

import cmlimit.dynamics as dynamics
from cmlimit.dynamics import (
    HamiltonianSpec,
    Trajectory,
    NormDriftError,
    PolynomialPotential,
    TimeGridMismatchError,
    _eig_samples,
    _expm_samples,
    build_hamiltonian,
    compare_trajectories,
    effective_cm_system,
    ehrenfest_residual,
    evolve_classical,
    evolve_quantum,
    expectation_product,
    free_width_analytic,
    gaussian_spreading,
    trajectory_to_csv,
)
from cmlimit.hilbert_rep import (
    DimensionCapError,
    ExcessiveTruncationError,
    ExpectationRecord,
    ModeSpec,
    SparseOperator,
    StateVector,
    basis_state,
    cm_expectation_record,
    cm_operators_numeric,
    coherent_product,
    coherent_state,
    expectation,
    ground_product,
)

FREE = PolynomialPotential.zero()
QUARTIC = PolynomialPotential.from_coeffs({4: 0.1})


def harmonic(total_mass, big_omega=1.0):
    return PolynomialPotential.from_coeffs({2: 0.5 * total_mass * big_omega**2})


def effective_spec(n, mbar=1.0, potential=FREE, dim=64):
    modes = effective_cm_system(n, mbar, dim=dim)
    return HamiltonianSpec(modes=tuple(modes), potential=potential)


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------


def test_potential_evaluate_and_derivative():
    u = PolynomialPotential.from_coeffs({4: 1, 2: -2, 0: 1})
    assert u.evaluate(2.0) == pytest.approx(16 - 8 + 1)
    du = u.derivative()
    assert du.coeffs == {3: 4, 1: -4}
    assert PolynomialPotential.zero().derivative().coeffs == {}
    assert FREE.evaluate(3.0) == 0


def test_potential_exact_for_rationals():
    u = PolynomialPotential.from_coeffs({3: Fraction(1, 3), 1: Fraction(-1, 7)})
    value = u.evaluate(Fraction(2, 5))
    assert value == Fraction(1, 3) * Fraction(8, 125) - Fraction(2, 35)
    assert isinstance(value, Fraction)


def test_potential_drops_zero_terms():
    u = PolynomialPotential(terms=((2, 1.0), (2, -1.0), (0, 3.0)))
    assert u.coeffs == {0: 3.0}
    assert u.degree == 0


def test_potential_rejects_negative_degree():
    with pytest.raises(ValueError):
        PolynomialPotential(terms=((-1, 1.0),))


# ---------------------------------------------------------------------------
# Hamiltonian assembly
# ---------------------------------------------------------------------------


def test_free_hamiltonian_ground_energy():
    spec = effective_spec(1, dim=16)
    h = build_hamiltonian(spec)
    # <0|P^2/2|0> = hbar m omega / 4
    assert expectation(h, basis_state(16)).real == pytest.approx(0.25, abs=1e-12)


def test_harmonic_spectrum_matched_basis():
    for total_mass in (1.0, 2.0):
        spec = effective_spec(int(total_mass), potential=harmonic(total_mass), dim=32)
        h = build_hamiltonian(spec)
        evals = np.linalg.eigvalsh(h.to_dense())
        n = np.arange(16)
        assert np.abs(np.sort(evals)[:16] - (n + 0.5)).max() < 1e-8


def test_quartic_hamiltonian_structure():
    spec = effective_spec(1, potential=QUARTIC, dim=24)
    h = build_hamiltonian(spec)
    assert h.hermitian
    dense = h.to_dense()
    beyond_band = np.triu(np.abs(dense), k=5)
    assert beyond_band.max() == 0.0  # X is tridiagonal, so X^4 has bandwidth 4


@pytest.mark.parametrize("spec", [
    effective_spec(4, potential=PolynomialPotential.from_coeffs({4: 1, 2: -2, 0: 1})),
    HamiltonianSpec(modes=tuple(ModeSpec(mass=1.0, dim=6) for _ in range(3)),
                    potential=QUARTIC),
], ids=["effective", "full"])
def test_hamiltonian_is_real(spec):
    # the propagator diagonalizes the real part only
    assert not build_hamiltonian(spec).to_dense().imag.any()


def test_hamiltonian_dimension_cap():
    modes = tuple(ModeSpec(mass=1.0, omega=1.0, dim=128) for _ in range(3))
    spec = HamiltonianSpec(modes=modes, potential=FREE)
    with pytest.raises(DimensionCapError):
        build_hamiltonian(spec)


# ---------------------------------------------------------------------------
# Quantum evolution
# ---------------------------------------------------------------------------


def test_free_evolution_means():
    spec = effective_spec(2, potential=FREE)
    psi0 = coherent_state(spec.modes[0], 1.0, 1.0)
    traj = evolve_quantum(psi0, spec, t_final=1.0, dt=0.05)
    expected = [1.0 + 0.5 * t for t in traj.times]
    assert np.abs(traj.x_cm - expected).max() < 1e-8
    assert traj.norm_drift < 1e-8
    assert traj.energy_drift < 1e-7


def test_harmonic_return_after_period():
    spec = effective_spec(1, potential=harmonic(1.0))
    psi0 = coherent_state(spec.modes[0], 1.0, 0.0)
    n = 128
    traj = evolve_quantum(psi0, spec, t_final=2 * math.pi, dt=2 * math.pi / n)
    assert abs(traj.records[-1].x_cm - 1.0) < 1e-6
    errors = [abs(r.x_cm - math.cos(t)) for t, r in zip(traj.times, traj.records)]
    assert max(errors) < 1e-6


def test_norm_drift_raises():
    spec = effective_spec(1, potential=QUARTIC)
    amps = coherent_state(spec.modes[0], 1.0, 0.0).amplitudes * (1.0 + 5e-7)
    psi0 = StateVector(amps.shape, amps)  # within StateVector's 1e-6 sanity bound
    with pytest.raises(NormDriftError, match=r"at t = 0\.0$"):
        evolve_quantum(psi0, spec, t_final=1.0, dt=0.1)


def test_propagators_agree():
    spec = effective_spec(1, potential=QUARTIC, dim=32)
    psi0 = coherent_state(spec.modes[0], 0.5, 0.0)
    h = build_hamiltonian(spec)
    dense = _eig_samples(h, psi0.amplitudes, 0.05, 20, spec.hbar)
    sparse = _expm_samples(h, psi0.amplitudes, 0.05, 20, spec.hbar)
    assert dense.shape == sparse.shape == (21, 32)
    assert np.abs(dense - sparse).max() < 1e-10


def _blocks(spec):
    return connected_components(build_hamiltonian(spec).matrix.real, directed=False)[0]


def _full_spec(potential, n=2, dim=10):
    return HamiltonianSpec(modes=tuple(ModeSpec(mass=1.0, dim=dim) for _ in range(n)),
                           potential=potential)


LINEAR_HARMONIC = PolynomialPotential.from_coeffs({2: 0.5, 1: 0.2})


@pytest.mark.parametrize("spec, split", [
    (effective_spec(2, potential=QUARTIC, dim=48), True),
    (effective_spec(2, potential=LINEAR_HARMONIC, dim=48), False),
    (_full_spec(harmonic(2.0)), True),
    (_full_spec(LINEAR_HARMONIC), False),
], ids=["effective-even", "effective-linear", "full-even", "full-linear"])
def test_evolve_quantum_matches_dense_exponential(spec, split):
    # an even potential splits H at least into its two parity sectors, each
    # diagonalized on its own; a linear term couples them into one block
    assert (_blocks(spec) > 1) == split
    psi0 = coherent_product(spec.modes, [0.4] * len(spec.modes), [0.1] * len(spec.modes))
    traj = evolve_quantum(psi0, spec, t_final=1.0, dt=0.05)
    h = build_hamiltonian(spec).to_dense()
    for k in (0, 1, 7, 20):
        t = traj.times[k]
        exact = scipy.linalg.expm(-1j * h * t / spec.hbar) @ psi0.amplitudes
        assert np.abs(traj.amplitudes[k] - exact).max() < 1e-10


def test_gates_raise_at_the_first_failing_sample(monkeypatch):
    spec = effective_spec(1, dim=8)
    psi0 = basis_state(8)
    good, top = psi0.amplitudes, basis_state(8, n=7).amplitudes
    # sample 1 fails the weight gate, sample 2 the norm gate
    monkeypatch.setattr(dynamics, "_eig_samples",
                        lambda *args: np.array([good, top, 2 * good, good]))
    with pytest.raises(ExcessiveTruncationError, match=r"weight 1 exceeds .* at t = 0\.1$"):
        evolve_quantum(psi0, spec, t_final=0.3, dt=0.1)
    # a sample failing both gates fails the norm gate first
    monkeypatch.setattr(dynamics, "_eig_samples",
                        lambda *args: np.array([good, 2 * top, top, good]))
    with pytest.raises(NormDriftError, match=r"^norm drifted to 2\.0 at t = 0\.1$"):
        evolve_quantum(psi0, spec, t_final=0.3, dt=0.1)


def test_truncation_gate_during_evolution():
    spec = effective_spec(1, potential=FREE, dim=8)
    psi0 = coherent_state(spec.modes[0], 1.0, 0.0)
    with pytest.raises(ExcessiveTruncationError):
        evolve_quantum(psi0, spec, t_final=2.0, dt=0.25)


def test_time_grid_validation():
    spec = effective_spec(1)
    psi0 = coherent_state(spec.modes[0], 0.0, 0.0)
    with pytest.raises(ValueError):
        evolve_quantum(psi0, spec, t_final=1.0, dt=0.3)
    with pytest.raises(ValueError, match="integer multiple of dt"):
        evolve_classical(FREE, 1.0, 0.0, 0.0, 1.0, 0.3)  # one rule for both twins


# ---------------------------------------------------------------------------
# Classical evolution
# ---------------------------------------------------------------------------


def test_classical_free_is_straight_line():
    out = evolve_classical(FREE, 2.0, 1.0, 1.0, 1.0, 0.05)
    for t, state in out:
        assert state.x == pytest.approx(1.0 + 0.5 * t, abs=1e-14)
        assert state.p == 1.0


def test_classical_harmonic_ellipse():
    out = evolve_classical(harmonic(1.0), 1.0, 1.0, 0.0, 2 * math.pi, 2 * math.pi / 6284)
    t_end, final = out[-1]
    assert t_end == pytest.approx(2 * math.pi, abs=1e-12)
    assert abs(final.x - 1.0) < 1e-9
    assert abs(final.p) < 1e-9
    for t, s in out[:: len(out) // 7]:
        assert abs(s.x - math.cos(t)) < 1e-9
        assert abs(s.p + math.sin(t)) < 1e-9


def test_classical_velocity_consistency():
    # finite-difference xdot equals p/M along the run
    out = evolve_classical(QUARTIC, 2.0, 1.0, 0.5, 1.0, 1e-3)
    for k in range(1, len(out) - 1, 100):
        t0, s0 = out[k - 1]
        _, s1 = out[k]
        t2, s2 = out[k + 1]
        xdot = (s2.x - s0.x) / (t2 - t0)
        assert abs(xdot - s1.p / 2.0) < 1e-6


def test_classical_integrator_order():
    def final_error(dt):
        out = evolve_classical(QUARTIC, 1.0, 1.0, 0.0, 1.0, dt)
        ref = evolve_classical(QUARTIC, 1.0, 1.0, 0.0, 1.0, dt / 16)
        return abs(out[-1][1].x - ref[-1][1].x)

    e1, e2 = final_error(0.02), final_error(0.01)
    exponent = math.log2(e1 / e2)
    assert 3.5 <= exponent <= 4.5


def _fraction_twin(potential, total_mass, x0, p0, t_final, dt):
    """The twin as it was: the force from the potential's own coefficients on every stage."""
    force = potential.derivative()
    inv_m = 1.0 / total_mass

    def rhs(x, p):
        return p * inv_m, -float(force.evaluate(x))

    x, p = float(x0), float(p0)
    out = [(x, p)]
    for _ in range(round(t_final / dt)):
        dx1, dp1 = rhs(x, p)
        dx2, dp2 = rhs(x + 0.5 * dt * dx1, p + 0.5 * dt * dp1)
        dx3, dp3 = rhs(x + 0.5 * dt * dx2, p + 0.5 * dt * dp2)
        dx4, dp4 = rhs(x + dt * dx3, p + dt * dp3)
        x, p = (x + dt / 6.0 * (dx1 + 2.0 * dx2 + 2.0 * dx3 + dx4),
                p + dt / 6.0 * (dp1 + 2.0 * dp2 + 2.0 * dp3 + dp4))
        out.append((x, p))
    return out


@pytest.mark.parametrize("coeffs", [
    {4: Fraction(1, 10), 3: Fraction(1, 3), 1: Fraction(-2, 7)},
    {4: Fraction(1), 2: Fraction(-2), 0: Fraction(1)},
], ids=["rational-quartic", "double-well"])
def test_classical_twin_is_bit_identical_to_fraction_force(coeffs):
    potential = PolynomialPotential.from_coeffs(coeffs)
    out = evolve_classical(potential, 3.0, 1.1, -0.15, 2.0, 0.01)
    assert isinstance(potential.coeffs[4], Fraction)
    assert [(s.x, s.p) for _, s in out] == _fraction_twin(potential, 3.0, 1.1, -0.15, 2.0, 0.01)


# ---------------------------------------------------------------------------
# Ehrenfest residuals
# ---------------------------------------------------------------------------


def test_ehrenfest_free_particle():
    spec = effective_spec(2, potential=FREE)
    psi0 = coherent_state(spec.modes[0], 1.0, 1.0)
    traj = evolve_quantum(psi0, spec, t_final=1.0, dt=0.05)
    h = build_hamiltonian(spec)
    x_cm = cm_operators_numeric(spec.modes)[0]
    report = ehrenfest_residual(traj, h, x_cm)
    assert report.max_residual < 1e-8


def test_ehrenfest_harmonic_richardson():
    spec = effective_spec(1, potential=harmonic(1.0))
    psi0 = coherent_state(spec.modes[0], 1.0, 0.0)
    h = build_hamiltonian(spec)
    x_cm = cm_operators_numeric(spec.modes)[0]

    def residual(dt):
        traj = evolve_quantum(psi0, spec, t_final=1.6, dt=dt)
        return ehrenfest_residual(traj, h, x_cm).max_residual

    r1, r2 = residual(0.04), residual(0.02)
    assert 3.2 <= r1 / r2 <= 4.8  # second-order central difference


def test_ehrenfest_quartic_squared_observable():
    spec = effective_spec(1, potential=QUARTIC, dim=96)
    psi0 = coherent_state(spec.modes[0], 1.0, 0.0)
    h = build_hamiltonian(spec)
    x_cm = cm_operators_numeric(spec.modes)[0]
    x_sq = x_cm.matrix @ x_cm.matrix
    x_sq = SparseOperator(x_cm.mode_dims, (x_sq + x_sq.getH()) * 0.5, hermitian=True)

    def residual(dt):
        traj = evolve_quantum(psi0, spec, t_final=1.6, dt=dt)
        return ehrenfest_residual(traj, h, x_sq).max_residual

    r1, r2 = residual(0.04), residual(0.02)
    assert r1 > 0
    assert 3.2 <= r1 / r2 <= 4.8


def test_expectation_product_of_non_hermitian_kronecker_sums():
    # a and b are not Hermitian, so each is applied to the other's image
    from cmlimit.hilbert_rep import ladder

    dims = (3, 4)
    a = SparseOperator.kronecker_sum(dims, [ladder(3).matrix, ladder(4).matrix.T])
    b = SparseOperator.kronecker_sum(dims, [ladder(3).matrix.T * 0.5, ladder(4).matrix])
    rng = np.random.default_rng(7)
    amps = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    psi = StateVector(dims, amps / np.linalg.norm(amps))
    dense_a, dense_b = a.to_dense(), b.to_dense()
    expected = np.vdot(psi.amplitudes, (dense_a @ dense_b - dense_b @ dense_a) @ psi.amplitudes)
    assert abs(expectation_product(a, b, psi) - expected) < 1e-13


# ---------------------------------------------------------------------------
# Quantum vs classical
# ---------------------------------------------------------------------------


def test_compare_free():
    spec = effective_spec(2, potential=FREE)
    psi0 = coherent_state(spec.modes[0], 1.0, 1.0)
    traj = evolve_quantum(psi0, spec, t_final=1.0, dt=0.05)
    classical = evolve_classical(FREE, 2.0, 1.0, 1.0, 1.0, 0.05)
    report = compare_trajectories(traj, classical)
    assert report.max_x_deviation < 1e-8
    assert report.max_v_deviation < 1e-8


def test_compare_harmonic_ehrenfest_exact():
    spec = effective_spec(1, potential=harmonic(1.0))
    psi0 = coherent_state(spec.modes[0], 1.0, 0.0)
    n = 256
    dt = 2 * math.pi / n
    traj = evolve_quantum(psi0, spec, t_final=2 * math.pi, dt=dt)
    classical = evolve_classical(harmonic(1.0), 1.0, 1.0, 0.0, 2 * math.pi, dt)
    report = compare_trajectories(traj, classical)
    assert report.max_x_deviation < 1e-6
    assert report.max_v_deviation < 1e-6


def test_compare_quartic_regression():
    spec = effective_spec(1, potential=QUARTIC, dim=128)
    psi0 = coherent_state(spec.modes[0], 1.0, 0.0)
    traj = evolve_quantum(psi0, spec, t_final=2.0, dt=0.01)
    classical = evolve_classical(QUARTIC, 1.0, 1.0, 0.0, 2.0, 0.01)
    report = compare_trajectories(traj, classical)
    assert report.final_x_deviation > 1e-3
    # frozen from a d/dt refinement study; stable to ~2e-9
    assert report.final_x_deviation == pytest.approx(0.6143493828, abs=1e-6)


def test_compare_classical_may_be_finer():
    spec = effective_spec(1, potential=harmonic(1.0))
    psi0 = coherent_state(spec.modes[0], 1.0, 0.0)
    traj = evolve_quantum(psi0, spec, t_final=1.0, dt=0.1)
    fine = evolve_classical(harmonic(1.0), 1.0, 1.0, 0.0, 1.0, 0.05)
    report = compare_trajectories(traj, fine)
    assert report.max_x_deviation < 1e-6


def test_compare_time_grid_mismatch():
    spec = effective_spec(1, potential=FREE)
    psi0 = coherent_state(spec.modes[0], 0.0, 0.0)
    traj = evolve_quantum(psi0, spec, t_final=1.0, dt=0.1)
    classical = evolve_classical(FREE, 1.0, 0.0, 0.0, 1.0, 0.25)  # lacks t = 0.1
    with pytest.raises(TimeGridMismatchError):
        compare_trajectories(traj, classical)


# ---------------------------------------------------------------------------
# Effective CM mode and spreading
# ---------------------------------------------------------------------------


def test_effective_system_commutator_scale():
    modes = effective_cm_system(16, 1.0, dim=16)
    psi = ground_product(modes)
    value = cm_expectation_record(psi, modes).commutator_expectation
    assert value == pytest.approx(1j / 16.0, abs=1e-10)
    single = effective_cm_system(1, 1.0, dim=16)
    assert single[0].mass == 1.0


def test_full_tensor_vs_effective_track():
    n = 3
    pot = harmonic(3.0)
    full_modes = tuple(ModeSpec(mass=1.0, omega=1.0, dim=8) for _ in range(n))
    full = HamiltonianSpec(modes=full_modes, potential=pot)
    psi_full = coherent_product(full_modes, [0.6] * n, [0.3 / n] * n)
    traj_full = evolve_quantum(psi_full, full, t_final=2.0, dt=0.1)

    eff_modes = effective_cm_system(n, 1.0, dim=32)
    eff = HamiltonianSpec(modes=tuple(eff_modes), potential=pot)
    psi_eff = coherent_state(eff_modes[0], 0.6, 0.3)
    traj_eff = evolve_quantum(psi_eff, eff, t_final=2.0, dt=0.1)

    assert np.abs(traj_full.x_cm - traj_eff.x_cm).max() < 1e-6
    assert np.abs(traj_full.v_cm - traj_eff.v_cm).max() < 1e-6


def test_gaussian_spreading_matches_analytic():
    assert gaussian_spreading(1, 1.0, 0.0) == pytest.approx(math.sqrt(0.5), abs=1e-9)
    for t in (0.5, 1.0):
        measured = gaussian_spreading(1, 1.0, t)
        assert measured == pytest.approx(free_width_analytic(1, 1.0, t), abs=1e-6)


def test_gaussian_spreading_scale_invariance():
    t = 1.0
    scaled = [gaussian_spreading(n, 1.0, t) * math.sqrt(n) for n in (1, 4, 16)]
    assert max(scaled) - min(scaled) < 1e-6
    for n in (4, 16):
        measured = gaussian_spreading(n, 1.0, t)
        assert measured == pytest.approx(free_width_analytic(n, 1.0, t), abs=1e-6)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_trajectory_csv_contract():
    spec = effective_spec(2, potential=FREE)
    psi0 = coherent_state(spec.modes[0], 1.0, 1.0)
    traj = evolve_quantum(psi0, spec, t_final=1.0, dt=0.25)
    text = trajectory_to_csv(traj)
    lines = text.split("\n")
    assert lines[0] == "t,x_cm,v_cm,dx,dv,energy,norm,trunc_weight"
    assert lines[-1] == ""  # trailing LF
    assert len(lines) == 2 + len(traj.times)
    assert "\r" not in text
    final = lines[-2].split(",")
    assert final[0] == "1"
    assert final[1] == "1.5"
    # 12 significant digits
    assert float(final[3]) == pytest.approx(traj.records[-1].dx, rel=1e-11)


def test_trajectory_csv_prints_weight_at_fixed_resolution():
    def record(weight):
        return ExpectationRecord(x_cm=0.0, v_cm=0.0, dx=1.0, dv=1.0,
                                 commutator_expectation=1j, factorization_residual=0.5,
                                 truncation_weight=weight)

    weights = (6.06459797909e-48, 4.9e-16, 5.1e-16, 1.234567891234e-7, 0.0)
    traj = Trajectory(times=(0.0, 1.0, 2.0, 3.0, 4.0), records=tuple(map(record, weights)),
                      energies=(0.5,) * 5, norms=(1.0,) * 5,
                      amplitudes=np.zeros((5, 0), dtype=np.complex128), hbar=1.0,
                      total_mass=1.0)
    printed = [line.split(",")[-1] for line in trajectory_to_csv(traj).splitlines()[1:]]
    assert printed == ["0", "0", "1e-15", "1.23456789e-07", "0"]


def test_evolve_weight_column_independent_of_blas_threads():
    # LAPACK's eigh itself rounds differently with 1 and 2 BLAS threads, so a
    # 12-digit column can still flip its last digit; the weight, printed at a
    # fixed absolute resolution, must not change at all
    argv = [sys.executable, "-m", "cmlimit", "evolve", "--potential", "0.1*x^4", "--N", "16",
            "--model", "effective", "--dim", "1024", "--t", "2", "--dt", "0.01"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
        outputs.append(run.stdout.split("# classical")[0].splitlines()[2:])
    one, two = outputs
    assert len(one) == len(two) == 201
    for row1, row2 in zip(one, two):
        cells1, cells2 = row1.split(","), row2.split(",")
        assert cells1[-1] == cells2[-1]
        for a, b in zip(cells1[:-1], cells2[:-1]):
            assert float(a) == pytest.approx(float(b), rel=1e-11, abs=1e-15)
