"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every criterion asserts at its stated tolerance and time budget.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from cmlimit.ccr_algebra import (
    GaussianRational,
    Monomial,
    NCPolynomial,
    ParticleSystem,
    build_particle_algebra,
    cm_algebra,
    cm_observables,
    commutator,
    eps_valuation,
    residual_monomial_identity,
    residual_poisson,
    residual_power_identity,
    scale_central,
)
from cmlimit.cli import main, parse_potential
from cmlimit.dynamics import (
    HamiltonianSpec,
    PolynomialPotential,
    compare_trajectories,
    effective_cm_system,
    evolve_classical,
    evolve_quantum,
)
from cmlimit.hilbert_rep import (
    ModeSpec,
    cm_expectation_record,
    cm_operators_numeric,
    coherent_state,
    uncertainty_product,
)
from oracles import (
    composite_product,
    composite_record,
    free_width_analytic,
    gaussian_spreading,
    ground_product,
    lift,
    poisson_bracket,
    poly_matrix,
    random_masses,
    random_polynomial,
    render_potential,
    symbol_map,
)

ALG = cm_algebra()
X, V = ALG.x(), ALG.v()
I = GaussianRational(0, 1)


def report(number, label, ok, budget, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d}: {status} - {label} [{elapsed:.2f}s]")
    assert ok, f"criterion {number} failed: {label}"
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_exact_cm_commutators():
    start = time.perf_counter()
    rng = random.Random(2024)
    ok = True
    for _ in range(20):
        n = rng.randint(1, 64)
        system = ParticleSystem(masses=random_masses(rng, n))
        algebra = build_particle_algebra(system)
        x_cm, v_cm, p_tot = cm_observables(system, algebra)
        expected_xv = NCPolynomial(
            algebra, {Monomial(1, 0, ()): GaussianRational(0, 1 / system.total_mass)}
        )
        expected_xp = NCPolynomial(algebra, {Monomial(1, 0, ()): I})
        ok = ok and commutator(x_cm, v_cm) == expected_xv
        ok = ok and commutator(x_cm, p_tot) == expected_xp
    report(1, "exact [X_CM,V_CM] = i*hbar/M and [X_CM,P_TOT] = i*hbar, 20 random mass vectors",
           ok, 5.0, time.perf_counter() - start)


def test_criterion_2_power_identity_residuals():
    start = time.perf_counter()
    ok = True
    for n in range(1, 7):
        for m in range(1, 7):
            residual = residual_power_identity(n, m)
            ok = ok and eps_valuation(residual) >= 2
            if n == 1 or m == 1:
                ok = ok and residual.is_zero
    report(2, "power-identity residuals have eps-valuation >= 2 on the 6x6 grid, exact",
           ok, 2.0, time.perf_counter() - start)


def test_criterion_3_monomial_identity_residuals():
    start = time.perf_counter()
    ok = all(
        eps_valuation(residual_monomial_identity(a, b, c, d)) >= 2
        for a in range(4) for b in range(4) for c in range(4) for d in range(4)
    )
    report(3, "monomial-identity residuals have eps-valuation >= 2 on the 4^4 grid, exact",
           ok, 10.0, time.perf_counter() - start)


def test_criterion_4_poisson_reduction():
    start = time.perf_counter()
    rng = random.Random(4096)
    ok = True
    for _ in range(100):
        f = random_polynomial(rng, ALG, max_degree=4)
        g = random_polynomial(rng, ALG, max_degree=4)
        ok = ok and eps_valuation(residual_poisson(f, g)) >= 2
    report(4, "commutator minus i*hbar*eps*{f,g} has eps-valuation >= 2, 100 random pairs",
           ok, 30.0, time.perf_counter() - start)


def test_criterion_5_matrix_oracle_equivalence():
    # d = 48 oscillator matrices, hbar = 1, eps = 1/4, top 12 levels projected
    # out; case degrees stay where double precision resolves 1e-10.
    start = time.perf_counter()
    hbar, eps, dim = 1.0, 0.25, 48
    safe = slice(0, dim - 12)
    x_op, v_op, _ = cm_operators_numeric(ModeSpec(mass=1 / eps, dim=dim), 1)
    x_mat, v_mat = x_op.to_dense(), v_op.to_dense()

    def ev(poly):
        return poly_matrix(poly, [(x_mat, v_mat)], hbar, eps)

    def block_close(a, b):
        return np.abs(a[safe, safe] - b[safe, safe]).max() <= 1e-10

    checks = []
    # criterion-1 flavor: the CM pair commutator and the P_TOT = V/eps variant
    checks.append(block_close(ev(commutator(X, V)), x_mat @ v_mat - v_mat @ x_mat))
    p_mat = v_mat * (1.0 / eps)
    checks.append(block_close(ev(commutator(X, V * 4)), x_mat @ p_mat - p_mat @ x_mat))

    def power_direct(n, m):
        xn, vm = ev(X**n), ev(V**m)
        x1, v1 = ev(X), ev(V)
        lhs = xn @ vm - vm @ xn
        numerator = (xn @ v1 - v1 @ xn) @ (x1 @ vm - vm @ x1)
        return lhs - numerator / (1j * hbar * eps)

    for n, m in ((2, 2), (4, 3), (6, 1)):
        checks.append(block_close(ev(residual_power_identity(n, m)), power_direct(n, m)))

    def monomial_direct(a, b, c, d):
        f = ev(ALG.ordered_monomial(a, b))
        g = ev(ALG.ordered_monomial(c, d))
        x1, v1 = ev(X), ev(V)
        lhs = f @ g - g @ f
        numerator = (f @ v1 - v1 @ f) @ (x1 @ g - g @ x1) \
            - (g @ v1 - v1 @ g) @ (x1 @ f - f @ x1)
        return lhs - numerator / (1j * hbar * eps)

    for a, b, c, d in ((2, 0, 0, 2), (2, 1, 1, 2), (3, 2, 1, 3)):
        checks.append(block_close(
            ev(residual_monomial_identity(a, b, c, d)), monomial_direct(a, b, c, d)
        ))

    rng = random.Random(99)
    for index in range(3):
        f = random_polynomial(rng, ALG, max_degree=3)
        g = random_polynomial(rng, ALG, max_degree=3)
        if index == 1:
            continue  # keep the sample at 10 cases total
        fm, gm = ev(f), ev(g)
        bracket = poisson_bracket(symbol_map(f), symbol_map(g))
        direct = fm @ gm - gm @ fm - ev(scale_central(lift(bracket), 1, 1))
        checks.append(block_close(ev(residual_poisson(f, g)), direct))

    ok = len(checks) == 10 and all(checks)
    report(5, "10 sampled identities agree with d=48 matrix evaluation within 1e-10",
           ok, None, time.perf_counter() - start)


def test_criterion_6_uncertainty_saturation_and_scaling():
    # on the occupation basis of the N modes, and on their composite index
    # through the oracle's Kronecker sums
    start = time.perf_counter()
    ok = True
    for n in range(1, 6):
        mode = ModeSpec(mass=1.0, dim=8)
        psi = ground_product(mode, n)
        x_cm, v_cm, _ = cm_operators_numeric(mode, n)
        composite = composite_record(
            composite_product([coherent_state(mode, 0.0, 0.0)] * n).amplitudes, [mode] * n)
        for product, residual in (
                (uncertainty_product(x_cm, v_cm, psi),
                 cm_expectation_record(psi, mode).factorization_residual),
                (composite.dx * composite.dv, composite.factorization_residual)):
            ok = ok and abs(product - 1.0 / (2 * n)) < 1e-9
            ok = ok and abs(residual * n - 0.5) < 1e-9
    report(6, "coherent ground products saturate hbar/(2 N mbar); residual*N*mbar = hbar/2",
           ok, 10.0, time.perf_counter() - start)


def test_criterion_7_ehrenfest_exactness_harmonic():
    start = time.perf_counter()
    n, mbar = 4, 1.0
    total_mass = n * mbar
    mode = effective_cm_system(n, mbar, dim=64)
    potential = PolynomialPotential.from_coeffs({2: 0.5 * total_mass})  # Omega = 1
    spec = HamiltonianSpec(mode, 1, potential)
    psi0 = coherent_state(mode, 1.0, 0.0)
    steps = 800
    traj = evolve_quantum(psi0, spec, t_final=4 * math.pi, dt=4 * math.pi / steps)
    worst = max(abs(x - math.cos(t)) for t, x in zip(traj.times, traj.x_cm))
    ok = worst < 1e-6 and traj.norm_drift < 1e-8
    report(7, f"harmonic <X_CM>(t) tracks cos t within 1e-6 over [0,4pi] (worst {worst:.2e})",
           ok, 30.0, time.perf_counter() - start)


def test_criterion_8_classical_limit_scaling():
    start = time.perf_counter()
    potential = PolynomialPotential.from_coeffs({4: 0.1})
    deviations = []
    for k in range(5):
        total_mass = 2**k
        mode = effective_cm_system(total_mass, 1.0, dim=160)
        spec = HamiltonianSpec(mode, 1, potential)
        psi0 = coherent_state(mode, 1.0, 0.0)
        traj = evolve_quantum(psi0, spec, t_final=2.0, dt=0.01)
        classical = evolve_classical(potential, float(total_mass), 1.0, 0.0, 2.0, 0.01)
        deviations.append(compare_trajectories(traj, classical).final_x_deviation)
    ok = all(deviations[k] > deviations[k + 1] for k in range(4))
    pretty = ", ".join(f"{d:.4f}" for d in deviations)
    report(8, f"quartic quantum-classical deviation at t=2 decreases in mass ({pretty})",
           ok, 60.0, time.perf_counter() - start)


def test_criterion_9_gaussian_spreading():
    start = time.perf_counter()
    ok = True
    for t in (0.5, 1.0):
        scaled = []
        for n in (1, 4, 16):
            measured = gaussian_spreading(n, 1.0, t)
            ok = ok and abs(measured - free_width_analytic(n, 1.0, t)) < 1e-6
            scaled.append(measured * math.sqrt(n))
        ok = ok and max(scaled) - min(scaled) < 1e-6
    report(9, "free-packet width matches the analytic law; width*sqrt(N*mbar) is N-independent",
           ok, 20.0, time.perf_counter() - start)


def test_criterion_10_harness_contract(tmp_path):
    start = time.perf_counter()
    rng = random.Random(10)
    ok = True
    for _ in range(100):
        coeffs = {
            rng.randint(0, 8): Fraction(rng.randint(-20, 20), rng.randint(1, 12))
            for _ in range(rng.randint(0, 5))
        }
        p = PolynomialPotential.from_coeffs(coeffs)
        ok = ok and parse_potential(render_potential(p)) == p

    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    argv = ["residuals", "--max-degree", "3", "--samples", "10", "--seed", "3"]
    ok = ok and main(argv + ["--out", str(first)]) == 0
    ok = ok and main(argv + ["--out", str(second)]) == 0
    ok = ok and first.read_bytes() == second.read_bytes()

    ok = ok and main(["evolve", "--potential", "x^-1"]) == 1
    ok = ok and main(["scaling", "--config", str(tmp_path / "missing.cfg")]) == 1
    ok = ok and main(["uncertainty", "--N", "2", "--dim", "8", "--x0", "100",
                      "--out", str(tmp_path / "flagged.csv")]) == 2
    report(10, "parser round-trip, byte-identical reruns, exit codes 1/1/2 on crafted failures",
           ok, 5.0, time.perf_counter() - start)
