"""Tests for quantum/classical propagation and their comparison."""

import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import connected_components

import cmlimit.dynamics as dynamics
from cmlimit.cli import ExperimentResult, _render_csv, _trajectory_table
from cmlimit.dynamics import (
    HamiltonianSpec,
    Trajectory,
    NormDriftError,
    PolynomialPotential,
    TimeGridMismatchError,
    build_hamiltonian,
    compare_trajectories,
    effective_cm_system,
    evolve_classical,
    evolve_quantum,
    free_width_analytic,
    gaussian_spreading,
)
from cmlimit.hilbert_rep import (
    DimensionCapError,
    ExcessiveTruncationError,
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
from oracles import diagonals, sparse_hamiltonian

FREE = PolynomialPotential.zero()
QUARTIC = PolynomialPotential.from_coeffs({4: 0.1})


def harmonic(total_mass, big_omega=1.0):
    return PolynomialPotential.from_coeffs({2: 0.5 * total_mass * big_omega**2})


def effective_spec(n, mbar=1.0, potential=FREE, dim=64):
    modes = effective_cm_system(n, mbar, dim=dim)
    return HamiltonianSpec(modes=tuple(modes), potential=potential)


def evolved_rows(monkeypatch, psi0, spec, t_final, dt):
    """The trajectory of ``evolve_quantum`` and its blocks of rows exp(-iH t/hbar) psi0,
    as its sample loop formed them, each a copy taken at its evaluation."""
    blocks, weights = [], dynamics.truncation_weights
    monkeypatch.setattr(dynamics, "truncation_weights",
                        lambda block, dims: blocks.append(block.copy()) or weights(block, dims))
    traj = evolve_quantum(psi0, spec, t_final=t_final, dt=dt)
    monkeypatch.setattr(dynamics, "truncation_weights", weights)
    return traj, blocks


def sampled_rows(monkeypatch, psi0, spec, t_final, dt):
    """All rows of ``evolve_quantum``'s sample loop, its blocks concatenated."""
    return np.concatenate(evolved_rows(monkeypatch, psi0, spec, t_final, dt)[1])


def complex_gemm_rows(h, psi0, dt, n_steps, hbar):
    """The rows as the sampler formed them before: one eigh per connected block of
    H's sparsity graph, and the complex phases times the eigenvectors as a complex GEMM."""
    real = h.matrix.real
    n_blocks, labels = connected_components(real, directed=False)
    times = dt * np.arange(n_steps + 1)
    rows = np.empty((len(times), h.dim), dtype=np.complex128)
    for block in range(n_blocks):
        index = np.flatnonzero(labels == block)
        evals, evecs = scipy.linalg.eigh(real[index][:, index].toarray(), driver="evd")
        coeffs = evecs.T @ psi0.amplitudes[index]
        rows[:, index] = (np.exp(np.outer(times, evals) * (-1j / hbar)) * coeffs) @ evecs.T
    return rows


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
    # <0|P^2/2|0> = hbar m / 4 in the unit-frequency basis
    assert expectation(h, basis_state(16)).real == pytest.approx(0.25, abs=1e-12)


def test_harmonic_spectrum_matched_basis():
    for total_mass in (1.0, 2.0):
        spec = effective_spec(int(total_mass), potential=harmonic(total_mass), dim=32)
        h = build_hamiltonian(spec)
        evals = np.linalg.eigvalsh(h.to_dense())
        n = np.arange(16)
        assert np.abs(np.sort(evals)[:16] - (n + 0.5)).max() < 1e-8


def test_hamiltonian_of_a_high_degree_potential_holds_one_power():
    # at mass 16 and d = 8 no power of X_CM up to the 64th vanishes: held
    # together until the terms are added, they took 5.1 MB
    modes = tuple(ModeSpec(mass=16.0, dim=8) for _ in range(2))
    spec = HamiltonianSpec(modes, PolynomialPotential.from_coeffs({64: 1}))
    ops = cm_operators_numeric(modes)
    tracemalloc.start()
    try:
        build_hamiltonian(spec, ops=ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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


@pytest.mark.parametrize("n, dim", [(1, 8), (3, 24), (16, 64), (40, 160)])
def test_one_mode_hamiltonian_equals_folded_build(n, dim):
    # a one-mode operator is its own matrix; folding it with a 1x1 zero, as a
    # Kronecker sum of several modes is folded, gives the same H bit for bit
    spec = effective_spec(n, potential=PolynomialPotential.from_coeffs({4: 1, 2: -2, 0: 1}),
                          dim=dim)
    ops = cm_operators_numeric(spec.modes)
    zero = scipy.sparse.csr_matrix((1, 1), dtype=np.complex128)
    folded = tuple(
        SparseOperator(op.mode_dims,
                       [diagonals(scipy.sparse.kronsum(op.matrix, zero, format="csr"))],
                       hermitian=True)
        for op in ops
    )
    h = build_hamiltonian(spec, ops=ops).matrix
    h_folded = build_hamiltonian(spec, ops=folded).matrix
    for part in ("data", "indices", "indptr"):
        assert getattr(h, part).tobytes() == getattr(h_folded, part).tobytes()


def test_powers_stop_at_the_first_zero_power():
    # X_CM of mass 1e6 underflows to the zero matrix within a few hundred powers,
    # so x^100000 adds nothing to H and must not cost 100,000 sparse products
    modes = tuple(effective_cm_system(1, 1e6, dim=8))
    start = time.perf_counter()
    h = build_hamiltonian(HamiltonianSpec(modes=modes,
                                          potential=PolynomialPotential.from_coeffs({100000: 1})))
    assert time.perf_counter() - start < 2.0
    free = build_hamiltonian(HamiltonianSpec(modes=modes, potential=FREE))
    for part in ("data", "indices", "indptr"):
        assert getattr(h.matrix, part).tobytes() == getattr(free.matrix, part).tobytes()


_MASS = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))
_COEFFS = st.dictionaries(st.integers(0, 4), st.builds(Fraction, st.integers(-9, 9),
                                                        st.integers(1, 9)), max_size=4)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.one_of(
    st.lists(st.tuples(_MASS, st.integers(2, 64)), min_size=1, max_size=1),
    st.lists(st.tuples(_MASS, st.integers(2, 12)), min_size=2, max_size=3),
), _COEFFS)
@example([(Fraction(1), 10)] * 3, {2: Fraction(1, 2)})  # a benchmark full-model shape
@example([(Fraction(1, 3), 5), (Fraction(2), 5)], {2: Fraction(1, 2), 1: Fraction(1, 5)})
def test_numpy_hamiltonian_matches_sparse_assembly(modes_drawn, coeffs):
    # H of one mode or of a quadratic potential is the CSR assembly bit for
    # bit; a cubic or quartic power on several modes may add an entry's
    # products in another order
    modes = tuple(ModeSpec(mass=float(m), dim=d) for m, d in modes_drawn)
    spec = HamiltonianSpec(modes=modes, potential=PolynomialPotential.from_coeffs(coeffs))
    ops = cm_operators_numeric(modes)
    h = build_hamiltonian(spec, ops=ops).matrix.toarray()
    csr = sparse_hamiltonian(spec, ops).toarray()
    assert not h.imag.any()
    if len(modes) == 1 or spec.potential.degree <= 2:
        assert np.array_equal(h, csr)
    else:
        assert np.abs(h - csr).max() <= 1e-15 * np.abs(csr).max()


def test_hamiltonian_dimension_cap():
    modes = tuple(ModeSpec(mass=1.0, dim=128) for _ in range(3))
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
    assert abs(traj.x_cm[-1] - 1.0) < 1e-6
    errors = [abs(x - math.cos(t)) for t, x in zip(traj.times, traj.x_cm)]
    assert max(errors) < 1e-6


def test_norm_drift_raises():
    spec = effective_spec(1, potential=QUARTIC)
    amps = coherent_state(spec.modes[0], 1.0, 0.0).amplitudes * (1.0 + 5e-7)
    psi0 = StateVector(amps.shape, amps)  # within StateVector's 1e-6 sanity bound
    with pytest.raises(NormDriftError, match=r"at t = 0\.0$"):
        evolve_quantum(psi0, spec, t_final=1.0, dt=0.1)


def _full_spec(potential, n=2, dim=10):
    return HamiltonianSpec(modes=tuple(ModeSpec(mass=1.0, dim=dim) for _ in range(n)),
                           potential=potential)


LINEAR_HARMONIC = PolynomialPotential.from_coeffs({2: 0.5, 1: 0.2})
CUBIC_HARMONIC = PolynomialPotential.from_coeffs({3: 0.05, 2: 0.5})
QUARTIC_CUBIC = PolynomialPotential.from_coeffs({4: 0.1, 3: 0.05, 2: 0.5})
DOUBLE_WELL = PolynomialPotential.from_coeffs({4: 1, 2: -2, 0: 1})


def test_propagators_agree(monkeypatch):
    # one mode, and several; the energy column is _cm_energies on both samplers
    effective = effective_spec(1, potential=QUARTIC, dim=32)
    full = _full_spec(QUARTIC_CUBIC, dim=8)
    dense_limit = dynamics.EIG_DIMENSION_LIMIT
    for spec, psi0 in ((effective, coherent_state(effective.modes[0], 0.5, 0.0)),
                       (full, coherent_product(full.modes, [0.5, 0.5], [0.0, 0.0]))):
        h = build_hamiltonian(spec)
        times = 0.05 * np.arange(21)
        dense = np.zeros((21, h.dim), dtype=np.complex128)
        for index in dynamics._blocks(h):
            columns, sample = dynamics._eigh_sampler(h, index, psi0.amplitudes, times, spec.hbar)
            dense[:, columns] = sample(slice(None))
        columns, sample = dynamics._krylov_sampler(h, psi0.amplitudes, times, spec.hbar)
        assert columns == slice(None)
        sparse = sample(slice(None))
        assert dense.shape == sparse.shape == (21, h.dim)
        assert np.abs(dense - sparse).max() < 1e-10
        # the block seams of evolve_quantum's loop leave the rows alone, on both
        # samplers (a limit of 0 puts this H above it); one-row blocks take BLAS's
        # matrix-vector path, which may round the last bit differently
        for limit, whole in ((dense_limit, dense), (0, sparse)):
            monkeypatch.setattr(dynamics, "EIG_DIMENSION_LIMIT", limit)
            for rows in (1, 7, 21):
                monkeypatch.setattr(dynamics, "SAMPLE_BLOCK_AMPLITUDES", rows * h.dim)
                traj, blocks = evolved_rows(monkeypatch, psi0, spec, 1.0, 0.05)
                assert [len(block) for block in blocks] == [rows] * (21 // rows)
                if limit:
                    assert np.abs(np.concatenate(blocks) - whole).max() <= 1e-14
                else:
                    assert np.array_equal(np.concatenate(blocks), whole)
                    energy = expectation(h, np.concatenate(blocks)).real
                    assert np.abs(traj.energy - energy).max() <= 1e-14 * np.abs(energy).max()


def _blocks(spec):
    return connected_components(build_hamiltonian(spec).matrix.real, directed=False)[0]


@pytest.mark.parametrize("spec, split", [
    (effective_spec(2, potential=QUARTIC, dim=48), True),
    (effective_spec(2, potential=LINEAR_HARMONIC, dim=48), False),
    (_full_spec(harmonic(2.0)), True),
    (_full_spec(LINEAR_HARMONIC), False),
    (effective_spec(1, potential=harmonic(1.0), dim=48), True),
    (effective_spec(2, potential=CUBIC_HARMONIC, dim=48), False),
    (_full_spec(QUARTIC_CUBIC, dim=8), False),
    (effective_spec(2, potential=DOUBLE_WELL, dim=48), True),  # U(0) = 1: the k = 0 term
], ids=["effective-even", "effective-linear", "full-even", "full-linear", "effective-diagonal",
        "effective-cubic", "full-quartic-cubic", "effective-double-well"])
def test_evolve_quantum_matches_dense_exponential(spec, split, monkeypatch):
    # an even potential splits H at least into its two parity sectors, each
    # diagonalized on its own (a diagonal H is one graph component per level,
    # and still two sectors); an odd term couples them into one block
    assert (_blocks(spec) > 1) == split
    psi0 = coherent_product(spec.modes, [0.4] * len(spec.modes), [0.1] * len(spec.modes))
    h = build_hamiltonian(spec)
    monkeypatch.setattr(dynamics, "SAMPLE_BLOCK_AMPLITUDES", 3 * h.dim)  # 7 blocks of 3 rows
    eigh, eighs = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: eighs.append(1) or eigh(*a, **k))
    traj, blocks = evolved_rows(monkeypatch, psi0, spec, 1.0, 0.05)
    rows = np.concatenate(blocks)
    assert len(eighs) == (2 if split else 1)
    # one real GEMM rounds like the complex GEMM it replaced, to a few ulps
    assert np.abs(rows - complex_gemm_rows(h, psi0, 0.05, 20, spec.hbar)).max() <= 1e-14
    # the energy column is <psi|H|psi> of the same rows, on either model
    energy = expectation(h, rows).real
    assert np.abs(traj.energy - energy).max() <= 1e-14 * np.abs(energy).max()
    dense = h.to_dense()
    for k in (0, 1, 7, 20):
        t = traj.times[k]
        exact = scipy.linalg.expm(-1j * dense * t / spec.hbar) @ psi0.amplitudes
        assert np.abs(rows[k] - exact).max() < 1e-10
        expected = cm_expectation_record(StateVector(psi0.mode_dims, exact), spec.modes)
        for field in ("x_cm", "v_cm", "dx", "dv"):
            assert abs(getattr(traj, field)[k] - getattr(expected, field)) < 1e-10


def sector_eighs(monkeypatch):
    """The sizes of the ``eigh``s each ``_eigh_sampler`` call runs, one list per call."""
    eigh, sampler, sectors = np.linalg.eigh, dynamics._eigh_sampler, []
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a, *args, **kw: sectors[-1].append(len(a)) or eigh(a, *args, **kw))
    monkeypatch.setattr(dynamics, "_eigh_sampler",
                        lambda *args: sectors.append([]) or sampler(*args))
    return sectors


@pytest.mark.parametrize("n, potential", [(16, QUARTIC), (32, DOUBLE_WELL)],
                         ids=["quartic", "double-well"])
def test_eigh_sampler_diagonalizes_a_certified_level_cut(n, potential, monkeypatch):
    # the CM packet of mass N lives on a few dozen levels of the 1024, so each
    # 512-row parity sector is sampled from a cut of at most half its rows
    spec = effective_spec(n, potential=potential, dim=1024)
    psi0 = coherent_state(spec.modes[0], 1.0, 0.0)
    sectors = sector_eighs(monkeypatch)
    rows = sampled_rows(monkeypatch, psi0, spec, 2.0, 0.01)
    assert len(sectors) == 2 and all(sizes[-1] <= 256 for sizes in sectors)
    h = build_hamiltonian(spec)
    assert np.abs(rows - complex_gemm_rows(h, psi0, 0.01, 200, spec.hbar)).max() <= 1e-13


def test_eigh_sampler_without_a_certified_cut_is_the_whole_sector(monkeypatch):
    # |alpha|^2 = 32 fills half of each 80-row sector: no cut is kept, and the
    # rows are those of the whole sectors, bit for bit
    spec = effective_spec(64, potential=QUARTIC, dim=160)
    psi0 = coherent_state(spec.modes[0], 1.0, 0.0)
    sectors = sector_eighs(monkeypatch)
    rows = sampled_rows(monkeypatch, psi0, spec, 2.0, 0.01)
    assert [sizes[-1] for sizes in sectors] == [80, 80]
    monkeypatch.setattr(dynamics, "CUT_TOLERANCE", -1.0)  # no cut certifies
    assert np.array_equal(rows, sampled_rows(monkeypatch, psi0, spec, 2.0, 0.01))


def test_non_finite_cut_bound_never_certifies():
    # t/hbar overflows: an infinite bound, or a NaN one (inf * 0 where psi0 is
    # zero in the block), keeps no cut, where a finite t/hbar keeps one
    spec = effective_spec(16, potential=QUARTIC, dim=1024)
    h = build_hamiltonian(spec)
    block = h.to_dense().real
    top = np.arange(h.dim)
    for amps in (coherent_state(spec.modes[0], 1.0, 0.0).amplitudes, np.zeros(h.dim)):
        assert dynamics._level_cut(block, top, amps, 2.0, 1.0)[0].sum() <= h.dim // 2
        assert dynamics._level_cut(block, top, amps, 2.0, 5e-324)[0] == slice(None)
        assert dynamics._level_cut(block, top, amps, np.inf, 1.0)[0] == slice(None)


_SAMPLER_COEFFS = st.dictionaries(st.integers(0, 4), st.floats(-1, 1, allow_nan=False),
                                  min_size=1, max_size=5)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_SAMPLER_COEFFS, st.integers(32, 256), st.integers(1, 64), st.floats(0, 1.5),
       st.floats(0, 2), st.integers(1, 20))
@example({4: 0.1}, 256, 16, 1.0, 2.0, 20)  # a cut on both parity sectors
@example({4: 0.1, 3: 0.3}, 256, 16, 1.0, 2.0, 20)  # a cut of all of H
@example({4: 1.0, 2: -2.0, 0: 1.0}, 256, 32, 1.2, 2.0, 10)
def test_eigh_sampler_rows_within_the_cut_tolerance(coeffs, dim, n, x0, t_final, steps):
    # the certificate is an honest bound: whether a cut is kept or not, every
    # sampled row is the exact exponential's within it, as far as rounding shows
    spec = effective_spec(n, potential=PolynomialPotential.from_coeffs(coeffs), dim=dim)
    try:
        psi0 = coherent_state(spec.modes[0], x0, 0.0)
    except ExcessiveTruncationError:
        assume(False)
    h = build_hamiltonian(spec)
    dt = t_final / steps
    times = dt * np.arange(steps + 1)
    rows = np.zeros((steps + 1, dim), dtype=np.complex128)
    for index in dynamics._blocks(h):
        columns, sample = dynamics._eigh_sampler(h, index, psi0.amplitudes, times, spec.hbar)
        rows[:, columns] = sample(slice(None))
    oracle = complex_gemm_rows(h, psi0, dt, steps, spec.hbar)
    assert np.abs(rows - oracle).max() <= dynamics.CUT_TOLERANCE + 1e-13


def _banded(d, band, scale, seed):
    """A random real symmetric band of half-width ``band`` as ``{offset: values}``."""
    rng = np.random.default_rng(seed)
    upper = np.triu(np.tril(rng.uniform(-scale, scale, (d, d)), band))
    return diagonals(upper + np.triu(upper, 1).T)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(1, 100), st.integers(0, 3), st.floats(0.1, 50), st.floats(0.5, 2),
       st.floats(0.01, 1), st.integers(1, 8), st.integers(0, 2**32 - 1))
@example(100, 3, 50.0, 0.5, 1.0, 8, 0)  # bases that certify no sample: halved substeps
@example(1, 0, 1.0, 1.0, 0.5, 8, 0)  # a one-level H is its own invariant subspace
def test_krylov_sampler_rows_match_the_dense_exponential(d, band, scale, hbar, dt, steps, seed):
    # each basis certifies its samples at 1e-14 by its error estimate; the rows
    # stay within 1e-11 of the exact exponential, in any row blocks
    h = SparseOperator((d,), [_banded(d, band, scale, seed)], hermitian=True)
    rng = np.random.default_rng(seed + 1)
    psi0 = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi0 /= np.linalg.norm(psi0)
    times = dt * np.arange(steps + 1)
    columns, sample = dynamics._krylov_sampler(h, psi0, times, hbar)
    rows = np.concatenate([sample(slice(k, k + 3)) for k in range(0, steps + 1, 3)])
    assert columns == slice(None) and rows.shape == (steps + 1, d)
    dense = h.to_dense()
    for t, row in zip(times, rows):
        assert np.abs(row - scipy.linalg.expm(dense * (-1j * t / hbar)) @ psi0).max() < 1e-11


@pytest.mark.parametrize("entry, hbar", [(np.inf, 1.0), (np.nan, 1.0), (1e308, 1e-10)],
                         ids=["infinite", "nan", "overflows-over-hbar"])
def test_krylov_sampler_refuses_a_non_finite_coefficient(entry, hbar):
    h = SparseOperator((4,), [{-1: np.array([0.0, 1, 1, 1]), 0: np.array([entry, 1, 1, 1]),
                               1: np.array([1.0, 1, 1, 0])}])
    _, sample = dynamics._krylov_sampler(h, np.full(4, 0.5 + 0j), np.array([0.0, 0.1]), hbar)
    with pytest.raises(OverflowError, match="floating-point range"):
        sample(slice(None))


@pytest.mark.parametrize("start, max_steps", [(0.0, 2), (2.0**60, dynamics.MAX_STEPS)],
                         ids=["too-many-substeps", "substep-below-the-ulp-of-t"])
def test_krylov_sampler_refuses_a_run_it_cannot_finish(monkeypatch, start, max_steps):
    # no basis certifies the next sample, so the sampler takes halved substeps:
    # more than MAX_STEPS of them, or one that t + step rounds away (the ulp of
    # 2^60 is 256), refuse
    monkeypatch.setattr(dynamics, "MAX_STEPS", max_steps)
    h = SparseOperator((100,), [_banded(100, 3, 50.0, 0)], hermitian=True)
    _, sample = dynamics._krylov_sampler(h, basis_state(100).amplitudes,
                                         np.array([start, start + 1024.0]), 0.5)
    with pytest.raises(OverflowError, match=f"more than {max_steps} substeps"):
        sample(slice(None))


def test_evolve_does_not_import_csgraph():
    # the parity sectors are read off H's entries; no graph search is loaded.
    # Nor is any scipy module at all, on either side of the dense limit: H and
    # the CM operators are numpy diagonals, numpy's eigh diagonalizes H below
    # the limit and its Lanczos sampler applies it above, math.lgamma builds
    # the coherent states, and nc_matrix multiplies the same numpy diagonals
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; from cmlimit.cli import main; "
            "code = main(['evolve', '--potential', 'x^4-2*x^2+1', '--N', '4', '--dim', '64', "
            "'--t', '0.1', '--dt', '0.05', '--x0', '0.5']); "
            "code += main(['evolve', '--potential', '0.5*x^2 + 0.05*x', '--model', 'full', "
            "'--N', '2', '--dim', '12', '--t', '0.1', '--dt', '0.05', '--x0', '0.3']); "
            "code += main(['uncertainty', '--N', '1,2', '--dim', '8', '--x0', '0.3']); "
            "code += main(['evolve', '--potential', '0.1*x^4+0.3*x^3', '--N', '16', "
            "'--dim', '2100', '--t', '0.02', '--dt', '0.01', '--x0', '0.5']); "
            "code += main(['evolve', '--potential', '0.5*x^2 + 0.05*x', '--model', 'full', "
            "'--N', '2', '--dim', '46', '--t', '0.02', '--dt', '0.01', '--x0', '0.3']); "
            "from cmlimit.ccr_algebra import cm_algebra; "
            "from cmlimit.hilbert_rep import cm_pair_ops, nc_matrix; "
            "X, V = cm_algebra().x(), cm_algebra().v(); "
            "nc_matrix(X**2 + V, [cm_pair_ops(0.25, 8)], 1.0, 0.25).to_dense(); "
            "print(code, *[name for name in sys.modules if name.split('.')[0] == 'scipy'], "
            "file=sys.stderr)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert run.stderr.split() == ["0"]


def test_gates_raise_at_the_first_failing_sample(monkeypatch):
    spec = effective_spec(1, dim=8)
    psi0 = basis_state(8)
    good, top = psi0.amplitudes, basis_state(8, n=7).amplitudes

    def propagate(*blocks):
        # one sampler of all of H, returning these rows in blocks of the first's size
        rows = np.concatenate(blocks)
        monkeypatch.setattr(dynamics, "SAMPLE_BLOCK_AMPLITUDES", len(blocks[0]) * 8)
        monkeypatch.setattr(dynamics, "_blocks", lambda h: [slice(None)])
        monkeypatch.setattr(dynamics, "_eigh_sampler",
                            lambda h, index, *args: (index, rows.__getitem__))

    # sample 1 fails the weight gate, sample 2 the norm gate
    propagate([good, top, 2 * good, good])
    with pytest.raises(ExcessiveTruncationError, match=r"weight 1 exceeds .* at t = 0\.1$"):
        evolve_quantum(psi0, spec, t_final=0.3, dt=0.1)
    # a sample failing both gates fails the norm gate first
    propagate([good, 2 * top, top, good])
    with pytest.raises(NormDriftError, match=r"^norm drifted to 2\.0 at t = 0\.1$"):
        evolve_quantum(psi0, spec, t_final=0.3, dt=0.1)
    # the first failing row opens the second block: the message names its own t
    propagate([good, good], [top, 2 * good])
    with pytest.raises(ExcessiveTruncationError, match=r"weight 1 exceeds .* at t = 0\.2$"):
        evolve_quantum(psi0, spec, t_final=0.3, dt=0.1)
    propagate([good, good], [2 * good, top])
    with pytest.raises(NormDriftError, match=r"^norm drifted to 2\.0 at t = 0\.2$"):
        evolve_quantum(psi0, spec, t_final=0.3, dt=0.1)


def test_long_run_holds_no_amplitude_stack():
    # ten times the samples costs ten times the records, not the rows: the
    # 2001 rows of 512 amplitudes alone would take 16 MiB
    spec = effective_spec(16, potential=QUARTIC, dim=512)
    psi0 = coherent_state(spec.modes[0], 1.0, 0.0)
    peaks = []
    for t_final in (2.0, 20.0):
        tracemalloc.start()
        try:
            evolve_quantum(psi0, spec, t_final=t_final, dt=0.01)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 * 2**20


def test_energy_of_a_high_degree_potential_holds_few_powers(monkeypatch):
    # at mass 16 and d = 8 X_CM's spectral radius is 0.73, so no power of the rows
    # vanishes up to the 1000th that x^2000 reads: held together, those images of
    # 51 rows of 64 amplitudes would take 52 MB; at mass 1e300 the third vanishes,
    # and no higher power is applied
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((51, 64)) + 1j * rng.standard_normal((51, 64))
    applies, apply = [], SparseOperator.apply
    monkeypatch.setattr(SparseOperator, "apply", lambda op, psi: applies.append(1) or apply(op, psi))
    for mass in (16.0, 1e300):
        modes = tuple(ModeSpec(mass=mass, dim=8) for _ in range(2))
        x_cm, v_cm, _ = cm_operators_numeric(modes)
        x_rows, v_rows = x_cm.apply(rows), v_cm.apply(rows)
        peaks = []
        for degree in (20, 2000):
            spec = HamiltonianSpec(modes, PolynomialPotential.from_coeffs({degree: 1}))
            applies.clear()
            tracemalloc.start()
            try:
                dynamics._cm_energies(rows, x_rows, v_rows, x_cm, spec)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2**20
    assert len(applies) <= 3


def test_long_run_above_dense_limit_holds_no_amplitude_stack():
    # the Lanczos sampler yields its rows in time order, so above the dense
    # limit too ten times the samples costs ten times the records, not the
    # rows: the 1001 rows of 2116 amplitudes alone would take 32 MiB
    spec = _full_spec(LINEAR_HARMONIC, dim=46)
    psi0 = coherent_product(spec.modes, [0.3, 0.3], [0.025, 0.025])
    assert psi0.amplitudes.size > dynamics.EIG_DIMENSION_LIMIT
    peaks = []
    for t_final in (1.0, 10.0):
        tracemalloc.start()
        try:
            evolve_quantum(psi0, spec, t_final=t_final, dt=0.01)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 * 2**20


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
    for t, x, p in zip(*out):
        assert x == pytest.approx(1.0 + 0.5 * t, abs=1e-14)
        assert p == 1.0


def test_classical_harmonic_ellipse():
    t, x, p = evolve_classical(harmonic(1.0), 1.0, 1.0, 0.0, 2 * math.pi, 2 * math.pi / 6284)
    assert t[-1] == pytest.approx(2 * math.pi, abs=1e-12)
    assert abs(x[-1] - 1.0) < 1e-9
    assert abs(p[-1]) < 1e-9
    for k in range(0, len(t), len(t) // 7):
        assert abs(x[k] - math.cos(t[k])) < 1e-9
        assert abs(p[k] + math.sin(t[k])) < 1e-9


def test_classical_velocity_consistency():
    # finite-difference xdot equals p/M along the run
    t, x, p = evolve_classical(QUARTIC, 2.0, 1.0, 0.5, 1.0, 1e-3)
    for k in range(1, len(t) - 1, 100):
        xdot = (x[k + 1] - x[k - 1]) / (t[k + 1] - t[k - 1])
        assert abs(xdot - p[k] / 2.0) < 1e-6


def test_classical_integrator_order():
    def final_error(dt):
        _, x, _ = evolve_classical(QUARTIC, 1.0, 1.0, 0.0, 1.0, dt)
        _, ref, _ = evolve_classical(QUARTIC, 1.0, 1.0, 0.0, 1.0, dt / 16)
        return abs(x[-1] - ref[-1])

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


@pytest.mark.parametrize("coeffs, x0, p0", [
    ({4: Fraction(1, 10), 3: Fraction(1, 3), 1: Fraction(-2, 7)}, 1.1, -0.15),
    ({4: Fraction(1), 2: Fraction(-2), 0: Fraction(1)}, 1.1, -0.15),
    # at rest where the force is a signed zero: -1 * 0.0 summed from 0 is +0.0,
    # and no force is 0 * x; either sign reaches p's -0.0
    ({2: Fraction(-1, 2)}, 0.0, -0.0),
    ({}, 0.5, -0.0),
], ids=["rational-quartic", "double-well", "inverted-at-rest", "free-at-rest"])
def test_classical_twin_is_bit_identical_to_fraction_force(coeffs, x0, p0):
    potential = PolynomialPotential.from_coeffs(coeffs)
    _, x, p = evolve_classical(potential, 3.0, x0, p0, 2.0, 0.01)
    assert all(isinstance(c, Fraction) for c in potential.coeffs.values())
    twin = _fraction_twin(potential, 3.0, x0, p0, 2.0, 0.01)
    assert list(zip(x.tolist(), p.tolist())) == twin
    # == does not tell -0.0 from 0.0; the bytes do
    assert np.stack([x, p], axis=1).tobytes() == np.array(twin).tobytes()


# ---------------------------------------------------------------------------
# Ehrenfest residuals
# ---------------------------------------------------------------------------


def expectation_product(a: SparseOperator, b: SparseOperator, psi) -> complex | np.ndarray:
    """<psi|[a, b]|psi> without forming the commutator matrix.

    ``psi`` is a StateVector, or an (S, D) amplitude stack for one value per row.
    """
    amplitudes = psi.amplitudes if isinstance(psi, StateVector) else psi
    a_psi = a.apply(psi)
    b_psi = b.apply(psi)
    if a.hermitian and b.hermitian:
        ab = np.vecdot(a_psi, b_psi)
        return ab - np.conjugate(ab)
    return np.vecdot(amplitudes, a.apply(b_psi)) - np.vecdot(amplitudes, b.apply(a_psi))


def ehrenfest_residual(rows, dt, h, observable, hbar) -> float:
    """Worst central-difference violation of d<f>/dt = <[f, H]>/(i hbar) over
    rows sampled every dt."""
    means = expectation(observable, rows).real
    rates = (expectation_product(observable, h, rows) / (1j * hbar)).real
    slopes = (means[2:] - means[:-2]) / (2.0 * dt)
    return float(np.abs(slopes - rates[1:-1]).max())


def test_ehrenfest_free_particle(monkeypatch):
    spec = effective_spec(2, potential=FREE)
    psi0 = coherent_state(spec.modes[0], 1.0, 1.0)
    h = build_hamiltonian(spec)
    x_cm = cm_operators_numeric(spec.modes)[0]
    rows = sampled_rows(monkeypatch, psi0, spec, 1.0, 0.05)
    assert ehrenfest_residual(rows, 0.05, h, x_cm, spec.hbar) < 1e-8


def test_ehrenfest_harmonic_richardson(monkeypatch):
    spec = effective_spec(1, potential=harmonic(1.0))
    psi0 = coherent_state(spec.modes[0], 1.0, 0.0)
    h = build_hamiltonian(spec)
    x_cm = cm_operators_numeric(spec.modes)[0]

    def residual(dt):
        rows = sampled_rows(monkeypatch, psi0, spec, dt * round(1.6 / dt), dt)
        return ehrenfest_residual(rows, dt, h, x_cm, spec.hbar)

    r1, r2 = residual(0.04), residual(0.02)
    assert 3.2 <= r1 / r2 <= 4.8  # second-order central difference


def test_ehrenfest_quartic_squared_observable(monkeypatch):
    spec = effective_spec(1, potential=QUARTIC, dim=96)
    psi0 = coherent_state(spec.modes[0], 1.0, 0.0)
    h = build_hamiltonian(spec)
    x_cm = cm_operators_numeric(spec.modes)[0]
    x_sq = x_cm.matrix @ x_cm.matrix
    x_sq = SparseOperator(x_cm.mode_dims, [diagonals((x_sq + x_sq.getH()) * 0.5)],
                          hermitian=True)

    def residual(dt):
        rows = sampled_rows(monkeypatch, psi0, spec, dt * round(1.6 / dt), dt)
        return ehrenfest_residual(rows, dt, h, x_sq, spec.hbar)

    r1, r2 = residual(0.04), residual(0.02)
    assert r1 > 0
    assert 3.2 <= r1 / r2 <= 4.8


def test_expectation_product_of_non_hermitian_kronecker_sums():
    # a and b are not Hermitian, so each is applied to the other's image
    from cmlimit.hilbert_rep import ladder

    dims = (3, 4)
    a = SparseOperator(dims, [ladder(3).factors[0], diagonals(ladder(4).matrix.T)])
    b = SparseOperator(dims, [diagonals(ladder(3).matrix.T * 0.5), ladder(4).factors[0]])
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
    full_modes = tuple(ModeSpec(mass=1.0, dim=8) for _ in range(n))
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


def trajectory_csv(traj):
    """The CLI's quantum table of ``traj`` on its own, as CSV text."""
    return _render_csv(ExperimentResult("evolve", (_trajectory_table(traj),)))


def test_trajectory_csv_contract():
    spec = effective_spec(2, potential=FREE)
    psi0 = coherent_state(spec.modes[0], 1.0, 1.0)
    traj = evolve_quantum(psi0, spec, t_final=1.0, dt=0.25)
    text = trajectory_csv(traj)
    lines = text.split("\n")
    assert lines[0] == "t,x_cm,v_cm,dx,dv,energy,norm,trunc_weight"
    assert lines[-1] == ""  # trailing LF
    assert len(lines) == 2 + len(traj.times)
    assert "\r" not in text
    final = lines[-2].split(",")
    assert final[0] == "1"
    assert final[1] == "1.5"
    # 12 significant digits
    assert float(final[3]) == pytest.approx(traj.dx[-1], rel=1e-11)


def test_trajectory_csv_prints_weight_at_fixed_resolution():
    weights = np.array([6.06459797909e-48, 4.9e-16, 5.1e-16, 1.234567891234e-7, 0.0])
    ones = np.ones(5)
    traj = Trajectory(times=np.arange(5.0), x_cm=0 * ones, v_cm=0 * ones, dx=ones, dv=ones,
                      energy=0.5 * ones, norm=ones, trunc_weight=weights, total_mass=1.0)
    printed = [line.split(",")[-1] for line in trajectory_csv(traj).splitlines()[1:]]
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
