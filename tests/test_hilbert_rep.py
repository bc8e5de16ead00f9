"""Numerical tests for the truncated-oscillator representation."""

import math
import random

import numpy as np
import pytest

from cmlimit.ccr_algebra import cm_algebra, commutator
from cmlimit.hilbert_rep import (
    DimensionCapError,
    ExcessiveTruncationError,
    ModeSpec,
    SparseOperator,
    StateVector,
    basis_state,
    cm_expectation_record,
    cm_operators_numeric,
    cm_pair_ops,
    coherent_state,
    commutator_expectation,
    commutator_op,
    embed,
    expectation,
    ground_product,
    ladder,
    momentum_op,
    nc_matrix,
    position_op,
    product_state,
    truncation_weight,
    uncertainty_product,
    variance,
)

MODE = ModeSpec(mass=1.0, omega=1.0, dim=16)


def modes(n, dim=8, mass=1.0):
    return [ModeSpec(mass=mass, omega=1.0, dim=dim) for _ in range(n)]


# ---------------------------------------------------------------------------
# Single-mode operators
# ---------------------------------------------------------------------------


def test_ladder_entries():
    a2 = ladder(2).to_dense()
    assert np.array_equal(a2, np.array([[0, 1], [0, 0]], dtype=complex))
    a3 = ladder(3).to_dense()
    assert a3[1, 2] == pytest.approx(math.sqrt(2))
    num = (ladder(5).dagger() @ ladder(5)).to_dense()
    assert np.allclose(np.diag(num), [0, 1, 2, 3, 4])
    assert np.allclose(num - np.diag(np.diag(num)), 0)


def test_position_momentum_d2():
    m = ModeSpec(mass=1.0, omega=1.0, dim=2)
    x = position_op(m).to_dense()
    assert np.allclose(x, np.array([[0, 1], [1, 0]]) / math.sqrt(2))
    p = momentum_op(m).to_dense()
    assert np.allclose(p, np.array([[0, -1j], [1j, 0]]) / math.sqrt(2))


def test_position_momentum_hermitian_tridiagonal():
    x = position_op(MODE)
    p = momentum_op(MODE)
    assert x.hermitian and p.hermitian
    for op in (x, p):
        dense = op.to_dense()
        assert np.abs(dense - dense.conj().T).max() < 1e-12
        off = np.triu(np.abs(dense), k=2)
        assert off.max() == 0.0


def test_truncation_defect_confined_to_top_level():
    for d in (2, 8, 32):
        m = ModeSpec(mass=0.7, omega=1.3, dim=d, hbar=1.0)
        defect = commutator_op(position_op(m), momentum_op(m)).to_dense()
        expected = 1j * np.eye(d)
        expected[d - 1, d - 1] = 1j * (1 - d)
        assert np.abs(defect - expected).max() < 1e-12


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------


def test_embed_single_mode_is_identity_map():
    system = [MODE]
    x = position_op(MODE)
    assert np.abs(embed(x, 0, system).to_dense() - x.to_dense()).max() == 0.0


def test_embed_cross_mode_commutes_exactly():
    system = modes(2, dim=6)
    x0 = embed(position_op(system[0]), 0, system)
    p1 = embed(momentum_op(system[1]), 1, system)
    assert commutator_op(x0, p1).max_abs() == 0.0


def test_embed_kron_block_structure():
    system = [ModeSpec(mass=1.0, omega=1.0, dim=2), ModeSpec(mass=1.0, omega=1.0, dim=3)]
    x1 = embed(position_op(system[1]), 1, system).to_dense()
    oracle = np.kron(np.eye(2), position_op(system[1]).to_dense())
    assert np.abs(x1 - oracle).max() == 0.0
    # mode 0 is the slowest-varying index: embedding at 0 is a leading factor
    x0 = embed(position_op(system[0]), 0, system).to_dense()
    oracle0 = np.kron(position_op(system[0]).to_dense(), np.eye(3))
    assert np.abs(x0 - oracle0).max() == 0.0


def test_embed_rejects_wrong_dimension():
    system = modes(2, dim=6)
    with pytest.raises(ValueError):
        embed(position_op(MODE), 0, system)


def test_dimension_cap():
    big = modes(3, dim=128)  # 2^21 amplitudes
    with pytest.raises(DimensionCapError):
        cm_operators_numeric(big)
    with pytest.raises(DimensionCapError):
        embed(position_op(big[0]), 0, big)


# ---------------------------------------------------------------------------
# CM operators
# ---------------------------------------------------------------------------


def test_cm_operators_single_mode():
    system = [ModeSpec(mass=2.0, omega=1.0, dim=8)]
    x_cm, v_cm, p_tot = cm_operators_numeric(system)
    assert np.abs(x_cm.to_dense() - position_op(system[0]).to_dense()).max() < 1e-14
    assert np.abs(p_tot.to_dense() - momentum_op(system[0]).to_dense()).max() < 1e-14
    assert np.abs(v_cm.to_dense() - momentum_op(system[0]).to_dense() / 2.0).max() < 1e-14


def test_cm_operators_linear_combination():
    system = [ModeSpec(mass=m, omega=1.0, dim=3) for m in (1.0, 2.0, 3.0)]
    x_cm, v_cm, p_tot = cm_operators_numeric(system)
    weights = (1 / 6, 2 / 6, 3 / 6)
    oracle = sum(
        w * embed(position_op(mode), k, system).to_dense()
        for k, (w, mode) in enumerate(zip(weights, system))
    )
    assert np.abs(x_cm.to_dense() - oracle).max() < 1e-14
    assert x_cm.hermitian and v_cm.hermitian and p_tot.hermitian
    assert np.abs(p_tot.to_dense() - 6.0 * v_cm.to_dense()).max() < 1e-14


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


def test_coherent_state_origin_is_ground():
    psi = coherent_state(MODE, 0.0, 0.0)
    assert np.abs(psi.amplitudes - basis_state(16).amplitudes).max() == 0.0


def test_coherent_state_means():
    psi = coherent_state(MODE, 1.0, 0.0)
    assert abs(psi.norm() - 1.0) < 1e-12
    assert abs(expectation(position_op(MODE), psi).real - 1.0) < 1e-8
    assert abs(expectation(momentum_op(MODE), psi)) < 1e-8
    shifted = coherent_state(MODE, 0.5, -0.75)
    assert abs(expectation(position_op(MODE), shifted).real - 0.5) < 1e-8
    assert abs(expectation(momentum_op(MODE), shifted).real + 0.75) < 1e-8


def test_coherent_state_excessive_truncation():
    with pytest.raises(ExcessiveTruncationError):
        coherent_state(ModeSpec(mass=1.0, omega=1.0, dim=8), 100.0, 0.0)


def test_product_state_separability():
    psi0 = coherent_state(MODE, 0.7, 0.1)
    psi1 = coherent_state(MODE, -0.3, 0.4)
    system = [MODE, MODE]
    joint = product_state([psi0, psi1])
    x0 = embed(position_op(MODE), 0, system)
    expected = expectation(position_op(MODE), psi0)
    assert abs(expectation(x0, joint) - expected) < 1e-12
    assert abs(joint.norm() - 1.0) < 1e-12


def test_state_vector_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector((4,), np.array([1.0, 1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# Expectations, uncertainty, gates
# ---------------------------------------------------------------------------


def test_ground_state_position_variance():
    assert variance(position_op(MODE), basis_state(16)) == pytest.approx(0.5, abs=1e-12)


def test_variance_requires_hermitian():
    a = ladder(4)
    with pytest.raises(ValueError):
        variance(a, basis_state(4))


def test_uncertainty_saturation_two_particles():
    system = modes(2)
    psi = ground_product(system)
    x_cm, v_cm, _ = cm_operators_numeric(system)
    assert uncertainty_product(x_cm, v_cm, psi) == pytest.approx(0.25, abs=1e-12)


def test_uncertainty_bound_value():
    # hbar / (2 N mbar) for N = 4, mbar = 1
    system = modes(4, dim=4)
    psi = ground_product(system)
    x_cm, v_cm, _ = cm_operators_numeric(system)
    product = uncertainty_product(x_cm, v_cm, psi)
    assert product == pytest.approx(1.0 / 8.0, abs=1e-12)


def test_commutator_expectation_values():
    rec = cm_expectation_record(basis_state(16), [MODE])
    assert rec.commutator_expectation == pytest.approx(1j, abs=1e-12)
    system = modes(3)
    rec = cm_expectation_record(ground_product(system), system)
    assert rec.commutator_expectation == pytest.approx(1j / 3.0, abs=1e-10)


def test_commutator_expectation_gate():
    top = basis_state(16, n=15)
    assert cm_expectation_record(top, [MODE]).truncation_weight == 1.0
    with pytest.raises(ExcessiveTruncationError):
        commutator_expectation(top, [MODE])


def test_commutator_expectation_scaling():
    for n in range(1, 6):
        system = modes(n, dim=6)
        value = cm_expectation_record(ground_product(system), system).commutator_expectation
        assert abs(value.imag * n - 1.0) < 1e-9
        assert abs(value.real) < 1e-12


def test_factorization_residual_values():
    def residual(psi, system):
        return cm_expectation_record(psi, system).factorization_residual

    assert residual(basis_state(16), [MODE]) == pytest.approx(0.5, abs=1e-12)
    system4 = modes(4, dim=6)
    assert residual(ground_product(system4), system4) == pytest.approx(0.125, abs=1e-12)
    scaled = [residual(ground_product(modes(n, dim=6)), modes(n, dim=6)) * n for n in (1, 2, 4)]
    assert max(scaled) - min(scaled) < 1e-9


def test_truncation_weight_cases():
    assert truncation_weight(basis_state(8)) == 0.0
    assert truncation_weight(basis_state(8, n=7)) == 1.0
    alpha_one = coherent_state(MODE, math.sqrt(2.0), 0.0)  # |alpha| = 1
    assert truncation_weight(alpha_one) < 1e-12


def test_robertson_bound_random_states():
    rng = np.random.default_rng(61)
    system = modes(2, dim=6)
    x_cm, v_cm, _ = cm_operators_numeric(system)
    comm = commutator_op(x_cm, v_cm)
    for _ in range(1000):
        raw = np.zeros(36, dtype=complex)
        # support on the low levels only, so the truncation gate holds
        block = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        raw[:16] = block
        raw = raw.reshape(6, 6)[:4, :4]
        amps = np.zeros((6, 6), dtype=complex)
        amps[:4, :4] = raw
        amps = amps.reshape(-1)
        amps /= np.linalg.norm(amps)
        psi = StateVector((6, 6), amps)
        assert truncation_weight(psi) < 1e-6
        lhs = uncertainty_product(x_cm, v_cm, psi)
        rhs = 0.5 * abs(expectation(comm, psi))
        assert lhs >= rhs * (1.0 - 1e-9)


def test_expectation_record_consistency():
    psi = coherent_state(MODE, 0.8, -0.2)
    rec = cm_expectation_record(psi, [MODE])
    assert rec.x_cm == pytest.approx(0.8, abs=1e-8)
    assert rec.v_cm == pytest.approx(-0.2, abs=1e-8)
    assert rec.dx * rec.dv == pytest.approx(0.5, abs=1e-8)
    assert rec.commutator_expectation == pytest.approx(1j, abs=1e-10)
    assert 0.0 <= rec.truncation_weight <= 1.0


# ---------------------------------------------------------------------------
# Matrix oracle for the symbolic algebra
# ---------------------------------------------------------------------------


def test_symbolic_product_matches_matrix_product():
    alg = cm_algebra()
    X, V = alg.x(), alg.v()
    ops = [cm_pair_ops(0.25, 48)]
    rng = random.Random(67)
    from oracles import random_polynomial

    safe = slice(0, 36)  # drop the top 12 levels
    for _ in range(6):
        f = random_polynomial(rng, alg, max_degree=3)
        g = random_polynomial(rng, alg, max_degree=3)
        sym = nc_matrix(f * g, ops, 1.0, 0.25).to_dense()
        direct = (nc_matrix(f, ops, 1.0, 0.25) @ nc_matrix(g, ops, 1.0, 0.25)).to_dense()
        assert np.abs(sym[safe, safe] - direct[safe, safe]).max() < 1e-10


def test_symbolic_commutator_matches_matrix_commutator():
    alg = cm_algebra()
    X, V = alg.x(), alg.v()
    ops = [cm_pair_ops(0.25, 48)]
    safe = slice(0, 36)
    sym = nc_matrix(commutator(X**2, V**2), ops, 1.0, 0.25).to_dense()
    direct = commutator_op(
        nc_matrix(X**2, ops, 1.0, 0.25), nc_matrix(V**2, ops, 1.0, 0.25)
    ).to_dense()
    assert np.abs(sym[safe, safe] - direct[safe, safe]).max() < 1e-10


def test_cm_pair_ops_commutator_scale():
    x, v = cm_pair_ops(0.25, 32)
    comm = commutator_op(x, v).to_dense()
    assert abs(comm[0, 0] - 0.25j) < 1e-12


def test_sparse_operator_hermitian_flag_validation():
    with pytest.raises(ValueError):
        SparseOperator((2,), np.array([[0, 1], [0, 0]]), hermitian=True)
