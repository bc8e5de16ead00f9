"""Numerical tests for the truncated-oscillator representation."""

import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlimit.ccr_algebra import cm_algebra, commutator
from cmlimit.cli import main
from cmlimit.dynamics import HamiltonianSpec, PolynomialPotential, build_hamiltonian
from cmlimit.hilbert_rep import (
    DimensionCapError,
    ExcessiveTruncationError,
    ModeSpec,
    SparseOperator,
    StateVector,
    basis_state,
    cm_expectation_record,
    cm_expectation_records,
    cm_operators_numeric,
    cm_pair_ops,
    coherent_product,
    coherent_state,
    commutator_expectation,
    expectation,
    ground_product,
    ladder,
    momentum_op,
    nc_matrix,
    position_op,
    product_state,
    truncation_weight,
    truncation_weights,
    uncertainty_product,
    variance,
)
from oracles import diagonals, kronsum_matrix

MODE = ModeSpec(mass=1.0, dim=16)


def modes(n, dim=8, mass=1.0):
    return [ModeSpec(mass=mass, dim=dim) for _ in range(n)]


# ---------------------------------------------------------------------------
# Single-mode operators
# ---------------------------------------------------------------------------


def test_ladder_entries():
    a2 = ladder(2).to_dense()
    assert np.array_equal(a2, np.array([[0, 1], [0, 0]], dtype=complex))
    a3 = ladder(3).to_dense()
    assert a3[1, 2] == pytest.approx(math.sqrt(2))
    a5 = ladder(5).to_dense()
    num = a5.conj().T @ a5
    assert np.allclose(np.diag(num), [0, 1, 2, 3, 4])
    assert np.allclose(num - np.diag(np.diag(num)), 0)


def test_position_momentum_d2():
    m = ModeSpec(mass=1.0, dim=2)
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
        m = ModeSpec(mass=0.7, dim=d, hbar=1.0)
        x, p = position_op(m).to_dense(), momentum_op(m).to_dense()
        defect = x @ p - p @ x
        expected = 1j * np.eye(d)
        expected[d - 1, d - 1] = 1j * (1 - d)
        assert np.abs(defect - expected).max() < 1e-12


def test_dimension_cap():
    big = modes(3, dim=128)  # 2^21 amplitudes
    with pytest.raises(DimensionCapError):
        cm_operators_numeric(big)


def test_states_check_the_cap_before_allocating():
    # 2^21 amplitudes in one mode or in three would take 32 MiB; 10^30 levels cannot exist
    tracemalloc.start()
    try:
        for dim in (2**21, 10**30):
            with pytest.raises(DimensionCapError):
                coherent_state(ModeSpec(mass=1.0, dim=dim), 0.5, 0.0)
        with pytest.raises(DimensionCapError):
            coherent_product(modes(3, dim=128), [0.5] * 3, [0.0] * 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# CM operators
# ---------------------------------------------------------------------------


def test_cm_operators_single_mode():
    system = [ModeSpec(mass=2.0, dim=8)]
    x_cm, v_cm, p_tot = cm_operators_numeric(system)
    assert np.abs(x_cm.to_dense() - position_op(system[0]).to_dense()).max() < 1e-14
    assert np.abs(p_tot.to_dense() - momentum_op(system[0]).to_dense()).max() < 1e-14
    assert np.abs(v_cm.to_dense() - momentum_op(system[0]).to_dense() / 2.0).max() < 1e-14


def test_cm_operators_linear_combination():
    system = [ModeSpec(mass=m, dim=3) for m in (1.0, 2.0, 3.0)]
    x_cm, v_cm, p_tot = cm_operators_numeric(system)
    weights = (1 / 6, 2 / 6, 3 / 6)
    oracle = sum(
        w * np.kron(np.kron(np.eye(3**k), position_op(mode).to_dense()), np.eye(3 ** (2 - k)))
        for k, (w, mode) in enumerate(zip(weights, system))
    )
    assert np.abs(x_cm.to_dense() - oracle).max() < 1e-14
    assert x_cm.hermitian and v_cm.hermitian and p_tot.hermitian
    assert np.abs(p_tot.to_dense() - 6.0 * v_cm.to_dense()).max() < 1e-14


def test_embed_kron_block_structure():
    # each mode's operator is embedded as a Kronecker factor of the joint space;
    # mode 0 is the slowest-varying index, so its operator is the leading factor
    system = [ModeSpec(mass=1.0, dim=2), ModeSpec(mass=2.0, dim=3)]
    x_cm, _, p_tot = cm_operators_numeric(system)
    x0, x1 = (position_op(mode).to_dense() for mode in system)
    oracle = (1 / 3) * np.kron(x0, np.eye(3)) + (2 / 3) * np.kron(np.eye(2), x1)
    assert np.abs(x_cm.to_dense() - oracle).max() == 0.0
    p0, p1 = (momentum_op(mode).to_dense() for mode in system)
    oracle = np.kron(p0, np.eye(3)) + np.kron(np.eye(2), p1)
    assert np.abs(p_tot.to_dense() - oracle).max() == 0.0


_RATIONAL_MASS = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.lists(st.tuples(_RATIONAL_MASS, st.integers(2, 5)), min_size=1, max_size=3))
def test_cm_operators_match_kron_oracle(modes_drawn):
    from oracles import kron_cm_operators

    system = [ModeSpec(mass=float(m), dim=d) for m, d in modes_drawn]
    for op, oracle in zip(cm_operators_numeric(system), kron_cm_operators(system)):
        dense = op.to_dense()
        assert np.array_equal(dense, oracle)
        assert np.array_equal(dense, dense.conj().T)


def test_equal_modes_share_their_factors():
    # N equal modes build, convert and check their single-mode factors once
    mode, other = ModeSpec(mass=1.5, dim=4), ModeSpec(mass=2.0, dim=4)
    for op in cm_operators_numeric([mode, other, mode, mode]):
        f = op.factors
        assert f[0] is f[2] is f[3]
        assert f[1] is not f[0]


def _random_state(seed, dims):
    rng = np.random.default_rng(seed)
    size = math.prod(dims)
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return StateVector(dims, amps / np.linalg.norm(amps))


_SEED = st.integers(0, 2**32 - 1)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.lists(st.tuples(_RATIONAL_MASS, st.integers(2, 5)), min_size=1, max_size=3), _SEED)
def test_mode_by_mode_apply_matches_assembled_matrix(modes_drawn, seed):
    from oracles import kron_cm_operators

    system = [ModeSpec(mass=float(m), dim=d) for m, d in modes_drawn]
    ops = cm_operators_numeric(system)
    psi = _random_state(seed, tuple(d for _, d in modes_drawn))
    for op, oracle in zip(ops, kron_cm_operators(system)):
        applied = op.apply(psi)
        assert np.abs(applied - op.matrix @ psi.amplitudes).max() <= 1e-14
        assert np.abs(applied - oracle @ psi.amplitudes).max() <= 1e-14


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.lists(st.tuples(_RATIONAL_MASS, st.integers(2, 5), _SEED), min_size=1, max_size=3))
def test_product_state_variances_are_analytic(modes_drawn):
    # for a product state the modes are uncorrelated, so the CM variances
    # are the weighted sums of the single-mode ones
    system = [ModeSpec(mass=float(m), dim=d) for m, d, _ in modes_drawn]
    factors = [_random_state(seed, (d,)) for _, d, seed in modes_drawn]
    psi = product_state(factors)
    x_cm, _, p_tot = cm_operators_numeric(system)
    total_mass = sum(mode.mass for mode in system)
    var_x = sum((mode.mass / total_mass) ** 2 * variance(position_op(mode), phi)
                for mode, phi in zip(system, factors))
    var_p = sum(variance(momentum_op(mode), phi) for mode, phi in zip(system, factors))
    assert variance(x_cm, psi) == pytest.approx(var_x, abs=1e-12)
    assert variance(p_tot, psi) == pytest.approx(var_p, abs=1e-12)


def _csr_mode_by_mode(op, rows):
    """op applied as a CSR product per factor on its axis, the terms summed in
    mode order: the sparse-matrix apply the shifted slices replace."""
    out, left = None, len(rows)
    for factor in op.factors:
        d = len(next(iter(factor.values())))
        csr = SparseOperator((d,), [factor]).matrix
        block = rows.reshape(left, d, -1).transpose(1, 0, 2).reshape(d, -1)
        term = (csr @ block).reshape(d, left, -1).transpose(1, 0, 2).reshape(rows.shape)
        out = term if out is None else out + term
        left *= d
    return out


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.lists(st.tuples(_RATIONAL_MASS, st.integers(2, 12)), min_size=1, max_size=4),
       st.integers(1, 3), _SEED)
def test_shifted_slice_apply_is_bitwise_csr(modes_drawn, rows, seed):
    # exact zeros of either sign in the amplitudes: a row sum that is zero must
    # come out +0.0, as CSR's sums from +0.0 do
    system = [ModeSpec(mass=float(m), dim=d) for m, d in modes_drawn]
    rng = np.random.default_rng(seed)
    shape = (rows, math.prod(d for _, d in modes_drawn))
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stack[rng.random(shape) < 0.3] = 0.0
    stack.real[rng.random(shape) < 0.2] = -0.0
    stack.imag[rng.random(shape) < 0.2] = -0.0
    for op in cm_operators_numeric(system):
        applied = op.apply(stack)
        assert applied.tobytes() == _csr_mode_by_mode(op, stack).tobytes()
        if len(system) == 1:  # one factor: the composite matrix is that factor's
            assert applied.tobytes() == np.ascontiguousarray((op.matrix @ stack.T).T).tobytes()
        else:  # the composite CSR row adds the modes' entries in another order
            assert np.abs(applied - (op.matrix @ stack.T).T).max() <= 1e-14


_UNEQUAL_MODES = {
    "1 mode": [ModeSpec(mass=2.5, dim=6)],
    "1 tiny mode": [ModeSpec(mass=1e-300, dim=5)],
    "2 modes": [ModeSpec(mass=1.0, dim=3), ModeSpec(mass=2.5, dim=4)],
    "3 modes": [ModeSpec(mass=1e-300, dim=3), ModeSpec(mass=0.5, dim=5),
                ModeSpec(mass=3.0, dim=2)],
}
_POTENTIALS = {"harmonic": {2: 0.5}, "quartic-cubic": {4: 0.1, 3: 0.3},
               "double well": {4: 1, 2: -2, 0: 1}}


def _matrix_cases():
    for name, system in _UNEQUAL_MODES.items():
        for label, op in zip(("X_CM", "V_CM", "P_TOT"), cm_operators_numeric(system)):
            yield pytest.param(op, id=f"{label} {name}")
    for name, system in (("1 mode", [ModeSpec(mass=2.0, dim=12)]),
                         ("3 modes", [ModeSpec(mass=1.0, dim=4), ModeSpec(mass=2.0, dim=3),
                                      ModeSpec(mass=0.5, dim=5)])):
        for label, coeffs in _POTENTIALS.items():
            spec = HamiltonianSpec(modes=tuple(system),
                                   potential=PolynomialPotential.from_coeffs(coeffs))
            yield pytest.param(build_hamiltonian(spec), id=f"H {label} {name}")
    yield pytest.param(SparseOperator((3, 4), [ladder(3).factors[0],
                                               diagonals(ladder(4).matrix.T * 0.5)]),
                       id="non-Hermitian sum")


@pytest.mark.parametrize("op", _matrix_cases())
def test_matrix_is_the_kronsum_fold_byte_for_byte(op):
    # one diags of the composite diagonals stores what the per-factor CSR fold
    # stores, signed zeros included; operator_nnz counts the same entries
    matrix, oracle = op.matrix, kronsum_matrix(op)
    assert matrix.nnz == oracle.nnz
    for part in ("data", "indices", "indptr"):
        assert getattr(matrix, part).tobytes() == getattr(oracle, part).tobytes()


def test_kronecker_sum_rejects_non_hermitian_factor():
    x = position_op(ModeSpec(mass=1.0, dim=3)).factors[0]
    with pytest.raises(ValueError, match="marked Hermitian"):
        SparseOperator((3, 4), [x, ladder(4).factors[0]], hermitian=True)
    op = SparseOperator((3, 4), [x, ladder(4).factors[0]])
    assert not op.hermitian


def test_cm_operators_apply_without_assembly(monkeypatch, capsys):
    # uncertainty needs only applications; no composite matrix is assembled
    def refuse(*args, **kwargs):
        raise AssertionError("composite matrix assembled")

    monkeypatch.setattr(SparseOperator, "matrix", property(refuse))
    monkeypatch.setattr(scipy.sparse, "diags", refuse)
    assert main(["uncertainty", "--N", "1,2,3,4,5,6", "--dim", "8"]) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode()).hexdigest() == "1c840108393f2b2320b57baf22385c04"


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
        coherent_state(ModeSpec(mass=1.0, dim=8), 100.0, 0.0)


@pytest.mark.parametrize("mass, x0", [(1.0, 1e200), (1.0, 1e308), (16.0, 1e308)])
def test_coherent_state_huge_displacement(mass, x0):
    # |alpha|^2 overflows a float at 1e200; alpha itself is infinite at mass 16, 1e308
    with pytest.raises(ExcessiveTruncationError, match="alpha"):
        coherent_state(ModeSpec(mass=mass, dim=8), x0, 0.0)


def gammaln_coherent_amplitudes(mode, x0, p0):
    """coherent_state's amplitudes with the log-factorials of scipy's gammaln."""
    alpha = (
        math.sqrt(mode.mass / (2.0 * mode.hbar)) * x0
        + 1j * p0 / math.sqrt(2.0 * mode.mass * mode.hbar)
    )
    n = np.arange(mode.dim)
    log_mag = n * math.log(abs(alpha)) - 0.5 * scipy.special.gammaln(n + 1.0)
    log_mag -= log_mag.max()
    amps = np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))
    return amps / np.linalg.norm(amps)


@pytest.mark.parametrize("dim, top", [(2, 1e-3), (64, 5.7), (4096, 61.9)])
def test_coherent_state_matches_gammaln_oracle(dim, top):
    # math.lgamma and gammaln differ in the last bit of about half the levels,
    # and exp turns an absolute error in the log magnitude into a relative one
    # in the amplitude: each amplitude agrees within a few ulps of the largest
    # log term (subnormal tail amplitudes to 1e-300)
    mode = ModeSpec(mass=2.0, dim=dim)  # alpha = x0 + i p0 / 2
    with pytest.raises(ExcessiveTruncationError):  # top is within 1% of the gate's |alpha|
        coherent_state(mode, 1.01 * top, 0.0)
    n = np.arange(dim)
    for size in (1e-4, 0.3, 0.5 * top, top):
        if size > top:
            continue
        log_terms = n * abs(math.log(size)) + 0.5 * scipy.special.gammaln(n + 1.0)
        for phase in (0.0, 0.7, 2.5):
            x0, p0 = size * math.cos(phase), 2 * size * math.sin(phase)
            np.testing.assert_allclose(
                coherent_state(mode, x0, p0).amplitudes,
                gammaln_coherent_amplitudes(mode, x0, p0),
                rtol=4 * np.finfo(float).eps * (1.0 + log_terms.max()), atol=1e-300)


def test_product_state_separability():
    psi0 = coherent_state(MODE, 0.7, 0.1)
    psi1 = coherent_state(MODE, -0.3, 0.4)
    joint = product_state([psi0, psi1])
    x0 = SparseOperator((16, 16), [diagonals(np.kron(position_op(MODE).to_dense(), np.eye(16)))])
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


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.one_of(
    st.lists(st.tuples(_RATIONAL_MASS, st.integers(2, 64)), min_size=1, max_size=1),
    st.lists(st.tuples(_RATIONAL_MASS, st.integers(2, 5)), min_size=2, max_size=3),
), st.integers(1, 40), _SEED)
def test_stacked_records_equal_per_row_records(modes_drawn, rows, seed):
    # the stacked path is the per-row path's arithmetic, bit for bit; single
    # modes of 8 levels and more reach the vectorized BLAS dot kernels
    system = [ModeSpec(mass=float(m), dim=d) for m, d in modes_drawn]
    dims = tuple(d for _, d in modes_drawn)
    ops = cm_operators_numeric(system)
    rng = np.random.default_rng(seed)
    shape = (rows, math.prod(dims))
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stack /= np.linalg.norm(stack, axis=1)[:, None]
    weights = truncation_weights(stack, dims)
    columns = cm_expectation_records(stack, ops[0].apply(stack), ops[1].apply(stack), weights)
    for op in ops:
        applied = op.apply(stack)
        assert all(np.array_equal(applied[k], op.apply(row)) for k, row in enumerate(stack))
    for k, row in enumerate(stack):
        psi = StateVector(dims, row)
        assert weights[k] == truncation_weight(psi)
        record = cm_expectation_record(psi, system)
        assert [c[k] for c in vars(columns).values()] == list(vars(record).values())


def test_robertson_bound_random_states():
    rng = np.random.default_rng(61)
    system = modes(2, dim=6)
    x_cm, v_cm, _ = cm_operators_numeric(system)
    x, v = x_cm.to_dense(), v_cm.to_dense()
    comm = x @ v - v @ x
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
        rhs = 0.5 * abs(np.vdot(psi.amplitudes, comm @ psi.amplitudes))
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
        direct = nc_matrix(f, ops, 1.0, 0.25).to_dense() @ nc_matrix(g, ops, 1.0, 0.25).to_dense()
        assert np.abs(sym[safe, safe] - direct[safe, safe]).max() < 1e-10


def test_symbolic_commutator_matches_matrix_commutator():
    alg = cm_algebra()
    X, V = alg.x(), alg.v()
    ops = [cm_pair_ops(0.25, 48)]
    safe = slice(0, 36)
    sym = nc_matrix(commutator(X**2, V**2), ops, 1.0, 0.25).to_dense()
    x2 = nc_matrix(X**2, ops, 1.0, 0.25).to_dense()
    v2 = nc_matrix(V**2, ops, 1.0, 0.25).to_dense()
    direct = x2 @ v2 - v2 @ x2
    assert np.abs(sym[safe, safe] - direct[safe, safe]).max() < 1e-10


def test_cm_pair_ops_commutator_scale():
    x, v = cm_pair_ops(0.25, 32)
    x, v = x.to_dense(), v.to_dense()
    comm = x @ v - v @ x
    assert abs(comm[0, 0] - 0.25j) < 1e-12


def test_sparse_operator_hermitian_flag_validation():
    # a NaN defect is refused too, also on the lowest diagonal, where it came
    # first in the max of the defects and hid an asymmetric one
    for factor in (diagonals(np.array([[0, 1], [0, 0]])), {0: np.array([np.nan, 0.0])},
                   {-1: np.array([np.nan, 0.0]), 0: np.array([1j, 0.0])}):
        with pytest.raises(ValueError):
            SparseOperator((2,), [factor], hermitian=True)


def test_sparse_operator_takes_diagonals_only():
    # a factor is {offset: values}; a dense or scipy.sparse matrix is refused
    x = position_op(ModeSpec(mass=1.0, dim=3))
    for matrix in (x.to_dense(), x.matrix):
        with pytest.raises(TypeError, match="offset"):
            SparseOperator((3,), [matrix])
