"""Numerical tests for the truncated-oscillator representation."""

import hashlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
import scipy.special
from hypothesis import assume, given, settings
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
    cm_expectation_record,
    cm_expectation_records,
    cm_operators_numeric,
    coherent_product,
    coherent_state,
    commutator_expectation,
    expectation,
    product_state,
    truncation_weight,
    truncation_weights,
    uncertainty_product,
    variance,
)
from oracles import (
    basis_state,
    cm_factors,
    composite_operator,
    ground_product,
    kron_cm_operators,
    kronsum_matrix,
    ladder,
    momentum_op,
    poly_matrix,
    position_op,
    random_polynomial,
    slots,
    sparse_hamiltonian,
    symmetric_isometry,
)

MODE = ModeSpec(mass=1.0, dim=16)
MODE8 = ModeSpec(mass=1.0, dim=8)
MODE6 = ModeSpec(mass=1.0, dim=6)


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


@pytest.mark.parametrize("dim", [2.5, 3.0, "3", 1])
def test_mode_spec_refuses_a_dim_that_is_no_integer_of_at_least_2(dim):
    # refused when built, not later by a size mismatch or a numpy TypeError
    with pytest.raises(ValueError, match="dim must be an integer of at least 2"):
        ModeSpec(1.0, dim)


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
    big = ModeSpec(mass=1.0, dim=128)  # 2^21 amplitudes on 3 modes
    with pytest.raises(DimensionCapError):
        cm_operators_numeric(big, 3)


def test_states_check_the_cap_before_allocating():
    # 2^21 amplitudes in one mode or in three would take 32 MiB; 10^30 levels cannot exist
    tracemalloc.start()
    try:
        for dim in (2**21, 10**30):
            with pytest.raises(DimensionCapError):
                coherent_state(ModeSpec(mass=1.0, dim=dim), 0.5, 0.0)
        with pytest.raises(DimensionCapError):
            coherent_product(ModeSpec(mass=1.0, dim=128), 3, 0.5, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# CM operators
# ---------------------------------------------------------------------------


def test_cm_operators_single_mode():
    mode = ModeSpec(mass=2.0, dim=8)
    x_cm, v_cm, p_tot = cm_operators_numeric(mode, 1)
    assert np.abs(x_cm.to_dense() - position_op(mode).to_dense()).max() < 1e-14
    assert np.abs(p_tot.to_dense() - momentum_op(mode).to_dense()).max() < 1e-14
    assert np.abs(v_cm.to_dense() - momentum_op(mode).to_dense() / 2.0).max() < 1e-14


def test_cm_operators_linear_combination():
    # on N equal modes X_CM = sum_k X_k / N, restricted to the exchange-symmetric
    # subspace of the Kronecker product
    mode = ModeSpec(mass=1.0, dim=3)
    x_cm, v_cm, p_tot = cm_operators_numeric(mode, 3)
    iso = symmetric_isometry(3, 3)
    oracle = sum(
        np.kron(np.kron(np.eye(3**k), position_op(mode).to_dense()), np.eye(3 ** (2 - k))) / 3
        for k in range(3)
    )
    assert np.abs(x_cm.to_dense() - iso.T @ oracle @ iso).max() < 1e-14
    assert x_cm.hermitian and v_cm.hermitian and p_tot.hermitian
    assert np.abs(p_tot.to_dense() - 3.0 * v_cm.to_dense()).max() < 1e-14


def test_embed_kron_block_structure():
    # the occupation basis embeds in the Kronecker product of the modes as its
    # exchange-symmetric subspace, which each Kronecker sum maps into itself
    mode = ModeSpec(mass=2.0, dim=3)
    x_cm, _, p_tot = cm_operators_numeric(mode, 2)
    iso = symmetric_isometry(2, 3)
    for op, one in ((x_cm, position_op(mode).to_dense() / 2),
                    (p_tot, momentum_op(mode).to_dense())):
        oracle = np.kron(one, np.eye(3)) + np.kron(np.eye(3), one)
        assert np.abs(op.to_dense() - iso.T @ oracle @ iso).max() <= 1e-15 * np.abs(oracle).max()
        assert np.abs((np.eye(9) - iso @ iso.T) @ oracle @ iso).max() <= 1e-15


_RATIONAL_MASS = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))
_SEED = st.integers(0, 2**32 - 1)


_POTENTIAL = st.dictionaries(st.integers(0, 4), st.builds(Fraction, st.integers(-9, 9),
                                                         st.integers(1, 9)), max_size=4)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_RATIONAL_MASS, st.integers(1, 4), st.integers(2, 6), _POTENTIAL)
def test_cm_operators_match_kron_oracle(mass, n, d, coeffs):
    # the occupation-basis X_CM, V_CM, P_TOT and H are the composite ones
    # restricted to the exchange-symmetric subspace, through the isometry
    # e_n -> normalized orbit sum, within 1e-15 of their largest entry
    system = [ModeSpec(mass=float(mass), dim=d)] * n
    iso = symmetric_isometry(n, d)
    spec = HamiltonianSpec(system[0], n, PolynomialPotential.from_coeffs(coeffs))
    ops = cm_operators_numeric(system[0], n)
    composite = (*kron_cm_operators(system), sparse_hamiltonian(system, spec.potential))
    for op, oracle in zip((*ops, build_hamiltonian(spec, ops=ops)), composite):
        projected = iso.T @ (oracle @ iso)
        dense = op.to_dense()
        assert np.abs(dense - projected).max() <= 1e-15 * np.abs(projected).max()
        assert np.array_equal(dense, dense.conj().T)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(1, 4), st.integers(2, 6), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
       _RATIONAL_MASS, _SEED)
def test_products_are_the_projected_kron_product(n, d, x0, p0, mass, seed):
    # phi^(x)N in the occupation basis is the np.kron product read through the
    # isometry; coherent_product is the product of one coherent state
    mode = ModeSpec(mass=float(mass), dim=d)
    iso = symmetric_isometry(n, d)
    phi = _random_state(seed, (1, d))
    kron = np.ones(1)
    for _ in range(n):
        kron = np.kron(kron, phi.amplitudes)
    assert np.abs(product_state(phi, n).amplitudes - iso.T @ kron).max() <= 1e-14
    assert np.abs(iso @ (iso.T @ kron) - kron).max() <= 1e-14  # kron is exchange symmetric
    try:
        phi = coherent_state(mode, x0, p0)
    except ExcessiveTruncationError:
        assume(False)
    kron = np.ones(1)
    for _ in range(n):
        kron = np.kron(kron, phi.amplitudes)
    psi = coherent_product(mode, n, x0, p0)
    assert np.abs(psi.amplitudes - iso.T @ kron).max() <= 1e-14


@pytest.mark.parametrize("basis", [(0, 4), (2, 0), (1, 2, 3), (2,), (2.0, 4), None],
                         ids=["no mode", "no level", "three entries", "one entry",
                              "float count", "no pair"])
def test_malformed_bases_are_refused(basis):
    # a basis is a pair (N, d) of integers, N modes and d levels, at least 1 each;
    # both constructors refuse anything else before reading their arrays
    with pytest.raises(ValueError, match="expected a basis"):
        SparseOperator(basis, np.zeros((1, 1), dtype=int), np.ones((1, 1)))
    with pytest.raises(ValueError, match="expected a basis"):
        StateVector(basis, [1.0])


def test_products_of_a_factor_that_is_no_one_mode_state_are_refused():
    # phi^(x)N needs phi on one mode; a state of two modes, or a product, is no factor
    mode = ModeSpec(mass=1.0, dim=6)
    for phi in (coherent_product(mode, 2, 0.1, 0.0), _random_state(3, (2, 3))):
        with pytest.raises(ValueError, match="one-mode state"):
            product_state(phi, 2)
    with pytest.raises(ValueError, match="expected a basis"):
        product_state(coherent_state(mode, 0.1, 0.0), 0)


def _random_state(seed, basis):
    rng = np.random.default_rng(seed)
    n, d = basis
    size = math.comb(n + d - 1, n)
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return StateVector(basis, amps / np.linalg.norm(amps))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_RATIONAL_MASS, st.integers(1, 3), st.integers(2, 5), _SEED)
def test_mode_by_mode_apply_matches_assembled_matrix(mass, n, d, seed):
    system = [ModeSpec(mass=float(mass), dim=d)] * n
    ops = cm_operators_numeric(system[0], n)
    psi = _random_state(seed, (n, d))
    iso = symmetric_isometry(n, d)
    for op, oracle in zip(ops, kron_cm_operators(system)):
        applied = op.apply(psi)
        assert np.abs(applied - op.matrix @ psi.amplitudes).max() <= 1e-14
        assert np.abs(applied - iso.T @ oracle @ iso @ psi.amplitudes).max() <= 1e-14


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_RATIONAL_MASS, st.integers(1, 3), st.integers(2, 5), _SEED)
def test_product_state_variances_are_analytic(mass, n, d, seed):
    # phi^(x)N: its N modes are uncorrelated and alike, so
    # var(X_CM) = var_phi(X) / N and var(P_TOT) = N var_phi(P)
    mode = ModeSpec(mass=float(mass), dim=d)
    phi = _random_state(seed, (1, d))
    psi = product_state(phi, n)
    x_cm, _, p_tot = cm_operators_numeric(mode, n)
    assert variance(x_cm, psi) == pytest.approx(variance(position_op(mode), phi) / n, abs=1e-12)
    assert variance(p_tot, psi) == pytest.approx(n * variance(momentum_op(mode), phi), abs=1e-12)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_RATIONAL_MASS, st.integers(1, 4), st.integers(2, 12), st.integers(1, 3), _SEED)
def test_shifted_slice_apply_is_bitwise_csr(mass, n, d, rows, seed):
    # the gather apply on random (S, D) rows is the CSR product of ``matrix``
    # bit for bit, at every mode count; exact zeros of either sign in the
    # amplitudes: a row sum that is zero must come out +0.0, as CSR's sums from
    # +0.0 do
    mode = ModeSpec(mass=float(mass), dim=d)
    rng = np.random.default_rng(seed)
    shape = (rows, math.comb(n + d - 1, n))
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stack[rng.random(shape) < 0.3] = 0.0
    stack.real[rng.random(shape) < 0.2] = -0.0
    stack.imag[rng.random(shape) < 0.2] = -0.0
    for op in cm_operators_numeric(mode, n):
        applied = op.apply(stack)
        assert applied.tobytes() == np.ascontiguousarray((op.matrix @ stack.T).T).tobytes()


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
    # one mode: the library's CM operators and H against the scipy.sparse
    # assembly; several unequal modes, whose composite index is the oracles'
    # alone: their Kronecker sums held as one SparseOperator, whose ``matrix``
    # must be the fold of the same factors, wide rows of slots included
    for name, system in _UNEQUAL_MODES.items():
        for label, op, factors in zip(("X_CM", "V_CM", "P_TOT"), cm_operators_numeric(system[0], 1),
                                      cm_factors(system)):
            if len(system) > 1:
                op = composite_operator([f.toarray() for f in factors], hermitian=True)
            yield pytest.param(op, factors, id=f"{label} {name}")
    for name, system in (("1 mode", [ModeSpec(mass=2.0, dim=12)]),
                         ("3 modes", [ModeSpec(mass=1.0, dim=4), ModeSpec(mass=2.0, dim=3),
                                      ModeSpec(mass=0.5, dim=5)])):
        for label, coeffs in _POTENTIALS.items():
            potential = PolynomialPotential.from_coeffs(coeffs)
            h = sparse_hamiltonian(system, potential)
            op = (build_hamiltonian(HamiltonianSpec(system[0], 1, potential)) if len(system) == 1
                  else SparseOperator((1, h.shape[0]), *slots(h), hermitian=True))
            yield pytest.param(op, [h], id=f"H {label} {name}")
    factors = [ladder(3).to_dense(), ladder(4).to_dense().T * 0.5]
    yield pytest.param(composite_operator(factors), factors, id="non-Hermitian sum")


@pytest.mark.parametrize("op, factors", _matrix_cases())
def test_matrix_is_the_kronsum_fold_byte_for_byte(op, factors):
    # the CSR matrix of the slots stores what the per-mode CSR fold stores,
    # signed zeros included; operator_nnz counts the same entries
    matrix, oracle = op.matrix, kronsum_matrix(factors)
    assert matrix.nnz == oracle.nnz
    for part in ("data", "indices", "indptr"):
        assert getattr(matrix, part).tobytes() == getattr(oracle, part).tobytes()


def test_kronecker_sum_rejects_non_hermitian_factor():
    x = position_op(ModeSpec(mass=1.0, dim=3)).to_dense()
    with pytest.raises(ValueError, match="marked Hermitian"):
        composite_operator([x, ladder(4).to_dense()], hermitian=True)
    assert not composite_operator([x, ladder(4).to_dense()]).hermitian


def test_cm_operators_apply_without_assembly(monkeypatch, capsys):
    # uncertainty needs only applications; no composite matrix is assembled
    def refuse(*args, **kwargs):
        raise AssertionError("composite matrix assembled")

    monkeypatch.setattr(SparseOperator, "matrix", property(refuse))
    monkeypatch.setattr(scipy.sparse, "csr_matrix", refuse)
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
    # phi (x) phi: the CM mean is one mode's mean
    psi0 = coherent_state(MODE, 0.7, 0.1)
    joint = product_state(psi0, 2)
    x_cm = cm_operators_numeric(MODE, 2)[0]
    assert abs(expectation(x_cm, joint) - expectation(position_op(MODE), psi0)) < 1e-12
    assert abs(joint.norm() - 1.0) < 1e-12


def test_state_vector_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector((1, 4), np.array([1.0, 1.0, 0.0, 0.0]))


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
    psi = ground_product(MODE8, 2)
    x_cm, v_cm, _ = cm_operators_numeric(MODE8, 2)
    assert uncertainty_product(x_cm, v_cm, psi) == pytest.approx(0.25, abs=1e-12)


def test_uncertainty_bound_value():
    # hbar / (2 N mbar) for N = 4, mbar = 1
    mode = ModeSpec(mass=1.0, dim=4)
    psi = ground_product(mode, 4)
    x_cm, v_cm, _ = cm_operators_numeric(mode, 4)
    product = uncertainty_product(x_cm, v_cm, psi)
    assert product == pytest.approx(1.0 / 8.0, abs=1e-12)


def test_commutator_expectation_values():
    rec = cm_expectation_record(basis_state(16), MODE)
    assert rec.commutator_expectation == pytest.approx(1j, abs=1e-12)
    rec = cm_expectation_record(ground_product(MODE8, 3), MODE8)
    assert rec.commutator_expectation == pytest.approx(1j / 3.0, abs=1e-10)


def test_commutator_expectation_gate():
    top = basis_state(16, n=15)
    assert cm_expectation_record(top, MODE).truncation_weight == 1.0
    with pytest.raises(ExcessiveTruncationError):
        commutator_expectation(top, MODE)


def test_commutator_expectation_scaling():
    for n in range(1, 6):
        value = cm_expectation_record(ground_product(MODE6, n), MODE6).commutator_expectation
        assert abs(value.imag * n - 1.0) < 1e-9
        assert abs(value.real) < 1e-12


def test_factorization_residual_values():
    def residual(psi, mode):
        return cm_expectation_record(psi, mode).factorization_residual

    assert residual(basis_state(16), MODE) == pytest.approx(0.5, abs=1e-12)
    assert residual(ground_product(MODE6, 4), MODE6) == pytest.approx(0.125, abs=1e-12)
    scaled = [residual(ground_product(MODE6, n), MODE6) * n for n in (1, 2, 4)]
    assert max(scaled) - min(scaled) < 1e-9


def test_truncation_weight_cases():
    assert truncation_weight(basis_state(8)) == 0.0
    assert truncation_weight(basis_state(8, n=7)) == 1.0
    alpha_one = coherent_state(MODE, math.sqrt(2.0), 0.0)  # |alpha| = 1
    assert truncation_weight(alpha_one) < 1e-12


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.one_of(
    st.tuples(_RATIONAL_MASS, st.just(1), st.integers(2, 64)),
    st.tuples(_RATIONAL_MASS, st.integers(2, 3), st.integers(2, 5)),
), st.integers(1, 40), _SEED)
def test_stacked_records_equal_per_row_records(shape, rows, seed):
    # the stacked path is the per-row path's arithmetic, bit for bit; single
    # modes of 8 levels and more reach the vectorized BLAS dot kernels
    mass, n, d = shape
    mode = ModeSpec(mass=float(mass), dim=d)
    ops = cm_operators_numeric(mode, n)
    rng = np.random.default_rng(seed)
    shape = (rows, ops[0].dim)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stack /= np.linalg.norm(stack, axis=1)[:, None]
    weights = truncation_weights(stack, (n, d))
    columns = cm_expectation_records(stack, ops[0].apply(stack), ops[1].apply(stack), weights)
    for op in ops:
        applied = op.apply(stack)
        assert all(np.array_equal(applied[k], op.apply(row)) for k, row in enumerate(stack))
    for k, row in enumerate(stack):
        psi = StateVector((n, d), row)
        assert weights[k] == truncation_weight(psi)
        record = cm_expectation_record(psi, mode)
        assert [c[k] for c in vars(columns).values()] == list(vars(record).values())


def test_robertson_bound_random_states():
    rng = np.random.default_rng(61)
    x_cm, v_cm, _ = cm_operators_numeric(MODE6, 2)
    x, v = x_cm.to_dense(), v_cm.to_dense()
    comm = x @ v - v @ x
    # support on the states whose levels are all below 4, so the truncation gate holds
    low = [s for s, levels in enumerate(itertools.combinations_with_replacement(range(6), 2))
           if max(levels) < 4]
    for _ in range(1000):
        amps = np.zeros(21, dtype=complex)
        amps[low] = rng.standard_normal(len(low)) + 1j * rng.standard_normal(len(low))
        amps /= np.linalg.norm(amps)
        psi = StateVector((2, 6), amps)
        assert truncation_weight(psi) < 1e-6
        lhs = uncertainty_product(x_cm, v_cm, psi)
        rhs = 0.5 * abs(np.vdot(psi.amplitudes, comm @ psi.amplitudes))
        assert lhs >= rhs * (1.0 - 1e-9)


def test_expectation_record_consistency():
    psi = coherent_state(MODE, 0.8, -0.2)
    rec = cm_expectation_record(psi, MODE)
    assert rec.x_cm == pytest.approx(0.8, abs=1e-8)
    assert rec.v_cm == pytest.approx(-0.2, abs=1e-8)
    assert rec.dx * rec.dv == pytest.approx(0.5, abs=1e-8)
    assert rec.commutator_expectation == pytest.approx(1j, abs=1e-10)
    assert 0.0 <= rec.truncation_weight <= 1.0


# ---------------------------------------------------------------------------
# Matrix oracle for the symbolic algebra
# ---------------------------------------------------------------------------


def _pair_matrices(eps, dim):
    """Dense (X, V) of the CM mode of total mass 1/eps: [X, V] = i*eps (hbar = 1)
    away from the top level."""
    x, v, _ = cm_operators_numeric(ModeSpec(mass=1 / eps, dim=dim), 1)
    return x.to_dense(), v.to_dense()


def test_symbolic_product_matches_matrix_product():
    alg = cm_algebra()
    X, V = alg.x(), alg.v()
    pairs = [_pair_matrices(0.25, 48)]
    rng = random.Random(67)
    safe = slice(0, 36)  # drop the top 12 levels
    for _ in range(6):
        f = random_polynomial(rng, alg, max_degree=3)
        g = random_polynomial(rng, alg, max_degree=3)
        sym = poly_matrix(f * g, pairs, 1.0, 0.25)
        direct = poly_matrix(f, pairs, 1.0, 0.25) @ poly_matrix(g, pairs, 1.0, 0.25)
        assert np.abs(sym[safe, safe] - direct[safe, safe]).max() < 1e-10


def test_symbolic_commutator_matches_matrix_commutator():
    alg = cm_algebra()
    X, V = alg.x(), alg.v()
    pairs = [_pair_matrices(0.25, 48)]
    safe = slice(0, 36)
    sym = poly_matrix(commutator(X**2, V**2), pairs, 1.0, 0.25)
    x2 = poly_matrix(X**2, pairs, 1.0, 0.25)
    v2 = poly_matrix(V**2, pairs, 1.0, 0.25)
    direct = x2 @ v2 - v2 @ x2
    assert np.abs(sym[safe, safe] - direct[safe, safe]).max() < 1e-10


def test_cm_pair_ops_commutator_scale():
    x, v = _pair_matrices(0.25, 32)
    comm = x @ v - v @ x
    assert abs(comm[0, 0] - 0.25j) < 1e-12


def test_sparse_operator_hermitian_flag_validation():
    # a NaN defect is refused too, also in the first slot, where it came first
    # in the max of the defects and hid an asymmetric one
    cases = (slots(np.array([[0.0, 1.0], [0.0, 0.0]])),
             (np.array([[0], [1]]), np.array([[np.nan], [0.0]])),
             (np.array([[0], [1]]), np.array([[np.nan], [1j]])))
    for columns, values in cases:
        with pytest.raises(ValueError):
            SparseOperator((1, 2), columns, values, hermitian=True)


def test_sparse_operator_takes_diagonals_only():
    # the slots are an integer array of columns and a float or complex array of
    # values; a dense or scipy.sparse matrix, or a dict of diagonals, is refused
    x = position_op(ModeSpec(mass=1.0, dim=3))
    for matrix in (x.to_dense(), x.matrix, {1: np.ones(3)}):
        with pytest.raises(TypeError, match="slots"):
            SparseOperator((1, 3), matrix, matrix)


@pytest.mark.parametrize("columns, values, message", [
    (np.zeros((3, 0), dtype=int), np.zeros((3, 0)), "at least one slot"),
    (np.zeros((2, 1), dtype=int), np.ones((2, 1)), "3 rows"),
    (np.array([[3], [0], [0]]), np.ones((3, 1)), "leaves the 3 x 3 matrix"),
    (np.array([[-1], [0], [0]]), np.ones((3, 1)), "leaves the 3 x 3 matrix"),
], ids=["no diagonal", "short diagonal", "offset past the last column", "offset past the last row"])
def test_sparse_operator_refuses_malformed_diagonals(columns, values, message):
    # malformed slots are refused when built, not later inside apply as a numpy
    # index error: no slot, too few rows, a column past either end
    with pytest.raises(ValueError, match=message):
        SparseOperator((1, 3), columns, values)
