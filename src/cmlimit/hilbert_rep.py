"""Truncated-oscillator-basis representation of many-particle observables.

Each particle is a mode with a mass, a basis frequency omega (an arbitrary
basis parameter, not dynamics -- default 1) and a truncation dimension d.
Position and momentum are the standard tridiagonal ladder combinations; the
only truncation artifact is the known defect of [X, P] confined to the top
basis level, so "occupation of the top level" is a precise validity gate.

The CM operators are Kronecker sums of single-mode matrices,
sum_k w_k I (x) ... (x) A_k (x) ... (x) I, with mode 0 the slowest-varying
factor of the composite index (the leading Kronecker factor).  They are
kept as their d x d factors and applied mode by mode to the amplitude
tensor; the composite sparse matrix is assembled only when read (for the
Hamiltonian and the symbolic-algebra bridge).  An (S, D) stack of amplitude
rows is applied and evaluated in one pass: the row index is one more
leading axis of the tensor, and :func:`cm_expectation_records` and
:func:`truncation_weights` give every row's record and weight, with the
one-state functions their one-row case.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import gammaln

from .ccr_algebra import NCPolynomial

DEFAULT_AMPLITUDE_CAP = 2**20
HERMITIAN_TOLERANCE = 1e-12
COHERENT_GATE = 1e-6


class ExcessiveTruncationError(RuntimeError):
    """A state puts too much probability on a mode's top basis level."""


class DimensionCapError(ValueError):
    """A requested composite dimension exceeds the amplitude cap."""


def _check_cap(mode_dims):
    total = math.prod(mode_dims)
    if total > DEFAULT_AMPLITUDE_CAP:
        raise DimensionCapError(
            f"composite dimension {total} exceeds the cap of {DEFAULT_AMPLITUDE_CAP} amplitudes"
        )


@dataclass(frozen=True)
class ModeSpec:
    """One oscillator mode: physical mass, basis frequency, truncation, hbar."""

    mass: float
    omega: float = 1.0
    dim: int = 16
    hbar: float = 1.0

    def __post_init__(self):
        if self.mass <= 0 or self.omega <= 0 or self.hbar <= 0:
            raise ValueError("mass, omega and hbar must be positive")
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        # the squared scales of position_op and momentum_op
        for scale in (self.hbar / (2.0 * self.mass * self.omega),
                      self.mass * self.hbar * self.omega / 2.0):
            if not sys.float_info.min <= scale < math.inf:
                raise ValueError("mass, omega and hbar put the position or momentum "
                                 "scale out of the floating-point range")


class SparseOperator:
    """Sparse complex operator on a tensor product of modes.

    Held as a Kronecker sum of square sparse factors,
    sum_k I (x) ... (x) F_k (x) ... (x) I, whose dimensions multiply to the
    composite dimension; a general matrix is the one-factor case.  ``apply``
    works factor by factor on the amplitude tensor, and ``matrix`` is
    assembled on first read and cached.
    """

    __slots__ = ("mode_dims", "factors", "hermitian", "_matrix")

    def __init__(self, mode_dims, matrix, hermitian=False):
        matrix = sp.csr_matrix(matrix, dtype=np.complex128)
        self._set(mode_dims, (matrix,), hermitian, matrix)

    @classmethod
    def kronecker_sum(cls, mode_dims, factors, hermitian=False) -> "SparseOperator":
        """sum_k I (x) ... (x) factors[k] (x) ... (x) I, factor 0 the leading one."""
        op = cls.__new__(cls)
        op._set(mode_dims, tuple(sp.csr_matrix(f, dtype=np.complex128) for f in factors),
                hermitian, None)
        return op

    def _set(self, mode_dims, factors, hermitian, matrix):
        mode_dims = tuple(int(d) for d in mode_dims)
        if any(f.shape[0] != f.shape[1] for f in factors) or (
                math.prod(f.shape[0] for f in factors) != math.prod(mode_dims)):
            raise ValueError(f"factor shapes {[f.shape for f in factors]} do not match "
                             f"dims {mode_dims}")
        if hermitian:
            for f in factors:
                defect = f - f.getH()
                if defect.nnz and abs(defect).max() > HERMITIAN_TOLERANCE:
                    raise ValueError("operator marked Hermitian is not (within 1e-12)")
        object.__setattr__(self, "mode_dims", mode_dims)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "hermitian", bool(hermitian))
        object.__setattr__(self, "_matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("SparseOperator is immutable")

    @property
    def matrix(self) -> sp.csr_matrix:
        """The composite CSR matrix; a Kronecker sum is folded on first read and cached.

        The fold is ``scipy.sparse.kronsum(F_k, S)`` over the factors from a
        1x1 zero, so factor 0 ends up the slowest-varying index.
        """
        if self._matrix is None:
            total = sp.csr_matrix((1, 1), dtype=np.complex128)
            for factor in self.factors:
                total = sp.kronsum(factor, total, format="csr")
            object.__setattr__(self, "_matrix", total)
        return self._matrix

    @property
    def dim(self) -> int:
        return math.prod(self.mode_dims)

    def apply(self, psi) -> np.ndarray:
        """op psi for a StateVector on this layout, a bare amplitude vector or an (S, D) stack.

        Factor k acts on axis k of the amplitude tensor (the "vec trick",
        Van Loan 2000); the row index of a stack is one more leading axis.
        A one-factor operator is a single sparse product.
        """
        if isinstance(psi, StateVector):
            if psi.mode_dims != self.mode_dims:
                raise ValueError("state and operator act on different mode layouts")
            psi = psi.amplitudes
        if psi.ndim not in (1, 2) or psi.shape[-1] != self.dim:
            raise ValueError(f"expected {self.dim} amplitudes per row, got shape {psi.shape}")
        out, left = None, psi.shape[0] if psi.ndim == 2 else 1
        for factor in self.factors:
            d = factor.shape[0]
            right = psi.size // (left * d)
            # axis of this factor first: (left, d, right) -> (d, left * right)
            block = psi.reshape(left, d, right).transpose(1, 0, 2).reshape(d, -1)
            term = (factor @ block).reshape(d, left, right).transpose(1, 0, 2).reshape(psi.shape)
            out = term if out is None else out + term
            left *= d
        # a one-factor stack comes back transposed; rows must be contiguous, as
        # a single state's are, for dot products to round the same way
        return np.ascontiguousarray(out)

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def __repr__(self):
        return f"<SparseOperator dims={self.mode_dims} factors={len(self.factors)}>"


class StateVector:
    """Dense normalized amplitude vector on a tensor product of modes."""

    __slots__ = ("mode_dims", "amplitudes")

    def __init__(self, mode_dims, amplitudes):
        mode_dims = tuple(int(d) for d in mode_dims)
        amplitudes = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        if amplitudes.size != math.prod(mode_dims):
            raise ValueError("amplitude count does not match mode dimensions")
        nrm = float(np.linalg.norm(amplitudes))
        # loose sanity check only; evolution gates enforce the tight 1e-8 drift bound
        if not abs(nrm - 1.0) <= 1e-6:  # NaN-safe comparison
            raise ValueError(f"state is not normalized (norm {nrm})")
        object.__setattr__(self, "mode_dims", mode_dims)
        object.__setattr__(self, "amplitudes", amplitudes)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __repr__(self):
        return f"<StateVector dims={self.mode_dims} norm={self.norm():.12f}>"


# ---------------------------------------------------------------------------
# Single-mode operators
# ---------------------------------------------------------------------------


def ladder(d: int) -> SparseOperator:
    """Lowering operator on a d-level mode: a|n> = sqrt(n)|n-1>."""
    if d < 2:
        raise ValueError("dim must be at least 2")
    data = np.sqrt(np.arange(1, d))
    return SparseOperator((d,), sp.diags(data, offsets=1))


def position_op(mode: ModeSpec) -> SparseOperator:
    """X = sqrt(hbar/2 m omega) (a + a†); Hermitian, tridiagonal."""
    a = ladder(mode.dim).matrix
    scale = math.sqrt(mode.hbar / (2.0 * mode.mass * mode.omega))
    return SparseOperator((mode.dim,), scale * (a + a.getH()), hermitian=True)


def momentum_op(mode: ModeSpec) -> SparseOperator:
    """P = i sqrt(m hbar omega / 2) (a† - a); Hermitian, tridiagonal."""
    a = ladder(mode.dim).matrix
    scale = math.sqrt(mode.mass * mode.hbar * mode.omega / 2.0)
    return SparseOperator((mode.dim,), 1j * scale * (a.getH() - a), hermitian=True)


# ---------------------------------------------------------------------------
# CM observables
# ---------------------------------------------------------------------------


def cm_operators_numeric(system):
    """(X_CM, V_CM, P_TOT) on the tensor product of the given modes.

    Each is the Kronecker sum of its weighted single-mode matrices, mode 0
    the leading factor: (m_k/M) X_k, P_k/M and P_k.  Nothing is assembled
    here; ``apply`` works mode by mode, and ``.matrix`` folds the factors
    with ``scipy.sparse.kronsum`` when read.  Every entry of the assembled
    matrix is a single product w_k * A_k[i, j]: the modes' terms never overlap.
    """
    system = list(system)
    if not system:
        raise ValueError("need at least one mode")
    total_mass = sum(m.mass for m in system)
    dims = tuple(m.dim for m in system)
    _check_cap(dims)
    x_factors = [(m.mass / total_mass) * position_op(m).matrix for m in system]
    p_factors = [momentum_op(m).matrix for m in system]
    x_cm = SparseOperator.kronecker_sum(dims, x_factors, hermitian=True)
    p_tot = SparseOperator.kronecker_sum(dims, p_factors, hermitian=True)
    v_cm = SparseOperator.kronecker_sum(dims, [p / total_mass for p in p_factors],
                                        hermitian=True)
    return x_cm, v_cm, p_tot


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


def basis_state(d: int, n: int = 0) -> StateVector:
    amps = np.zeros(d, dtype=np.complex128)
    amps[n] = 1.0
    return StateVector((d,), amps)


def coherent_state(mode: ModeSpec, x0: float, p0: float) -> StateVector:
    """Minimal-uncertainty state with <X> = x0 and <P> = p0, renormalized.

    alpha = sqrt(m omega / 2 hbar) x0 + i p0 / sqrt(2 m hbar omega).  Raises
    ExcessiveTruncationError when the truncated state keeps more than 1e-6
    of its probability on the top basis level, or when alpha is not finite.
    """
    alpha = (
        math.sqrt(mode.mass * mode.omega / (2.0 * mode.hbar)) * x0
        + 1j * p0 / math.sqrt(2.0 * mode.mass * mode.hbar * mode.omega)
    )
    if not cmath.isfinite(alpha):
        raise ExcessiveTruncationError(
            f"coherent state (|alpha| = {abs(alpha):.3g}) does not fit a {mode.dim}-level basis"
        )
    n = np.arange(mode.dim)
    if alpha == 0:
        amps = np.zeros(mode.dim, dtype=np.complex128)
        amps[0] = 1.0
    else:
        # work in log magnitude to survive large |alpha| without overflow
        log_mag = n * math.log(abs(alpha)) - 0.5 * gammaln(n + 1.0)
        log_mag -= log_mag.max()
        amps = np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))
        amps /= np.linalg.norm(amps)
    top_weight = float(abs(amps[-1]) ** 2)
    if top_weight >= COHERENT_GATE:
        raise ExcessiveTruncationError(
            f"coherent state (|alpha| = {abs(alpha):.3g}) keeps weight "
            f"{top_weight:.3g} on the top of a {mode.dim}-level basis"
        )
    return StateVector((mode.dim,), amps)


def product_state(states) -> StateVector:
    """Tensor product of per-mode states, normalized."""
    states = list(states)
    if not states:
        raise ValueError("need at least one factor")
    dims = tuple(d for s in states for d in s.mode_dims)
    _check_cap(dims)
    amps = states[0].amplitudes
    for s in states[1:]:
        amps = np.kron(amps, s.amplitudes)
    amps = amps / np.linalg.norm(amps)
    return StateVector(dims, amps)


def ground_product(system) -> StateVector:
    """|0,...,0> on the given modes."""
    return product_state([basis_state(m.dim) for m in system])


def coherent_product(system, x0s, p0s) -> StateVector:
    return product_state(
        [coherent_state(m, x, p) for m, x, p in zip(system, x0s, p0s, strict=True)]
    )


# ---------------------------------------------------------------------------
# Expectations and validity gates
# ---------------------------------------------------------------------------


def expectation(op: SparseOperator, psi) -> complex | np.ndarray:
    """<psi|op|psi> of a StateVector, or one value per row of an (S, D) amplitude stack."""
    amplitudes = psi.amplitudes if isinstance(psi, StateVector) else psi
    return np.vecdot(amplitudes, op.apply(psi))


def variance(op: SparseOperator, psi: StateVector) -> float:
    """<op^2> - <op>^2 for a Hermitian operator, computed as ||(op - <op>)psi||^2."""
    if not op.hermitian:
        raise ValueError("variance requires a Hermitian operator")
    applied = op.apply(psi)
    mean = np.vdot(psi.amplitudes, applied)
    centered = applied - mean * psi.amplitudes
    return float(np.real(np.vdot(centered, centered)))


def uncertainty_product(a: SparseOperator, b: SparseOperator, psi: StateVector) -> float:
    return math.sqrt(variance(a, psi)) * math.sqrt(variance(b, psi))


def truncation_weights(amplitudes: np.ndarray, mode_dims) -> np.ndarray:
    """Per row of an (S, D) amplitude stack: the maximum over modes of the
    probability of that mode's top basis level."""
    probs = np.abs(amplitudes.reshape((-1, *mode_dims))) ** 2
    worst = np.zeros(len(probs))
    for axis, d in enumerate(mode_dims):
        others = tuple(i + 1 for i in range(len(mode_dims)) if i != axis)
        worst = np.maximum(worst, probs.sum(axis=others)[:, d - 1])
    return worst


def truncation_weight(psi: StateVector) -> float:
    """Maximum over modes of the probability of that mode's top basis level."""
    return float(truncation_weights(psi.amplitudes, psi.mode_dims)[0])


@dataclass(frozen=True)
class ExpectationRecord:
    """CM observables of one state: means, widths, commutator and gates."""

    x_cm: float
    v_cm: float
    dx: float
    dv: float
    commutator_expectation: complex
    factorization_residual: float
    truncation_weight: float


def cm_expectation_records(amplitudes: np.ndarray, ops, weights) -> list:
    """The ExpectationRecord of every row of an (S, D) amplitude stack.

    ``ops`` is the (X_CM, V_CM, P_TOT) triple of ``cm_operators_numeric``
    and ``weights`` the rows' ``truncation_weights``.  Each row's fields are
    the same arithmetic as for that row alone.
    """
    x_cm, v_cm, _ = ops
    x_psi = x_cm.apply(amplitudes)
    v_psi = v_cm.apply(amplitudes)
    x_mean = np.vecdot(amplitudes, x_psi)
    v_mean = np.vecdot(amplitudes, v_psi)
    x_dev = x_psi - x_mean[:, None] * amplitudes
    v_dev = v_psi - v_mean[:, None] * amplitudes
    xv = np.vecdot(x_psi, v_psi)
    fields = (
        x_mean.real,
        v_mean.real,
        np.sqrt(np.maximum(np.vecdot(x_dev, x_dev).real, 0.0)),
        np.sqrt(np.maximum(np.vecdot(v_dev, v_dev).real, 0.0)),
        xv - np.conjugate(xv),
        np.abs(xv - x_mean * v_mean),
        weights,
    )
    return [ExpectationRecord(*row) for row in zip(*(f.tolist() for f in fields))]


def cm_expectation_record(psi: StateVector, system, ops=None) -> ExpectationRecord:
    """The record of one state: the one-row case of :func:`cm_expectation_records`."""
    ops = ops if ops is not None else cm_operators_numeric(system)
    if psi.mode_dims != ops[0].mode_dims:
        raise ValueError("state and operator act on different mode layouts")
    rows = psi.amplitudes[None]
    return cm_expectation_records(rows, ops, truncation_weights(rows, psi.mode_dims))[0]


def commutator_expectation(psi: StateVector, system, gate: float = 1e-12,
                           ops=None) -> complex:
    """<psi|[X_CM, V_CM]|psi> from the expectation record, refused above the truncation gate."""
    rec = cm_expectation_record(psi, system, ops=ops)
    if rec.truncation_weight > gate:
        raise ExcessiveTruncationError(
            f"truncation weight {rec.truncation_weight:.3g} exceeds the gate {gate:.3g}"
        )
    return rec.commutator_expectation


# ---------------------------------------------------------------------------
# Bridge to the symbolic algebra (matrix oracle)
# ---------------------------------------------------------------------------


def cm_pair_ops(eps: float, dim: int, omega: float = 1.0, hbar: float = 1.0):
    """Single-mode (X, V) matrices with [X, V] = i*hbar*eps away from the top level.

    Realized as a mode of mass 1/eps with V = eps * P, exactly the effective
    center-of-mass mode of total mass 1/eps.
    """
    mode = ModeSpec(mass=1.0 / eps, omega=omega, dim=dim, hbar=hbar)
    x = position_op(mode)
    v = SparseOperator((dim,), momentum_op(mode).matrix * eps, hermitian=True)
    return x, v


def nc_matrix(poly: NCPolynomial, pair_ops, hbar: float, eps: float,
              mode_dims=None) -> SparseOperator:
    """Numeric evaluation of a normal-ordered polynomial.

    ``pair_ops[k]`` supplies the (X_k, V_k) matrices, all on the same mode
    layout; hbar and eps substitute the formal exponents.  Term order follows
    the normal-ordered representation, so this is the faithful matrix image
    of the symbolic element.
    """
    pair_ops = list(pair_ops)
    if len(pair_ops) != poly.algebra.n_pairs:
        raise ValueError("need one (X, V) operator pair per algebra pair")
    if mode_dims is None:
        mode_dims = pair_ops[0][0].mode_dims
    size = math.prod(mode_dims)
    total = sp.csr_matrix((size, size), dtype=np.complex128)
    for mono, coeff in poly.terms.items():
        scalar = coeff.to_complex() * hbar**mono.hbar_exp * eps**mono.eps_exp
        term = sp.identity(size, format="csr", dtype=np.complex128)
        for k, x_exp, v_exp in mono.pairs:
            x_op, v_op = pair_ops[k]
            for _ in range(x_exp):
                term = term @ x_op.matrix
            for _ in range(v_exp):
                term = term @ v_op.matrix
        total = total + scalar * term
    return SparseOperator(mode_dims, total)
