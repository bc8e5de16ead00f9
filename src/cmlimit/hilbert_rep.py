"""Truncated-oscillator-basis representation of many-particle observables.

Each particle is a mode with a mass and a truncation dimension d, in the
oscillator basis of unit frequency (a basis choice: [X_CM, V_CM] does not
depend on it).  Position and momentum are the standard tridiagonal ladder
combinations; the only truncation artifact is the known defect of [X, P]
confined to the top basis level, so its weight is a precise validity gate
(TRUNCATION_GATE).

Every operator is built by one constructor, ``SparseOperator(mode_dims,
diagonals)``: one banded matrix over the composite index, mode 0 the
slowest-varying, held in numpy as its nonzero diagonals.  A CM operator is
the Kronecker sum sum_k I (x) ... (x) F_k (x) ... (x) I of weighted
single-mode X or P, each tridiagonal with a zero main diagonal;
:func:`_kronecker_sum` spreads them over the composite index once, when
the operator is built, two diagonals per mode.  :func:`_diagonal_product`
multiplies two operators' diagonals, and
:func:`cmlimit.dynamics.build_hamiltonian` forms the Hamiltonian's band
with it; ``SparseOperator.apply``, one pass of shifted slices per
diagonal, is the one way an operator meets amplitudes, for the CM
observables, <H> and the Lanczos propagator alike.  Neither this module
nor :mod:`cmlimit.dynamics` reads the symbolic algebra of
:mod:`cmlimit.ccr_algebra`: the exact and the numeric routes meet only
where the CLI and the tests compare them.  This module and
:mod:`cmlimit.dynamics` load numpy alone; the ``matrix`` property, one
``scipy.sparse.diags`` of the diagonals, is this module's only scipy
import, read only by tests and the benchmark's nnz counter.  An (S, D)
stack of amplitude rows is applied and evaluated in one pass:
:func:`cm_expectation_records` gives, from the rows' X_CM and V_CM images,
one record whose fields are columns, one entry per row, and
:func:`truncation_weights` one weight per row; the one-state functions are
their one-row case.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

DEFAULT_AMPLITUDE_CAP = 2**20
HERMITIAN_TOLERANCE = 1e-12
TRUNCATION_GATE = 1e-6  # on the top-level weight of any mode: states, evolution, CLI


class ExcessiveTruncationError(RuntimeError):
    """A state puts too much probability on a mode's top basis level."""


class DimensionCapError(ValueError):
    """A requested composite dimension exceeds the amplitude cap."""


def _check_cap(mode_dims):
    """Raise at the first partial product over the cap; the full product may have
    thousands of digits, so it is neither formed nor printed."""
    total = 1
    for d in mode_dims:
        total *= d
        if total > DEFAULT_AMPLITUDE_CAP:
            raise DimensionCapError(
                f"composite dimension exceeds the cap of {DEFAULT_AMPLITUDE_CAP} amplitudes"
            )


@dataclass(frozen=True)
class ModeSpec:
    """One oscillator mode: physical mass, truncation, hbar."""

    mass: float
    dim: int = 16
    hbar: float = 1.0

    def __post_init__(self):
        if self.mass <= 0 or self.hbar <= 0:
            raise ValueError("mass and hbar must be positive")
        if not isinstance(self.dim, numbers.Integral) or self.dim < 2:
            raise ValueError("dim must be an integer of at least 2")
        # the squared scales of position_op and momentum_op
        for scale in (self.hbar / (2.0 * self.mass), self.mass * self.hbar / 2.0):
            if not sys.float_info.min <= scale < math.inf:
                raise ValueError("mass and hbar put the position or momentum "
                                 "scale out of the floating-point range")


def _span(o: int, d: int) -> tuple:
    """The rows i of a d x d matrix that hold an offset-o diagonal entry, and their columns i + o."""
    return (slice(0, d - o), slice(o, d)) if o >= 0 else (slice(-o, d), slice(0, d + o))


def _size(diagonals: dict) -> int:
    return len(next(iter(diagonals.values())))


def _shifted(values: np.ndarray, o: int) -> np.ndarray:
    """Entry i is values[i + o], zero where i + o leaves the array; for the padded
    offset -o diagonal of A this is the offset-o diagonal of A's transpose."""
    out = np.zeros_like(values)
    rows, cols = _span(o, len(values))
    out[rows] = values[cols]
    return out


def _kronecker_sum(factors) -> dict:
    """The diagonals over the composite index of sum_k I (x) ... (x) F_k (x) ... (x) I,
    factor 0 the slowest-varying index: factor k's offset o lands at o times the
    dimension of the factors after it.  Every value is summed from +0.0, as a
    sparse Kronecker-sum fold sums it, which turns -0.0 into +0.0."""
    sizes = [_size(f) for f in factors]
    out, left, dim = {}, 1, math.prod(sizes)
    for d, factor in zip(sizes, factors):
        right = dim // (left * d)
        for o, values in factor.items():
            full = np.broadcast_to(values[:, None], (left, d, right)).ravel()
            out[o * right] = out.get(o * right, 0.0) + full
        left *= d
    return out


def _diagonal_product(a: dict, b: dict, reverse: bool) -> dict:
    """The diagonals of A @ B, both held as padded diagonals of one size:
    (A @ B)[i, i + oa + ob] adds A[i, i + oa] * B[i + oa, i + oa + ob] over
    the offsets oa of A, ascending or, with ``reverse``, descending."""
    out = {}
    for oa in sorted(a, reverse=reverse):
        va = a[oa]
        for ob, vb in b.items():
            if abs(oa + ob) >= len(va):  # a diagonal outside the matrix
                continue
            term = va * _shifted(vb, oa)
            out[oa + ob] = out[oa + ob] + term if oa + ob in out else term
    return dict(sorted(out.items()))


class SparseOperator:
    """Operator on a tensor product of modes: one banded matrix over the composite index.

    ``diagonals`` is a dict ``{offset: values}``, held in ascending offset
    order, with ``values[i] = A[i, i + offset]`` where that column exists and
    zero padding elsewhere, each of the composite dimension, the product of
    ``mode_dims``, mode 0 the slowest-varying index: two diagonals per mode
    for a CM operator (built by :func:`_kronecker_sum`), the band of a
    Hamiltonian.  ``apply`` adds the diagonals' products by shifted slices;
    only ``matrix``, the CSR matrix, imports ``scipy.sparse``, this module's
    one scipy import.
    """

    __slots__ = ("mode_dims", "diagonals", "hermitian")

    def __init__(self, mode_dims, diagonals, hermitian=False):
        mode_dims = tuple(int(d) for d in mode_dims)
        if not isinstance(diagonals, dict):
            raise TypeError("diagonals are a dict {offset: values}")
        if not diagonals:
            raise ValueError("an operator holds at least one diagonal")
        dim = math.prod(mode_dims)
        if any(np.shape(v) != (dim,) for v in diagonals.values()):
            raise ValueError(f"each diagonal holds {dim} values on dims {mode_dims}")
        if any(abs(o) >= dim for o in diagonals):
            raise ValueError(f"an offset of {sorted(diagonals)} leaves the {dim} x {dim} matrix")
        diagonals = dict(sorted(diagonals.items()))
        if hermitian:
            zero = np.zeros(dim)
            if not all(np.abs(v - np.conj(_shifted(diagonals.get(-o, zero), o))).max()
                       <= HERMITIAN_TOLERANCE for o, v in diagonals.items()):  # NaN fails
                raise ValueError("operator marked Hermitian is not (within 1e-12)")
        object.__setattr__(self, "mode_dims", mode_dims)
        object.__setattr__(self, "diagonals", diagonals)
        object.__setattr__(self, "hermitian", bool(hermitian))

    def __setattr__(self, name, value):
        raise AttributeError("SparseOperator is immutable")

    @property
    def matrix(self):
        """The complex CSR matrix, one ``scipy.sparse.diags`` of the diagonals,
        built anew on each read.

        Read only by tests and the benchmark's nnz counter; it imports
        ``scipy.sparse`` (the ``test`` extra).
        """
        import scipy.sparse as sp

        return sp.diags([v[_span(o, self.dim)[0]] for o, v in self.diagonals.items()],
                        list(self.diagonals), shape=(self.dim, self.dim), format="csr",
                        dtype=np.complex128)

    @property
    def dim(self) -> int:
        return math.prod(self.mode_dims)

    def apply(self, psi) -> np.ndarray:
        """op psi for a StateVector on this layout, a bare amplitude vector or an (S, D) stack.

        The first diagonal's products, then each further one's added, by
        ascending offset, on the (S, D) view: each row adds its entries by
        ascending column, as a CSR product does.  CSR starts the sum at
        +0.0, which the final ``+ 0.0`` reproduces for zero sums (it turns
        -0.0 into +0.0 and changes nothing else): every row is rounded as
        ``matrix`` rounds it, bit for bit.
        """
        if isinstance(psi, StateVector):
            if psi.mode_dims != self.mode_dims:
                raise ValueError("state and operator act on different mode layouts")
            psi = psi.amplitudes
        if psi.ndim not in (1, 2) or psi.shape[-1] != self.dim:
            raise ValueError(f"expected {self.dim} amplitudes per row, got shape {psi.shape}")
        rows, out = psi.reshape(-1, self.dim), None
        for o, values in self.diagonals.items():
            span, cols = _span(o, self.dim)
            if out is None:
                out = np.empty(rows.shape, dtype=np.result_type(rows, values))
                np.multiply(values[span], rows[:, cols], out=out[:, span])
                out[:, :span.start] = 0
                out[:, span.stop:] = 0
            else:
                out[:, span] += values[span] * rows[:, cols]
        out += 0.0  # the +0.0 CSR starts every sum from
        return out.reshape(psi.shape)

    def to_dense(self) -> np.ndarray:
        """The matrix as a dense complex array: the columns op e_j."""
        return np.ascontiguousarray(self.apply(np.eye(self.dim, dtype=np.complex128)).T)

    def __repr__(self):
        return f"<SparseOperator dims={self.mode_dims} diagonals={len(self.diagonals)}>"


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


def _ladder_diagonal(d: int) -> np.ndarray:
    """sqrt(n) at row n - 1 for n = 1 .. d - 1, complex, with its padding zero."""
    if d < 2:
        raise ValueError("dim must be at least 2")
    return np.append(np.sqrt(np.arange(1, d)), 0.0).astype(np.complex128)


def position_op(mode: ModeSpec) -> SparseOperator:
    """X = sqrt(hbar/2m) (a + a†); Hermitian, tridiagonal.

    The diagonals are rounded as ``scale * (a + a.getH())`` rounds them in
    ``scipy.sparse``, signed zeros included.
    """
    a = _ladder_diagonal(mode.dim)
    scale = math.sqrt(mode.hbar / (2.0 * mode.mass))
    return SparseOperator((mode.dim,), {-1: (0 + _shifted(np.conj(a), -1)) * scale,
                                        1: (a + 0) * scale}, hermitian=True)


def momentum_op(mode: ModeSpec) -> SparseOperator:
    """P = i sqrt(m hbar / 2) (a† - a); Hermitian, tridiagonal, rounded as
    ``1j * scale * (a.getH() - a)`` rounds in ``scipy.sparse``."""
    a = _ladder_diagonal(mode.dim)
    scale = 1j * math.sqrt(mode.mass * mode.hbar / 2.0)
    return SparseOperator((mode.dim,), {-1: (_shifted(np.conj(a), -1) - 0) * scale,
                                        1: (0 - a) * scale}, hermitian=True)


# ---------------------------------------------------------------------------
# CM observables
# ---------------------------------------------------------------------------


def cm_operators_numeric(system):
    """(X_CM, V_CM, P_TOT) on the tensor product of the given modes.

    Each is the Kronecker sum (:func:`_kronecker_sum`) of its weighted
    single-mode operators, mode 0 the slowest-varying index: (m_k/M) X_k,
    P_k/M and P_k, each two off-diagonals, rounded as the ``scipy.sparse``
    scalar products round them, spread over the composite index.  No scipy
    module is loaded here.  Every entry is a single product w_k * A_k[i, j]:
    the modes' terms never overlap.
    """
    system = list(system)
    if not system:
        raise ValueError("need at least one mode")
    total_mass = sum(m.mass for m in system)
    dims = tuple(m.dim for m in system)
    _check_cap(dims)
    x = [{o: v * (m.mass / total_mass) for o, v in position_op(m).diagonals.items()}
         for m in system]
    p = [momentum_op(m).diagonals for m in system]
    v = [{o: values * (1 / total_mass) for o, values in f.items()} for f in p]
    return tuple(SparseOperator(dims, _kronecker_sum(f), hermitian=True) for f in (x, v, p))


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


def coherent_state(mode: ModeSpec, x0: float, p0: float) -> StateVector:
    """Minimal-uncertainty state with <X> = x0 and <P> = p0, renormalized.

    alpha = sqrt(m / 2 hbar) x0 + i p0 / sqrt(2 m hbar).  Raises
    DimensionCapError, before allocating, when mode.dim exceeds the amplitude
    cap, and ExcessiveTruncationError when the truncated state keeps
    TRUNCATION_GATE or more of its probability on the top basis level, or
    when alpha is not finite.
    """
    _check_cap((mode.dim,))
    alpha = (
        math.sqrt(mode.mass / (2.0 * mode.hbar)) * x0
        + 1j * p0 / math.sqrt(2.0 * mode.mass * mode.hbar)
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
        # log n! for n < dim; math.lgamma keeps scipy.special out of the process
        log_factorials = np.fromiter(map(math.lgamma, range(1, mode.dim + 1)), float, mode.dim)
        log_mag = n * math.log(abs(alpha)) - 0.5 * log_factorials
        log_mag -= log_mag.max()
        amps = np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))
        amps /= np.linalg.norm(amps)
    top_weight = float(abs(amps[-1]) ** 2)
    if top_weight >= TRUNCATION_GATE:
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


def coherent_product(system, x0s, p0s) -> StateVector:
    """Product of per-mode coherent states; the cap is checked before any is built."""
    system = list(system)
    _check_cap(m.dim for m in system)
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
    """CM observables: means, widths, commutator and gates; Python scalars for
    one state, 1-D arrays with one entry per row for an amplitude stack."""

    x_cm: float
    v_cm: float
    dx: float
    dv: float
    commutator_expectation: complex
    factorization_residual: float
    truncation_weight: float


def cm_expectation_records(amplitudes: np.ndarray, x_psi, v_psi, weights) -> ExpectationRecord:
    """The record of an (S, D) amplitude stack: one record of columns, one entry per row.

    ``x_psi`` and ``v_psi`` are the rows' X_CM and V_CM images, which the
    caller applies and may reuse, and ``weights`` their ``truncation_weights``.
    Each row's entries are the same arithmetic as for that row alone.
    """
    x_mean = np.vecdot(amplitudes, x_psi)
    v_mean = np.vecdot(amplitudes, v_psi)
    x_dev = x_psi - x_mean[:, None] * amplitudes
    v_dev = v_psi - v_mean[:, None] * amplitudes
    xv = np.vecdot(x_psi, v_psi)
    return ExpectationRecord(
        x_mean.real,
        v_mean.real,
        np.sqrt(np.maximum(np.vecdot(x_dev, x_dev).real, 0.0)),
        np.sqrt(np.maximum(np.vecdot(v_dev, v_dev).real, 0.0)),
        xv - np.conjugate(xv),
        np.abs(xv - x_mean * v_mean),
        weights,
    )


def cm_expectation_record(psi: StateVector, system) -> ExpectationRecord:
    """The record of one state, in Python scalars: row 0 of :func:`cm_expectation_records`."""
    x_cm, v_cm, _ = cm_operators_numeric(system)
    rows = psi.amplitudes[None]
    columns = cm_expectation_records(rows, x_cm.apply(psi)[None], v_cm.apply(psi)[None],
                                     truncation_weights(rows, psi.mode_dims))
    return ExpectationRecord(*(column[0].item() for column in vars(columns).values()))


def commutator_expectation(psi: StateVector, system) -> complex:
    """<psi|[X_CM, V_CM]|psi> from the expectation record, refused above a weight of 1e-12."""
    gate = 1e-12  # the truncated commutator departs from i*hbar/M only through top-level weight
    rec = cm_expectation_record(psi, system)
    if rec.truncation_weight > gate:
        raise ExcessiveTruncationError(
            f"truncation weight {rec.truncation_weight:.3g} exceeds the gate {gate:.3g}"
        )
    return rec.commutator_expectation
