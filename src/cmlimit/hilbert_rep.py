"""Truncated-oscillator-basis representation of many-particle observables.

Each particle is a mode with a mass and a truncation dimension d, in the
oscillator basis of unit frequency (a basis choice: [X_CM, V_CM] does not
depend on it).  Position and momentum are the standard ladder combinations;
the only truncation artifact is the known defect of [X, P] confined to the
top basis level, so its weight is a precise validity gate (TRUNCATION_GATE).

States and operators live on N equal modes, one ``ModeSpec`` and a count,
in one basis, that of their exchange-symmetric subspace: the occupation
vectors n (n_j modes at level j), C(N + d - 1, N) of them, each held as its
sorted mode levels in ``itertools.combinations_with_replacement`` order
(:func:`_levels`), named by the pair ``basis = (N, d)``.  The effective CM
mode is the one-mode case, the Fock basis of its d levels.  With
A = sum_j sqrt(j) b_{j-1}^dagger b_j, <n - e_j + e_{j-1}|A|n> =
sqrt(j n_j (n_{j-1} + 1)), X_CM = sqrt(hbar/2m)/N (A + A^dagger) and
P_TOT = i sqrt(m hbar/2) (A^dagger - A); phi^(x)N is sqrt(N!/prod n_j!)
prod phi_j^(n_j) at n, and a mode's top-level weight is <n_{d-1}>/N.

One constructor builds every operator, ``SparseOperator(basis, columns,
values)``: each row holds its nonzero (column, value) slots by ascending
column, padded with zeros to one width.  :func:`_slots` sums (row, column,
value) triples into that form, for the products and sums that form the
Hamiltonian (:func:`cmlimit.dynamics.build_hamiltonian`);
``SparseOperator.apply``, one gather per slot, is the one way an operator
meets amplitudes.  X_CM is real and P_TOT imaginary here, so their slots hold
float64 values.  Neither this module nor :mod:`cmlimit.dynamics` reads
:mod:`cmlimit.ccr_algebra`: the exact and the numeric routes meet only where
the CLI and the tests compare them.  Both load numpy alone; the ``matrix``
property, read only by tests and the benchmark's nnz counter, is the one
scipy import.  An (S, D) stack of amplitude rows is evaluated in one pass:
:func:`cm_expectation_records` gives one record whose fields are columns,
one entry per row, :func:`truncation_weights` one weight per row; the
one-state functions are their one-row case.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import operator
import sys
from dataclasses import dataclass

import numpy as np

DEFAULT_AMPLITUDE_CAP = 2**20  # occupation states
SLOT_CAP = 2**22  # (row, column, value) slots of a basis or of one operator product
HERMITIAN_TOLERANCE = 1e-12
TRUNCATION_GATE = 1e-6  # on the top-level weight of any mode: states, evolution, CLI


class ExcessiveTruncationError(RuntimeError):
    """A state puts too much probability on a mode's top basis level."""


class DimensionCapError(ValueError):
    """A requested basis or operator product exceeds the amplitude or slot cap."""


def _basis(basis) -> tuple:
    """The basis (N, d) of N equal d-level modes as two ints, N and d at least 1;
    anything else is refused with ValueError."""
    try:
        n, d = map(operator.index, basis)
        if n >= 1 and d >= 1:
            return n, d
    except (TypeError, ValueError):
        pass
    raise ValueError(f"expected a basis (N, d) of N >= 1 modes of d >= 1 levels, got {basis!r}")


def _check_cap(n: int, d: int) -> int:
    """C(N + d - 1, N), the occupation states of N equal d-level modes.  Raises
    ValueError for a malformed basis (:func:`_basis`), and DimensionCapError,
    before anything is allocated, past DEFAULT_AMPLITUDE_CAP states (at the
    first partial product over it), or past SLOT_CAP slots in the basis (N
    levels a state) or in P_TOT^2, which every Hamiltonian forms (P_TOT holds
    at most 2 min(N, d - 1) slots a row)."""
    n, d = _basis((n, d))
    k, states = min(n, d - 1), 1
    for i in range(1, k + 1):  # C(N + d - 1 - k + i, i), increasing in i
        states = states * (n + d - 1 - k + i) // i
        if states > DEFAULT_AMPLITUDE_CAP:
            raise DimensionCapError(
                f"composite dimension exceeds the cap of {DEFAULT_AMPLITUDE_CAP} amplitudes"
            )
    width = 2 * min(n, d - 1)
    if states * max(n, width * width) > SLOT_CAP:
        raise DimensionCapError(f"the {states} occupation states of {n} modes exceed the cap "
                                f"of {SLOT_CAP} slots of a basis or operator product")
    return states


@functools.lru_cache(maxsize=4)
def _levels(n: int, d: int) -> tuple:
    """The basis of N equal d-level modes: each state's mode levels, sorted, one row
    per state in ``combinations_with_replacement(range(d), N)`` order, and for each
    level its count so far in its run of equal levels (from 1).  Row p + 1 of the
    tree below extends each row p prefix, whose last level is v, by v .. d - 1.
    Read-only arrays of shape (C(N + d - 1, N), N)."""
    parents, values, last = [], [], np.zeros(1, dtype=np.intp)
    for _ in range(n):
        counts = d - last
        parent = np.repeat(np.arange(len(last)), counts)
        values.append(np.arange(len(parent)) - (np.cumsum(counts) - counts - last)[parent])
        parents.append(parent)
        last = values[-1]
    levels, index = np.empty((len(last), n), dtype=np.intp), np.arange(len(last))
    for p in reversed(range(n)):
        levels[:, p] = values[p][index]
        index = parents[p][index]
    runs = np.ones_like(levels)
    for p in range(1, n):
        runs[:, p] += (levels[:, p] == levels[:, p - 1]) * runs[:, p - 1]
    levels.flags.writeable = runs.flags.writeable = False
    return levels, runs


def _ladder(n: int, d: int) -> tuple:
    """A = sum_j sqrt(j) b_{j-1}^dagger b_j on the basis of :func:`_levels`, as the
    triples (row, column, value) of its nonzero entries.

    A moves one mode from level j to j - 1; the state's sorted levels change at
    the first position p holding j.  Ranks need no search: a state's rank is
    the sum over levels j < d - 1 of F[d - 1 - j, R_(j+1)], where R_j counts
    its modes at level j and above and F[m, r] = C(r + m - 1, m); the move
    changes R_j alone, from N - p to N - p - 1, so the rank falls by
    F[d - j, N - p] - F[d - j, N - p - 1].
    """
    levels, runs = _levels(n, d)
    f = np.zeros((n + 1, d), dtype=np.int64)  # F transposed: f[r] = F[:, r]
    f[0, 0] = 1
    for r in range(1, n + 1):
        f[r] = np.cumsum(f[r - 1])
    sizes = runs.copy()  # at each position, the count of its whole run of equal levels
    for p in reversed(range(n - 1)):
        same = levels[:, p + 1] == levels[:, p]
        sizes[same, p] = sizes[same, p + 1]
    rows, cols, values = [], [], []
    for p in range(n):
        level = levels[:, p]
        first = level >= 1 if p == 0 else (level >= 1) & (level != levels[:, p - 1])
        source = np.flatnonzero(first)
        j = level[source]
        count = sizes[source, p]  # n_j
        below = 0 if p == 0 else np.where(levels[source, p - 1] == j - 1, runs[source, p - 1], 0)
        rows.append(source - f[n - p, d - j] + f[n - p - 1, d - j])
        cols.append(source)
        values.append(np.sqrt(j * count * (below + 1.0)))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(values)


def _slots(size: int, rows, cols, values) -> tuple:
    """The padded (columns, values) of the sum of real (row, column, value)
    triples, ``rows`` broadcast to the shape of ``cols`` and ``values``.

    The values at one (row, column) are added in C order, from +0.0; zero
    values and zero sums are dropped.  Each row holds its entries by ascending
    column, then padding slots of value 0 at the row's own column, up to the
    widest row (one slot at least)."""
    rows, cols, values = np.broadcast_to(rows, cols.shape).ravel(), cols.ravel(), values.ravel()
    keep = values != 0
    keys, group = np.unique(rows[keep] * size + cols[keep], return_inverse=True)
    sums = np.bincount(group, values[keep], len(keys))
    keys, sums = keys[sums != 0], sums[sums != 0]
    rows, cols = np.divmod(keys, size)
    counts = np.bincount(rows, minlength=size)
    position = np.arange(len(keys)) - (np.cumsum(counts) - counts)[rows]
    width = max(int(counts.max(initial=0)), 1)
    columns = np.repeat(np.arange(size)[:, None], width, axis=1)
    out = np.zeros((size, width), dtype=sums.dtype)
    columns[rows, position] = cols
    out[rows, position] = sums
    return columns, out


def _product(a: tuple, b: tuple) -> tuple:
    """The padded slots of A @ B from theirs: (A @ B)[i, c] adds A[i, j] B[j, c] by
    ascending column j of A.  Raises DimensionCapError, before the products are
    formed, when they would exceed SLOT_CAP."""
    (a_cols, a_vals), (b_cols, b_vals) = a, b
    size, count = len(a_cols), a_cols.size * b_cols.shape[1]
    if count > SLOT_CAP:
        raise DimensionCapError(f"an operator product of {count} slots exceeds the cap of "
                                f"{SLOT_CAP} slots")
    return _slots(size, np.arange(size)[:, None, None], b_cols[a_cols],
                  a_vals[:, :, None] * b_vals[a_cols])


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
        # the squared scales of the position and momentum operators
        for scale in (self.hbar / (2.0 * self.mass), self.mass * self.hbar / 2.0):
            if not sys.float_info.min <= scale < math.inf:
                raise ValueError("mass and hbar put the position or momentum "
                                 "scale out of the floating-point range")


class SparseOperator:
    """Operator on N equal modes, held as padded rows of (column, value) slots.

    ``columns`` and ``values`` have one shape (D, K), D the occupation states
    of ``basis`` = (N, d): row i holds ``values[i, k]`` at ``columns[i, k]``, its
    nonzero entries by ascending column, then zero padding at its own column.
    With ``imaginary`` the entries are i times the (real) values, so the
    slots of P_TOT and V_CM hold their imaginary parts.
    """

    __slots__ = ("basis", "dim", "columns", "values", "imaginary", "hermitian")

    def __init__(self, basis, columns, values, hermitian=False, imaginary=False):
        basis = _basis(basis)
        dim = math.comb(basis[0] + basis[1] - 1, basis[0])
        if not (isinstance(columns, np.ndarray) and columns.dtype.kind in "iu"
                and isinstance(values, np.ndarray)
                and values.dtype.kind in ("f" if imaginary else "fc")):
            raise TypeError("an operator's slots are an integer array of columns "
                            "and a float or complex array of values")
        if columns.ndim != 2 or columns.shape != values.shape or len(columns) != dim:
            raise ValueError(f"expected {dim} rows of slots on basis {basis}, "
                             f"got columns {columns.shape} and values {values.shape}")
        if not columns.shape[1]:
            raise ValueError("an operator holds at least one slot per row")
        if columns.min() < 0 or columns.max() >= dim:
            raise ValueError(f"a column of a slot leaves the {dim} x {dim} matrix")
        if hermitian:  # each nonzero entry against its mirror entry, or 0 where none is stored
            rows, slot = np.nonzero(values)
            cols, vals = columns[rows, slot], values[rows, slot]
            keys = rows * dim + cols
            order = np.argsort(keys)
            mirrors = cols * dim + rows
            found = np.minimum(np.searchsorted(keys, mirrors, sorter=order), len(keys) - 1)
            mirror = np.where(keys[order[found]] == mirrors, vals[order[found]], 0)
            sign = -1 if imaginary else 1  # (i v)^* = -i v^*
            if not np.abs(vals - sign * np.conj(mirror)).max(initial=0) <= HERMITIAN_TOLERANCE:
                raise ValueError("operator marked Hermitian is not (within 1e-12)")  # NaN fails
        for name, value in (("basis", basis), ("dim", dim), ("columns", columns),
                            ("values", values), ("imaginary", bool(imaginary)),
                            ("hermitian", bool(hermitian))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("SparseOperator is immutable")

    @property
    def matrix(self):
        """The complex CSR matrix of the nonzero slots, built anew on each read.

        Read only by tests and the benchmark's nnz counter; it imports
        ``scipy.sparse`` (the ``test`` extra).
        """
        import scipy.sparse as sp

        nonzero = self.values != 0
        data = np.zeros(np.count_nonzero(nonzero), dtype=np.complex128)  # real parts +0.0
        if self.imaginary:
            data.imag = self.values[nonzero]
        else:
            data[:] = self.values[nonzero]
        indptr = np.concatenate([[0], np.cumsum(nonzero.sum(axis=1))])
        return sp.csr_matrix((data, self.columns[nonzero], indptr), shape=(self.dim, self.dim))

    def apply(self, psi) -> np.ndarray:
        """op psi for a StateVector on this layout, a bare amplitude vector or an (S, D) stack.

        The first slot's products, then each further one's added: each row adds
        its entries by ascending column, as a CSR product does, and its padding
        adds zeros.  CSR starts the sum at +0.0, which the final ``+ 0.0``
        reproduces (it turns -0.0 into +0.0 and changes nothing else), so for
        finite amplitudes every row is rounded as ``matrix`` rounds it, bit for
        bit: a real value times re and im rounds as the complex value with a
        zero imaginary part, up to the sign of a zero, and an imaginary
        operator's sum is multiplied by i once, exactly.
        """
        if isinstance(psi, StateVector):
            if psi.basis != self.basis:
                raise ValueError("state and operator act on different bases")
            psi = psi.amplitudes
        if psi.ndim not in (1, 2) or psi.shape[-1] != self.dim:
            raise ValueError(f"expected {self.dim} amplitudes per row, got shape {psi.shape}")
        rows = psi.reshape(-1, self.dim)
        interleaved = np.iscomplexobj(rows) and np.isrealobj(self.values)
        out = None
        for cols, values in zip(self.columns.T, self.values.T):
            term = np.take(rows, cols, axis=1)  # C-ordered, as vecdot's rounding needs
            if interleaved:  # re and im times the real value: no complex cast per entry
                term.view(np.float64)[...] *= np.repeat(values, 2)
            else:
                term = term * values
            if out is None:
                out = term
            else:
                out += term
        if self.imaginary:
            out = out * 1j
        out += 0.0  # the +0.0 CSR starts every sum from
        return out.reshape(psi.shape)

    def to_dense(self) -> np.ndarray:
        """The matrix as a dense complex array: the columns op e_j."""
        return np.ascontiguousarray(self.apply(np.eye(self.dim, dtype=np.complex128)).T)

    def __repr__(self):
        return f"<SparseOperator basis={self.basis} slots={self.columns.shape[1]}>"


class StateVector:
    """Dense normalized amplitude vector on the occupation basis of N equal modes."""

    __slots__ = ("basis", "amplitudes")

    def __init__(self, basis, amplitudes):
        n, d = basis = _basis(basis)
        amplitudes = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        if amplitudes.size != math.comb(n + d - 1, n):
            raise ValueError(f"amplitude count does not match the basis {basis}")
        nrm = float(np.linalg.norm(amplitudes))
        # loose sanity check only; evolution gates enforce the tight 1e-8 drift bound
        if not abs(nrm - 1.0) <= 1e-6:  # NaN-safe comparison
            raise ValueError(f"state is not normalized (norm {nrm})")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "amplitudes", amplitudes)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __repr__(self):
        return f"<StateVector basis={self.basis} norm={self.norm():.12f}>"


# ---------------------------------------------------------------------------
# CM observables
# ---------------------------------------------------------------------------


def cm_operators_numeric(mode: ModeSpec, n: int):
    """(X_CM, V_CM, P_TOT) on the occupation basis of N equal modes ``mode``.

    X_CM = sqrt(hbar/2m) (m/M) (A + A^dagger) and P_TOT = i sqrt(m hbar/2)
    (A^dagger - A), each entry one product of A's sqrt(j n_j (n_{j-1} + 1)) and
    the scale; V_CM's values are P_TOT's times 1/M.  The three share one array
    of columns; X_CM holds real values, P_TOT and V_CM imaginary ones.  Raises
    ValueError for a count below 1 and DimensionCapError (:func:`_check_cap`)
    before the basis is built.
    """
    dim = _check_cap(n, mode.dim)
    total_mass = n * mode.mass
    rows, cols, ladder = _ladder(n, mode.dim)
    rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])  # A, then A^dagger
    x_scale = math.sqrt(mode.hbar / (2.0 * mode.mass)) * (mode.mass / total_mass)
    columns, x = _slots(dim, rows, cols, np.concatenate([ladder, ladder]) * x_scale)
    p = _slots(dim, rows, cols,
               np.concatenate([-ladder, ladder]) * math.sqrt(mode.mass * mode.hbar / 2.0))[1]
    basis = (n, mode.dim)
    return (SparseOperator(basis, columns, x, hermitian=True),
            SparseOperator(basis, columns, p * (1 / total_mass), hermitian=True, imaginary=True),
            SparseOperator(basis, columns, p, hermitian=True, imaginary=True))


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
    _check_cap(1, mode.dim)
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
    return StateVector((1, mode.dim), amps)


def product_state(phi: StateVector, n: int) -> StateVector:
    """phi^(x)N of a one-mode state phi on the occupation basis of N modes, normalized.

    The amplitude sqrt(N! / prod n_j!) prod phi_j^(n_j) is formed in logs, so
    no product of N amplitudes leaves the floating-point range: the sum of
    log|phi| over the state's sorted levels, less half the sum of the logs of
    their counts so far in their runs, log(prod n_j!) (log N! cancels in the
    normalization).  Raises ValueError when phi is not a one-mode state, and
    DimensionCapError before the basis is built.
    """
    if phi.basis[0] != 1:
        raise ValueError(f"expected a one-mode state, got one on the basis {phi.basis}")
    d = phi.basis[1]
    _check_cap(n, d)
    levels, runs = _levels(n, d)
    with np.errstate(divide="ignore"):  # a zero amplitude is a log of -inf, and stays zero
        log_phi = np.log(np.abs(phi.amplitudes))
    log_mag = log_phi[levels].sum(axis=1) - 0.5 * np.log(runs).sum(axis=1)
    phase = np.angle(phi.amplitudes)[levels].sum(axis=1)
    amps = np.exp(log_mag - log_mag.max()) * np.exp(1j * phase)
    return StateVector((n, d), amps / np.linalg.norm(amps))


def coherent_product(mode: ModeSpec, n: int, x0: float, p0: float) -> StateVector:
    """phi^(x)N of the coherent state phi of ``mode`` at (x0, p0), on N equal modes
    (:func:`product_state`); the cap is checked before any state is built."""
    _check_cap(n, mode.dim)
    return product_state(coherent_state(mode, x0, p0), n)


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


def truncation_weights(amplitudes: np.ndarray, basis) -> np.ndarray:
    """Per row of an (S, D) amplitude stack on ``basis``: the probability of each
    mode's top basis level, <n_{d-1}>/N, the same for every mode of the symmetric state."""
    n, d = basis
    levels, runs = _levels(n, d)
    top = np.flatnonzero(levels[:, -1] == d - 1)
    probs = np.abs(amplitudes.reshape(-1, len(levels))[:, top]) ** 2
    # a running sum adds each row's terms in one order, whatever the number of rows
    return np.cumsum(probs * (runs[top, -1] / n), axis=1)[:, -1]


def truncation_weight(psi: StateVector) -> float:
    """The probability of a mode's top basis level."""
    return float(truncation_weights(psi.amplitudes, psi.basis)[0])


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


def cm_expectation_record(psi: StateVector, mode: ModeSpec) -> ExpectationRecord:
    """Row 0 of :func:`cm_expectation_records` for one state of modes ``mode``, in scalars."""
    x_cm, v_cm, _ = cm_operators_numeric(mode, psi.basis[0])
    rows = psi.amplitudes[None]
    columns = cm_expectation_records(rows, x_cm.apply(psi)[None], v_cm.apply(psi)[None],
                                     truncation_weights(rows, psi.basis))
    return ExpectationRecord(*(column[0].item() for column in vars(columns).values()))


def commutator_expectation(psi: StateVector, mode: ModeSpec) -> complex:
    """<psi|[X_CM, V_CM]|psi> from the expectation record, refused above a weight of 1e-12."""
    gate = 1e-12  # the truncated commutator departs from i*hbar/M only through top-level weight
    rec = cm_expectation_record(psi, mode)
    if rec.truncation_weight > gate:
        raise ExcessiveTruncationError(
            f"truncation weight {rec.truncation_weight:.3g} exceeds the gate {gate:.3g}"
        )
    return rec.commutator_expectation
