"""Time evolution of center-of-mass observables, quantum and classical.

Quantum propagation runs in the Schrodinger picture (expectations are
identical to the Heisenberg-picture statement, which is recovered through
:func:`ehrenfest_residual`) with the exact unitary exp(-iHt/hbar): H is real
symmetric, diagonalized densely (LAPACK's divide-and-conquer ``evd``
driver) up to total dimension 2048 and applied as a sparse
matrix-exponential action above that.  The dense path runs one ``eigh`` per
connected block of H's sparsity graph: an even potential never couples
basis states of opposite parity, so its H splits at least into the two
parity sectors.  H is the one operator assembled as a composite sparse
matrix.  The samples are evaluated as one stack of amplitude rows: the CM
observables are applied mode by mode to all rows at once
(:mod:`cmlimit.hilbert_rep`).  Norm drift is measured, never corrected --
silent renormalization would hide a propagation failure.  The classical
twin integrates Hamilton's equations xdot = p/M, pdot = -U'(x) with classic
4th-order steps on the same time grid.

When the Hamiltonian depends only on CM variables the CM sector factorizes
exactly, so ``effective_cm_system`` (a single mode of mass N*mbar) carries
the identical CM dynamics at a fraction of the tensor-product cost; this is
the intended track for large-N scaling runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .hilbert_rep import (
    ExcessiveTruncationError,
    ModeSpec,
    SparseOperator,
    StateVector,
    cm_expectation_record,
    cm_expectation_records,
    cm_operators_numeric,
    coherent_state,
    expectation,
    truncation_weights,
)

EIG_DIMENSION_LIMIT = 2048
SAMPLE_BLOCK_AMPLITUDES = 2**16  # amplitudes evaluated together; one row above it
MAX_STEPS = 100_000  # every step is a sample, kept as an amplitude row and a CSV row
NORM_DRIFT_LIMIT = 1e-8
EVOLUTION_GATE = 1e-6
TRUNC_WEIGHT_DECIMALS = 15  # printed resolution of the weight, 1e-9 of the gate


class NormDriftError(RuntimeError):
    """The propagated state's norm drifted beyond the accepted bound."""


class TimeGridMismatchError(ValueError):
    """Two trajectories were compared on different sample times."""


@dataclass(frozen=True)
class PolynomialPotential:
    """Polynomial U(x) with finite support, degree -> coefficient.

    Coefficients may be exact rationals or floats; evaluation preserves
    exactness when both the coefficients and the argument are rational.
    """

    terms: tuple

    def __post_init__(self):
        clean = {}
        for degree, coeff in self.terms:
            if degree < 0 or degree != int(degree):
                raise ValueError("degrees must be nonnegative integers")
            if coeff != 0:
                clean[int(degree)] = clean.get(int(degree), 0) + coeff
        object.__setattr__(
            self, "terms", tuple(sorted((k, c) for k, c in clean.items() if c != 0))
        )

    @classmethod
    def from_coeffs(cls, coeffs) -> "PolynomialPotential":
        return cls(terms=tuple(coeffs.items()))

    @classmethod
    def zero(cls) -> "PolynomialPotential":
        return cls(terms=())

    @property
    def coeffs(self) -> dict:
        return dict(self.terms)

    @property
    def degree(self) -> int:
        return max((k for k, _ in self.terms), default=0)

    @property
    def is_quadratic(self) -> bool:
        return self.degree <= 2

    def evaluate(self, x):
        return sum(c * x**k for k, c in self.terms) if self.terms else 0 * x

    def derivative(self) -> "PolynomialPotential":
        return PolynomialPotential(
            terms=tuple((k - 1, k * c) for k, c in self.terms if k >= 1)
        )


@dataclass(frozen=True)
class HamiltonianSpec:
    """H = P_TOT^2 / 2M + U(X_CM) on the given modes.

    H depends on CM variables only, so the relative motion never enters the
    CM dynamics, and ``effective_cm_system`` carries the same CM sector.
    """

    modes: tuple
    potential: PolynomialPotential

    def __post_init__(self):
        modes = tuple(self.modes)
        if not modes:
            raise ValueError("need at least one mode")
        hbars = {m.hbar for m in modes}
        if len(hbars) != 1:
            raise ValueError("all modes must share the same hbar")
        object.__setattr__(self, "modes", modes)

    @property
    def total_mass(self) -> float:
        return sum(m.mass for m in self.modes)

    @property
    def hbar(self) -> float:
        return self.modes[0].hbar


def build_hamiltonian(spec: HamiltonianSpec, ops=None) -> SparseOperator:
    """Assemble the Hamiltonian matrix; real symmetric by construction.

    ``ops`` reuses the (X_CM, V_CM, P_TOT) triple of ``cm_operators_numeric``.
    """
    x_cm, _, p_tot = ops if ops is not None else cm_operators_numeric(spec.modes)
    total_mass = spec.total_mass
    h = (p_tot.matrix @ p_tot.matrix) / (2.0 * total_mass)
    if spec.potential.terms:
        power = sp.identity(x_cm.dim, format="csr", dtype=np.complex128)
        powers = {0: power}
        for k in range(1, spec.potential.degree + 1):
            power = power @ x_cm.matrix
            powers[k] = power
        for k, c in spec.potential.terms:
            h = h + float(c) * powers[k]
    h = (h + h.getH()) * 0.5  # scrub rounding asymmetry from the sparse products
    return SparseOperator(x_cm.mode_dims, h, hermitian=True)


@dataclass(frozen=True)
class ClassicalState:
    x: float
    p: float


def _step_count(t_final: float, dt: float) -> int:
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_final < 0:
        raise ValueError("t_final must be nonnegative")
    ratio = t_final / dt
    if ratio > MAX_STEPS:  # also catches an infinite ratio
        raise ValueError(f"t_final / dt = {ratio:.3g} steps exceeds the limit of {MAX_STEPS}")
    n = int(round(ratio))
    if abs(n * dt - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise ValueError("t_final must be an integer multiple of dt")
    return n


def evolve_classical(potential: PolynomialPotential, total_mass: float,
                     x0: float, p0: float, t_final: float, dt: float):
    """Integrate Hamilton's equations with classic 4th-order steps.

    Returns ``[(t, ClassicalState), ...]`` for t = 0, dt, ..., t_final; like
    :func:`evolve_quantum` it raises ValueError unless t_final is a whole
    number of steps, at most MAX_STEPS.
    """
    n_steps = _step_count(t_final, dt)
    # float coefficients: a Fraction times a float is float(c) * x, so the
    # steps are those of ``potential.derivative().evaluate`` at float speed
    force = tuple((k, float(c)) for k, c in potential.derivative().terms)
    inv_m = 1.0 / total_mass

    def rhs(x, p):
        return p * inv_m, -float(sum(c * x**k for k, c in force) if force else 0 * x)

    def step(x, p, h):
        dx1, dp1 = rhs(x, p)
        dx2, dp2 = rhs(x + 0.5 * h * dx1, p + 0.5 * h * dp1)
        dx3, dp3 = rhs(x + 0.5 * h * dx2, p + 0.5 * h * dp2)
        dx4, dp4 = rhs(x + h * dx3, p + h * dp3)
        return (
            x + h / 6.0 * (dx1 + 2.0 * dx2 + 2.0 * dx3 + dx4),
            p + h / 6.0 * (dp1 + 2.0 * dp2 + 2.0 * dp3 + dp4),
        )

    out = [(0.0, ClassicalState(float(x0), float(p0)))]
    x, p = float(x0), float(p0)
    for k in range(n_steps):
        x, p = step(x, p, dt)
        out.append(((k + 1) * dt, ClassicalState(x, p)))
    return out


@dataclass(frozen=True)
class Trajectory:
    """Sampled quantum run: times, CM records, energy/norm bookkeeping, and the
    (S, D) amplitude rows of the samples."""

    times: tuple
    records: tuple
    energies: tuple
    norms: tuple
    amplitudes: np.ndarray
    hbar: float
    total_mass: float

    @property
    def x_cm(self) -> np.ndarray:
        return np.array([r.x_cm for r in self.records])

    @property
    def v_cm(self) -> np.ndarray:
        return np.array([r.v_cm for r in self.records])

    @property
    def dx(self) -> np.ndarray:
        return np.array([r.dx for r in self.records])

    @property
    def dv(self) -> np.ndarray:
        return np.array([r.dv for r in self.records])

    @property
    def norm_drift(self) -> float:
        return max(abs(n - 1.0) for n in self.norms)

    @property
    def energy_drift(self) -> float:
        """Maximum relative drift of <H> over the run."""
        e0 = self.energies[0]
        scale = max(abs(e0), 1e-30)
        return max(abs(e - e0) for e in self.energies) / scale


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV serialization: fixed header, 12 significant digits, LF endings.

    ``trunc_weight`` is printed rounded to TRUNC_WEIGHT_DECIMALS decimal
    places: below that it is propagator round-off, whose digits change with
    the BLAS thread count and the eigensolver.  The gate in
    :func:`evolve_quantum` compares the raw weight.
    """
    lines = ["t,x_cm,v_cm,dx,dv,energy,norm,trunc_weight"]
    for t, r, e, n in zip(traj.times, traj.records, traj.energies, traj.norms):
        weight = round(r.truncation_weight, TRUNC_WEIGHT_DECIMALS)
        fields = (t, r.x_cm, r.v_cm, r.dx, r.dv, e, n, weight)
        lines.append(",".join(f"{v:.12g}" for v in fields))
    return "\n".join(lines) + "\n"


def _eig_samples(h: SparseOperator, psi0: np.ndarray, dt: float, n_steps: int,
                 hbar: float) -> np.ndarray:
    """Rows exp(-iH k dt/hbar) psi0, k = 0..n_steps, from real divide-and-conquer eighs.

    H is block-diagonal over the connected components of its sparsity graph
    (the two parity sectors of an even potential), so each block is
    diagonalized on its own and fills its own columns of the rows.  The split
    is exact; an H with one component is one block.
    """
    # imported here: csgraph costs every process ~5 ms and ~1 MB to load
    from scipy.sparse.csgraph import connected_components

    real = h.matrix.real
    n_blocks, labels = connected_components(real, directed=False)
    times = dt * np.arange(n_steps + 1)
    rows = np.empty((n_steps + 1, h.dim), dtype=np.complex128)
    for block in range(n_blocks):
        index = np.flatnonzero(labels == block)
        evals, evecs = scipy.linalg.eigh(real[index][:, index].toarray(), driver="evd")
        coeffs = evecs.T @ psi0[index]
        rows[:, index] = (np.exp(np.outer(times, evals) * (-1j / hbar)) * coeffs) @ evecs.T
    return rows


def _expm_samples(h: SparseOperator, psi0: np.ndarray, dt: float, n_steps: int,
                  hbar: float) -> np.ndarray:
    """The same rows from the sparse action of the exponential (Al-Mohy & Higham 2011)."""
    return expm_multiply(h.matrix * (-1j / hbar), psi0, start=0.0, stop=n_steps * dt,
                         num=n_steps + 1, endpoint=True)


def evolve_quantum(psi0: StateVector, spec: HamiltonianSpec, t_final: float,
                   dt: float) -> Trajectory:
    """Propagate psi0 under the spec's Hamiltonian, sampling CM observables every dt.

    t_final must be a whole number of steps dt, at most MAX_STEPS.  The
    propagator is exact and unitary: a dense real eigendecomposition of each
    block of H up to total dimension 2048, ``expm_multiply`` on the sparse H
    above it.  The samples are evaluated as stacks of rows.  Raises, for the
    first sample that fails a gate, NormDriftError when |norm - 1| reaches
    1e-8 (never renormalizes), else ExcessiveTruncationError when it exceeds
    the truncation gate.
    """
    n_steps = _step_count(t_final, dt)
    ops = cm_operators_numeric(spec.modes)
    h = build_hamiltonian(spec, ops=ops)
    if psi0.mode_dims != h.mode_dims:
        raise ValueError("initial state does not match the Hamiltonian's modes")

    hbar = spec.hbar
    sample_times = [k * dt for k in range(n_steps + 1)]
    propagate = _eig_samples if h.dim <= EIG_DIMENSION_LIMIT else _expm_samples
    sampled = propagate(h, psi0.amplitudes, dt, n_steps, hbar)

    # the samples as stacks of rows, so that each temporary stays near 1 MiB
    records, energies, norms = [], [], []
    rows_per_block = max(1, SAMPLE_BLOCK_AMPLITUDES // h.dim)
    for start in range(0, len(sampled), rows_per_block):
        block = sampled[start:start + rows_per_block]
        # np.linalg.norm's arithmetic, row by row
        block_norms = np.sqrt(np.vecdot(block.real, block.real)
                              + np.vecdot(block.imag, block.imag))
        weights = truncation_weights(block, psi0.mode_dims)
        _check_gates(sample_times[start:start + len(block)], block_norms, weights)
        records += cm_expectation_records(block, ops, weights)
        energies += expectation(h, block).real.tolist()
        norms += block_norms.tolist()

    return Trajectory(
        times=tuple(sample_times),
        records=tuple(records),
        energies=tuple(energies),
        norms=tuple(norms),
        amplitudes=sampled,
        hbar=hbar,
        total_mass=spec.total_mass,
    )


def _check_gates(times, norms: np.ndarray, weights: np.ndarray) -> None:
    """Raise for the first sample that fails a gate, the norm gate before the weight gate."""
    norm_fails = ~(np.abs(norms - 1.0) < NORM_DRIFT_LIMIT)  # NaN fails
    fails = norm_fails | (weights > EVOLUTION_GATE)
    if not fails.any():
        return
    k = int(np.argmax(fails))
    if norm_fails[k]:
        raise NormDriftError(f"norm drifted to {float(norms[k])} at t = {times[k]}")
    raise ExcessiveTruncationError(
        f"truncation weight {weights[k]:.3g} exceeds the gate {EVOLUTION_GATE:.3g} "
        f"at t = {times[k]}"
    )


@dataclass(frozen=True)
class EhrenfestReport:
    """Worst central-difference violation of d<f>/dt = <[f, H]>/(i hbar)."""

    max_residual: float
    sample_spacing: float
    order_constant: float  # max_residual / spacing^2, the measured curvature scale


def ehrenfest_residual(traj: Trajectory, h: SparseOperator,
                       observable: SparseOperator) -> EhrenfestReport:
    if len(traj.times) < 3:
        raise ValueError("need at least three samples")
    spacings = np.diff(traj.times)
    if np.ptp(spacings) > 1e-9 * max(spacings):
        raise ValueError("samples must be uniformly spaced")
    delta = float(spacings[0])
    means = expectation(observable, traj.amplitudes).real
    commutator_rate = (expectation_product(observable, h, traj.amplitudes)
                       / (1j * traj.hbar)).real
    worst = 0.0
    for k in range(1, len(means) - 1):
        lhs = (means[k + 1] - means[k - 1]) / (2.0 * delta)
        worst = max(worst, abs(lhs - commutator_rate[k]))
    return EhrenfestReport(
        max_residual=worst,
        sample_spacing=delta,
        order_constant=worst / delta**2 if delta > 0 else 0.0,
    )


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


@dataclass(frozen=True)
class DeviationReport:
    """Quantum-expectation vs classical-trajectory distances."""

    max_x_deviation: float
    max_v_deviation: float
    final_x_deviation: float
    final_v_deviation: float


def compare_trajectories(traj: Trajectory, classical) -> DeviationReport:
    """Deviations |<X_CM>(t) - x_c(t)| and |<V_CM>(t) - p_c(t)/M| on shared times.

    The classical list may be sampled more finely; every quantum sample time
    must appear in it (within 1e-9) or TimeGridMismatchError is raised.
    """
    inv_m = 1.0 / traj.total_mass
    idx = 0
    dx_list, dv_list = [], []
    for t, rec in zip(traj.times, traj.records):
        while idx < len(classical) and classical[idx][0] < t - 1e-9:
            idx += 1
        if idx >= len(classical) or abs(classical[idx][0] - t) > 1e-9:
            raise TimeGridMismatchError(f"no classical sample at t = {t}")
        state = classical[idx][1]
        dx_list.append(abs(rec.x_cm - state.x))
        dv_list.append(abs(rec.v_cm - state.p * inv_m))
    return DeviationReport(
        max_x_deviation=max(dx_list),
        max_v_deviation=max(dv_list),
        final_x_deviation=dx_list[-1],
        final_v_deviation=dv_list[-1],
    )


def effective_cm_system(n: int, mbar: float, basis_omega: float = 1.0,
                        dim: int = 64, hbar: float = 1.0):
    """Single mode of mass N*mbar: the exact CM sector for CM-only Hamiltonians."""
    if n < 1:
        raise ValueError("need at least one particle")
    return [ModeSpec(mass=n * float(mbar), omega=basis_omega, dim=dim, hbar=hbar)]


def free_width_analytic(n: int, mbar: float, t: float, omega: float = 1.0,
                        hbar: float = 1.0) -> float:
    """Free-packet width of the mass-N*mbar ground Gaussian: dx(t)^2 = dx0^2 + (dv0 t)^2."""
    total_mass = n * mbar
    return math.sqrt(hbar / (2.0 * total_mass * omega) * (1.0 + (omega * t) ** 2))


def gaussian_spreading(n: int, mbar: float, t: float, omega: float = 1.0,
                       dim: int = 64, hbar: float = 1.0) -> float:
    """Measured free-evolution width Dx_CM(t) of the effective CM ground packet."""
    modes = effective_cm_system(n, mbar, basis_omega=omega, dim=dim, hbar=hbar)
    psi0 = coherent_state(modes[0], 0.0, 0.0)
    spec = HamiltonianSpec(modes=tuple(modes), potential=PolynomialPotential.zero())
    if t == 0:
        return cm_expectation_record(psi0, modes).dx
    traj = evolve_quantum(psi0, spec, t_final=t, dt=t)
    return traj.records[-1].dx
