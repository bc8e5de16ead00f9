"""Time evolution of center-of-mass observables, quantum and classical.

Quantum propagation runs in the Schrodinger picture (expectations are
identical to the Heisenberg-picture statement) with the exact unitary
exp(-iHt/hbar): H is real symmetric, and built once, with numpy alone, as
one ``SparseOperator`` like every operator, on the occupation basis of the
modes, from the CM operators' slots by the products and sums of
:mod:`cmlimit.hilbert_rep` (this module forms no slots itself).  Every run
starts from a product of equal states on equal modes, and H commutes with
their exchange, so that basis, the exchange-symmetric subspace, is all a
run needs; the effective CM mode is its one-mode case.  Up to dimension
2048 H is diagonalized densely by numpy's ``eigh`` (LAPACK's
divide-and-conquer ``?syevd``): one ``eigh`` per parity sector when H
couples no basis states of opposite total level parity sum_j j n_j, as for
every even potential (checked on H's entries), else one of all of H.  A
narrow CM packet reaches few of a block's levels, so its ``eigh`` runs on
the smallest level cut (the states whose highest occupied level is below
L) whose Ritz-pair residual bound keeps the rows within CUT_TOLERANCE of
the whole block's over the run, L doubling up to the whole block.  Above
dimension 2048, short Lanczos steps apply H by ``SparseOperator.apply``;
neither side loads scipy.  Each propagator is a sampler of one diagonal
block of H, built once; ``evolve_quantum`` walks the time grid once, in
blocks of rows of about 2^14 amplitudes (256 KiB a complex array, so the
block's handful of arrays stays in a core's L2 cache through the
elementwise passes), each filled from every sampler (one GEMM per ``eigh``
or per Lanczos basis), evaluated and dropped, so a run never holds all its
rows: the CM record (:mod:`cmlimit.hilbert_rep`) and the energy read one
pair of X_CM and V_CM images of a block.  Norm drift is measured, never
corrected -- silent renormalization would hide a propagation failure.  The
classical twin integrates Hamilton's equations xdot = p/M, pdot = -U'(x)
with classic 4th-order steps on the same time grid.  Both runs are kept as
columns: every sampled quantity, quantum or classical, is a 1-D array with
one entry per sample time, from the stacked evaluation to the CLI's tables.

When the Hamiltonian depends only on CM variables the CM sector factorizes
exactly, so ``effective_cm_system`` (a single mode of mass N*mbar) carries
the identical CM dynamics at a fraction of the N-mode cost; this is the
intended track for large-N scaling runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert_rep import (
    TRUNCATION_GATE,
    ExcessiveTruncationError,
    ModeSpec,
    SparseOperator,
    StateVector,
    _levels,
    _product,
    _shape,
    _slots,
    cm_expectation_records,
    cm_operators_numeric,
    truncation_weights,
)

EIG_DIMENSION_LIMIT = 2048
SAMPLE_BLOCK_AMPLITUDES = 2**14  # amplitudes evaluated together; one row above it
MAX_STEPS = 100_000  # samples, each a column entry and a CSV row; and Lanczos substeps
NORM_DRIFT_LIMIT = 1e-8
CUT_TOLERANCE = 1e-13  # certified norm error of an eigh sampler's level cut, over the run
KRYLOV_TOLERANCE = 1e-14  # estimated error of a Lanczos sample, per basis
KRYLOV_MIN_COLUMNS, KRYLOV_MAX_COLUMNS = 20, 64  # of one Lanczos basis


class NormDriftError(RuntimeError):
    """The propagated state's norm drifted beyond the accepted bound."""


class TimeGridMismatchError(ValueError):
    """Two trajectories were compared on different sample times."""


@dataclass(frozen=True)
class PolynomialPotential:
    """Polynomial U(x) with finite support, degree -> coefficient.

    Coefficients may be exact rationals or floats.
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


def _check_finite(arrays, what: str) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise OverflowError(f"{what} leaves the floating-point range")


def build_hamiltonian(spec: HamiltonianSpec, ops=None) -> SparseOperator:
    """The Hamiltonian as one real operator on the occupation basis of the modes.

    ``ops`` reuses the (X_CM, V_CM, P_TOT) triple of ``cm_operators_numeric``.
    X_CM is real and P_TOT imaginary, so H is formed in real arithmetic from
    their slots by ``hilbert_rep``'s products and sums: -(Im P_TOT)^2 / 2M,
    then each power of X_CM (the last times X_CM) times its coefficient, added
    in that order, then (H + H^T) / 2.  On one mode no entry of a product sums
    more than two terms, so H is the ``scipy.sparse`` products of the CM
    operators' CSR matrices bit for bit.  Raises OverflowError at the first
    power of X_CM, or coefficient, that leaves the floating-point range, or
    when H does, and DimensionCapError for a product past the slot cap.  The
    powers stop at the first zero matrix; the terms above it are zero.
    """
    x_cm, _, p_tot = ops if ops is not None else cm_operators_numeric(spec.modes)
    x = (x_cm.columns, x_cm.values)
    momentum = (p_tot.columns, p_tot.values)  # P_TOT = i * momentum
    square = _product(momentum, momentum)
    terms = [(square[0], square[1] * (-1 / (2.0 * spec.total_mass)))]
    rows, coeffs = np.arange(x_cm.dim)[:, None], dict(spec.potential.terms)
    power = (rows, np.ones(rows.shape))  # the identity
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is refused here
        for k in range(spec.potential.degree + 1):
            if k:
                power = _product(power, x) if k > 1 else x
                _check_finite([power[1]], f"power {k} of X_CM")
            if k in coeffs:
                terms.append((power[0], float(coeffs[k]) * power[1]))
            if not power[1].any():  # underflowed, as every higher one
                break
        # each entry added in the order of the terms
        columns, values = _slots(x_cm.dim, rows, *(np.concatenate(p, axis=1) for p in zip(*terms)))
        # scrub rounding asymmetry; + 0.0 turns -0.0 into +0.0
        rows = np.broadcast_to(rows, columns.shape)
        columns, values = _slots(x_cm.dim, np.concatenate([rows, columns]),
                                 np.concatenate([columns, rows]), np.concatenate([values, values]))
        values = values * 0.5 + 0.0
        _check_finite([values], "the Hamiltonian")
    return SparseOperator(x_cm.mode_dims, columns, values, hermitian=True)


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

    Returns the arrays ``(t, x, p)``, one entry per t = 0, dt, ..., t_final;
    like :func:`evolve_quantum` it raises ValueError unless t_final is a
    whole number of steps, at most MAX_STEPS.
    """
    n_steps = _step_count(t_final, dt)
    # float coefficients: a Fraction times a float is float(c) * x, so the stages
    # get the values the derivative's exact coefficients would give, at float speed
    force = tuple((k, float(c)) for k, c in potential.derivative().terms)
    inv_m, half, sixth = 1.0 / total_mass, 0.5 * dt, dt / 6.0
    x, p = float(x0), float(p0)
    xs, ps = [x], [p]
    for _ in range(n_steps):
        # the four stages, inlined; a force adds its terms to 0 left to right
        # (``sum`` compensates the rounding from Python 3.12 on; a force of -0.0
        # counts as +0.0), and no force is 0 * x
        f1 = 0 if force else 0 * x
        for k, c in force:
            f1 += c * x**k
        dx1, dp1 = p * inv_m, -f1
        x2 = x + half * dx1
        f2 = 0 if force else 0 * x2
        for k, c in force:
            f2 += c * x2**k
        dx2, dp2 = (p + half * dp1) * inv_m, -f2
        x3 = x + half * dx2
        f3 = 0 if force else 0 * x3
        for k, c in force:
            f3 += c * x3**k
        dx3, dp3 = (p + half * dp2) * inv_m, -f3
        x4 = x + dt * dx3
        f4 = 0 if force else 0 * x4
        for k, c in force:
            f4 += c * x4**k
        dx4, dp4 = (p + dt * dp3) * inv_m, -f4
        x = x + sixth * (dx1 + 2.0 * dx2 + 2.0 * dx3 + dx4)
        p = p + sixth * (dp1 + 2.0 * dp2 + 2.0 * dp3 + dp4)
        xs.append(x)
        ps.append(p)
    return dt * np.arange(n_steps + 1), np.array(xs), np.array(ps)


@dataclass(frozen=True)
class Trajectory:
    """Sampled quantum run as columns, one 1-D array entry per sample time (no amplitudes)."""

    times: np.ndarray
    x_cm: np.ndarray
    v_cm: np.ndarray
    dx: np.ndarray
    dv: np.ndarray
    energy: np.ndarray
    norm: np.ndarray
    trunc_weight: np.ndarray
    total_mass: float

    @property
    def norm_drift(self) -> float:
        return float(np.max(np.abs(self.norm - 1.0)))

    @property
    def energy_drift(self) -> float:
        """Maximum relative drift of <H> over the run."""
        e0 = self.energy[0]
        return float(np.max(np.abs(self.energy - e0)) / max(abs(e0), 1e-30))


def _blocks(h: SparseOperator) -> list:
    """The indices of H's diagonal blocks, read exactly off H's slots: its two
    parity sectors of the total level sum_j j n_j when no nonzero entry couples
    basis states of opposite parity (every even potential), else all of H."""
    parity = _levels(*_shape(h.mode_dims))[0].sum(axis=1) % 2
    if ((h.values != 0) & (parity[:, None] != parity[h.columns])).any():
        return [np.arange(h.dim)]
    return [np.flatnonzero(parity == p) for p in (0, 1)]


def _level_cut(block: np.ndarray, top: np.ndarray, amps: np.ndarray, t_final: float,
               hbar: float):
    """The eigenpairs of a dense block's smallest certified level cut.

    The cut of L levels keeps the block's states whose highest occupied level
    (``top``) is below L.  L starts at twice psi0's support, the fewest levels
    outside which ``amps`` has norm at most CUT_TOLERANCE, and doubles until a
    cut certifies; past half the rows the cut is the whole block (``inside``
    is ``slice(None)``), exact when its spectrum is finite (else
    OverflowError).  For the cut's eigenpairs (theta_k, w_k) and coefficients
    c_k = <w_k|psi0>, ||psi_cut(t) - psi(t)|| <= ||psi0 outside the cut||
    + (t/hbar) sum_k |c_k| ||(H - theta_k) w_k|| for every 0 <= t <= t_final
    (Parlett, The Symmetric Eigenvalue Problem, 1980), and (H - theta_k) w_k
    is H[outside, cut] w_k: one GEMM of the outside rows that touch the cut.
    A cut is kept when this bound is at most CUT_TOLERANCE; a NaN or infinite
    bound never is.  Returns ``(inside, evals, evecs, coeffs)``.
    """
    tail = np.sqrt(np.cumsum(np.bincount(top, np.abs(amps) ** 2)[::-1]))[::-1]
    levels = 2 * max(np.count_nonzero(tail > CUT_TOLERANCE), 1)
    while 2 * np.count_nonzero(top < levels) <= len(top):
        inside = top < levels
        evals, evecs = np.linalg.eigh(block[np.ix_(inside, inside)])
        coeffs = evecs.T @ amps[inside]
        coupling = block[np.ix_(~inside, inside)]
        with np.errstate(all="ignore"):  # an overflow leaves an uncertified bound
            # hypot: the squares of a norm may leave the floating-point range
            residuals = np.hypot.reduce(coupling[coupling.any(axis=1)] @ evecs, axis=0)
            bound = np.linalg.norm(amps[~inside]) + t_final / hbar * (np.abs(coeffs) @ residuals)
        if bound <= CUT_TOLERANCE:
            return inside, evals, evecs, coeffs
        levels *= 2
    evals, evecs = np.linalg.eigh(block)  # the doubling's last step: exact, no bound
    _check_finite((evals,), "the spectrum of the Hamiltonian")
    return slice(None), evals, evecs, evecs.T @ amps


def _eigh_sampler(h: SparseOperator, index, psi0: np.ndarray, times: np.ndarray, hbar: float):
    """Sample H's block ``index``, scattered dense from H's slots: returns the
    block's columns that carry the state, and a map from a slice of ``times``
    to those columns of exp(-iHt/hbar) psi0, from the eigenpairs of the
    block's smallest certified level cut (:func:`_level_cut`), the block's
    other columns zero.  A slice's rows are one real GEMM of the real
    eigenvectors and the interleaved re and im of the phased coefficients.
    """
    n = len(index)
    label = np.full(h.dim, -1)
    label[index] = np.arange(n)
    cols, values = label[h.columns[index]], h.values[index]
    kept = (cols >= 0) & (values != 0)  # -1: a column outside the block, whose entry is zero
    cells = (np.arange(n)[:, None] * n + cols)[kept]
    block = np.bincount(cells, values[kept], n * n).reshape(n, n)
    top = _levels(*_shape(h.mode_dims))[0][index, -1]
    inside, evals, evecs, coeffs = _level_cut(block, top, psi0[index], times[-1], hbar)

    def sample(rows: slice) -> np.ndarray:
        # C-contiguous (b, S): its float64 view is (b, 2S), re and im interleaved
        phased = np.exp(np.outer(evals, times[rows]) * (-1j / hbar)) * coeffs[:, None]
        return (evecs @ phased.view(np.float64)).view(np.complex128).T

    return index[inside], sample


def _krylov_sampler(h: SparseOperator, psi0: np.ndarray, times: np.ndarray, hbar: float):
    """Sample all of H by short-iterative Lanczos steps (Park & Light 1986; Hochbruck &
    Lubich 1997): returns all columns, and a map from the consecutive slices of
    ``times``, taken in order, to those rows of exp(-iHt/hbar) psi0.

    From the last row emitted (psi0 first), :func:`_lanczos` grows a basis
    until it certifies the next sample; the samples it certifies from there,
    at most KRYLOV_MAX_COLUMNS, are one GEMM of their phased coordinates and
    the basis, and the next basis starts from the last.  A sample that no
    basis certifies is reached by halved substeps.  So the rows do not depend
    on the slices asked for.  Raises OverflowError for a non-finite Lanczos
    coefficient, or when the run needs more than MAX_STEPS substeps or one
    too small to advance t.
    """
    def rows():
        yield psi0
        basis = np.empty((KRYLOV_MAX_COLUMNS, h.dim), dtype=np.complex128)
        start, origin, k, substeps = psi0, times[0], 1, 0
        while k < len(times):
            m, coordinates = _lanczos(h, basis, start, times[k] - origin, hbar)
            coords, estimates = coordinates(times[k:k + KRYLOV_MAX_COLUMNS] - origin)
            count = np.argmin(np.append(estimates <= KRYLOV_TOLERANCE, False))  # leading ones
            if count:
                stack = coords[:, :count].T @ basis[:m]
                yield from stack
                start, origin, k = stack[-1], times[k + count - 1], k + count
                continue
            step = (times[k] - origin) / 2
            while coordinates([step])[1][0] > KRYLOV_TOLERANCE:  # a zero step certifies
                step /= 2
            substeps += 1
            if substeps > MAX_STEPS or origin + step == origin:
                raise OverflowError(f"exp(-iHt/hbar) needs more than {MAX_STEPS} substeps")
            start, origin = coordinates([step])[0][:, 0] @ basis[:m], origin + step

    later = rows()
    return slice(None), lambda rows: np.array([next(later) for _ in times[rows]])


def _lanczos(h: SparseOperator, basis: np.ndarray, start: np.ndarray, gap: float,
             hbar: float):
    """Grow the Lanczos basis of H/hbar from ``start`` in the rows of ``basis``: to
    KRYLOV_MIN_COLUMNS, and on until the estimate beta_m |e_m^T exp(-i T_m s) e_1|
    ||start|| (Saad 1992) certifies the step s = ``gap`` at KRYLOV_TOLERANCE, or
    ``basis`` is full.  Returns the column count m and the map from steps s to the
    coordinates of exp(-iHs/hbar) start in the basis (e_1 plus an expm1 term: a
    zero step is exact) and their estimates.  Raises OverflowError for a
    non-finite coefficient."""
    def coordinates(steps):
        with np.errstate(over="ignore", invalid="ignore"):  # NaN at a phase past the range
            phased = np.expm1(np.outer(evals, steps) * -1j) * (norm * evecs[0])[:, None]
        coords = evecs @ phased
        coords[0] += norm
        return coords, betas[-1] * np.abs(coords[-1])  # a NaN estimate never certifies

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite coefficient is refused
        norm, alphas, betas = np.linalg.norm(start), [], []
        basis[0] = start / norm
        for m in range(1, len(basis) + 1):
            w = h.apply(basis[m - 1]) / hbar
            alphas.append(np.vdot(basis[m - 1], w).real)
            w -= alphas[-1] * basis[m - 1]
            if m > 1:
                w -= betas[-1] * basis[m - 2]
            betas.append(np.linalg.norm(w))  # its squares overflow first
            if not np.isfinite([alphas[-1], betas[-1]]).all():
                raise OverflowError("the action of exp(-iHt/hbar) leaves the floating-point range")
            if m >= KRYLOV_MIN_COLUMNS or not betas[-1]:  # beta_m = 0: an invariant subspace
                # eigh reads the lower triangle of T_m
                evals, evecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas[:-1], -1))
                if m == len(basis) or coordinates([gap])[1][0] <= KRYLOV_TOLERANCE:
                    return m, coordinates
            basis[m] = w / betas[-1]


def evolve_quantum(psi0: StateVector, spec: HamiltonianSpec, t_final: float,
                   dt: float) -> Trajectory:
    """Propagate psi0 under the spec's Hamiltonian, sampling CM observables every dt.

    t_final must be a whole number of steps dt, at most MAX_STEPS.  The
    propagator is exact and unitary, on the one H of :func:`build_hamiltonian`
    on the occupation basis of ``spec.modes``: a dense ``eigh`` sampler per
    diagonal block of it up to dimension 2048, each on its block's certified
    level cut (:func:`_eigh_sampler`), and above that one Lanczos sampler of
    all of it, through its apply, certified sample by sample
    (:func:`_krylov_sampler`).
    The one loop over the time grid fills each block of rows from every
    sampler, zero in the columns outside a kept cut, evaluates it and drops
    it, and keeps only the columns of CM observables and energy, both read
    off one pair of X_CM and V_CM images of the rows on every mode count
    (:func:`_cm_energies`), norm and truncation weight.  Each stage checks what it
    hands on: OverflowError for a power of X_CM or H (:func:`build_hamiltonian`), a
    block's spectrum (:func:`_level_cut`) or a Lanczos step; ``eigh``'s LinAlgError and
    DimensionCapError are ValueErrors.  Raises, for the first sample that fails a gate,
    NormDriftError when |norm - 1| reaches 1e-8 (never renormalizes), else
    ExcessiveTruncationError.
    """
    n_steps = _step_count(t_final, dt)
    ops = cm_operators_numeric(spec.modes)
    if psi0.mode_dims != ops[0].mode_dims:
        raise ValueError("initial state does not match the Hamiltonian's modes")

    times = dt * np.arange(n_steps + 1)
    dim = ops[0].dim
    h = build_hamiltonian(spec, ops=ops)
    if dim <= EIG_DIMENSION_LIMIT:
        samplers = [_eigh_sampler(h, index, psi0.amplitudes, times, spec.hbar)
                    for index in _blocks(h)]
    else:
        samplers = [_krylov_sampler(h, psi0.amplitudes, times, spec.hbar)]
    step = max(1, SAMPLE_BLOCK_AMPLITUDES // dim)  # each temporary stays near 256 KiB
    blocks = []
    for start in range(0, len(times), step):
        rows = slice(start, start + step)
        # zeros: the columns outside a certified level cut
        block = np.zeros((len(times[rows]), dim), dtype=np.complex128)
        for index, sample in samplers:
            block[:, index] = sample(rows)
        # np.linalg.norm's arithmetic, row by row
        norms = np.sqrt(np.vecdot(block.real, block.real) + np.vecdot(block.imag, block.imag))
        weights = truncation_weights(block, psi0.mode_dims)
        _check_gates(times[rows], norms, weights)
        x_rows, v_rows = ops[0].apply(block), ops[1].apply(block)
        rec = cm_expectation_records(block, x_rows, v_rows, weights)
        blocks.append((rec.x_cm, rec.v_cm, rec.dx, rec.dv,
                       _cm_energies(block, x_rows, v_rows, ops[0], spec), norms, weights))
    return Trajectory(times, *map(np.concatenate, zip(*blocks)), total_mass=spec.total_mass)


def _cm_energies(rows, x_rows, v_rows, x_cm: SparseOperator, spec: HamiltonianSpec):
    """<H> per row from the rows' X_CM and V_CM images, on any number of modes:
    M/2 <V_CM^2> plus each c_k <X_CM^a psi | X_CM^b psi>, a = k // 2, b = k - a,
    the powers above the first applied here.  By ascending k, a power two below
    the newest is never read again, and every power above a zero one is zero."""
    energy = np.vecdot(v_rows, v_rows).real * (0.5 * spec.total_mass)
    powers = [rows, x_rows]
    for k, c in spec.potential.terms:
        while len(powers) <= k - k // 2:
            if not powers[-1].any():  # the terms left add zeros
                return energy
            powers.append(x_cm.apply(powers[-1]))
            powers[-3] = None
        energy = energy + float(c) * np.vecdot(powers[k // 2], powers[k - k // 2]).real
    return energy


def _check_gates(times, norms: np.ndarray, weights: np.ndarray) -> None:
    """Raise for the first sample that fails a gate, the norm gate before the weight gate."""
    norm_fails = ~(np.abs(norms - 1.0) < NORM_DRIFT_LIMIT)  # NaN fails
    fails = norm_fails | (weights > TRUNCATION_GATE)
    if not fails.any():
        return
    k = int(np.argmax(fails))
    if norm_fails[k]:
        raise NormDriftError(f"norm drifted to {float(norms[k])} at t = {times[k]}")
    raise ExcessiveTruncationError(
        f"truncation weight {weights[k]:.3g} exceeds the gate {TRUNCATION_GATE:.3g} "
        f"at t = {times[k]}"
    )


@dataclass(frozen=True)
class DeviationReport:
    """Quantum-expectation vs classical-trajectory distances."""

    max_x_deviation: float
    max_v_deviation: float
    final_x_deviation: float
    final_v_deviation: float


def compare_trajectories(traj: Trajectory, classical) -> DeviationReport:
    """Deviations |<X_CM>(t) - x_c(t)| and |<V_CM>(t) - p_c(t)/M| on one time grid,
    column against column.

    ``classical`` is the ``(t, x, p)`` of ``evolve_classical``; its times
    must be the quantum times one for one (within 1e-9), as on the same
    t_final and dt, or TimeGridMismatchError is raised.
    """
    grid, x, p = classical
    if len(grid) != len(traj.times) or not np.allclose(grid, traj.times, rtol=0, atol=1e-9):
        raise TimeGridMismatchError("the classical samples are not on the quantum time grid")
    dx = np.abs(traj.x_cm - x)
    dv = np.abs(traj.v_cm - p * (1.0 / traj.total_mass))
    return DeviationReport(
        max_x_deviation=float(dx.max()),
        max_v_deviation=float(dv.max()),
        final_x_deviation=float(dx[-1]),
        final_v_deviation=float(dv[-1]),
    )


def effective_cm_system(n: int, mbar: float, dim: int = 64, hbar: float = 1.0):
    """Single mode of mass N*mbar: the exact CM sector for CM-only Hamiltonians."""
    if n < 1:
        raise ValueError("need at least one particle")
    return [ModeSpec(mass=n * float(mbar), dim=dim, hbar=hbar)]

