"""Center-of-mass observables in the many-particle limit.

Four layers:

* :mod:`cmlimit.ccr_algebra` -- exact symbolic algebra of normal-ordered
  polynomials in canonical pairs with central commutators.
* :mod:`cmlimit.hilbert_rep` -- truncated-oscillator-basis operators,
  states, expectations and validity gates.
* :mod:`cmlimit.dynamics` -- quantum propagation, classical twin
  trajectories and their comparison.
* :mod:`cmlimit.cli` -- the ``cmlimit`` command-line harness.
"""

from .ccr_algebra import (
    AlgebraSpec,
    AlgebraMismatchError,
    CentralConstant,
    GaussianRational,
    Monomial,
    NCPolynomial,
    NotDivisibleError,
    ParticleSystem,
    build_particle_algebra,
    cm_algebra,
    cm_observables,
    commutator,
    divide_central,
    eps_valuation,
    render,
    residual_monomial_identity,
    residual_poisson,
    residual_power_identity,
)
from .dynamics import (
    DeviationReport,
    HamiltonianSpec,
    NormDriftError,
    PolynomialPotential,
    TimeGridMismatchError,
    Trajectory,
    build_hamiltonian,
    compare_trajectories,
    effective_cm_system,
    evolve_classical,
    evolve_quantum,
)
from .hilbert_rep import (
    DimensionCapError,
    ExcessiveTruncationError,
    ExpectationRecord,
    ModeSpec,
    SparseOperator,
    StateVector,
    cm_expectation_record,
    cm_expectation_records,
    cm_operators_numeric,
    coherent_product,
    coherent_state,
    expectation,
    product_state,
    truncation_weight,
    truncation_weights,
    uncertainty_product,
    variance,
)

__version__ = "0.1.0"
