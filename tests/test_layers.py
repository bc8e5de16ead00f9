"""The package's layer boundary and its public surface.

The exact algebra (:mod:`cmlimit.ccr_algebra`) and the truncated basis with
its dynamics (:mod:`cmlimit.hilbert_rep`, :mod:`cmlimit.dynamics`) are two
independent routes to [X_CM, V_CM] = i*hbar/M; they meet only in the CLI and
the tests.  Importing the modules cannot show which one reads which, since
``cmlimit/__init__`` loads them all, so their sources are parsed instead.
"""

import ast
import types
from pathlib import Path

import pytest

import cmlimit

SRC = Path(__file__).resolve().parents[1] / "src" / "cmlimit"

PUBLIC_NAMES = [
    "AlgebraMismatchError", "AlgebraSpec", "CentralConstant", "DeviationReport",
    "DimensionCapError", "ExcessiveTruncationError", "ExpectationRecord",
    "GaussianRational", "HamiltonianSpec", "ModeSpec", "Monomial", "NCPolynomial",
    "NormDriftError", "NotDivisibleError", "ParticleSystem", "PolynomialPotential",
    "SparseOperator", "StateVector", "SymbolPolynomial", "TimeGridMismatchError",
    "Trajectory", "build_hamiltonian", "build_particle_algebra", "cm_algebra",
    "cm_expectation_record", "cm_expectation_records", "cm_observables",
    "cm_operators_numeric", "coherent_product", "coherent_state", "commutator",
    "compare_trajectories", "derivative_identity_residuals", "divide_central",
    "effective_cm_system", "eps_valuation", "evolve_classical", "evolve_quantum",
    "expectation", "lift", "momentum_op", "poisson_bracket", "position_op",
    "product_state", "render", "render_symbol", "residual_monomial_identity",
    "residual_poisson", "residual_power_identity", "symbol_map", "truncation_weight",
    "truncation_weights", "uncertainty_product", "variance",
]


def _imported_modules(path):
    """Every module an import statement of the source names, at any depth, with
    each name of a ``from`` import also read as a submodule of its base."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("module", ["hilbert_rep", "dynamics"])
def test_numeric_layers_import_nothing_from_the_algebra(module):
    imported = list(_imported_modules(SRC / f"{module}.py"))
    assert imported  # the parse found the module's imports
    assert not [name for name in imported if "ccr_algebra" in name.split(".")]


def test_public_names_are_pinned():
    # a rename or removal of an export updates this list and CHANGES.md together
    exported = sorted(name for name, value in vars(cmlimit).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == PUBLIC_NAMES
