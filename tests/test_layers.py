"""The package's layer boundary, its public surface and its dead code.

The exact algebra (:mod:`cmlimit.ccr_algebra`) and the truncated basis with
its dynamics (:mod:`cmlimit.hilbert_rep`, :mod:`cmlimit.dynamics`) are two
independent routes to [X_CM, V_CM] = i*hbar/M; they meet only in the CLI and
the tests.  Importing the modules cannot show which one reads which, since
``cmlimit/__init__`` loads them all, so their sources are parsed instead.
"""

import ast
import types
from collections import Counter
from pathlib import Path

import pytest

import cmlimit

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cmlimit"

PUBLIC_NAMES = [
    "AlgebraMismatchError", "AlgebraSpec", "CentralConstant", "DeviationReport",
    "DimensionCapError", "ExcessiveTruncationError", "ExpectationRecord",
    "GaussianRational", "HamiltonianSpec", "ModeSpec", "Monomial", "NCPolynomial",
    "NormDriftError", "NotDivisibleError", "ParticleSystem", "PolynomialPotential",
    "SparseOperator", "StateVector", "TimeGridMismatchError", "Trajectory",
    "build_hamiltonian", "build_particle_algebra", "cm_algebra",
    "cm_expectation_record", "cm_expectation_records", "cm_observables",
    "cm_operators_numeric", "coherent_product", "coherent_state", "commutator",
    "compare_trajectories", "divide_central", "effective_cm_system", "eps_valuation",
    "evolve_classical", "evolve_quantum", "expectation", "product_state", "render", "residual_monomial_identity", "residual_poisson",
    "residual_power_identity", "truncation_weight", "truncation_weights",
    "uncertainty_product", "variance",
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


# defined in src/ and read by no code there or in bench/, each on purpose
UNREFERENCED_ALLOWED = {
    "to_dense",  # the numpy-only way to read a SparseOperator, with no scipy import
    "norm_drift",  # a gate margin of Trajectory, kept for a run report to read
    "energy_drift",  # a gate margin of Trajectory, kept for a run report to read
}


def _references(node):
    """Each name, attribute and identifier string under ``node``: ``bench/spans.py``
    names the functions it wraps as strings."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif (isinstance(child, ast.Constant) and isinstance(child.value, str)
              and child.value.isidentifier()):
            yield child.value


def test_every_src_definition_is_referenced():
    # a function, method or class that only tests call belongs in tests/oracles.py;
    # ``__init__`` re-exports are not references
    sources = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for p in sources + sorted((ROOT / "bench").glob("*.py"))}
    counts = Counter(name for tree in trees.values() for name in _references(tree))
    unreferenced = [
        f"{path.name}:{node.name}"
        for path in sources for node in ast.walk(trees[path])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in UNREFERENCED_ALLOWED
        and counts[node.name] == Counter(_references(node))[node.name]
    ]
    assert unreferenced == []
