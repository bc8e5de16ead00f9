"""The names and attributes the benchmark's traced run relies on.

``bench/spans.py`` wraps the functions listed in its ``LAYER_SPANS`` and
counts through ``COUNTERS``; a renamed or deleted function, or a result
that loses an attribute a counter reads, breaks every traced worker.  The
module is loaded by path and only read: nothing is installed.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from cmlimit.ccr_algebra import cm_algebra, commutator
from cmlimit.dynamics import HamiltonianSpec, PolynomialPotential, evolve_quantum
from cmlimit.hilbert_rep import ModeSpec, cm_operators_numeric, coherent_state

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_span_functions_exist():
    spans = _load_spans()
    for home, functions, namespaces in spans.LAYER_SPANS.values():
        source = importlib.import_module(f"cmlimit.{home}")
        for function in functions:
            assert callable(getattr(source, function, None)), f"cmlimit.{home}.{function}"
        for namespace in namespaces:
            importlib.import_module(f"cmlimit.{namespace}")


def test_counters_read_real_results():
    spans = _load_spans()
    counts = Counter()
    alg = cm_algebra()
    x, v = alg.x(), alg.v()
    spans.COUNTERS["ccr_algebra.commutator"](counts, (x, v), commutator(x, v))
    pair = (ModeSpec(mass=1.0, dim=3), 2)
    ops = cm_operators_numeric(*pair)
    spans.COUNTERS["hilbert_rep.cm_operators"](counts, pair, ops)
    assert counts["hilbert_rep.operator_nnz"] == sum(op.matrix.nnz for op in ops) > 0
    spans.COUNTERS["hilbert_rep.expectations"](counts, (), None)
    mode = ModeSpec(mass=1.0, dim=8)
    psi0 = coherent_state(mode, 0.0, 0.0)
    spec = HamiltonianSpec(mode, 1, PolynomialPotential.zero())
    traj = evolve_quantum(psi0, spec, t_final=0.2, dt=0.1)
    spans.COUNTERS["dynamics.evolve_quantum"](counts, (psi0, spec), traj)
    assert counts["dynamics.samples"] == 3
    assert counts["dynamics.sampled_amplitudes"] == 3 * psi0.amplitudes.size == 24
