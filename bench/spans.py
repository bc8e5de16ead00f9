"""Span recorder for the traced run, installed from outside the program.

``install`` replaces each layer's public functions with a timing wrapper in
every module namespace that calls them across a layer boundary: ``cmlimit.cli``
for everything the CLI calls, ``cmlimit.dynamics`` for the ``hilbert_rep``
functions and its own ``build_hamiltonian``, and ``cmlimit.ccr_algebra`` for
the ``commutator`` calls inside the residual identities.  A call that looks
a function up in a namespace not patched here escapes the trace and counts
as self time of the enclosing span.

A span is ``(name, parent index, start, end)``; self time is the duration
minus the durations of its direct children (spans nest, the program runs on
one thread).  Counts are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

# span name -> (module defining it, function names, namespaces to patch)
LAYER_SPANS = {
    "ccr_algebra.commutator": ("ccr_algebra", ("commutator",), ("cli", "ccr_algebra")),
    "ccr_algebra.residual": ("ccr_algebra", (
        "residual_power_identity", "residual_monomial_identity", "residual_poisson",
    ), ("cli",)),
    "ccr_algebra.cm_observables": ("ccr_algebra", ("cm_observables",), ("cli",)),
    "hilbert_rep.cm_operators": ("hilbert_rep", ("cm_operators_numeric",), ("cli", "dynamics")),
    "hilbert_rep.states": ("hilbert_rep", (
        "coherent_state", "coherent_product", "product_state",
    ), ("cli", "dynamics")),
    "hilbert_rep.expectations": ("hilbert_rep", (
        "cm_expectation_record", "uncertainty_product", "commutator_expectation",
        "expectation", "truncation_weight",
    ), ("cli", "dynamics")),
    "dynamics.build_hamiltonian": ("dynamics", ("build_hamiltonian",), ("dynamics",)),
    "dynamics.evolve_quantum": ("dynamics", ("evolve_quantum",), ("cli",)),
    "dynamics.evolve_classical": ("dynamics", ("evolve_classical",), ("cli",)),
    "cli": ("cli", ("main",), ("cli",)),
}


def _count_commutator(counts, args, result):
    f, g = args[:2]
    counts["ccr_algebra.commutator.calls"] += 1
    counts["ccr_algebra.term_pairs"] += 2 * len(f.terms) * len(g.terms)
    counts["ccr_algebra.output_terms"] += len(result.terms)


def _count_operators(counts, args, result):
    counts["hilbert_rep.cm_operators.calls"] += 1
    counts["hilbert_rep.operator_nnz"] += sum(op.matrix.nnz for op in result)


def _count_expectation(counts, args, result):
    counts["hilbert_rep.expectations.calls"] += 1


def _count_evolution(counts, args, result):
    samples = len(result.times)
    counts["dynamics.samples"] += samples
    counts["dynamics.sampled_amplitudes"] += samples * args[0].amplitudes.size


COUNTERS = {
    "ccr_algebra.commutator": _count_commutator,
    "hilbert_rep.cm_operators": _count_operators,
    "hilbert_rep.expectations": _count_expectation,
    "dynamics.evolve_quantum": _count_evolution,
}


def _commutator_shape(args) -> str:
    """Wide: a multi-pair algebra (CM scaling); deep: one pair (residual reordering)."""
    wide = args[0].algebra.n_pairs > 1
    return "ccr_algebra.commutator_wide" if wide else "ccr_algebra.commutator_deep"


class SpanRecorder:
    """Collects the spans and counts of one worker process in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = _commutator_shape(args) if name == "ccr_algebra.commutator" else name
            index = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else -1
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = (span_name, parent, start, end)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def install(self):
        """Patch every namespace listed in LAYER_SPANS; call once, after import."""
        for name, (home, functions, namespaces) in LAYER_SPANS.items():
            source = importlib.import_module(f"cmlimit.{home}")
            for function in functions:
                wrapped = self.wrap(name, getattr(source, function), COUNTERS.get(name))
                for namespace in namespaces:
                    module = importlib.import_module(f"cmlimit.{namespace}")
                    if hasattr(module, function):
                        setattr(module, function, wrapped)


def self_times(spans) -> Counter:
    """Span name -> total self time (duration minus direct children)."""
    child_time = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = Counter()
    for (name, _, start, end), children in zip(spans, child_time):
        totals[name] += (end - start) - children
    return totals
