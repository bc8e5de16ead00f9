"""Independent oracles for the symbolic algebra, the CM operator and Hamiltonian tests,
and the free Gaussian width the spreading tests measure.

The multiplication oracle represents operator words as tuples of
(letter, pair) factors and normal-orders them by repeated single adjacent
swaps: cross-pair factors commute freely, and within a pair V X rewrites to
X V minus the central constant.  No binomial shortcut is involved, so this
is a genuinely independent check of the fast reordering formula.

The uncertainty oracle :func:`composite_uncertainty_row` forms all d^N
amplitudes of the product of N equal coherent modes and reads the CM row
from the composite record, which the CLI reads from one mode's record.

The library holds N equal modes in their occupation basis; the composite
index of any modes, equal or not, is the oracles' alone:
:func:`kron_cm_operators` and :func:`composite_operator` (dense Kronecker
sums), :func:`kron_cm_images` (their action, mode by mode), :func:`kronsum_matrix` and :func:`sparse_hamiltonian` (``scipy.sparse``
folds), :func:`composite_product` (``np.kron`` states) and
:func:`symmetric_isometry`, which maps the occupation basis onto the
exchange-symmetric subspace of the composite index.  :func:`position_op` and
:func:`momentum_op` build one mode's X and P from their dense matrices.

The matrix oracle :func:`poly_matrix` evaluates a symbolic element on dense
(X, V) matrices with numpy's matrix products alone, so it shares no
arithmetic with the slot products of :mod:`cmlimit.hilbert_rep` that
assemble the Hamiltonian.

The symbol oracle :class:`SymbolPolynomial` holds the classical symbol of a
normal-ordered polynomial (``symbol_map`` and ``lift`` copy the term map)
and multiplies symbols by adding exponents, with partial derivatives and
:func:`poisson_bracket` on top.  It calls none of the library's product
code (``_merged_pair_products``, ``_reorder_scalars``): the library never
forms a symbol, so the Poisson bracket is an independent check of the
reduction [f, g] = [X, V] * lift({f, g}) + O(eps^2) that
``residual_poisson`` takes for granted.

The residual oracles :func:`residual_poisson_by_definition`,
:func:`derivative_identity_residuals` and
:func:`residual_monomial_by_definition` form each first-order identity the
long way: the whole commutator, minus the lifted Poisson bracket, the lifted
derivative or the divided bracket products.  The library takes only the
contraction orders those subtractions leave.

:func:`to_complex`, :func:`evaluate` and :func:`render_potential` read an
exact coefficient as a complex number, a potential at a point, and a
potential as the text ``cli.parse_potential`` reads back.

The argument-parser oracle :func:`reference_config` is the ``argparse``
parser the CLI used before it read its flags straight from ``_FIELDS``, with
the configuration step that followed it, unchanged.
"""

import argparse
import itertools
import math
import random
from fractions import Fraction

import numpy as np

from cmlimit.ccr_algebra import (
    AlgebraMismatchError,
    GaussianRational,
    Monomial,
    NCPolynomial,
    _monomial_brackets,
    cm_algebra,
    commutator,
    divide_central,
    render,
    scale_central,
)
from cmlimit.cli import _FIELDS, ConfigError, ExperimentConfig, _fmt, _load_config_file
from cmlimit.dynamics import (
    HamiltonianSpec,
    PolynomialPotential,
    _check_finite,
    effective_cm_system,
    evolve_quantum,
)
from cmlimit.hilbert_rep import (
    TRUNCATION_GATE,
    ExcessiveTruncationError,
    ModeSpec,
    SparseOperator,
    StateVector,
    cm_expectation_record,
    cm_expectation_records,
    coherent_product,
    coherent_state,
)

ZERO = GaussianRational(0)


def poly_to_words(poly):
    """NCPolynomial -> dict {(hbar, eps, word): coeff} with explicit letters."""
    out = {}
    for mono, coeff in poly.terms.items():
        word = []
        for pair, x_exp, v_exp in mono.pairs:
            word.extend([("x", pair)] * x_exp)
            word.extend([("v", pair)] * v_exp)
        out[(mono.hbar_exp, mono.eps_exp, tuple(word))] = coeff
    return out


def words_to_poly(algebra, words):
    terms = {}
    for (hbar, eps, word), coeff in words.items():
        counts = {}
        for letter, pair in word:
            xs, vs = counts.get(pair, (0, 0))
            counts[pair] = (xs + 1, vs) if letter == "x" else (xs, vs + 1)
        pairs = tuple((k, x, v) for k, (x, v) in sorted(counts.items()))
        mono = Monomial(hbar, eps, pairs)
        terms[mono] = terms.get(mono, ZERO) + coeff
    return NCPolynomial(algebra, terms)


def _first_disorder(word):
    for i in range(len(word) - 1):
        (l1, p1), (l2, p2) = word[i], word[i + 1]
        if p1 > p2 or (p1 == p2 and l1 == "v" and l2 == "x"):
            return i
    return None


def slow_normal_order(algebra, words):
    """Normal-order a word map by repeated single-factor swaps."""
    done = {}
    work = list(words.items())
    while work:
        (hbar, eps, word), coeff = work.pop()
        if not coeff:
            continue
        i = _first_disorder(word)
        if i is None:
            key = (hbar, eps, word)
            done[key] = done.get(key, ZERO) + coeff
            continue
        a, b = word[i], word[i + 1]
        swapped = word[:i] + (b, a) + word[i + 2:]
        if a[1] != b[1]:
            work.append(((hbar, eps, swapped), coeff))
        else:
            # V X = X V - c with c = i q hbar^h eps^e
            const = algebra.constants[a[1]]
            work.append(((hbar, eps, swapped), coeff))
            work.append((
                (hbar + const.hbar_exp, eps + const.eps_exp, word[:i] + word[i + 2:]),
                coeff * GaussianRational(0, -const.q),
            ))
    return {k: c for k, c in done.items() if c}


def slow_mul(f, g):
    """Reference product computed with the single-swap oracle."""
    combined = {}
    for (h1, e1, w1), c1 in poly_to_words(f).items():
        for (h2, e2, w2), c2 in poly_to_words(g).items():
            key = (h1 + h2, e1 + e2, w1 + w2)
            combined[key] = combined.get(key, ZERO) + c1 * c2
    return words_to_poly(f.algebra, slow_normal_order(f.algebra, combined))


def exponents(mono: Monomial, pair: int) -> tuple:
    """The (x, v) exponents of one pair in a monomial, (0, 0) if it is absent."""
    for k, x, v in mono.pairs:
        if k == pair:
            return (x, v)
    return (0, 0)


def _monomial(hbar: int, eps: int, exps) -> Monomial:
    """The monomial of a per-pair list of (x, v) exponents."""
    return Monomial(hbar, eps, tuple((k, x, v) for k, (x, v) in enumerate(exps) if x or v))


def _exponent_sum(m1: Monomial, m2: Monomial, n_pairs: int) -> Monomial:
    """m1 * m2 for commuting symbols: every exponent added."""
    return _monomial(m1.hbar_exp + m2.hbar_exp, m1.eps_exp + m2.eps_exp, [
        (x1 + x2, v1 + v2)
        for (x1, v1), (x2, v2) in ((exponents(m1, k), exponents(m2, k)) for k in range(n_pairs))
    ])


class SymbolPolynomial:
    """Commutative polynomial in the classical symbols x_k, v_k of an algebra's pairs.

    A ``Monomial -> GaussianRational`` map, validated and cleaned of zero
    terms as ``NCPolynomial`` cleans its own; the product of two monomials
    adds their exponents.  Closed under +, -, * with scalars and symbols of
    the same algebra, and under partial derivatives; mixing with an
    ``NCPolynomial`` raises TypeError.
    """

    __hash__ = None

    def __init__(self, algebra, terms=None):
        self.algebra = algebra
        self.terms = NCPolynomial(algebra, terms).terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _operand(self, other):
        if isinstance(other, SymbolPolynomial):
            if other.algebra != self.algebra:
                raise AlgebraMismatchError("operands belong to different algebras")
            return other
        scalar = GaussianRational._coerce(other)
        return None if scalar is None else SymbolPolynomial(self.algebra, {Monomial(): scalar})

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, ZERO) + coeff
        return SymbolPolynomial(self.algebra, out)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _exponent_sum(m1, m2, self.algebra.n_pairs)
                out[mono] = out.get(mono, ZERO) + c1 * c2
        return SymbolPolynomial(self.algebra, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SymbolPolynomial):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    def diff_x(self, pair: int = 0) -> "SymbolPolynomial":
        """Partial derivative with respect to the position symbol of a pair."""
        return self._diff(pair, slot=0)

    def diff_v(self, pair: int = 0) -> "SymbolPolynomial":
        """Partial derivative with respect to the velocity symbol of a pair."""
        return self._diff(pair, slot=1)

    def _diff(self, pair, slot):
        out = {}
        for mono, coeff in self.terms.items():
            exps = [list(exponents(mono, k)) for k in range(self.algebra.n_pairs)]
            power = exps[pair][slot]
            if power:
                exps[pair][slot] -= 1
                out[_monomial(mono.hbar_exp, mono.eps_exp, exps)] = coeff * power
        return SymbolPolynomial(self.algebra, out)

    def __str__(self):
        return render_symbol(self)


def symbol_map(f: NCPolynomial) -> SymbolPolynomial:
    """Classical symbol of a normal-ordered polynomial: the same term map."""
    return SymbolPolynomial(f.algebra, f.terms)


def lift(fs: SymbolPolynomial) -> NCPolynomial:
    """Normal-ordered lift of a symbol polynomial (x^a v^b -> X^a V^b)."""
    return NCPolynomial(fs.algebra, fs.terms)


def render_symbol(fs: SymbolPolynomial) -> str:
    """``render`` of the lift with lowercased generator names (a rendered
    coefficient, ``hbar`` and ``eps`` hold no capital letter)."""
    return render(lift(fs)).lower()


def poisson_bracket(fs: SymbolPolynomial, gs: SymbolPolynomial) -> SymbolPolynomial:
    """{f, g} = sum_k (df/dx_k dg/dv_k - dg/dx_k df/dv_k)."""
    if not isinstance(fs, SymbolPolynomial) or not isinstance(gs, SymbolPolynomial):
        raise TypeError("poisson_bracket expects SymbolPolynomial operands")
    return sum((fs.diff_x(k) * gs.diff_v(k) - gs.diff_x(k) * fs.diff_v(k)
                for k in range(fs.algebra.n_pairs)), SymbolPolynomial(fs.algebra))


def _check_first_order_inputs(*polys):
    """The first-order identities take eps-free polynomials on one single-pair algebra."""
    f = polys[0]
    if f.algebra.n_pairs != 1:
        raise ValueError("this identity is defined on a single-pair algebra")
    for g in polys:
        f._check_same_algebra(g)
        if any(m.eps_exp for m in g.terms):
            raise ValueError("residual_poisson requires eps-free inputs")


def _times_central(fs: SymbolPolynomial) -> NCPolynomial:
    """[X, V] * lift(fs) on a single-pair algebra."""
    const = fs.algebra.constants[0]
    return scale_central(lift(fs), const.hbar_exp, const.eps_exp, const.q)


def residual_poisson_by_definition(f: NCPolynomial, g: NCPolynomial) -> NCPolynomial:
    """[f, g] - i*hbar*eps * lift({symbol(f), symbol(g)}) for eps-free inputs, term by term."""
    _check_first_order_inputs(f, g)
    return commutator(f, g) - _times_central(poisson_bracket(symbol_map(f), symbol_map(g)))


def derivative_identity_residuals(f: NCPolynomial):
    """Residuals of the first-order derivative rules for a single-pair, eps-free f.

    Returns ``([f, V] - i*hbar*eps*lift(ds/dx), [X, f] - i*hbar*eps*lift(ds/dv))``
    with s the symbol of f, formed from the derivatives; since {s, v} = ds/dx
    and {x, s} = ds/dv they are the Poisson residuals of (f, V) and (X, f).
    Both have eps-valuation >= 2 and vanish exactly when f involves only X
    (first) or only V (second).
    """
    _check_first_order_inputs(f)
    s, alg = symbol_map(f), f.algebra
    return (commutator(f, alg.v()) - _times_central(s.diff_x()),
            commutator(alg.x(), f) - _times_central(s.diff_v()))


def residual_monomial_by_definition(a: int, b: int, c: int, d: int) -> NCPolynomial:
    """[X^a V^b, X^c V^d] minus its two-term factorization divided by i hbar eps, in full."""
    if min(a, b, c, d) < 0:
        raise ValueError("exponents must be nonnegative")
    const = cm_algebra().constants[0]
    f, f_v, x_f = _monomial_brackets(a, b)
    g, g_v, x_g = _monomial_brackets(c, d)
    lhs = commutator(f, g)
    numerator = f_v * x_g - g_v * x_f
    rhs = divide_central(numerator, const.hbar_exp, const.eps_exp) * (1 / const.q)
    return lhs - rhs


def poly_matrix(poly, pairs, hbar: float, eps: float) -> np.ndarray:
    """Dense image of a normal-ordered polynomial: the sum over its terms of
    coeff * hbar^a * eps^b * prod_k X_k^x V_k^v, in the terms' pair order.

    ``pairs[k]`` is the dense (X_k, V_k) of pair k, all of one size; powers
    are ``np.linalg.matrix_power`` and products numpy's ``@``.
    """
    if len(pairs) != poly.algebra.n_pairs:
        raise ValueError("need one (X, V) matrix pair per algebra pair")
    size = len(pairs[0][0])
    total = np.zeros((size, size), dtype=np.complex128)
    for mono, coeff in poly.terms.items():
        term = np.eye(size, dtype=np.complex128)
        for k, x_exp, v_exp in mono.pairs:
            x, v = pairs[k]
            term = term @ np.linalg.matrix_power(x, x_exp) @ np.linalg.matrix_power(v, v_exp)
        total += to_complex(coeff) * hbar**mono.hbar_exp * eps**mono.eps_exp * term
    return total


def composite_uncertainty_row(n: int, dim: int, x0: float, p0: float, mbar: float,
                              hbar: float) -> tuple:
    """The ``uncertainty`` row, as ``_fmt`` text, of N equal coherent modes at
    (x0, p0 / N), from the composite record of their dim^N-amplitude product:
    the Kronecker product of the modes' states and the composite operators of
    :func:`kron_cm_operators`, its top-level weight the largest of the modes'."""
    modes = [ModeSpec(mass=mbar, dim=dim, hbar=hbar)] * n
    bound = hbar / 2.0 / (n * mbar)
    try:
        psi = composite_product([coherent_state(modes[0], x0, p0 / n)] * n)
    except ExcessiveTruncationError:
        psi = None
    rec = None if psi is None else composite_record(psi.amplitudes, modes)
    if rec is None or rec.truncation_weight > TRUNCATION_GATE:
        return (str(n), str(dim), "nan", _fmt(bound), "nan", "nan", "nan", "truncation")
    product = rec.dx * rec.dv
    return tuple(_fmt(v) for v in (n, dim, product, bound, product / bound,
                                   rec.commutator_expectation.imag, rec.truncation_weight, "ok"))


def basis_state(d: int, n: int = 0) -> StateVector:
    """The basis state |n> of one d-level mode."""
    return StateVector((d,), np.eye(d)[n])


def ground_product(system) -> StateVector:
    """|0,...,0> on the given equal modes: their coherent product at the origin."""
    zeros = [0.0] * len(system)
    return coherent_product(system, zeros, zeros)


def slots(matrix) -> tuple:
    """A square matrix (dense or ``scipy.sparse``) as ``SparseOperator`` slots:
    each row's nonzero entries by ascending column, plus 0.0 (so a zero part is
    +0.0), then zeros at the row's own column up to the widest row.  Real
    matrices give float values, complex ones complex values."""
    dense = np.asarray(matrix.toarray() if hasattr(matrix, "toarray") else matrix)
    dense = dense.astype(np.complex128 if np.iscomplexobj(dense) else np.float64)
    size = len(dense)
    assert dense.shape == (size, size)
    entries = [np.flatnonzero(row) for row in dense]
    width = max(max(map(len, entries)), 1)
    columns = np.repeat(np.arange(size)[:, None], width, axis=1)
    values = np.zeros((size, width), dtype=dense.dtype)
    for i, cols in enumerate(entries):
        columns[i, :len(cols)] = cols
        values[i, :len(cols)] = dense[i, cols] + 0.0
    return columns, values


def ladder(d: int) -> SparseOperator:
    """Lowering operator on a d-level mode: a|n> = sqrt(n)|n-1>."""
    return SparseOperator((d,), *slots(np.diag(np.sqrt(np.arange(1.0, d)), 1)))


def position_op(mode: ModeSpec) -> SparseOperator:
    """X = sqrt(hbar/2m) (a + a^dagger) of one mode, from its dense matrix."""
    a = np.diag(np.sqrt(np.arange(1.0, mode.dim)), 1)
    return SparseOperator((mode.dim,), *slots(math.sqrt(mode.hbar / (2.0 * mode.mass)) * (a + a.T)),
                          hermitian=True)


def momentum_op(mode: ModeSpec) -> SparseOperator:
    """P = i sqrt(m hbar/2) (a^dagger - a) of one mode, from its dense matrix."""
    a = np.diag(np.sqrt(np.arange(1.0, mode.dim)), 1)
    p = np.zeros((mode.dim, mode.dim), dtype=np.complex128)
    p.imag = math.sqrt(mode.mass * mode.hbar / 2.0) * (a.T - a)
    return SparseOperator((mode.dim,), *slots(p), hermitian=True)


def cm_factors(system) -> tuple:
    """The per-mode factors of (X_CM, V_CM, P_TOT), each a list of CSR matrices:
    (m_k/M) X_k, P_k/M and P_k, scaled as ``scipy.sparse`` scales a CSR matrix."""
    system = list(system)
    total_mass = sum(m.mass for m in system)
    x = [position_op(m).matrix * (m.mass / total_mass) for m in system]
    p = [momentum_op(m).matrix for m in system]
    v = [momentum_op(m).matrix * (1 / total_mass) for m in system]
    return x, v, p


def kronsum_matrix(factors):
    """The complex CSR matrix of the Kronecker sum of per-mode factors (square
    matrices, dense or sparse), assembled as ``scipy.sparse`` folds it: folded with
    ``kronsum(F_k, S)`` over the factors from a 1x1 zero, so factor 0 ends up the
    slowest-varying index.  The composite index of unequal modes is the oracle's
    alone: the library holds equal modes in their occupation basis."""
    import scipy.sparse as sp

    total = sp.csr_matrix((1, 1), dtype=np.complex128)
    for f in factors:
        total = sp.kronsum(sp.csr_matrix(f, dtype=np.complex128), total, format="csr")
    return total


def composite_operator(factors, hermitian=False) -> SparseOperator:
    """The Kronecker sum of dense per-mode factors as a ``SparseOperator`` on one
    index of their product dimension: sum_k I (x) ... (x) F_k (x) ... (x) I by
    ``np.kron``, factor 0 the slowest-varying index."""
    dims = [len(f) for f in factors]
    total = 0
    for k, f in enumerate(factors):
        left, right = np.eye(math.prod(dims[:k])), np.eye(math.prod(dims[k + 1:]))
        total = total + np.kron(np.kron(left, f), right)
    return SparseOperator((math.prod(dims),), *slots(total), hermitian=hermitian)


def composite_product(states) -> StateVector:
    """The ``np.kron`` product of one-mode states, normalized, on one index of their
    product dimension, mode 0 the slowest-varying."""
    amps = np.ones(1)
    for s in states:
        amps = np.kron(amps, s.amplitudes)
    return StateVector((amps.size,), amps / np.linalg.norm(amps))


def kron_cm_images(system, amplitudes: np.ndarray) -> tuple:
    """(X_CM psi, V_CM psi) of a composite state of the given modes: the Kronecker
    sums of :func:`kron_cm_operators` applied mode by mode, each mode's dense X or
    P contracted with its axis of psi, so no d^N x d^N matrix is formed."""
    dims = [m.dim for m in system]
    total_mass = sum(m.mass for m in system)
    psi = amplitudes.reshape(dims)
    x_psi = p_psi = 0
    for k, mode in enumerate(system):
        for op, weight in ((position_op(mode), mode.mass / total_mass), (momentum_op(mode), None)):
            image = np.moveaxis(np.tensordot(op.to_dense(), psi, axes=([1], [k])), 0, k)
            if weight is None:
                p_psi = p_psi + image
            else:
                x_psi = x_psi + weight * image
    return x_psi.ravel(), (p_psi / total_mass).ravel()


def composite_record(amplitudes: np.ndarray, system):
    """The CM record of one composite state of the given modes, from the images of
    :func:`kron_cm_images`; its truncation weight is the largest of the modes'
    top-level probabilities."""
    dims = [m.dim for m in system]
    probs = np.abs(amplitudes.reshape(dims)) ** 2
    weight = max(probs.sum(axis=tuple(i for i in range(len(dims)) if i != k))[d - 1]
                 for k, d in enumerate(dims))
    x_psi, v_psi = kron_cm_images(system, amplitudes)
    columns = cm_expectation_records(amplitudes[None], x_psi[None], v_psi[None],
                                     np.array([weight]))
    return type(columns)(*(column[0].item() for column in vars(columns).values()))


def symmetric_isometry(n: int, d: int) -> np.ndarray:
    """The d^N x C(N + d - 1, N) isometry from the occupation basis of N equal
    d-level modes into their composite index: column s is the normalized sum of
    the composite basis states whose sorted levels are the s-th multiset of
    ``itertools.combinations_with_replacement(range(d), N)``."""
    index = {levels: s for s, levels in
             enumerate(itertools.combinations_with_replacement(range(d), n))}
    iso = np.zeros((d**n, len(index)))
    for i, levels in enumerate(itertools.product(range(d), repeat=n)):
        iso[i, index[tuple(sorted(levels))]] = 1.0
    return iso / np.sqrt(iso.sum(axis=0))


def sparse_hamiltonian(spec: HamiltonianSpec):
    """H as a complex CSR matrix on the composite index of the spec's modes,
    assembled with ``scipy.sparse`` (imported here): the Kronecker-sum fold of
    each CM operator's per-mode factors (:func:`kronsum_matrix` of
    :func:`cm_factors`), its sparse powers and (H + H^H) / 2.  The reference
    assembly for ``build_hamiltonian``, on any modes."""
    import scipy.sparse as sp

    x_factors, _, p_factors = cm_factors(spec.modes)
    x_cm, p_tot = kronsum_matrix(x_factors), kronsum_matrix(p_factors)
    h = (p_tot @ p_tot) / (2.0 * spec.total_mass)
    if spec.potential.terms:
        power = sp.identity(x_cm.shape[0], format="csr", dtype=np.complex128)
        powers = {0: power}
        for k in range(1, spec.potential.degree + 1):
            power = power @ x_cm
            _check_finite([power.data], f"power {k} of X_CM")
            powers[k] = power
            if not power.nnz:  # underflowed to zero, and so is every higher power
                break
        with np.errstate(over="ignore"):  # an overflowing term is refused below
            for k, c in spec.potential.terms:
                if k in powers:
                    h = h + float(c) * powers[k]
    _check_finite([h.data], "the Hamiltonian")
    return (h + h.getH()) * 0.5  # scrub rounding asymmetry from the sparse products


def random_coeff(rng: random.Random) -> GaussianRational:
    return GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))


def random_polynomial(rng, algebra, max_degree=4, n_terms=4,
                      eps_free=True, hbar_free=True) -> NCPolynomial:
    poly = algebra.zero()
    for _ in range(rng.randint(1, n_terms)):
        remaining = max_degree
        pairs = []
        for pair in range(algebra.n_pairs):
            x_exp = rng.randint(0, remaining)
            remaining -= x_exp
            v_exp = rng.randint(0, remaining)
            remaining -= v_exp
            if x_exp or v_exp:
                pairs.append((pair, x_exp, v_exp))
        mono = Monomial(
            0 if hbar_free else rng.randint(0, 2),
            0 if eps_free else rng.randint(0, 2),
            tuple(pairs),
        )
        poly = poly + NCPolynomial(algebra, {mono: random_coeff(rng)})
    return poly


def random_symbol(rng, algebra, max_degree=4, n_terms=4) -> SymbolPolynomial:
    return symbol_map(random_polynomial(rng, algebra, max_degree, n_terms))


def to_complex(z: GaussianRational) -> complex:
    return complex(z.re) + 1j * complex(z.im)


def evaluate(potential: PolynomialPotential, x):
    """U(x): the terms added to 0 left to right, or 0 * x when there are none.

    Exact when the coefficients and x are rational.  The explicit loop fixes
    the float rounding that the classical twin's inlined force must match.
    """
    if not potential.terms:
        return 0 * x
    total = 0
    for k, c in potential.terms:
        total += c * x**k
    return total


def _coeff_text(value) -> str:
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_potential(potential: PolynomialPotential) -> str:
    """Canonical text form; parse_potential(render_potential(p)) == p for rational p."""
    if not potential.terms:
        return "0"
    pieces = []
    for degree, coeff in sorted(potential.terms, reverse=True):
        mag = _coeff_text(abs(coeff))
        if degree == 0:
            body = mag
        else:
            xs = "x" if degree == 1 else f"x^{degree}"
            body = xs if abs(coeff) == 1 else f"{mag}*{xs}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append((" + " if coeff > 0 else " - ") + body)
    return "".join(pieces)


def random_masses(rng, n) -> tuple:
    return tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n))


def kron_cm_operators(system):
    """Dense (X_CM, V_CM, P_TOT) on the composite index of any modes: each mode's
    matrix padded by explicit identities.

    Mode 0 is the leading Kronecker factor.  Every entry is one product
    w_k * A_k[i, j] (times 1.0), so the sparse Kronecker-sum assembly must
    agree exactly.
    """
    system = list(system)
    dims = [m.dim for m in system]
    total_mass = sum(m.mass for m in system)
    x_cm = p_tot = 0
    for k, mode in enumerate(system):
        left = np.eye(int(np.prod(dims[:k])))
        right = np.eye(int(np.prod(dims[k + 1:])))
        x_k = np.kron(np.kron(left, position_op(mode).to_dense()), right)
        p_k = np.kron(np.kron(left, momentum_op(mode).to_dense()), right)
        x_cm = x_cm + (mode.mass / total_mass) * x_k
        p_tot = p_tot + p_k
    return x_cm, p_tot / total_mass, p_tot


def free_width_analytic(n: int, mbar: float, t: float) -> float:
    """Free-packet width of the mass-N*mbar ground Gaussian at hbar = 1:
    dx(t)^2 = dx0^2 + (dv0 t)^2."""
    total_mass = n * mbar
    return math.sqrt(1.0 / (2.0 * total_mass) * (1.0 + t**2))


def gaussian_spreading(n: int, mbar: float, t: float) -> float:
    """Measured free-evolution width Dx_CM(t) of the effective CM ground packet
    (64 levels, hbar = 1)."""
    modes = effective_cm_system(n, mbar, dim=64, hbar=1.0)
    psi0 = coherent_state(modes[0], 0.0, 0.0)
    spec = HamiltonianSpec(modes=tuple(modes), potential=PolynomialPotential.zero())
    if t == 0:
        return cm_expectation_record(psi0, modes).dx
    traj = evolve_quantum(psi0, spec, t_final=t, dt=t)
    return float(traj.dx[-1])


class _RaisingParser(argparse.ArgumentParser):
    # argparse exits on error; the contract wants exit code 1 and no traceback
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _RaisingParser(
        prog="cmlimit",
        description="Experiments on center-of-mass observables: exact commutator "
        "scaling, factorization residuals, uncertainty saturation and "
        "quantum-vs-classical trajectories.",
        epilog="Exit codes: 0 success, 1 configuration/parse error, 2 numeric-gate failure.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    precedence = "explicit flags override config-file values, which override defaults"
    for experiment, fields in _FIELDS.items():
        p = sub.add_parser(experiment, description=f"run the {experiment} experiment",
                           epilog=precedence)
        p.add_argument("--config", default=None, help="config file with 'key = value' lines")
        for field in fields:
            p.add_argument(f"--{field.name}", default=None, metavar="VALUE",
                           help=f"{field.help} (default: {field.default})")
    return parser


def reference_config(argv) -> ExperimentConfig:
    """``cli.build_config`` as it was on the ``argparse`` parser."""
    args = _build_parser().parse_args(argv)
    fields = _FIELDS[args.experiment]
    known = {f.name for f in fields}
    file_entries = _load_config_file(args.config) if args.config else {}
    for key in file_entries:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r} for experiment {args.experiment!r}")
    values, given = {}, set()
    for field in fields:
        raw = getattr(args, field.name.replace("-", "_"))
        if raw is None:
            raw = file_entries.get(field.name)
        if raw is None:
            values[field.name] = field.default
        else:
            given.add(field.name)
            try:
                values[field.name] = field.parse(raw)
            except ConfigError as exc:
                raise ConfigError(f"--{field.name}: {exc}") from exc
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"invalid value for --{field.name}: {raw!r}") from exc
    clashes = [f"--{name}" for name in ("N", "mbar") if name in given]
    if "masses" in given and clashes:  # scaling's one system of explicit masses
        raise ConfigError(f"--masses, {', '.join(clashes)}: --masses sets the particle count "
                          "and the masses, so --N and --mbar do not apply")
    return ExperimentConfig(experiment=args.experiment, values=values)
