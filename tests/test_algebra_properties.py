"""Property tests for the polynomial product and the symbol oracle's commutative one.

Random polynomials live on the CM algebra ([X, V] = i*hbar*eps) and on a
two-pair particle algebra ([X_k, P_k] = i*hbar), with hbar and eps exponents
0-2, so the reordering rule meets nonzero central powers on both.  The direct
commutator is also checked on three- and four-pair algebras whose central
constants all differ, with terms that leave some pairs out.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlimit.ccr_algebra import (
    AlgebraSpec,
    CentralConstant,
    GaussianRational,
    Monomial,
    NCPolynomial,
    ParticleSystem,
    build_particle_algebra,
    cm_algebra,
    commutator,
    divide_central,
    residual_poisson,
    scale_central,
)
from oracles import (
    SymbolPolynomial,
    derivative_identity_residuals,
    lift,
    poisson_bracket,
    residual_poisson_by_definition,
    slow_mul,
    symbol_map,
)

ALGEBRAS = (cm_algebra(), build_particle_algebra(ParticleSystem.uniform(2)))
PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)
# [X_k, V_k] = i*q_k*hbar^a_k*eps^b_k with (q_k, a_k, b_k) all different
WIDE_ALGEBRAS = tuple(
    AlgebraSpec(
        pair_names=tuple((f"X{k}", f"V{k}") for k in range(n)),
        constants=(
            CentralConstant(Fraction(1), 1, 0), CentralConstant(Fraction(2, 3), 1, 1),
            CentralConstant(Fraction(5, 2), 0, 2), CentralConstant(Fraction(3), 2, 1),
        )[:n],
    )
    for n in (3, 4)
)
PAIR_EXPONENTS = st.tuples(st.integers(0, 2), st.integers(0, 2))


def _monomials(algebra, entry=PAIR_EXPONENTS):
    return st.builds(
        lambda h, e, exps: Monomial(h, e, tuple(
            (k, x, v) for k, (x, v) in enumerate(exps) if x or v
        )),
        st.integers(0, 2), st.integers(0, 2), st.lists(entry, min_size=algebra.n_pairs,
                                                      max_size=algebra.n_pairs),
    )


# Gaussian integers, and parts n/k with k up to 6 so that sums and products of
# coefficients meet a common denominator other than 1
FRACTIONS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 6))
COEFFICIENTS = (st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3))
                | st.builds(GaussianRational, FRACTIONS, FRACTIONS))


def _terms(algebra, entry=PAIR_EXPONENTS):
    return st.dictionaries(_monomials(algebra, entry), COEFFICIENTS, max_size=3)


@st.composite
def _polynomials(draw, count, cls=NCPolynomial):
    """``count`` polynomials of class ``cls`` over one randomly chosen algebra."""
    algebra = draw(st.sampled_from(ALGEBRAS))
    return [cls(algebra, draw(_terms(algebra))) for _ in range(count)]


@PROPERTY
@given(_polynomials(2))
def test_product_matches_single_swap_oracle(fg):
    f, g = fg
    assert f * g == slow_mul(f, g)


@st.composite
def _wide_polynomials(draw, count):
    """``count`` polynomials on a wide algebra; terms skip about half the pairs, plus a constant."""
    algebra = draw(st.sampled_from(WIDE_ALGEBRAS))
    entry = st.just((0, 0)) | PAIR_EXPONENTS
    return [NCPolynomial(algebra, draw(_terms(algebra, entry))) + draw(COEFFICIENTS)
            for _ in range(count)]


@PROPERTY
@given(_wide_polynomials(2))
def test_commutator_matches_single_swap_oracle(fg):
    f, g = fg
    assert commutator(f, g) == slow_mul(f, g) - slow_mul(g, f)


@PROPERTY
@given(_polynomials(3))
def test_product_is_associative_and_distributive(fgh):
    f, g, h = fgh
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f - g) * h == f * h - g * h


@PROPERTY
@given(_polynomials(3))
def test_commutator_antisymmetry_and_jacobi(fgh):
    f, g, h = fgh
    assert commutator(f, g) == -commutator(g, f)
    jacobi = (commutator(f, commutator(g, h)) + commutator(g, commutator(h, f))
              + commutator(h, commutator(f, g)))
    assert jacobi.is_zero


@PROPERTY
@given(_polynomials(3, SymbolPolynomial))
def test_symbol_product_is_commutative_and_associative(fgh):
    f, g, h = fgh
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)


@PROPERTY
@given(_polynomials(1, SymbolPolynomial), _polynomials(1))
def test_symbol_map_and_lift_are_inverse(s, f):
    (s,), (f,) = s, f
    assert symbol_map(lift(s)) == s
    assert lift(symbol_map(f)) == f


@PROPERTY
@given(_polynomials(3, SymbolPolynomial))
def test_poisson_bracket_leibniz_rule(fgh):
    f, g, h = fgh
    assert poisson_bracket(f, g * h) == poisson_bracket(f, g) * h + g * poisson_bracket(f, h)


@pytest.mark.parametrize("algebra, pairs", [
    (cm_algebra(), ((3, 1, 0),)),  # pair index out of range
    (ALGEBRAS[1], ((1, 1, 0), (0, 1, 0))),  # pairs not sorted
])
def test_symbol_polynomial_validates_monomials(algebra, pairs):
    with pytest.raises(ValueError):
        SymbolPolynomial(algebra, {Monomial(0, 0, pairs): 1})


def test_operator_and_symbol_do_not_mix():
    alg = cm_algebra()
    x, xs = alg.x(), symbol_map(alg.x())
    for combine in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, commutator):
        with pytest.raises(TypeError):
            combine(x, xs)
        with pytest.raises(TypeError):
            combine(xs, x)
    assert x != xs


def test_symbol_scalar_arithmetic_matches_operator():
    x = cm_algebra().x()
    assert symbol_map(x) + 1 == symbol_map(x + 1)
    assert 1 - symbol_map(x) == symbol_map(1 - x)
    assert symbol_map(x) * 3 == 3 * symbol_map(x) == symbol_map(x * 3)


# eps-free terms on the CM algebra: the inputs of the first-order identities
CM_EPS_FREE = st.dictionaries(
    st.builds(lambda h, x, v: Monomial(h, 0, ((0, x, v),) if x or v else ()),
              st.integers(0, 2), st.integers(0, 3), st.integers(0, 3)),
    COEFFICIENTS, max_size=4,
)


@PROPERTY
@given(CM_EPS_FREE)
def test_derivative_identities_are_poisson_residuals(terms):
    # {s, v} = ds/dx and {x, s} = ds/dv
    f = NCPolynomial(cm_algebra(), terms)
    X, V = f.algebra.x(), f.algebra.v()
    assert derivative_identity_residuals(f) == (residual_poisson(f, V), residual_poisson(X, f))


# one pair with [X, V] = i*(5/3)*hbar: q != 1 and no eps in the central constant
Q_PAIR = AlgebraSpec(pair_names=(("X", "V"),), constants=(CentralConstant(Fraction(5, 3), 1, 0),))
DEGREE_4 = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda xv: sum(xv) <= 4)
EPS_FREE_DEGREE_4 = st.dictionaries(
    st.builds(lambda h, xv: Monomial(h, 0, ((0, *xv),) if any(xv) else ()),
              st.integers(0, 2), DEGREE_4),
    COEFFICIENTS, max_size=4,
)


@PROPERTY
@given(st.sampled_from((cm_algebra(), Q_PAIR)), EPS_FREE_DEGREE_4, EPS_FREE_DEGREE_4)
def test_residual_poisson_matches_definition(algebra, f_terms, g_terms):
    # the s >= 2 orders of [f, g] are [f, g] minus [X, V] * lift({f, g}), exactly
    f, g = NCPolynomial(algebra, f_terms), NCPolynomial(algebra, g_terms)
    assert residual_poisson(f, g) == residual_poisson_by_definition(f, g)


@PROPERTY
@given(_polynomials(1), st.data())
def test_divide_central_is_scale_by_negated_powers(fs, data):
    # 1/i = -i, so dividing by i*hbar^a*eps^b scales by i*(-1)*hbar^-a*eps^-b
    f, = fs
    a = data.draw(st.integers(0, min((m.hbar_exp for m in f.terms), default=2)))
    b = data.draw(st.integers(0, min((m.eps_exp for m in f.terms), default=2)))
    quotient = divide_central(f, a, b)
    scaled = scale_central(f, -a, -b, -1)
    assert quotient == scaled
    assert list(quotient.terms) == list(scaled.terms)
