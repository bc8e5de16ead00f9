"""Exactness tests for the normal-ordered canonical-pair algebra."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from cmlimit.ccr_algebra import (
    AlgebraMismatchError,
    AlgebraSpec,
    CentralConstant,
    GaussianRational,
    Monomial,
    NCPolynomial,
    NotDivisibleError,
    ParticleSystem,
    _reorder_scalars,
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
    scale_central,
)
from cmlimit.cli import main
from oracles import (
    SymbolPolynomial,
    derivative_identity_residuals,
    exponents,
    lift,
    poisson_bracket,
    random_masses,
    random_polynomial,
    random_symbol,
    render_symbol,
    residual_monomial_by_definition,
    slow_mul,
    symbol_map,
)

I = GaussianRational(0, 1)
ALG = cm_algebra()
X, V = ALG.x(), ALG.v()


def mono(x_exp, v_exp, hbar_exp=0, eps_exp=0, coeff=1):
    return ALG.ordered_monomial(x_exp, v_exp, hbar_exp=hbar_exp, eps_exp=eps_exp) * coeff


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------


def test_gaussian_rational_arithmetic_is_exact():
    a = GaussianRational(Fraction(1, 3), Fraction(-2, 7))
    b = GaussianRational(Fraction(5, 11), Fraction(1, 2))
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a * b) / b == a
    assert a * GaussianRational(1) == a
    assert -(-a) == a
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).im == 0
    assert (a * a.conjugate()).re == a.abs2()


def test_gaussian_rational_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_gaussian_rational_rejects_floats():
    with pytest.raises(TypeError):
        GaussianRational(0.5)


def test_gaussian_rational_random_division_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        a = GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        b = GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if not b:
            continue
        assert (a / b) * b == a


def test_gaussian_rational_render():
    assert GaussianRational(2).render() == "2"
    assert GaussianRational(Fraction(-3, 4)).render() == "-3/4"
    assert GaussianRational(0, 4).render() == "4*i"
    assert GaussianRational(0, 1).render() == "i"
    assert GaussianRational(0, -1).render() == "-i"
    assert GaussianRational(Fraction(1, 2), Fraction(3, 4)).render() == "(1/2+3/4*i)"
    assert GaussianRational(1, -1).render() == "(1-i)"
    assert GaussianRational(0).render() == "0"


# ---------------------------------------------------------------------------
# Normal-ordered multiplication
# ---------------------------------------------------------------------------


def test_product_already_ordered():
    assert X * V == mono(1, 1)


def test_product_single_swap():
    assert V * X == mono(1, 1) - mono(0, 0, hbar_exp=1, eps_exp=1, coeff=I)


def test_product_v2_x2():
    # V^2 X^2 = X^2 V^2 - 4 i hbar eps X V - 2 hbar^2 eps^2
    expected = (
        mono(2, 2)
        - mono(1, 1, hbar_exp=1, eps_exp=1, coeff=4 * I)
        - mono(0, 0, hbar_exp=2, eps_exp=2, coeff=2)
    )
    assert V**2 * X**2 == expected


@pytest.mark.parametrize("q", [Fraction(1), Fraction(2, 3), Fraction(5, 2), Fraction(7, 4)])
def test_reorder_scalars_match_rational_weights(q):
    # the integer table equals s! C(v,s) C(x,s) (-i*q)^s formed in Fractions
    for v, x in itertools.product(range(9), repeat=2):
        expected = tuple(
            math.prod([-I] * s, start=GaussianRational(
                math.factorial(s) * math.comb(v, s) * math.comb(x, s) * q**s))
            for s in range(min(v, x) + 1)
        )
        assert _reorder_scalars(q, v, x) == expected


def test_product_matches_single_swap_oracle_single_pair():
    rng = random.Random(11)
    for _ in range(25):
        f = random_polynomial(rng, ALG, max_degree=3)
        g = random_polynomial(rng, ALG, max_degree=3)
        assert f * g == slow_mul(f, g)


def test_product_matches_single_swap_oracle_two_pairs():
    two = AlgebraSpec(
        pair_names=(("X1", "P1"), ("X2", "P2")),
        constants=(CentralConstant(Fraction(1), 1, 0), CentralConstant(Fraction(2), 1, 1)),
    )
    rng = random.Random(13)
    for _ in range(20):
        f = random_polynomial(rng, two, max_degree=3)
        g = random_polynomial(rng, two, max_degree=3)
        assert f * g == slow_mul(f, g)


def test_mul_associative_and_distributive():
    rng = random.Random(17)
    for _ in range(15):
        f = random_polynomial(rng, ALG, max_degree=4)
        g = random_polynomial(rng, ALG, max_degree=4)
        h = random_polynomial(rng, ALG, max_degree=4)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h


def test_add_scale_plumbing():
    f = mono(1, 1, coeff=GaussianRational(2))
    assert f + ALG.zero() == f
    assert f - f == ALG.zero()
    assert mono(1, 1) * 2 + mono(1, 1) * 3 == mono(1, 1) * 5
    assert f * Fraction(1, 2) == mono(1, 1)
    assert 2 * mono(1, 1) == mono(1, 1) * 2


def test_algebra_mismatch_raises():
    other = cm_algebra()
    renamed = AlgebraSpec(pair_names=(("A", "B"),), constants=other.constants)
    with pytest.raises(AlgebraMismatchError):
        X * renamed.x()
    with pytest.raises(AlgebraMismatchError):
        X + renamed.x()
    with pytest.raises(AlgebraMismatchError):
        commutator(X, renamed.x())


# ---------------------------------------------------------------------------
# Commutators
# ---------------------------------------------------------------------------


def test_commutator_xv_is_central():
    assert commutator(X, V) == mono(0, 0, hbar_exp=1, eps_exp=1, coeff=I)


def test_commutator_antisymmetry_trivial():
    assert commutator(X, X) == ALG.zero()


def test_commutator_x2_v2():
    expected = (
        mono(1, 1, hbar_exp=1, eps_exp=1, coeff=4 * I)
        + mono(0, 0, hbar_exp=2, eps_exp=2, coeff=2)
    )
    assert commutator(X**2, V**2) == expected


def test_commutator_laws_exact():
    rng = random.Random(19)
    for _ in range(10):
        f = random_polynomial(rng, ALG, max_degree=3)
        g = random_polynomial(rng, ALG, max_degree=3)
        h = random_polynomial(rng, ALG, max_degree=3)
        assert commutator(f, g) == -commutator(g, f)
        assert commutator(f + g, h) == commutator(f, h) + commutator(g, h)
        # Jacobi
        jac = (
            commutator(f, commutator(g, h))
            + commutator(g, commutator(h, f))
            + commutator(h, commutator(f, g))
        )
        assert jac == ALG.zero()
        # Leibniz: [f g, h] = f [g, h] + [f, h] g
        assert commutator(f * g, h) == f * commutator(g, h) + commutator(f, h) * g


# ---------------------------------------------------------------------------
# eps grading and central division
# ---------------------------------------------------------------------------


def test_eps_valuation_cases():
    assert eps_valuation(X) == 0
    assert eps_valuation(mono(1, 1, hbar_exp=1, eps_exp=1, coeff=I)) == 1
    assert eps_valuation(commutator(X**2, V**2)) == 1
    assert eps_valuation(ALG.zero()) == math.inf


def test_eps_valuation_of_commutator_at_least_one():
    rng = random.Random(23)
    for _ in range(10):
        f = random_polynomial(rng, ALG, max_degree=4)
        g = random_polynomial(rng, ALG, max_degree=4)
        assert eps_valuation(commutator(f, g)) >= 1


def test_divide_central_identity():
    f = scale_central(X, 1, 1)
    assert divide_central(f, 1, 1) == X


def test_divide_central_bracket_product():
    numerator = commutator(X**2, V) * commutator(X, V**2)
    quotient = divide_central(numerator, 1, 1)
    assert quotient == mono(1, 1, hbar_exp=1, eps_exp=1, coeff=4 * I)
    # lifting back reproduces the numerator
    assert scale_central(quotient, 1, 1) == numerator


def test_divide_central_insufficient_power():
    with pytest.raises(NotDivisibleError):
        divide_central(X, 1, 1)


def test_divide_central_zero_polynomial():
    assert divide_central(ALG.zero(), 1, 1) == ALG.zero()


# ---------------------------------------------------------------------------
# Residual identities
# ---------------------------------------------------------------------------


def test_residual_power_identity_examples():
    assert residual_power_identity(1, 1) == ALG.zero()
    assert residual_power_identity(3, 1) == ALG.zero()
    assert residual_power_identity(2, 2) == mono(0, 0, hbar_exp=2, eps_exp=2, coeff=2)


def test_residual_power_identity_grid():
    for n in range(1, 7):
        for m in range(1, 7):
            residual = residual_power_identity(n, m)
            assert eps_valuation(residual) >= 2
            if n == 1 or m == 1:
                assert residual == ALG.zero()


def test_residual_power_identity_is_monomial_special_case():
    # [V^m, V] = [X, X^n] = 0, and {x^n, v^m} = n m x^(n-1) v^(m-1) is normal ordered
    for n in range(1, 9):
        for m in range(1, 9):
            power = residual_power_identity(n, m)
            monomial = residual_monomial_identity(n, 0, 0, m)
            assert power == monomial == residual_poisson(X**n, V**m)
            assert list(power.terms) == list(monomial.terms)


def test_residual_monomial_identity_examples():
    assert residual_monomial_identity(1, 0, 0, 1) == ALG.zero()
    assert residual_monomial_identity(1, 1, 1, 1) == ALG.zero()
    assert residual_monomial_identity(2, 0, 0, 2) == residual_power_identity(2, 2)


def test_residual_monomial_identity_grid():
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    assert eps_valuation(residual_monomial_identity(a, b, c, d)) >= 2


# the residuals grid and the (n, 0, 0, m) cells of its power rows
MONOMIAL_CELLS = (*itertools.product(range(4), repeat=4),
                  *((n, 0, 0, m) for n in range(1, 9) for m in range(1, 9)))


def test_residual_monomial_identity_matches_definition():
    for cell in MONOMIAL_CELLS:
        assert residual_monomial_identity(*cell) == residual_monomial_by_definition(*cell)


def test_residual_monomial_identity_is_antisymmetric():
    for a, b, c, d in MONOMIAL_CELLS:
        assert residual_monomial_identity(a, b, c, d) == -residual_monomial_identity(c, d, a, b)
        if (a, b) == (c, d):
            assert residual_monomial_identity(a, b, c, d).is_zero


# ---------------------------------------------------------------------------
# Symbols, Poisson brackets and the Poisson residual
# ---------------------------------------------------------------------------


def test_symbol_map_termwise():
    f = X * V
    s = symbol_map(f)
    assert render_symbol(s) == "x*v"
    g = X**2 * V**2 - mono(1, 1, hbar_exp=1, eps_exp=1, coeff=4 * I)
    assert symbol_map(g) == SymbolPolynomial(ALG, dict(g.terms))


def test_symbol_map_is_multiplicative_to_first_order():
    rng = random.Random(29)
    for _ in range(10):
        f = random_polynomial(rng, ALG, max_degree=3)
        g = random_polynomial(rng, ALG, max_degree=3)
        residual = symbol_map(f * g) - symbol_map(f) * symbol_map(g)
        nc_residual = lift(residual)
        assert nc_residual.is_zero or eps_valuation(nc_residual) >= 1


def test_symbol_map_lift_roundtrip():
    rng = random.Random(31)
    for _ in range(10):
        s = random_symbol(rng, ALG, max_degree=4)
        assert symbol_map(lift(s)) == s


def test_poisson_bracket_examples():
    x, v = symbol_map(X), symbol_map(V)
    assert render_symbol(poisson_bracket(x, v)) == "1"
    f = symbol_map(mono(2, 1))
    assert poisson_bracket(f, f).is_zero
    g = symbol_map(mono(1, 2))
    assert render_symbol(poisson_bracket(f, g)) == "3*x^2*v^2"


def test_poisson_bracket_laws():
    rng = random.Random(37)
    for _ in range(10):
        f = random_symbol(rng, ALG, max_degree=3)
        g = random_symbol(rng, ALG, max_degree=3)
        h = random_symbol(rng, ALG, max_degree=3)
        assert poisson_bracket(f, g) == -poisson_bracket(g, f)
        assert poisson_bracket(f * g, h) == f * poisson_bracket(g, h) + poisson_bracket(f, h) * g
        jac = (
            poisson_bracket(f, poisson_bracket(g, h))
            + poisson_bracket(g, poisson_bracket(h, f))
            + poisson_bracket(h, poisson_bracket(f, g))
        )
        assert jac.is_zero


def test_residual_poisson_examples():
    assert residual_poisson(X, V) == ALG.zero()
    assert residual_poisson(X**2, V**2) == mono(0, 0, hbar_exp=2, eps_exp=2, coeff=2)
    r = residual_poisson(mono(2, 1), mono(1, 2))
    assert eps_valuation(r) == 2


def test_residual_poisson_random():
    rng = random.Random(41)
    for _ in range(20):
        f = random_polynomial(rng, ALG, max_degree=4)
        g = random_polynomial(rng, ALG, max_degree=4)
        assert eps_valuation(residual_poisson(f, g)) >= 2


def test_residual_poisson_rejects_eps_terms():
    with pytest.raises(ValueError):
        residual_poisson(scale_central(X, 1, 1), V)


def test_derivative_identity_residuals_exact_cases():
    assert derivative_identity_residuals(X**3) == (ALG.zero(), ALG.zero())
    assert derivative_identity_residuals(V**2) == (ALG.zero(), ALG.zero())
    assert derivative_identity_residuals(mono(1, 1)) == (ALG.zero(), ALG.zero())


def test_derivative_identity_residuals_general():
    rng = random.Random(43)
    for _ in range(15):
        f = random_polynomial(rng, ALG, max_degree=4)
        r1, r2 = derivative_identity_residuals(f)
        assert eps_valuation(r1) >= 2
        assert eps_valuation(r2) >= 2
        pure_x = random_polynomial(rng, ALG, max_degree=4)
        pure_x = NCPolynomial(ALG, {
            Monomial(0, 0, ((0, exponents(m, 0)[0], 0),) if exponents(m, 0)[0] else ()): c
            for m, c in pure_x.terms.items()
        })
        assert derivative_identity_residuals(pure_x)[0] == ALG.zero()


# ---------------------------------------------------------------------------
# Particle systems and CM observables
# ---------------------------------------------------------------------------


def test_particle_system_invariants():
    system = ParticleSystem(masses=(1, 2, 3))
    assert system.total_mass == 6
    assert system.mean_mass == 2
    assert system.n * system.mean_mass == system.total_mass
    assert system.eps * system.total_mass == 1
    with pytest.raises(ValueError):
        ParticleSystem(masses=())
    with pytest.raises(ValueError):
        ParticleSystem(masses=(1, -1))


def test_particle_algebra_commutators():
    one = ParticleSystem.uniform(1)
    alg1 = build_particle_algebra(one)
    expected = NCPolynomial(alg1, {Monomial(1, 0, ()): I})
    assert commutator(alg1.x(0), alg1.v(0)) == expected

    three = ParticleSystem.uniform(3)
    alg3 = build_particle_algebra(three)
    assert commutator(alg3.x(0), alg3.v(1)) == alg3.zero()


def test_particle_algebra_jacobi_random_triples():
    system = ParticleSystem.uniform(2)
    alg = build_particle_algebra(system)
    rng = random.Random(47)
    for _ in range(5):
        f = random_polynomial(rng, alg, max_degree=2)
        g = random_polynomial(rng, alg, max_degree=2)
        h = random_polynomial(rng, alg, max_degree=2)
        jac = (
            commutator(f, commutator(g, h))
            + commutator(g, commutator(h, f))
            + commutator(h, commutator(f, g))
        )
        assert jac == alg.zero()


def expected_cm_commutator(algebra, total_mass):
    return NCPolynomial(algebra, {Monomial(1, 0, ()): GaussianRational(0, Fraction(1) / total_mass)})


def test_cm_observables_examples():
    equal = ParticleSystem.uniform(3)
    alg = build_particle_algebra(equal)
    x_cm, v_cm, p_tot = cm_observables(equal, alg)
    assert commutator(x_cm, v_cm) == expected_cm_commutator(alg, Fraction(3))

    single = ParticleSystem.uniform(1)
    alg1 = build_particle_algebra(single)
    x1, v1, _ = cm_observables(single, alg1)
    assert commutator(x1, v1) == expected_cm_commutator(alg1, Fraction(1))

    mixed = ParticleSystem(masses=(1, 2, 3))
    algm = build_particle_algebra(mixed)
    xm, vm, pm = cm_observables(mixed, algm)
    assert commutator(xm, vm) == expected_cm_commutator(algm, Fraction(6))
    # total momentum keeps the single-particle commutator scale
    assert commutator(xm, pm) == NCPolynomial(algm, {Monomial(1, 0, ()): I})
    assert pm == vm * mixed.total_mass


def test_cm_observables_random_masses():
    rng = random.Random(53)
    for _ in range(6):
        n = rng.randint(1, 64)
        system = ParticleSystem(masses=random_masses(rng, n))
        alg = build_particle_algebra(system)
        x_cm, v_cm, p_tot = cm_observables(system, alg)
        assert commutator(x_cm, v_cm) == expected_cm_commutator(alg, system.total_mass)
        assert commutator(x_cm, p_tot) == NCPolynomial(alg, {Monomial(1, 0, ()): I})


def test_cm_commutators_at_large_n():
    # N^2 term pairs would take minutes here; the direct commutator visits N
    system = ParticleSystem(masses=random_masses(random.Random(4096), 4096))
    alg = build_particle_algebra(system)
    x_cm, v_cm, p_tot = cm_observables(system, alg)
    assert commutator(x_cm, v_cm) == expected_cm_commutator(alg, system.total_mass)
    assert commutator(x_cm, p_tot) == NCPolynomial(alg, {Monomial(1, 0, ()): I})


def test_cm_observables_equal_the_sum_of_generators():
    # the one-pass term maps equal the sum of weighted generators exactly,
    # term order and coefficient types included
    rng = random.Random(64)
    for n in range(1, 65):
        system = ParticleSystem(masses=random_masses(rng, n))
        alg = build_particle_algebra(system)
        total = system.total_mass
        x_fold = p_fold = alg.zero()
        for k, mass in enumerate(system.masses):
            x_fold = x_fold + alg.x(k) * (mass / total)
            p_fold = p_fold + alg.v(k)
        folds = (x_fold, p_fold * (1 / total), p_fold)
        for built, fold in zip(cm_observables(system, alg), folds):
            assert list(built.terms.items()) == list(fold.terms.items())
            assert [(type(c.re), type(c.im)) for c in built.terms.values()] == \
                [(type(c.re), type(c.im)) for c in fold.terms.values()]


def test_scaling_cli_at_large_n(capsys):
    assert main(["scaling", "--N", "4096", "--mbar", "3/7", "--hbar", "1.5"]) == 0
    header, row = capsys.readouterr().out.strip().split("\n")
    comm_magnitude = float(dict(zip(header.split(","), row.split(",")))["comm_magnitude"])
    assert comm_magnitude == pytest.approx(1.5 / float(4096 * Fraction(3, 7)), rel=1e-11)


# ---------------------------------------------------------------------------
# Rendering contract
# ---------------------------------------------------------------------------


def test_render_golden_strings():
    assert render(commutator(X**2, V**2)) == "2*hbar^2*eps^2 + 4*i*hbar*eps*X*V"
    assert render(V * X) == "-i*hbar*eps + X*V"
    assert render(ALG.zero()) == "0"
    assert render(X) == "X"
    assert render(-X) == "-X"
    assert render(commutator(X, V)) == "i*hbar*eps"
    assert render(X * GaussianRational(Fraction(1, 2), Fraction(3, 4))) == "(1/2+3/4*i)*X"
    mixed = ParticleSystem(masses=(1, 2, 3))
    x_cm, v_cm, _ = cm_observables(mixed)
    assert render(commutator(x_cm, v_cm)) == "1/6*i*hbar"
    assert render(x_cm) == "1/6*X1 + 1/3*X2 + 1/2*X3"


def test_render_symbol_golden():
    assert render_symbol(symbol_map(X * V)) == "x*v"
    assert render_symbol(symbol_map(ALG.zero())) == "0"
