"""Exact algebra of normal-ordered polynomials in canonical operator pairs.

Generators come in pairs (X_k, V_k) obeying a central commutation relation

    [X_k, V_k] = i * q_k * hbar^a_k * eps^b_k,      [anything cross-pair] = 0,

where q_k is a positive rational and hbar, eps are formal symbols tracked as
integer exponents.  Coefficients are Gaussian rationals, so every result in
this module is exact: equality of polynomials is equality in the algebra.
A ``GaussianRational`` holds (a + b*i)/d as three ints over one common
denominator, reduced so that gcd(a, b, d) = 1; the coefficients met in
practice are Gaussian integers (d = 1), whose sums and products are plain
int arithmetic with no gcd.

Two canonical instances matter in practice:

* ``cm_algebra()`` -- a single pair with [X, V] = i*hbar*eps, modelling the
  position and velocity of the center of mass of a many-particle system,
  where eps = 1/(N*mbar) is the inverse total mass.
* ``build_particle_algebra(system)`` -- N pairs with [X_k, P_k] = i*hbar,
  one per labeled particle.

Polynomials are stored in normal order (within each pair all X factors
precede all V factors, pairs sorted by index), which makes the representation
canonical: two expressions are equal iff their term maps coincide.

One term store, one product: ``NCPolynomial`` is a ``Monomial ->
GaussianRational`` map whose product reorders each pair by
V^b X^p = sum_s s! C(b,s) C(p,s) (-c)^s X^{p-s} V^{b-s} (the normal-ordered
star product).  The scalars s! C(b,s) C(p,s) (-i*q)^s for each (q, b, p) are
computed once and cached (``_reorder_scalars``); the hbar and eps powers of
c^s go into the monomial.  Classical symbols, their commutative product and
the Poisson bracket are not needed by any result here; they live in the test
oracle, which checks the residuals below against them.

A product term's contraction order is its s summed over the pairs; each
caller builds only the orders it keeps.  ``commutator`` does not form f*g
and g*f.  Monomials on disjoint pairs commute exactly, and the s = 0 term of
m1*m2 equals that of m2*m1, so it visits only the term pairs that share a
pair index and builds the s >= 1 terms of both orders: O(N) term pairs for
[X_CM, V_CM] over N particles.

The first-order identities of the CM algebra have two general forms:
``residual_poisson(f, g)`` and ``residual_monomial_identity``, of which
``residual_power_identity(n, m)`` is the case (n, 0, 0, m); the derivative
identities are ``residual_poisson`` against V and X.  Likewise
``divide_central`` is ``scale_central`` by the negated powers at q = -1.
Both forms are tails of the star product (Agarwal & Wolf, Phys. Rev. D 2
(1970) 2161): on one pair the s = 1 order of [f, g] is [X, V] times the
normal-ordered Poisson bracket {f, g}, so ``residual_poisson`` is the s >= 2
orders of [f, g], and ``residual_monomial_identity`` is those minus the
s >= 1 orders of its bracket products over [X, V].  Neither forms the
Poisson bracket or a term that the subtraction would cancel.

``residual_monomial_identity`` computes (f, [f, V], [X, f]) once per
exponent pair of f, and each unordered pair (f, g) once: (c, d, a, b) is the
negation of (a, b, c, d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian
from math import comb, factorial
from numbers import Rational


class AlgebraMismatchError(ValueError):
    """Raised when two operands belong to different algebras."""


class NotDivisibleError(ArithmeticError):
    """Raised when a polynomial lacks the hbar/eps powers required by a division."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str, Rational)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {value!r}")


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class GaussianRational:
    """Complex number with exact rational real and imaginary parts.

    Closed under +, -, * and division by nonzero values; equality is exact.
    Construct from ints, Fractions or strings; floats are rejected to keep
    the arithmetic exact.

    The value (a + b*i)/d is held as three ints with d > 0 and
    gcd(a, b, d) = 1, one common denominator for both parts.  That form is
    canonical, so equality compares the ints; a sum or product of Gaussian
    integers (d = 1) needs no gcd.  ``re`` and ``im`` are Fractions built on
    read.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = _as_fraction(re), _as_fraction(im)
            d = math.lcm(re.denominator, im.denominator)  # then gcd(a, b, d) = 1 already
            a, b = re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def _coerce(other):
        """``other`` as a GaussianRational if it is an exact scalar, else None."""
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, int):
            return _gaussian(int(other), 0, 1)
        if isinstance(other, Rational):
            q = _as_fraction(other)
            return _gaussian(q.numerator, 0, q.denominator)
        return None

    def __add__(self, other):
        o = other if type(other) is GaussianRational else self._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._d, o._d
        if d1 == d2:
            return _reduced(self._a + o._a, self._b + o._b, d1)
        return _reduced(self._a * d2 + o._a * d1, self._b * d2 + o._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = other if type(other) is GaussianRational else self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self._a, self._b, o._a, o._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a + bi)/d1 / ((c + ei)/d2) = (a + bi)(c - ei) d2 / (d1 (c^2 + e^2))
        a, b, c, e = self._a, self._b, o._a, o._b
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return _reduced((a * c + b * e) * o._d, (b * c - a * e) * o._d, self._d * norm)

    def __neg__(self):
        return _gaussian(-self._a, -self._b, self._d)

    def __eq__(self, other):
        o = other if type(other) is GaussianRational else self._coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        if self._b == 0:  # equal to the int or Fraction of the same value, so hash alike
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def conjugate(self):
        return _gaussian(self._a, -self._b, self._d)

    def abs2(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def magnitude(self) -> float:
        return math.sqrt(float(self.abs2()))

    def render(self) -> str:
        """Exact fraction string: ``a/b``, ``c/d*i`` or ``(a/b+c/d*i)``."""
        re, im = self.re, self.im
        if im == 0:
            return _frac_str(re)
        if im == 1:
            im_part = "i"
        elif im == -1:
            im_part = "-i"
        else:
            im_part = f"{_frac_str(im)}*i"
        if re == 0:
            return im_part
        sign = "+" if im > 0 else "-"
        return f"({_frac_str(re)}{sign}{im_part.lstrip('-')})"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__


def _gaussian(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d from ints already in canonical form (d > 0, gcd(a, b, d) = 1)."""
    z = object.__new__(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for any d > 0, divided through by gcd(a, b, d)."""
    if d != 1:
        g = math.gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _gaussian(a, b, d)


ONE = GaussianRational(1)
IMAG = GaussianRational(0, 1)


@dataclass(frozen=True)
class CentralConstant:
    """Scalar value of a pair commutator: [X, V] = i * q * hbar^a * eps^b."""

    q: Fraction
    hbar_exp: int
    eps_exp: int

    def __post_init__(self):
        object.__setattr__(self, "q", _as_fraction(self.q))
        if self.q <= 0:
            raise ValueError("central constant q must be positive")
        if self.hbar_exp < 0 or self.eps_exp < 0:
            raise ValueError("central constant exponents must be nonnegative")


@lru_cache(maxsize=None)
def _reorder_scalars(q: Fraction, v: int, x: int) -> tuple:
    """s! C(v,s) C(x,s) (-i*q)^s for s = 0..min(v, x): the reordering table of V^v X^x."""
    table = []
    for s in range(min(v, x) + 1):
        unit_re, unit_im = ((1, 0), (0, -1), (-1, 0), (0, 1))[s % 4]
        weight = factorial(s) * comb(v, s) * comb(x, s) * q.numerator**s
        table.append(_reduced(unit_re * weight, unit_im * weight, q.denominator**s))
    return tuple(table)


@dataclass(frozen=True)
class AlgebraSpec:
    """Specification of the canonical pairs: names plus central constants.

    ``pair_names[k]`` is the (position-like, momentum-like) label pair used
    for rendering; ``constants[k]`` fixes [X_k, V_k].  Cross-pair commutators
    are zero by construction.
    """

    pair_names: tuple
    constants: tuple

    def __post_init__(self):
        if len(self.pair_names) != len(self.constants):
            raise ValueError("pair_names and constants must have equal length")
        if not self.pair_names:
            raise ValueError("an algebra needs at least one pair")
        flat = [name for pair in self.pair_names for name in pair]
        if len(set(flat)) != len(flat):
            raise ValueError("generator names must be unique")

    @property
    def n_pairs(self) -> int:
        return len(self.pair_names)

    def zero(self) -> "NCPolynomial":
        return NCPolynomial._raw(self, {})

    def one(self) -> "NCPolynomial":
        return NCPolynomial._raw(self, {Monomial(): ONE})

    def x(self, pair: int = 0) -> "NCPolynomial":
        """The position-like generator of the given pair."""
        return self.ordered_monomial(1, 0, pair)

    def v(self, pair: int = 0) -> "NCPolynomial":
        """The momentum/velocity-like generator of the given pair."""
        return self.ordered_monomial(0, 1, pair)

    def ordered_monomial(
        self, x_exp: int, v_exp: int, pair: int = 0, hbar_exp: int = 0, eps_exp: int = 0
    ) -> "NCPolynomial":
        """The normal-ordered monomial hbar^a eps^b X_pair^x V_pair^v."""
        if not 0 <= pair < self.n_pairs:
            raise IndexError(f"pair index {pair} out of range")
        pairs = ((pair, x_exp, v_exp),) if (x_exp or v_exp) else ()
        return NCPolynomial._raw(self, {Monomial(hbar_exp, eps_exp, pairs): ONE})


@lru_cache(maxsize=None)
def cm_algebra() -> AlgebraSpec:
    """Single-pair algebra of the center-of-mass pair: [X, V] = i*hbar*eps."""
    return AlgebraSpec(
        pair_names=(("X", "V"),),
        constants=(CentralConstant(Fraction(1), 1, 1),),
    )


@dataclass(frozen=True)
class Monomial:
    """Normal-ordered monomial hbar^h eps^e * prod_k X_k^{x_k} V_k^{v_k}.

    ``pairs`` holds only the pairs with a nonzero exponent, as sorted
    ``(pair_index, x_exp, v_exp)`` triples; the normal order (X before V
    within a pair, pairs by index) is implicit in this representation.
    """

    hbar_exp: int = 0
    eps_exp: int = 0
    pairs: tuple = ()

    def dense_exponents(self, n_pairs: int) -> tuple:
        out = [0] * (2 * n_pairs)
        for k, x, v in self.pairs:
            out[2 * k] = x
            out[2 * k + 1] = v
        return tuple(out)


def _validate_monomial(algebra: AlgebraSpec, mono: Monomial):
    if mono.hbar_exp < 0 or mono.eps_exp < 0:
        raise ValueError("hbar/eps exponents must be nonnegative")
    last = -1
    for entry in mono.pairs:
        k, x, v = entry
        if not last < k < algebra.n_pairs:
            raise ValueError(f"pair entries must be sorted and in range, got {mono.pairs}")
        if x < 0 or v < 0 or (x == 0 and v == 0):
            raise ValueError(f"pair exponents must be nonnegative and not both zero, got {entry}")
        last = k


def _merged_pair_products(algebra: AlgebraSpec, m1: Monomial, m2: Monomial, coeff,
                          lowest: int = 0):
    """Expansion terms of the product coeff * m1 * m2 in normal order.

    Yields ``(Monomial, coefficient)`` pairs.  Within pair k the reordering
    V^b X^p = sum_s s! C(b,s) C(p,s) (-c_k)^s X^{p-s} V^{b-s} applies, with
    c_k the pair's central constant; distinct pairs commute.  A term's
    contraction order is its s summed over the pairs, and no term of order
    below ``lowest`` is built.
    """
    fixed = []
    options = []  # per-pair alternatives: list of (s, scalar, h_add, e_add, entry)
    p1, p2 = m1.pairs, m2.pairs
    i = j = 0
    while i < len(p1) and j < len(p2):
        k1, x1, v1 = p1[i]
        k2, x2, v2 = p2[j]
        if k1 < k2:
            fixed.append(p1[i])
            i += 1
        elif k2 < k1:
            fixed.append(p2[j])
            j += 1
        else:
            if v1 and x2:
                const = algebra.constants[k1]
                alts = []
                for s, scalar in enumerate(_reorder_scalars(const.q, v1, x2)):
                    xe, ve = x1 + x2 - s, v1 + v2 - s
                    entry = (k1, xe, ve) if (xe or ve) else None
                    alts.append((s, scalar, s * const.hbar_exp, s * const.eps_exp, entry))
                options.append(alts)
                fixed.append(None)  # placeholder, filled per combination
            else:
                fixed.append((k1, x1 + x2, v1 + v2))
            i += 1
            j += 1
    fixed.extend(p1[i:])
    fixed.extend(p2[j:])

    base_h = m1.hbar_exp + m2.hbar_exp
    base_e = m1.eps_exp + m2.eps_exp
    slots = [idx for idx, entry in enumerate(fixed) if entry is None]
    for combo in _cartesian(*options):
        if sum(alt[0] for alt in combo) < lowest:
            continue
        scalar = coeff
        h_add = e_add = 0
        entries = list(fixed)
        for slot, (_, scal, ha, ea, entry) in zip(slots, combo):
            scalar = scalar * scal
            h_add += ha
            e_add += ea
            entries[slot] = entry
        pairs = tuple(e for e in entries if e is not None)
        yield Monomial(base_h + h_add, base_e + e_add, pairs), scalar


def _accumulate(out: dict, terms) -> dict:
    """Add each (mono, coeff) of ``terms`` into ``out``, dropping zero sums; returns ``out``."""
    for mono, coeff in terms:
        prev = out.get(mono)
        if prev is None:
            out[mono] = coeff
            continue
        total = prev + coeff
        if total:
            out[mono] = total
        else:
            del out[mono]
    return out


class NCPolynomial:
    """Noncommutative polynomial in canonical pairs, kept in normal order.

    An immutable ``Monomial -> GaussianRational`` map over an algebra.
    Supports +, - and * with scalars and with polynomials of the same
    algebra, and integer powers.  The term map never stores zero
    coefficients, so ``==`` decides equality.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: AlgebraSpec, terms=None):
        object.__setattr__(self, "algebra", algebra)
        clean = {}
        for mono, coeff in (terms or {}).items():
            _validate_monomial(algebra, mono)
            if not isinstance(coeff, GaussianRational):
                coeff = GaussianRational(coeff)
            if coeff:
                clean[mono] = coeff
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _raw(algebra, terms) -> "NCPolynomial":
        """Internal constructor; ``terms`` must already be clean."""
        self = object.__new__(NCPolynomial)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("NCPolynomial is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check_same_algebra(self, other):
        if self.algebra != other.algebra:
            raise AlgebraMismatchError("operands belong to different algebras")

    def _operand(self, other):
        """``other`` as a polynomial (scalars become constants), else None."""
        if isinstance(other, NCPolynomial):
            self._check_same_algebra(other)
            return other
        scalar = GaussianRational._coerce(other)
        if scalar is None:
            return None
        return NCPolynomial(self.algebra, {Monomial(): scalar})

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._raw(self.algebra, _accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._raw(self.algebra, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        negated = ((mono, -coeff) for mono, coeff in other.terms.items())
        return self._raw(self.algebra, _accumulate(dict(self.terms), negated))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, NCPolynomial):
            scalar = GaussianRational._coerce(other)
            if scalar is None:
                return NotImplemented
            if not scalar:
                return self._raw(self.algebra, {})
            return self._raw(self.algebra, {m: c * scalar for m, c in self.terms.items()})
        self._check_same_algebra(other)
        return self._product(other)

    def _product(self, other, lowest: int = 0):
        """The contraction orders s >= ``lowest`` of self * other (same algebra)."""
        out = {}
        algebra = self.algebra
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _accumulate(out, _merged_pair_products(algebra, m1, m2, c1 * c2, lowest))
        return self._raw(algebra, out)

    __rmul__ = __mul__  # scalars commute with everything

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = self.algebra.one()
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    __hash__ = None

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"<NCPolynomial {self}>"


def commutator(f: NCPolynomial, g: NCPolynomial) -> NCPolynomial:
    """[f, g] = f*g - g*f, normal ordered.

    Visits only the term pairs (m1, m2) that share a pair index, found
    through g's terms indexed by pair, and adds c1*c2*(m1*m2 - m2*m1) from
    contraction order 1 up: the s = 0 terms of the two orders cancel, so
    they are not built.  Non-polynomial operands and operands of another
    algebra raise as ``f * g`` does; a scalar g gives zero.
    """
    return _bracket(f, g, 1)


def _bracket(f, g, lowest: int):
    """The contraction orders s >= ``lowest`` (at least 1) of [f, g], as ``commutator`` forms them."""
    other = f._operand(g) if isinstance(f, NCPolynomial) else None
    if other is None:
        raise TypeError(
            f"unsupported operand type(s) for *: '{type(f).__name__}' and '{type(g).__name__}'"
        )
    g_terms = list(other.terms.items())
    by_pair = {}
    for index, (m2, _) in enumerate(g_terms):
        for k, _, _ in m2.pairs:
            by_pair.setdefault(k, []).append(index)
    out = {}
    algebra = f.algebra
    for m1, c1 in f.terms.items():
        shared = {index for k, _, _ in m1.pairs for index in by_pair.get(k, ())}
        for index in shared:
            m2, c2 = g_terms[index]
            c12 = c1 * c2
            for left, right, coeff in ((m1, m2, c12), (m2, m1, -c12)):
                _accumulate(out, _merged_pair_products(algebra, left, right, coeff, lowest))
    return f._raw(algebra, out)


def eps_valuation(f: NCPolynomial):
    """Minimum eps exponent over the terms of f; ``math.inf`` for zero."""
    if f.is_zero:
        return math.inf
    return min(m.eps_exp for m in f.terms)


def divide_central(f: NCPolynomial, hbar_power: int, eps_power: int) -> NCPolynomial:
    """Exact division of f by i * hbar^hbar_power * eps^eps_power.

    Every term must carry at least the requested hbar/eps powers, otherwise
    NotDivisibleError is raised; the quotient is ``scale_central`` by the
    negated powers at q = -1 (1/i = -i), and times the divisor reproduces f.
    """
    if hbar_power < 0 or eps_power < 0:
        raise ValueError("divisor powers must be nonnegative")
    for mono in f.terms:
        if mono.hbar_exp < hbar_power or mono.eps_exp < eps_power:
            raise NotDivisibleError(
                f"term with hbar^{mono.hbar_exp} eps^{mono.eps_exp} is not divisible "
                f"by i*hbar^{hbar_power}*eps^{eps_power}"
            )
    return scale_central(f, -hbar_power, -eps_power, -1)


def scale_central(f: NCPolynomial, hbar_power: int, eps_power: int, q=1) -> NCPolynomial:
    """Multiply f by i * q * hbar^hbar_power * eps^eps_power (inverse of divide_central at q=1)."""
    scalar = IMAG * _as_fraction(q)
    out = {}
    for mono, coeff in f.terms.items():
        shifted = Monomial(
            mono.hbar_exp + hbar_power, mono.eps_exp + eps_power, mono.pairs
        )
        out[shifted] = coeff * scalar
    return NCPolynomial._raw(f.algebra, out)


def residual_power_identity(n: int, m: int) -> NCPolynomial:
    """[X^n, V^m] minus its factorized first-order form, in the CM algebra.

    The subtracted expression is [X^n, V] [X, V^m] / (i hbar eps): the
    monomial identity at (a, b, c, d) = (n, 0, 0, m), whose second product
    [V^m, V] [X, X^n] is zero.  The residual has eps-valuation >= 2 and
    vanishes exactly whenever n = 1 or m = 1.
    """
    if n < 1 or m < 1:
        raise ValueError("powers must be >= 1")
    return residual_monomial_identity(n, 0, 0, m)


@lru_cache(maxsize=512)
def residual_monomial_identity(a: int, b: int, c: int, d: int) -> NCPolynomial:
    """Residual of the two-term factorization of [X^a V^b, X^c V^d] in the CM algebra.

    Subtracts ([X^a V^b, V] [X, X^c V^d] - [X^c V^d, V] [X, X^a V^b]) divided
    by i hbar eps from the exact commutator; the result has eps-valuation >= 2.
    [f, V] and [X, f] are i hbar eps times df/dx and df/dv, so the s = 0 order
    of the subtracted form is the s = 1 order of [f, g]; only the orders
    above it are formed.  Both sides are antisymmetric in (f, g).
    """
    if min(a, b, c, d) < 0:
        raise ValueError("exponents must be nonnegative")
    if (a, b) > (c, d):
        return -residual_monomial_identity(c, d, a, b)
    const = cm_algebra().constants[0]
    f, f_v, x_f = _monomial_brackets(a, b)
    g, g_v, x_g = _monomial_brackets(c, d)
    numerator = f_v._product(x_g, 1) - g_v._product(x_f, 1)
    rhs = divide_central(numerator, const.hbar_exp, const.eps_exp) * (1 / const.q)
    return _bracket(f, g, 2) - rhs


@lru_cache(maxsize=256)
def _monomial_brackets(x_exp: int, v_exp: int) -> tuple:
    """(f, [f, V], [X, f]) for f = X^x_exp V^v_exp in the CM algebra, computed once each."""
    alg = cm_algebra()
    f = alg.ordered_monomial(x_exp, v_exp)
    return f, commutator(f, alg.v()), commutator(alg.x(), f)


def residual_poisson(f: NCPolynomial, g: NCPolynomial) -> NCPolynomial:
    """[f, g] minus [X, V] times the normal-ordered Poisson bracket {f, g}, for eps-free inputs.

    In the CM algebra the residual has eps-valuation >= 2: to first order in
    eps, commutators of eps-free polynomials reduce to the Poisson bracket of
    their classical symbols.  That bracket, lifted back to normal order and
    times [X, V], is the s = 1 order of [f, g], so the residual is formed as
    the s >= 2 orders of [f, g] and no bracket is built.  With g = V or
    f = X it is the derivative identity [f, V] - [X, V] df/dx or
    [X, f] - [X, V] df/dv.
    """
    if f.algebra.n_pairs != 1:
        raise ValueError("this identity is defined on a single-pair algebra")
    f._check_same_algebra(g)
    if any(m.eps_exp for m in f.terms) or any(m.eps_exp for m in g.terms):
        raise ValueError("residual_poisson requires eps-free inputs")
    return _bracket(f, g, 2)


@dataclass(frozen=True)
class ParticleSystem:
    """N labeled particles with exact rational masses.

    Derived quantities: total mass M, mean mass mbar = M/N, and the
    commutator scale eps = 1/(N*mbar) = 1/M, all exact.
    """

    masses: tuple
    total_mass: Fraction = field(init=False, repr=False, compare=False)  # summed once

    def __post_init__(self):
        masses = tuple(_as_fraction(m) for m in self.masses)
        if not masses:
            raise ValueError("a particle system needs at least one particle")
        if any(m <= 0 for m in masses):
            raise ValueError("masses must be positive")
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "total_mass", sum(masses, Fraction(0)))

    @classmethod
    def uniform(cls, n: int, mass=1) -> "ParticleSystem":
        if n < 1:
            raise ValueError("need at least one particle")
        return cls(masses=(_as_fraction(mass),) * n)

    @property
    def n(self) -> int:
        return len(self.masses)

    @property
    def mean_mass(self) -> Fraction:
        return self.total_mass / self.n

    @property
    def eps(self) -> Fraction:
        return 1 / self.total_mass


def build_particle_algebra(system: ParticleSystem) -> AlgebraSpec:
    """N-pair algebra with [X_k, P_k] = i*hbar and cross-pair commutators zero."""
    names = tuple((f"X{k + 1}", f"P{k + 1}") for k in range(system.n))
    constants = tuple(CentralConstant(Fraction(1), 1, 0) for _ in range(system.n))
    return AlgebraSpec(pair_names=names, constants=constants)


def cm_observables(system: ParticleSystem, algebra: AlgebraSpec | None = None):
    """Center-of-mass observables (X_CM, V_CM, P_TOT) over the particle algebra.

    X_CM = sum m_k X_k / M, V_CM = sum P_k / M and P_TOT = M * V_CM; the
    exact commutators are [X_CM, V_CM] = i*hbar/M and [X_CM, P_TOT] = i*hbar.
    """
    alg = algebra if algebra is not None else build_particle_algebra(system)
    if alg.n_pairs != system.n:
        raise AlgebraMismatchError("algebra does not match the particle system")
    total = system.total_mass
    # one term per pair, so each term map is built in a single O(N) pass
    x_cm = NCPolynomial._raw(alg, {
        Monomial(0, 0, ((k, 1, 0),)): GaussianRational(mass / total)
        for k, mass in enumerate(system.masses)
    })
    p_tot = NCPolynomial._raw(alg, {Monomial(0, 0, ((k, 0, 1),)): ONE for k in range(system.n)})
    v_cm = p_tot * (1 / total)
    return x_cm, v_cm, p_tot


# ---------------------------------------------------------------------------
# Textual rendering (the bit-exact contract for golden-file tests)
# ---------------------------------------------------------------------------


def _term_string(algebra, mono, coeff):
    factors = []
    if mono.hbar_exp:
        factors.append("hbar" if mono.hbar_exp == 1 else f"hbar^{mono.hbar_exp}")
    if mono.eps_exp:
        factors.append("eps" if mono.eps_exp == 1 else f"eps^{mono.eps_exp}")
    for k, x, v in mono.pairs:
        x_name, v_name = algebra.pair_names[k]
        if x:
            factors.append(x_name if x == 1 else f"{x_name}^{x}")
        if v:
            factors.append(v_name if v == 1 else f"{v_name}^{v}")
    cs = coeff.render()
    if not factors:
        return cs
    if cs == "1":
        return "*".join(factors)
    if cs == "-1":
        return "-" + "*".join(factors)
    return "*".join([cs] + factors)


def render(f: NCPolynomial) -> str:
    """Canonical text form, e.g. ``2*hbar^2*eps^2 + 4*i*hbar*eps*X*V``.

    Terms are sorted by (eps_exp, hbar_exp, exponent vector), highest first;
    coefficients render as exact fraction strings.
    """
    if not f.terms:
        return "0"
    n = f.algebra.n_pairs
    ordered = sorted(
        f.terms.items(),
        key=lambda item: (item[0].eps_exp, item[0].hbar_exp, item[0].dense_exponents(n)),
        reverse=True,
    )
    pieces = []
    for mono, coeff in ordered:
        s = _term_string(f.algebra, mono, coeff)
        if not pieces:
            pieces.append(s)
        elif s.startswith("-"):
            pieces.append(" - " + s[1:])
        else:
            pieces.append(" + " + s)
    return "".join(pieces)
