"""Properties of GaussianRational against a pair of Fractions as the reference.

``GaussianRational`` keeps (a + b*i)/d as ints over one common denominator;
here every result is compared with the same operation done by hand on the
(real, imaginary) Fraction pair, on values with non-unit denominators and
numerators far past 64 bits.  The oracle in ``tests/oracles.py`` adds with
GaussianRational itself, so it cannot catch a fault in this arithmetic.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmlimit.ccr_algebra import GaussianRational

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)

BIG = 10**30
RATIONALS = st.builds(
    Fraction,
    st.integers(-6, 6) | st.integers(-BIG, BIG),
    st.integers(1, 12) | st.integers(1, 10**20),
)
PAIRS = st.tuples(RATIONALS, RATIONALS)


def gaussian(pair):
    return GaussianRational(*pair)


def assert_matches(z, pair):
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == pair


def _parse_rendered(text):
    """(re, im) read back from ``render``'s ``a/b``, ``c/d*i`` or ``(a/b+c/d*i)``."""
    def imag(part):
        return Fraction(part.removesuffix("i").removesuffix("*") or 1)

    mixed = re.fullmatch(r"\((-?\d+(?:/\d+)?)([+-])(.+)\)", text)
    if mixed:
        real, sign, im_part = mixed.groups()
        return Fraction(real), imag(im_part) * (1 if sign == "+" else -1)
    if text.endswith("i"):
        sign = -1 if text.startswith("-") else 1
        return Fraction(0), sign * imag(text.removeprefix("-"))
    return Fraction(text), Fraction(0)


@PROPERTY
@given(PAIRS, PAIRS)
def test_field_operations_match_fraction_pairs(p, q):
    (a, b), (c, d) = p, q
    z, w = gaussian(p), gaussian(q)
    assert_matches(z + w, (a + c, b + d))
    assert_matches(z - w, (a - c, b - d))
    assert_matches(z * w, (a * c - b * d, a * d + b * c))
    assert_matches(-z, (-a, -b))
    norm = c * c + d * d
    if norm:
        assert_matches(z / w, ((a * c + b * d) / norm, (b * c - a * d) / norm))
    else:
        with pytest.raises(ZeroDivisionError):
            z / w


@PROPERTY
@given(PAIRS, RATIONALS, st.integers(-BIG, BIG))
def test_mixed_arithmetic_with_fractions_and_ints(p, q, n):
    a, b = p
    z = gaussian(p)
    for scalar in (q, n):
        assert_matches(z + scalar, (a + scalar, b))
        assert_matches(scalar + z, (a + scalar, b))
        assert_matches(z - scalar, (a - scalar, b))
        assert_matches(scalar - z, (scalar - a, -b))
        assert_matches(z * scalar, (a * scalar, b * scalar))
        assert_matches(scalar * z, (a * scalar, b * scalar))
        if scalar:
            assert_matches(z / scalar, (a / scalar, b / scalar))


@PROPERTY
@given(PAIRS)
def test_unary_results_match_fraction_pairs(p):
    a, b = p
    z = gaussian(p)
    assert_matches(z, p)
    assert_matches(z.conjugate(), (a, -b))
    assert z.abs2() == a * a + b * b and type(z.abs2()) is Fraction
    assert bool(z) == (a != 0 or b != 0)
    assert _parse_rendered(z.render()) == p
    assert z.render().startswith("(") == (a != 0 and b != 0)


@PROPERTY
@given(PAIRS, PAIRS)
def test_equal_values_built_different_ways_hash_alike(p, q):
    z, w = gaussian(p), gaussian(q)
    built = [
        z,
        GaussianRational(str(p[0]), str(p[1])),
        GaussianRational(p[0]) + GaussianRational(0, p[1]),
        (z + w) - w,
        (z - w) + w,
        -(-z),
        z.conjugate().conjugate(),
    ]
    if w:
        built += [(z * w) / w, (z / w) * w]
    for other in built:
        assert other == z and not other != z
        assert hash(other) == hash(z)
    assert (z == w) == (p == q)


@PROPERTY
@given(RATIONALS, RATIONALS, st.integers(-BIG, BIG))
def test_equality_with_fractions_and_ints(q, r, n):
    assert GaussianRational(q) == q and q == GaussianRational(q)
    assert hash(GaussianRational(q)) == hash(q)
    assert GaussianRational(n) == n and n == GaussianRational(n)
    assert GaussianRational(n) == Fraction(n) and hash(GaussianRational(n)) == hash(n)
    assume(r != 0)
    assert GaussianRational(q, r) != q and GaussianRational(q, r) != n


def test_construction_and_rejections():
    assert_matches(GaussianRational("3/4", "-5"), (Fraction(3, 4), Fraction(-5)))
    assert_matches(GaussianRational(Fraction(6, 4)), (Fraction(3, 2), Fraction(0)))
    assert_matches(GaussianRational(), (Fraction(0), Fraction(0)))
    for bad in ((0.5,), (1, 0.5), (1j,)):
        with pytest.raises(TypeError):
            GaussianRational(*bad)
    z = GaussianRational(1, 2)
    with pytest.raises(TypeError):
        z + 0.5
    assert (z == 1.0) is False
    for name in ("re", "im", "_a", "_d", "anything"):
        with pytest.raises(AttributeError):
            setattr(z, name, 3)
    assert_matches(z, (Fraction(1), Fraction(2)))
