from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakforge.scalars import (
    QQ,
    QQq,
    RatFunc,
    SpecializationError,
    common_ring,
    cyclotomic_field,
    cyclotomic_polynomial,
    ring_of,
    scalar_str,
    specialize,
)


def test_module_doctests():
    import doctest

    import peakforge.scalars as scalars_module

    failures, _ = doctest.testmod(scalars_module)
    assert failures == 0


def test_rational_arithmetic():
    assert QQ(Fraction(1, 2)) + QQ(Fraction(1, 3)) == Fraction(5, 6)
    assert QQ(3) / QQ(4) == Fraction(3, 4)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_zeta_is_primitive():
    for r in range(1, 13):
        field = cyclotomic_field(r)
        zeta = field.zeta
        assert zeta**r == field.one
        for k in range(1, r):
            assert zeta**k != field.one


def test_small_root_relations():
    f2 = cyclotomic_field(2)
    assert f2.zeta + f2.one == f2.zero
    f3 = cyclotomic_field(3)
    assert f3.one + f3.zeta + f3.zeta**2 == f3.zero


def test_cyclo_inverse_and_division():
    field = cyclotomic_field(5)
    x = field.one + field.zeta - field(Fraction(2, 3)) * field.zeta**3
    assert x * x.inverse() == field.one
    assert (x / x) == field.one
    with pytest.raises(ZeroDivisionError):
        field.zero.inverse()


def test_cancellation_is_exact_in_all_rings():
    q = QQq.q
    a = (QQq.one + q) / (QQq.one - q)
    assert a - a == QQq.zero
    field = cyclotomic_field(4)
    b = field.zeta - field(2)
    assert b - b == field.zero
    assert Fraction(1, 3) - Fraction(1, 3) == 0


def test_ratfunc_canonical_form():
    q = QQq.q
    # (1-q^2)/(1-q) reduces to 1+q
    f = (QQq.one - q * q) / (QQq.one - q)
    assert f == QQq.one + q
    assert f.den == (Fraction(1),)
    # denominators are monic
    g = QQq.one / (QQq(2) - QQq(2) * q)
    assert g.den[-1] == 1


def test_ratfunc_pow_and_neg():
    q = QQq.q
    assert (-q) ** 2 == q * q
    assert q**0 == QQq.one
    assert (q**-1) * q == QQq.one


def test_constants_hash_like_the_equal_fraction():
    # equal values must hash alike, or sets and dict keys tell them apart
    zeta3 = cyclotomic_field(3)
    for ring in (QQq, zeta3):
        for x in (0, 1, -2, Fraction(3, 4)):
            assert ring(x) == x
            assert hash(ring(x)) == hash(Fraction(x))
    assert 1 in {QQq.one} and QQq.one in {1}
    assert 1 in {zeta3(1)} and Fraction(-1, 2) in {zeta3(Fraction(-1, 2))}
    assert len({QQq.q, zeta3.zeta, QQq(2), 2}) == 3


def test_specialize_examples():
    # q -> -1 at r = 2
    assert specialize(QQq.q, 2) == cyclotomic_field(2)(-1)
    # (1 - q^3)/(1 - q) at a primitive cube root: numerator vanishes, so 0
    q = QQq.q
    f = (QQq.one - q**3) / (QQq.one - q)
    assert specialize(f, 3) == cyclotomic_field(3).zero
    # 1/(1-q) cannot be evaluated at q = 1
    with pytest.raises(SpecializationError):
        specialize(QQq.one / (QQq.one - q), 1)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6),
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
)
def test_specialize_is_multiplicative(r, a_coeffs, b_coeffs):
    a = RatFunc([Fraction(c) for c in a_coeffs])
    b = RatFunc([Fraction(c) for c in b_coeffs])
    assert specialize(a * b, r) == specialize(a, r) * specialize(b, r)
    assert specialize(a + b, r) == specialize(a, r) + specialize(b, r)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5),
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
)
def test_cyclo_field_axioms(r, coeffs):
    field = cyclotomic_field(r)
    x = field.zero
    for c in coeffs:
        x = x * field.zeta + field(c)
    y = field.zeta + field.one
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + field.one) == x * y + x
    if x:
        assert x * x.inverse() == field.one


def test_ring_mixing_raises():
    field = cyclotomic_field(3)
    with pytest.raises(TypeError):
        common_ring(QQq, field)
    with pytest.raises(TypeError):
        field(QQq.q)
    with pytest.raises(TypeError):
        QQq(field.zeta)
    assert common_ring(QQ, field) is field
    assert common_ring(QQq, QQ) is QQq


def test_scalar_strings():
    q = QQq.q
    assert scalar_str(Fraction(-1, 2)) == "-1/2"
    assert scalar_str(QQq.one - QQq(2) * q + q**3) == "1-2*q+q^3"
    # denominators are monicized, so 1/(1-q) = (-1)/(q-1)
    assert scalar_str(QQq.one / (QQq.one - q)) == "(-1)/(-1+q)"
    field = cyclotomic_field(3)
    assert scalar_str(field.zeta) == "[0,1]@3"
    assert scalar_str(field(Fraction(1, 2))) == "[1/2,0]@3"


def _ratfunc(coeffs):
    return RatFunc([Fraction(c) for c in coeffs])


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=5),
    st.lists(st.integers(-5, 5), min_size=1, max_size=5),
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
)
def test_ratfunc_field_axioms(a_coeffs, b_coeffs, c_coeffs):
    a, b, c = _ratfunc(a_coeffs), _ratfunc(b_coeffs), _ratfunc(c_coeffs)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) - b == a
    if b:
        q = a / b
        assert q * b == a
        assert b / b == QQq.one
    if a and b:
        assert (a / b) * (b / a) == QQq.one


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=6),
    st.lists(st.integers(-6, 6), min_size=1, max_size=6),
)
def test_poly_gcd_divides_both(a_coeffs, b_coeffs):
    from peakforge.scalars import _pdivmod, _pgcd, _pstrip

    a = _pstrip(tuple(Fraction(c) for c in a_coeffs))
    b = _pstrip(tuple(Fraction(c) for c in b_coeffs))
    g = _pgcd(a, b)
    if not a and not b:
        assert g == ()
        return
    assert g and g[-1] == 1
    for poly in (a, b):
        if poly:
            assert _pdivmod(poly, g)[1] == ()
    # gcd absorbs a common factor exactly
    common = _pstrip((Fraction(1), Fraction(-1)))  # 1 - q... reversed sign ok
    g2 = _pgcd(
        tuple(Fraction(x) for x in _int_mul(a_coeffs, [1, -1])),
        tuple(Fraction(x) for x in _int_mul(b_coeffs, [1, -1])),
    )
    if a and b:
        assert _pdivmod(g2, common)[1] == ()


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def test_ring_of():
    assert ring_of(Fraction(1)) is QQ
    assert ring_of(QQq.q) is QQq
    field = cyclotomic_field(4)
    assert ring_of(field.zeta) is field
