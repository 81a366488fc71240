from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakforge.scalars import (
    QQ,
    QQq,
    Cyclo,
    RatFunc,
    SpecializationError,
    _int_gcd,
    _padd,
    _pneg,
    _pstrip,
    common_ring,
    cyclotomic_field,
    cyclotomic_polynomial,
    ring_of,
    scalar_str,
    specialize,
)

# --------------------------------------------------------------------------
# Reference model: dense polynomials over Q as ascending tuples of Fraction,
# with schoolbook products and Euclid, independent of the integer
# arithmetic of peakforge.scalars.  () is zero.


def _pscale(a, s):
    if not s:
        return ()
    return _pstrip(tuple(c * s for c in a))


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _pstrip(out)


def _pdivmod(a, b):
    rem = list(a)
    if len(a) < len(b):
        return (), _pstrip(rem)
    quo = [Fraction(0)] * (len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quo[k] = c
        for i, cb in enumerate(b):
            rem[k + i] -= c * cb
    return _pstrip(quo), _pstrip(rem)


def _pxgcd(a, b):
    """Monic g = gcd(a, b) together with u, v such that u*a + v*b = g."""
    one = (Fraction(1),)
    r0, r1 = a, b
    s0, s1 = one, ()
    t0, t1 = (), one
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _padd(s0, _pneg(_pmul(q, s1)))
        t0, t1 = t1, _padd(t0, _pneg(_pmul(q, t1)))
    if r0 and r0[-1] != 1:
        inv = 1 / r0[-1]
        r0, s0, t0 = _pscale(r0, inv), _pscale(s0, inv), _pscale(t0, inv)
    return r0, s0, t0



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
    # degree-4 fields: q^5 is 1 at a primitive 5th root and -1 at a 10th
    with pytest.raises(SpecializationError):
        specialize(QQq.one / (QQq.one - q**5), 5)
    with pytest.raises(SpecializationError):
        specialize(QQq.one / (QQq.one + q**5), 10)
    assert specialize(QQq.one / (QQq.one + q**5), 5) == cyclotomic_field(5)(
        Fraction(1, 2)
    )


def _horner(field, coeffs):
    acc = field.zero
    for c in reversed(coeffs):
        acc = acc * field.zeta + field(c)
    return acc


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 12),
    st.lists(st.integers(-4, 4), min_size=1, max_size=16),
    st.lists(st.integers(-4, 4), min_size=1, max_size=16),
)
def test_specialize_is_multiplicative(r, a_coeffs, b_coeffs):
    # polynomials longer than r, so that exponents wrap around mod r
    a = RatFunc([Fraction(c) for c in a_coeffs])
    b = RatFunc([Fraction(c) for c in b_coeffs])
    field = cyclotomic_field(r)
    assert specialize(a, r) == _horner(field, a_coeffs)
    assert specialize(a * b, r) == specialize(a, r) * specialize(b, r)
    assert specialize(a + b, r) == specialize(a, r) + specialize(b, r)
    if specialize(b, r):
        assert specialize(a / b, r) == specialize(a, r) / specialize(b, r)


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


_polys = st.lists(st.integers(-4, 4), min_size=1, max_size=4)
_ratfuncs = st.builds(
    lambda num, den: _ratfunc(num) / _ratfunc(den) if any(den) else _ratfunc(num),
    _polys,
    _polys,
)
_factors = st.one_of(
    _ratfuncs,
    st.integers(-4, 4),
    st.fractions(-4, 4, max_denominator=6),
)


@settings(max_examples=100, deadline=None)
@given(_ratfuncs, _factors)
def test_ratfunc_product_is_canonical(a, b):
    other = RatFunc._coerce(b)
    expected = RatFunc(_pmul(a.num, other.num), _pmul(a.den, other.den))
    for p in (a * b, b * a):
        assert isinstance(p, RatFunc)
        assert p.den[-1] == 1
        if p.num:
            assert _int_gcd(p._num, p._den) == (1,)
        else:
            assert p.den == (1,)
        assert (p.num, p.den) == (expected.num, expected.den)


def test_constant_factors_keep_the_canonical_form():
    from peakforge.scalars import _ONE

    q = QQq.q
    r = (QQq(2) + q) / ((QQq.one - q**2) * (QQq(3) - q))
    for c, p in ((1, 1 * r), (Fraction(2, 3), r * Fraction(2, 3)), (0, 0 * r)):
        expected = RatFunc([c * x for x in r.num], r.den)
        assert (p.num, p.den) == (expected.num, expected.den)
    # a coerced constant shares the one denominator, so that the
    # ``den == _ONE`` tests compare its entry by identity
    assert RatFunc._coerce(3).den is _ONE
    assert RatFunc._coerce(Fraction(-1, 2)).den is _ONE


# small factors that random denominators share often, so that sums and
# products have common factors to cancel
_ratfunc_factors = [
    (1, -1), (1, 1), (1, 2), (2, -1), (0, 1), (1, 0, -1), (1, 1, 1), (3,)
]
_shared_factor_ratfuncs = st.builds(
    lambda num, top, bottom: _ratfunc(_int_product([num, *top]))
    / _ratfunc(_int_product(bottom)),
    _polys,
    st.lists(st.sampled_from(_ratfunc_factors), max_size=2),
    st.lists(st.sampled_from(_ratfunc_factors), max_size=3),
)
_operands = st.one_of(
    _shared_factor_ratfuncs,
    st.integers(-4, 4),
    st.fractions(-4, 4, max_denominator=6),
)


def _int_product(polys):
    out = [1]
    for p in polys:
        out = _int_mul(out, p)
    return out


def _assert_canonical_ratfunc(x):
    # on the integer storage, checked without the Z[q] gcd under test:
    # coprime contents and a constant gcd over Q (Euclid on Fractions)
    num, den = x._num, x._den
    assert all(type(c) is int for c in num + den)
    assert den and den[-1] > 0
    if not num:
        assert den == (1,)
        return
    assert num[-1] and gcd(*num, *den) == 1
    g, _, _ = _pxgcd(tuple(map(Fraction, num)), tuple(map(Fraction, den)))
    assert g == (1,)


def _reference(op, a, b):
    """op(a, b) from the cross-multiplied Fraction polynomials."""
    a, b = RatFunc._coerce(a), RatFunc._coerce(b)
    if op == "+":
        num = _padd(_pmul(a.num, b.den), _pmul(b.num, a.den))
    elif op == "-":
        num = _padd(_pmul(a.num, b.den), _pneg(_pmul(b.num, a.den)))
    elif op == "*":
        num = _pmul(a.num, b.num)
    else:
        return RatFunc(_pmul(a.num, b.den), _pmul(a.den, b.num))
    return RatFunc(num, _pmul(a.den, b.den))


@settings(max_examples=300, deadline=None)
@given(_shared_factor_ratfuncs, _operands)
def test_ratfunc_arithmetic_matches_cross_multiplied_polynomials(a, b):
    # (a + b) - a shares the factor gcd(den a, den b) with its numerator
    # whenever the sum's own denominator kept it
    total = a + b
    cases = [
        ("+", a, b, total),
        ("+", b, a, b + a),
        ("-", a, b, a - b),
        ("-", b, a, b - a),
        ("-", total, a, total - a),
        ("-", total, b, total - b),
        ("*", a, b, a * b),
        ("*", b, a, b * a),
    ]
    if b:
        cases.append(("/", a, b, a / b))
    if a:
        cases.append(("/", b, a, b / a))
    for op, x, y, result in cases:
        expected = _reference(op, x, y)
        assert isinstance(result, RatFunc)
        _assert_canonical_ratfunc(result)
        _assert_canonical_ratfunc(expected)
        assert result == expected, (op, x, y)
        # the same value, by cross-multiplying the monic views
        assert _pmul(result.num, expected.den) == _pmul(expected.num, result.den)


def test_ratfunc_sum_cancels_the_shared_denominator_factor():
    # (a + b) - a has numerator 1+q over (1-q)(1+q)(1+2q) and (1-q)(1+q);
    # only the gcd against their shared factor (1-q)(1+q) cancels the 1+q
    q = QQq.q
    one = QQq.one
    a = one / ((one - q) * (one + q))
    b = one / ((one - q) * (one + 2 * q))
    for x in (a, b, a + b, (a + b) - a):
        _assert_canonical_ratfunc(x)
    assert (a + b) - a == b
    assert a + b == (QQq(2) + 3 * q) / ((one + q) * (one + 2 * q) * (one - q))


def _canonical_cyclo(x):
    return x.den > 0 and gcd(x.den, *x.vec) == 1 and (any(x.vec) or x.den == 1)


_cyclo_dens = st.integers(-12, 12).filter(bool)


@st.composite
def _cyclo_pairs(draw):
    # r up to 30 reaches fields of degree 28, so the norm inverse multiplies
    # up to 27 conjugates
    r = draw(st.integers(1, 30))
    degree = len(cyclotomic_polynomial(r)) - 1
    vectors = st.lists(st.integers(-9, 9), min_size=degree, max_size=degree)
    return r, draw(vectors), draw(_cyclo_dens), draw(vectors), draw(_cyclo_dens)


@settings(max_examples=300, deadline=None)
@given(_cyclo_pairs())
def test_cyclo_arithmetic_matches_polynomials_mod_phi(case):
    # reference: Fraction polynomials reduced modulo Phi_r
    r, u, du, v, dv = case
    field = cyclotomic_field(r)
    modulus = tuple(Fraction(c) for c in field.modulus)
    x = Cyclo(field, u, du)
    y = Cyclo(field, v, dv)

    def poly(z):
        return _pstrip(z.coeffs)

    def reduced(p):
        return _pdivmod(p, modulus)[1]

    cases = [
        (x * y, reduced(_pmul(poly(x), poly(y)))),
        (x + y, _padd(poly(x), poly(y))),
        (x - y, _padd(poly(x), _pneg(poly(y)))),
        (x - x, ()),
    ]
    if x:
        inv = x.inverse()
        assert reduced(_pmul(poly(inv), poly(x))) == (Fraction(1),)
        assert _canonical_cyclo(inv)
    for z, expected in cases:
        assert z.field is field
        assert poly(z) == expected
        assert _canonical_cyclo(z)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=6),
    st.lists(st.integers(-6, 6), min_size=1, max_size=6),
)
def test_poly_gcd_divides_both(a_coeffs, b_coeffs):
    a, b = _pstrip(tuple(a_coeffs)), _pstrip(tuple(b_coeffs))
    g = _int_gcd(a, b)
    if not a and not b:
        assert g == ()
        return
    assert g and g[-1] > 0
    fa, fb, fg = (tuple(map(Fraction, p)) for p in (a, b, g))
    for poly in (fa, fb):
        if poly:
            assert _pdivmod(poly, fg)[1] == ()
    if a and b:
        # nothing larger divides both: coprime cofactors over Q, and the
        # content of g is the gcd of the contents
        assert _pxgcd(_pdivmod(fa, fg)[0], _pdivmod(fb, fg)[0])[0] == (1,)
        assert gcd(*g) == gcd(*a, *b)
    # gcd absorbs a common factor exactly
    common = (Fraction(1), Fraction(-1))
    g2 = _int_gcd(
        _pstrip(tuple(_int_mul(a_coeffs, [1, -1]))),
        _pstrip(tuple(_int_mul(b_coeffs, [1, -1]))),
    )
    if a and b:
        assert _pdivmod(tuple(map(Fraction, g2)), common)[1] == ()


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
