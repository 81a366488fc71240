import ast
import random
from fractions import Fraction
from functools import cache
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakforge.scalars import (
    QQ,
    QQq,
    Cyclo,
    CyclotomicField,
    RatFunc,
    SpecializationError,
    _from_kronecker,
    _int_gcd,
    _padd,
    _pneg,
    _pstrip,
    common_ring,
    cyclotomic_field,
    cyclotomic_polynomial,
    divide_row,
    over_integers,
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


@cache
def _zeta_powers(r):
    """x^j mod Phi_r for j < r, each reduced from x times the last by the
    Fraction reference ``_pdivmod``, not by the field; Phi_r is monic, so
    every coefficient is an integer."""
    modulus = tuple(map(Fraction, cyclotomic_polynomial(r)))
    out = [(Fraction(1),)]
    for _ in range(1, r):
        out.append(_pdivmod((Fraction(0),) + out[-1], modulus)[1])
    assert all(c.denominator == 1 for p in out for c in p)
    return [tuple(map(int, p)) for p in out]


def _norm_inverse(x):
    """Reference inverse: 1/a is the product of the other conjugates of a
    over the norm N(a), a rational; a conjugate a(zeta^k), k prime to r,
    is summed from :func:`_zeta_powers`."""
    field = x.field
    r = field.order
    powers = _zeta_powers(r)
    rest = field.one
    for k in range(2, r):
        if gcd(k, r) == 1:
            conjugate = [0] * field.degree
            for i, c in enumerate(x.vec):
                for t, p in enumerate(powers[i * k % r]):
                    conjugate[t] += c * p
            rest = rest * Cyclo(field, conjugate)
    norm = (Cyclo(field, x.vec) * rest).vec[0]
    return Cyclo(field, tuple(x.den * v for v in rest.vec), norm)


def test_a_field_holds_nothing_that_grows_with_its_order():
    # Q(zeta_1009) has degree 1008: the field keeps Phi_r and a few vectors
    # of that length, about 8 KB each, and no table of r of them
    import tracemalloc

    cyclotomic_polynomial(1009)  # cached, so only the field is measured
    tracemalloc.start()
    try:
        field = CyclotomicField(1009)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
    assert field.zeta.vec[:3] == (0, 1, 0)
    assert field._at((0,) * 1009 + (1,)) == field.one.vec  # zeta^1009 = 1


@pytest.mark.parametrize("r", [3, 4, 6, 5, 7, 8, 12, 240])
def test_euclidean_inverse_matches_the_norm_inverse(r):
    field = cyclotomic_field(r)
    rng = random.Random(r)
    d = field.degree
    samples = [
        field.zeta,
        field.one - field.zeta,
        Cyclo(field, [0] * (d - 1) + [-3], 2),  # a monomial
        Cyclo(field, [1] + [0] * (d - 2) + [1], 1),  # the two ends
    ]
    for _ in range(6 if r < 100 else 2):
        vec = [rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(d)]
        vec[rng.randrange(1, d)] = rng.choice([-2, -1, 1, 3])  # irrational
        samples.append(Cyclo(field, vec, rng.randint(1, 12)))
    for x in samples:
        got, expected = x.inverse(), _norm_inverse(x)
        assert (got.vec, got.den) == (expected.vec, expected.den), x
    assert field(Fraction(-3, 4)).inverse() == field(Fraction(-4, 3))


@pytest.mark.parametrize("r", [1, 2, 3, 4, 6, 5])
def test_row_division_is_the_product_by_the_inverse(r):
    # the closed form of degree 2 (and the inverse route of the other
    # fields) against {j: c * (one / p)}, vector and denominator alike
    field = cyclotomic_field(r)
    rng = random.Random(29 + r)

    def draw():
        while True:
            vec = [rng.randint(-7, 7) for _ in range(field.degree)]
            if any(vec):
                return Cyclo(field, vec, rng.choice([1, 1, 2, 3, 6, 10]))

    for _ in range(40):
        row = {j: draw() for j in rng.sample(range(20), rng.randint(1, 8))}
        for p in (draw(), next(iter(row.values())), -field.one):
            got = divide_row(row, p)
            expected = {j: c * (field.one / p) for j, c in row.items()}
            assert list(got) == list(expected)
            for j, c in got.items():
                assert c.field is field
                assert (c.vec, c.den) == (expected[j].vec, expected[j].den)
                assert _canonical_cyclo(c)


def test_row_division_over_q_and_q_of_q():
    row = {0: Fraction(3, 4), 5: Fraction(-2)}
    assert divide_row(row, Fraction(-3, 2)) == {0: Fraction(-1, 2), 5: Fraction(4, 3)}
    q = QQq.q
    row = {1: q, 2: QQq.one - q * q}
    assert divide_row(row, QQq.one - q) == {1: q / (QQq.one - q), 2: QQq.one + q}


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
    for bad in ("1", 1.5, None):
        with pytest.raises(TypeError, match="cannot coerce"):
            field(bad)
    # every operator refuses a Q(q) operand beside a Q(zeta_r) one, both
    # ways round, and so does a power that is not an int
    q, z = QQq.q, field.zeta
    mixed = (
        lambda: q + z,
        lambda: z + q,
        lambda: q - z,
        lambda: z - q,
        lambda: z * q,
        lambda: q / z,
        lambda: z / q,
        lambda: q**0.5,
        lambda: z**0.5,
    )
    for operation in mixed:
        with pytest.raises(TypeError):
            operation()
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
    for bad in ("1", 1.5, None):
        with pytest.raises(TypeError, match="not a scalar"):
            scalar_str(bad)


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


_denominators = st.lists(st.sampled_from(_ratfunc_factors), min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(_polys, _polys, _denominators, st.integers(-12, 12))
def test_ratfunc_sums_over_one_denominator_and_int_multiples(n1, n2, factors, k):
    # n1/d and n2/d share d whenever both numerators are prime to it; the
    # content factors 2 and 3 of d let k cancel against it
    d = _ratfunc(_int_product([(2,), *factors]))
    a, b = _ratfunc(n1) / d, _ratfunc(n2) / d
    cases = [("*", a, k, a * k), ("*", k, a, k * a), ("*", b, k, RatFunc._coerce(k) * b)]
    if a._den == b._den:
        cases += [("+", a, b, a + b), ("+", b, a, b + a), ("-", a, b, a - b)]
    for op, x, y, result in cases:
        expected = _reference(op, x, y)
        _assert_canonical_ratfunc(result)
        assert result == expected, (op, x, y)


def test_ratfunc_one_denominator_and_int_multiple_examples():
    q = QQq.q
    one = QQq.one
    d = (one - q) * (one + q)
    # (q + 1)/d cancels to 1/(1 - q)
    assert q / d + one / d == one / (one - q)
    # 1/(2 + 2q) is canonical; twice it is 1/(1 + q), and 3 times it keeps the 2
    half = one / (QQq(2) + 2 * q)
    assert half._num == (1,) and half._den == (2, 2)
    assert (2 * half)._num == (1,) and (2 * half)._den == (1, 1)
    assert (half * 3)._num == (3,) and (half * 3)._den == (2, 2)
    assert (-4 * half)._num == (-2,) and (-4 * half)._den == (1, 1)
    assert 0 * half == 0 and (0 * half)._den == (1,)


def _power_bases():
    """Seeded bases: constants, monomials c*q^j/d, and quotients of
    polynomials, many with a negative leading coefficient."""
    rng = random.Random(22)
    q = QQq.q
    bases = [QQq.zero, QQq.one, QQq(-1), QQq(5), QQq(Fraction(-3, 4))]
    for _ in range(8):
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 5)), rng.randint(1, 4))
        bases.append(c * q ** rng.randint(1, 5))
    for _ in range(12):
        num = _ratfunc([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [-rng.randint(1, 3)])
        den = _ratfunc([rng.randint(-4, 4) for _ in range(rng.randint(0, 3))] + [rng.choice((-2, -1, 1, 3))])
        bases.append(num / den)
    return bases


def test_ratfunc_power_is_the_repeated_product():
    for x in _power_bases():
        for k in range(-3, 8):
            if not x and k < 0:
                with pytest.raises(ZeroDivisionError):
                    x**k
                continue
            expected = QQq.one
            for _ in range(abs(k)):
                expected = expected * x
            if k < 0:
                expected = QQq.one / expected
            got = x**k
            _assert_canonical_ratfunc(got)
            assert (got._num, got._den) == (expected._num, expected._den), (x, k)
    assert QQq.zero**0 == 1
    with pytest.raises(ZeroDivisionError):
        QQq.zero ** -1


def test_kronecker_round_trip_below_the_height():
    # coefficients up to the height h = 2^k - 1 in absolute value decode
    # from P(2^B), B = k + 1; a bound one bit short (B = k) loses +-h
    rng = random.Random(22)

    def at_power_of_two(p, bits):
        return sum(c * 2 ** (bits * i) for i, c in enumerate(p))

    for k in (1, 5, 40):
        h = 2**k - 1
        polys = {i: tuple(rng.randint(-h, h) for _ in range(rng.randint(1, 6))) + (h,) for i in range(20)}
        polys[20] = (-h, 0, h, -h)
        for p in polys.values():
            assert _from_kronecker(k + 1, at_power_of_two(p, k + 1), (1,))._num == p
        if k > 1:
            p = polys[20]
            assert _from_kronecker(k, at_power_of_two(p, k), (1,))._num != p
        # and through over_integers, whose height covers every l1 norm
        values = {i: RatFunc(p) for i, p in polys.items()}
        assert over_integers(dict, (values,)) == values


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


@pytest.mark.parametrize("r", range(1, 13))
def test_cyclo_times_int_matches_the_coerced_product(r):
    # an int multiplier skips coercion; the result must be the canonical
    # value of the product by the field's own m, on both sides
    field = cyclotomic_field(r)
    degree = field.degree
    elements = [
        field.zeta,
        Cyclo(field, [3 - 2 * i for i in range(degree)]),
        Cyclo(field, [6] + [3] * (degree - 1), 9),  # den 3 once reduced
        Cyclo(field, [1 + i for i in range(degree)], -10),
        field.zero,
    ]
    for a in elements:
        for m in (0, 1, -1, 2, -3, 5, 6, -9, 10, 30):
            expected = field(m) * a
            for got in (m * a, a * m):
                assert got.field is field
                assert (got.vec, got.den) == (expected.vec, expected.den)
                assert _canonical_cyclo(got)


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
    for bad in ("1", 1.5, None):
        with pytest.raises(TypeError, match="not a scalar"):
            ring_of(bad)


# --------------------------------------------------------------------------
# The integer fast paths stay inside scalars


def _private_scalars_names(source: str) -> list[str]:
    """The _-prefixed names of peakforge.scalars that a module of the
    package imports or reads, as written in ``source``."""
    found = []
    modules = {"peakforge.scalars"}  # dotted names bound to the module
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("scalars", "peakforge.scalars"):
                found += [a.name for a in node.names if a.name.startswith("_")]
            elif node.module in (None, "peakforge"):
                modules.update(a.asname or a.name for a in node.names if a.name == "scalars")
        elif isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names if a.name == "peakforge.scalars" and a.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            if ast.unparse(node.value) in modules:
                found.append(node.attr)
    return found


def test_no_other_module_reads_private_names_of_scalars():
    package = Path(__file__).resolve().parents[1] / "src" / "peakforge"
    for path in sorted(package.glob("*.py")):
        if path.name != "scalars.py":
            assert _private_scalars_names(path.read_text()) == [], path.name
    # the check sees each way of reaching a private name
    assert _private_scalars_names("from .scalars import QQ, _int_mul") == ["_int_mul"]
    assert _private_scalars_names("from . import scalars as s\ns._ratfunc(a, b)") == ["_ratfunc"]
    assert _private_scalars_names("import peakforge.scalars\npeakforge.scalars._Z1") == ["_Z1"]
    assert _private_scalars_names("from .scalars import over_integers\nx._y") == []


def test_negative_powers_of_a_cyclo_are_powers_of_its_inverse():
    field = cyclotomic_field(5)
    z = field.zeta
    assert z**-1 == z**4 and z**-7 == z**3
    a = 2 + z - 3 * z**2
    assert a**-2 == a.inverse() * a.inverse()
    assert a**-3 * a**3 == field.one
    assert a**0 == field.one


def _triple_by_first_part(terms):
    """A kernel linear in its one operand, whose keys depend only on the
    operand's keys."""
    out = {}
    for key, c in terms.items():
        out[key[:1]] = out.get(key[:1], 0) + 3 * c
    return out


def test_mixed_operands_run_the_kernel_in_the_field():
    # a Q operand holding a Cyclo, and Cyclos of Q(zeta_1) and Q(zeta_2) in
    # one operand, are not cleared: the kernel runs once, on the operands
    zeta3 = cyclotomic_field(3).zeta
    one1, one2 = cyclotomic_field(1).one, cyclotomic_field(2).one
    cases = (
        {(1, 1): Fraction(1, 2), (1, 2): zeta3, (2,): Fraction(-2, 3)},
        {(1,): 5 * one1, (2,): Fraction(1, 3) * one2},
    )
    for terms in cases:
        calls = []

        def spy(t):
            calls.append(t)
            return _triple_by_first_part(t)

        got = over_integers(spy, (terms,))
        assert calls == [terms]
        expected = _triple_by_first_part(terms)
        assert list(got.items()) == list(expected.items())
        assert [type(c) for c in got.values()] == [type(c) for c in expected.values()]
        assert [getattr(c, "field", None) for c in got.values()] == [
            getattr(c, "field", None) for c in expected.values()
        ]
    # the second case keeps each value in its own field
    assert [c.field.order for c in got.values()] == [1, 2]


def test_rational_function_strings_of_zero_and_minus_q():
    assert str(QQq.zero) == "0" and str(RatFunc()) == "0"
    assert str(-QQq.q) == "-q" and str(-(QQq.q**3)) == "-q^3"
    assert str(1 - QQq.q) == "1-q"
    assert str(QQq.one / (1 - QQq.q)) == "(-1)/(-1+q)"


def test_specialize_a_rational_and_refuse_a_non_scalar():
    field = cyclotomic_field(5)
    got = specialize(Fraction(-3, 4), 5)
    assert type(got) is Cyclo and got.field is field and got == field(Fraction(-3, 4))
    got = specialize(7, 1)
    assert type(got) is Cyclo and got.field is cyclotomic_field(1) and got == 7
    for bad in ("q", None, 1.5):
        with pytest.raises(TypeError, match="cannot specialize"):
            specialize(bad, 5)


def test_zero_divisions_and_orders_raise():
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        RatFunc((1,), ())
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        RatFunc((1, 1), (0, 0))
    with pytest.raises(ZeroDivisionError, match="division by zero rational function"):
        QQq.q / QQq.zero
    with pytest.raises(ZeroDivisionError, match="division by zero rational function"):
        1 / RatFunc()
    for r in (0, -3):
        with pytest.raises(ValueError, match="order must be positive"):
            cyclotomic_polynomial(r)
