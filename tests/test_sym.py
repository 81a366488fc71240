import itertools
import random
from fractions import Fraction
from functools import cache

import pytest

from peakforge import fqsym, sym
from peakforge.algebra import expand_letters
from peakforge.combinatorics import compositions
from peakforge.scalars import QQ, QQq, cyclotomic_field
import reference_series
from reference_series import assert_same_table, lambda_series, reference_table


def S(key, coeff=1, ring=QQ):
    return sym.monomial(ring, key, coeff, basis=sym.S)


def L(key, coeff=1, ring=QQ):
    return sym.monomial(ring, key, coeff, basis=sym.L)


def R(key, coeff=1, ring=QQ):
    return sym.monomial(ring, key, coeff, basis=sym.R)


# ---- conversions


def test_convert_single_part():
    assert sym.convert(S((3,)), sym.R) == R((3,))
    assert sym.convert(R((3,)), sym.S) == S((3,))


def test_convert_elementary_degree_two():
    assert sym.convert(L((2,)), sym.S) == S((1, 1)) - S((2,))


def test_convert_ribbon_degree_two():
    assert sym.convert(R((1, 1)), sym.S) == S((1, 1)) - S((2,))
    assert sym.convert(S((1, 1)), sym.R) == R((1, 1)) + R((2,))


def test_ribbon_of_ones_is_elementary():
    for n in range(1, 6):
        assert sym.convert(R((1,) * n), sym.L) == L((n,))


def test_convert_round_trip():
    random.seed(0)
    for n in range(6):
        comps = list(compositions(n))
        terms = {I: Fraction(random.randint(-3, 3)) for I in comps}
        f = sym.SymElement(QQ, sym.S, terms)
        for basis in (sym.L, sym.R):
            assert sym.convert(sym.convert(f, basis), sym.S) == f


def test_elementary_series_is_inverse_of_complete_series():
    # lambda_t = (sigma_{-t})^{-1}: recompute degree by degree and compare
    n_max = 6
    lam = lambda_series(QQ, n_max)
    inverse_terms = {(): QQ(1)}
    # b_n = -sum_{k>=1} (-1)^k S_k . b_{n-k}, as words
    per_degree = {0: sym.unit(QQ)}
    for n in range(1, n_max + 1):
        acc = sym.SymElement.zero(QQ, sym.S)
        for k in range(1, n + 1):
            sign = -1 if k % 2 == 0 else 1
            acc = acc + sign * (S((k,)) * per_degree[n - k])
        per_degree[n] = acc
    total = sym.unit(QQ)
    for n in range(1, n_max + 1):
        total = total + per_degree[n]
    assert total.terms == lam.terms


# ---- product and coproduct


def test_product_examples():
    assert S((1,)) * S((2,)) == S((1, 2))
    assert sym.unit(QQ) * S((2, 1)) == S((2, 1))
    assert R((1,)) * R((1,)) == R((2,)) + R((1, 1))


def test_coproduct_examples():
    cp = sym.coproduct(S((1,)))
    assert cp == {((), (1,)): QQ(1), ((1,), ()): QQ(1)}
    cp2 = sym.coproduct(S((2,)))
    assert cp2 == {
        ((), (2,)): QQ(1),
        ((1,), (1,)): QQ(1),
        ((2,), ()): QQ(1),
    }
    # the ((1,), (1,)) terms of S_11 and -2 S_2 cancel and leave no key
    cp3 = sym.coproduct(S((1, 1)) - 2 * S((2,)))
    assert cp3 == {
        ((), (1, 1)): QQ(1),
        ((1, 1), ()): QQ(1),
        ((), (2,)): QQ(-2),
        ((2,), ()): QQ(-2),
    }


def test_coproduct_is_multiplicative():
    lhs = sym.coproduct(S((1, 1)))
    # square of the coproduct of S_1 in the tensor algebra
    single = sym.coproduct(S((1,)))
    acc = {}
    for (l1, r1), c1 in single.items():
        for (l2, r2), c2 in single.items():
            key = (l1 + l2, r1 + r2)
            acc[key] = acc.get(key, QQ(0)) + c1 * c2
    acc = {k: v for k, v in acc.items() if v}
    assert lhs == acc


def test_coproduct_coassociative_degree_3():
    for I in compositions(3):
        f = S(I)
        left = {}
        for (a, b), c in sym.coproduct(f).items():
            for (a1, a2), c2 in sym.coproduct(S(a)).items():
                key = (a1, a2, b)
                left[key] = left.get(key, QQ(0)) + c * c2
        right = {}
        for (a, b), c in sym.coproduct(f).items():
            for (b1, b2), c2 in sym.coproduct(S(b)).items():
                key = (a, b1, b2)
                right[key] = right.get(key, QQ(0)) + c * c2
        assert {k: v for k, v in left.items() if v} == {
            k: v for k, v in right.items() if v
        }


# ---- internal product


def test_internal_product_neutrality():
    for n in range(1, 7):
        e = S((n,))
        for I in compositions(n):
            f = S(I)
            assert sym.internal_product(e, f) == f
            assert sym.internal_product(f, e) == f


def test_internal_product_examples():
    assert sym.internal_product(R((1, 1)), R((1, 1))) == R((2,))
    for n in range(1, 5):
        lam = sym.convert(L((n,)), sym.S)
        assert sym.internal_product(lam, lam) == S((n,))


def test_internal_product_cross_degree_is_zero():
    assert not sym.internal_product(S((1,)), S((2,)))


def test_internal_product_associative():
    for n in range(1, 5):
        comps = list(compositions(n))
        for I, J, K in itertools.product(comps, repeat=3):
            a, b, c = S(I), S(J), S(K)
            left = sym.internal_product(sym.internal_product(a, b), c)
            right = sym.internal_product(a, sym.internal_product(b, c))
            assert left == right, (I, J, K)
    rng = random.Random(1)
    comps = list(compositions(6))
    for _ in range(60):
        I, J, K = (rng.choice(comps) for _ in range(3))
        a, b, c = S(I), S(J), S(K)
        left = sym.internal_product(sym.internal_product(a, b), c)
        right = sym.internal_product(a, sym.internal_product(b, c))
        assert left == right, (I, J, K)


def test_lambda_one_is_involutive_antiautomorphism():
    lam = lambda_series(QQ, 4)
    for n in range(1, 5):
        ln = lam.homogeneous(n)
        for I in compositions(n):
            f = S(I)
            assert sym.internal_product(ln, sym.internal_product(ln, f)) == f
        for k in range(1, n):
            for I in compositions(k):
                for J in compositions(n - k):
                    f, g = S(I), S(J)
                    lhs = sym.internal_product(ln, f * g)
                    rhs = sym.internal_product(
                        lam.homogeneous(n - k), g
                    ) * sym.internal_product(lam.homogeneous(k), f)
                    assert lhs == rhs, (I, J)


def test_lambda_minus_q_is_graded_antipode():
    q = QQq.q
    lam = lambda_series(QQq, 4, t=-q)
    for n in range(1, 5):
        ln = lam.homogeneous(n)
        for I in compositions(n):
            f = S(I, ring=QQq)
            lhs = sym.internal_product(ln, f)
            rhs = (q**n) * antipode(f)
            assert lhs == rhs, I


# ---- antipode


@cache
def _antipode_letter(k: int):
    sign = -1 if k % 2 else 1
    return tuple((I, sign * s) for I, s in sym._alternating_words(k))


def antipode(f: sym.SymElement) -> sym.SymElement:
    """The Hopf antipode: S_n maps to (-1)^n times the n-th elementary, and
    products reverse."""
    a = sym.convert(f, sym.S)
    reversed_terms = {word[::-1]: c for word, c in a.terms.items()}
    out = expand_letters(reversed_terms, _antipode_letter)
    return sym.convert(sym.SymElement(a.ring, sym.S, out, bound=a.bound), f.basis)


def test_antipode_examples():
    assert antipode(sym.unit(QQ)) == sym.unit(QQ)
    assert antipode(S((1,))) == -S((1,))
    assert antipode(S((2,))) == S((1, 1)) - S((2,))


def test_antipode_is_involutive_antimorphism():
    for n in range(5):
        for I in compositions(n):
            f = S(I)
            assert antipode(antipode(f)) == f
    a, b = S((2,)), S((1, 2))
    assert antipode(a * b) == antipode(b) * antipode(a)


# ---- series and the (1-q) transform


def test_sigma_series_truncation():
    s = sym.sigma_series(QQ, 2)
    assert s.terms == {(): QQ(1), (1,): QQ(1), (2,): QQ(1)}
    assert (s * s).bound == 2
    assert all(sum(k) <= 2 for k in (s * s).terms)


def test_lambda_minus_q_series_degree_2():
    q = QQq.q
    lam = lambda_series(QQq, 2, t=-q)
    assert lam.coefficient((2,)) == -(q**2)
    assert lam.coefficient((1, 1)) == q**2
    assert lam.coefficient((1,)) == -q


def test_one_minus_q_series_degree_2():
    q = QQq.q
    series = sym.one_minus_q_series(q, 2)
    assert series.coefficient((2,)) == QQq.one - q**2
    assert series.coefficient((1, 1)) == q**2 - q


def test_one_minus_q_transform_examples():
    q = QQq.q
    assert sym.one_minus_q_transform(sym.unit(QQq), q) == sym.unit(QQq)
    assert sym.one_minus_q_transform(S((1,), ring=QQq), q) == (
        QQq.one - q
    ) * S((1,), ring=QQq)
    f = sym.one_minus_q_transform(S((2,), ring=QQq), q)
    assert f == (QQq.one - q**2) * S((2,), ring=QQq) + (q**2 - q) * S(
        (1, 1), ring=QQq
    )
    field = cyclotomic_field(2)
    g = sym.one_minus_q_transform(sym.monomial(field, (2,)), field.zeta)
    assert g == 2 * sym.monomial(field, (1, 1))


def test_one_minus_q_transform_matches_internal_product():
    q = QQq.q
    for n in range(5):
        series = reference_series.one_minus_q_series(q, n)
        for I in compositions(n):
            f = S(I, ring=QQq)
            assert sym.one_minus_q_transform(f, q) == sym.internal_product(f, series)


def test_one_minus_q_letter_closed_form_matches_lambda_sigma():
    for q in reference_series.CLOSED_FORM_QS:
        series = reference_series.one_minus_q_series(q, 8)
        for k in range(1, 9):
            table = sym._one_minus_q_letter(q, k)
            assert_same_table(table, reference_table(series, k))


def test_one_minus_q_letter_leaves_out_the_zero_words():
    # at q = zeta_r the two terms of a word cancel when r divides its last part
    assert dict(sym._one_minus_q_letter(cyclotomic_field(2).zeta, 2)) == {
        (1, 1): 2 * cyclotomic_field(2).one
    }
    for r in range(1, 9):
        zeta = cyclotomic_field(r).zeta
        for k in range(1, 9):
            table = sym._one_minus_q_letter(zeta, k)
            assert [I for I, _ in table] == [
                I for I in compositions(k) if I[-1] % r
            ]
            assert all(c for _, c in table)


def test_one_minus_q_series_reads_the_letter_tables():
    for q in (cyclotomic_field(3).zeta, QQ(-1), QQq.q):
        for n in range(6):
            series = sym.one_minus_q_series(q, n)
            assert series == reference_series.one_minus_q_series(q, n)
            assert series.bound == n


def test_one_minus_q_transform_is_algebra_morphism():
    q = QQq.q
    for I, J in [((1,), (2,)), ((2,), (1, 1)), ((1, 2), (1,))]:
        f, g = S(I, ring=QQq), S(J, ring=QQq)
        lhs = sym.one_minus_q_transform(f * g, q)
        rhs = sym.one_minus_q_transform(f, q) * sym.one_minus_q_transform(g, q)
        assert lhs == rhs


# ---- power sums and the embedding


def test_power_sum_examples():
    assert sym.power_sum(1, QQ) == R((1,))
    assert sym.power_sum(2, QQ) == R((2,)) - R((1, 1))
    for n in (0, -1):
        with pytest.raises(ValueError, match="power sums start in degree 1"):
            sym.power_sum(n, QQ)


def test_power_sum_monomial_image_degree_2():
    image = fqsym.convert(sym.to_fqsym(sym.power_sum(2, QQ)), fqsym.M)
    assert image.terms == {(1, 2): QQ(1)}


def test_to_fqsym_examples():
    assert sym.to_fqsym(R((2,))).terms == {(1, 2): QQ(1)}
    assert sym.to_fqsym(R((1, 1))).terms == {(2, 1): QQ(1)}
    assert sym.to_fqsym(R((2, 1))).terms == {(1, 3, 2): QQ(1), (2, 3, 1): QQ(1)}


def test_to_fqsym_intertwines_internal_products():
    for n in range(1, 5):
        comps = list(compositions(n))
        for I in comps:
            for J in comps:
                f, g = R(I), R(J)
                lhs = sym.to_fqsym(sym.internal_product(f, g))
                rhs = fqsym.internal_product(sym.to_fqsym(f), sym.to_fqsym(g))
                assert lhs == rhs, (I, J)
    rng = random.Random(2)
    comps = list(compositions(5))
    for _ in range(25):
        I, J = rng.choice(comps), rng.choice(comps)
        lhs = sym.to_fqsym(sym.internal_product(R(I), R(J)))
        rhs = fqsym.internal_product(sym.to_fqsym(R(I)), sym.to_fqsym(R(J)))
        assert lhs == rhs, (I, J)


def test_element_json_schema():
    q = QQq.q
    f = sym.SymElement(QQq, sym.S, {(2, 1): QQq.one - 2 * q})
    assert f.to_json_dict() == {
        "algebra": "sym",
        "basis": "S",
        "terms": [{"key": [2, 1], "coeff": "1-2*q"}],
    }


def test_one_minus_q_transform_at_zero_is_the_identity():
    # at q = 0 every letter is itself, with coefficient 1 and no zero entry
    for k in range(1, 7):
        assert sym._one_minus_q_letter(0, k) == (((k,), 1),)
    rng = random.Random(27)
    words = [I for n in range(5) for I in compositions(n)]
    f = sym.SymElement(
        QQ, sym.S, {I: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for I in words}
    )
    assert sym.one_minus_q_transform(f, 0) == f
