import random
from fractions import Fraction

import pytest

from peakforge import mr, oracle, sym
from peakforge.combinatorics import (
    compose,
    compose_signed,
    compositions,
    permutations,
    signed_permutations,
    type_b_compositions,
)
from peakforge.scalars import QQ


def test_group_product_identity_and_involution():
    f = oracle.delta(QQ, (2, 1, 3))
    e = oracle.delta(QQ, (1, 2, 3))
    assert oracle.group_product(e, f).terms == f.terms
    g = oracle.delta(QQ, (2, 1))
    assert oracle.group_product(g, g).terms == {(1, 2): QQ(1)}


def test_signed_group_product():
    minus = oracle.delta(QQ, (-1,), group=oracle.HYPEROCTAHEDRAL)
    prod = oracle.group_product(minus, minus)
    assert prod.terms == {(1,): QQ(1)}


def test_group_mismatch_raises():
    f = oracle.delta(QQ, (1, 2))
    g = oracle.delta(QQ, (1, 2), group=oracle.HYPEROCTAHEDRAL)
    with pytest.raises(ValueError):
        oracle.group_product(f, g)


def test_descent_class_sn_examples():
    assert oracle.descent_class_sn(3, (3,)).terms == {(1, 2, 3): QQ(1)}
    assert oracle.descent_class_sn(2, (1, 1)).terms == {(2, 1): QQ(1)}
    assert oracle.descent_class_sn(3, (2, 1)).terms == {
        (1, 3, 2): QQ(1),
        (2, 3, 1): QQ(1),
    }


def test_descent_class_bn_examples():
    assert oracle.descent_class_bn(1, (1,)).terms == {(1,): QQ(1)}
    assert oracle.descent_class_bn(1, (0, 1)).terms == {(1,): QQ(1), (-1,): QQ(1)}


def test_descent_classes_cover_expected_counts():
    # descent-set-containment classes sum according to subset counts
    for n in range(1, 5):
        sizes = {}
        for I in type_b_compositions(n):
            sizes[I] = len(oracle.descent_class_bn(n, I).terms)
        # the full-set class is the whole group
        full = (0,) + (1,) * n
        assert sizes[full] == 2**n * _factorial(n)
        # the empty-descent class contains only the all-plus identity
        assert sizes[(n,)] == 1


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def test_sym_to_group_is_linear_in_ribbons():
    from peakforge import sym

    f = sym.monomial(QQ, (2, 1), basis=sym.R) - 2 * sym.monomial(
        QQ, (3,), basis=sym.R
    )
    image = oracle.sym_to_group(f, 3)
    assert image.terms == {
        (1, 3, 2): QQ(1),
        (2, 3, 1): QQ(1),
        (1, 2, 3): QQ(-2),
    }


def test_descent_antimorphism_small():
    for n in range(1, 5):
        ok, failures = oracle.verify_descent_antimorphism(n)
        assert ok, failures[:3]


def test_signed_antimorphism_small():
    for n in range(1, 4):
        ok, failures = oracle.verify_signed_antimorphism(n)
        assert ok, failures[:3]


def test_bsym_span_full_rank():
    for n in range(1, 5):
        assert oracle.bsym_span(n).rank == 2**n


def test_signed_descent_class_span_matches_module_rank():
    # the contained-descent classes span a 2^n-dimensional subspace of the
    # group algebra, matching the degree-n module rank at a square root
    from peakforge import peak
    from peakforge.linalg import GradedSubspace
    from peakforge.combinatorics import signed_permutations

    for n in range(1, 5):
        ambient = sorted(signed_permutations(n))
        span = GradedSubspace(QQ, ambient, degree=n)
        for I in type_b_compositions(n):
            span.insert(oracle.descent_class_bn(n, I).terms)
        assert span.rank == 2**n
        assert span.rank == peak.mr_sharp_module_subspace(n, 2).rank


def test_random_sym_internal_products_match_the_opposite_group_product():
    # seeded multi-term elements of degree 5, against the brute-force oracle
    rng = random.Random(2008)
    keys = sorted(compositions(5))

    def draw(basis):
        terms = {
            key: Fraction(rng.choice([-5, -3, -1, 1, 2, 4]), rng.randint(1, 4))
            for key in rng.sample(keys, 6)
        }
        return sym.SymElement(QQ, basis, terms)

    for basis in (sym.S, sym.R, sym.L):
        a, b = draw(basis), draw(sym.S)
        lhs = oracle.sym_to_group(sym.internal_product(a, b), 5)
        rhs = oracle.group_product(oracle.sym_to_group(b, 5), oracle.sym_to_group(a, 5))
        assert lhs.terms == rhs.terms


@pytest.mark.parametrize("group", [oracle.SYMMETRIC, oracle.HYPEROCTAHEDRAL])
def test_group_product_matches_a_nested_loop(group):
    # repeated coefficients, ints among Fractions, and terms that cancel
    rng = random.Random(7)
    coeffs = [1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)]
    elements = permutations if group == oracle.SYMMETRIC else signed_permutations
    mul = compose if group == oracle.SYMMETRIC else compose_signed
    for n in (0, 1, 2, 3):
        keys = sorted(elements(n))
        for _ in range(10):
            f, g = (
                oracle.GroupAlgebraElement(
                    QQ,
                    group,
                    {w: rng.choice(coeffs) for w in rng.sample(keys, rng.randint(1, len(keys)))},
                )
                for _ in range(2)
            )
            expected = {}
            for u, cu in f.terms.items():
                for v, cv in g.terms.items():
                    w = mul(u, v)
                    expected[w] = expected.get(w, 0) + cu * cv
            expected = {w: c for w, c in expected.items() if c}
            assert oracle.group_product(f, g).terms == expected


def test_group_product_degree_mismatch_raises():
    f = oracle.delta(QQ, (2, 1)) + oracle.delta(QQ, (1, 2, 3))
    with pytest.raises(ValueError):
        oracle.group_product(f, oracle.delta(QQ, (1, 2)))


def test_failures_name_the_compositions(monkeypatch):
    # internal products forced wrong: every pair fails, named "I * J"
    zero = sym.SymElement(QQ, sym.R, {})
    monkeypatch.setattr(sym, "internal_product", lambda f, g: zero)
    assert oracle.verify_descent_antimorphism(2) == (
        False,
        ["1,1 * 1,1", "1,1 * 2", "2 * 1,1", "2 * 2"],
    )
    outside = mr.monomial(QQ, ((1, 0), (1, 0)))
    monkeypatch.setattr(mr, "internal_product", lambda u, v: outside)
    ok, failures = oracle.verify_signed_antimorphism(2)
    assert not ok and len(failures) == 16
    assert failures[0] == "1,1 * 1,1: outside the type-B span"
    assert "0,1,1 * 0,2: outside the type-B span" in failures
