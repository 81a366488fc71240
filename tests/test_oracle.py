import random
import re
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest

from peakforge import mr, oracle, sym
from peakforge.combinatorics import (
    compositions,
    descent_set,
    format_composition,
    permutations,
    permutations_by_descent,
    signed_descent_composition,
    signed_permutations,
    signed_permutations_by_descent,
    type_b_compositions,
)
from peakforge.scalars import QQ, cyclotomic_field
from reference_permutations import compose, compose_signed, delta, signed_descent_set


def test_group_product_identity_and_involution():
    f = delta(QQ, (2, 1, 3))
    e = delta(QQ, (1, 2, 3))
    assert oracle.group_product(e, f).terms == f.terms
    g = delta(QQ, (2, 1))
    assert oracle.group_product(g, g).terms == {(1, 2): QQ(1)}


def test_signed_group_product():
    minus = delta(QQ, (-1,), group=oracle.HYPEROCTAHEDRAL)
    prod = oracle.group_product(minus, minus)
    assert prod.terms == {(1,): QQ(1)}


def test_group_mismatch_raises():
    f = delta(QQ, (1, 2))
    g = delta(QQ, (1, 2), group=oracle.HYPEROCTAHEDRAL)
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


def test_sym_to_group_refuses_an_inhomogeneous_element():
    f = sym.monomial(QQ, (2, 1), basis=sym.R) + sym.monomial(QQ, (2,), basis=sym.R)
    with pytest.raises(ValueError):
        oracle.sym_to_group(f, 3)


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


def test_dependent_type_b_basis_is_a_failure(monkeypatch):
    # a repeated basis element leaves the span one rank short: both checks
    # report it as a failure, not an exception
    from peakforge import peak

    original = mr.bsym_complete
    monkeypatch.setattr(
        mr, "bsym_complete", lambda comp: original((2,) if comp == (1, 1) else comp)
    )
    assert oracle.bsym_span(2).rank == 3
    assert oracle.verify_signed_antimorphism(2) == (
        False, ["the type-B complete basis elements are dependent"]
    )
    assert peak.bsym_closure_check(2) == (False, "type-B rank 3 != q-ring rank 4")


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


def test_group_product_over_a_cyclotomic_field():
    # the non-rational path, with one factor over Q coerced to Q(zeta_3)
    rng = random.Random(3)
    field = cyclotomic_field(3)
    zeta = field.zeta
    coeffs = [zeta, -zeta, zeta + 1, -zeta - 1, field(2)]
    keys = sorted(permutations(3))
    for _ in range(10):
        f = oracle.GroupAlgebraElement(
            field, oracle.SYMMETRIC, {w: rng.choice(coeffs) for w in rng.sample(keys, 4)}
        )
        g = oracle.GroupAlgebraElement(
            QQ, oracle.SYMMETRIC, {w: QQ(rng.choice([1, -1, 2])) for w in rng.sample(keys, 4)}
        )
        expected = {}
        for u, cu in f.terms.items():
            for v, cv in g.terms.items():
                w = compose(u, v)
                expected[w] = expected.get(w, field(0)) + cu * cv
        expected = {w: c for w, c in expected.items() if c}
        prod = oracle.group_product(f, g)
        assert prod.ring is field and prod.terms == expected


def test_group_product_degree_mismatch_raises():
    f = delta(QQ, (2, 1)) + delta(QQ, (1, 2, 3))
    with pytest.raises(ValueError):
        oracle.group_product(f, delta(QQ, (1, 2)))


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


# ---- the exact-class oracles against the contained-class loops


def _contained_class_bn(n, comp):
    # the signed permutations whose descent set lies in that of comp,
    # filtered from the whole group
    target = set(descent_set(comp))
    terms = {
        w: QQ(1) for w in signed_permutations(n) if set(signed_descent_set(w)) <= target
    }
    return oracle.GroupAlgebraElement(QQ, oracle.HYPEROCTAHEDRAL, terms)


def _descent_antimorphism_by_classes(n):
    # the group-algebra comparison: R_I * R_J as a sum of classes against
    # class(J) o class(I), one group product per pair
    comps = list(compositions(n))
    classes = {I: oracle.descent_class_sn(n, I) for I in comps}
    failures = []
    for I in comps:
        fI = sym.monomial(QQ, I, basis=sym.R)
        for J in comps:
            fJ = sym.monomial(QQ, J, basis=sym.R)
            lhs = oracle.sym_to_group(sym.internal_product(fI, fJ), n)
            rhs = oracle.group_product(classes[J], classes[I])
            if lhs.terms != rhs.terms:
                failures.append(f"{format_composition(I)} * {format_composition(J)}")
    return not failures, failures


def _signed_antimorphism_by_classes(n):
    # the contained classes, multiplied pairwise in the group algebra
    comps = list(type_b_compositions(n))
    span = oracle.bsym_span(n)
    if span.rank < len(comps):
        return False, ["the type-B complete basis elements are dependent"]
    classes = {I: _contained_class_bn(n, I) for I in comps}
    elements = {I: mr.bsym_complete(I) for I in comps}
    failures = []
    for I in comps:
        for J in comps:
            pair = f"{format_composition(I)} * {format_composition(J)}"
            prod = mr.internal_product(elements[I], elements[J])
            coords = span.coordinates(prod.terms)
            if coords is None:
                failures.append(f"{pair}: outside the type-B span")
                continue
            lhs = Counter()
            for K, c in coords.items():
                lhs.update(dict.fromkeys(classes[K].terms, c))
            rhs = oracle.group_product(classes[J], classes[I])
            if {w: c for w, c in lhs.items() if c} != rhs.terms:
                failures.append(f"{pair}: images differ")
    return not failures, failures


def _perturbed(original, left, right, extra):
    # the product of one pair of elements gains ``extra``; the pair is
    # recognised whatever basis its factors come in
    def product(f, g):
        out = original(f, g)
        if f == left and g == right:
            out = out + extra.convert(out.basis)
        return out

    return product


@pytest.mark.parametrize("case", ["true", "zero", "perturbed"])
def test_descent_antimorphism_matches_the_contained_class_loop(monkeypatch, case):
    if case == "zero":
        zero = sym.SymElement(QQ, sym.R, {})
        monkeypatch.setattr(sym, "internal_product", lambda f, g: zero)
    elif case == "perturbed":
        left = sym.monomial(QQ, (1, 2), basis=sym.R)
        right = sym.monomial(QQ, (2, 1), basis=sym.R)
        extra = sym.monomial(QQ, (3,), 2, basis=sym.R)
        monkeypatch.setattr(
            sym, "internal_product", _perturbed(sym.internal_product, left, right, extra)
        )
    for n in range(5):
        expected = _descent_antimorphism_by_classes(n)
        assert oracle.verify_descent_antimorphism(n) == expected
        if case == "perturbed" and n == 3:
            assert expected == (False, ["1,2 * 2,1"])
        if case == "zero" and n:
            assert len(expected[1]) == 4 ** (n - 1)


@pytest.mark.parametrize("case", ["true", "zero", "perturbed", "outside"])
def test_signed_antimorphism_matches_the_contained_class_loop(monkeypatch, case):
    if case == "zero":
        zero = mr.MrElement(QQ, mr.S, {})
        monkeypatch.setattr(mr, "internal_product", lambda u, v: zero)
    elif case in ("perturbed", "outside"):
        extra = (
            mr.bsym_complete((0, 1, 2))
            if case == "perturbed"
            else mr.monomial(QQ, ((1, 1), (2, 0)))
        )
        product = _perturbed(
            mr.internal_product, mr.bsym_complete((1, 2)), mr.bsym_complete((0, 3)), extra
        )
        monkeypatch.setattr(mr, "internal_product", product)
    for n in range(4):
        expected = _signed_antimorphism_by_classes(n)
        assert oracle.verify_signed_antimorphism(n) == expected
        if case == "perturbed" and n == 3:
            assert expected == (False, ["1,2 * 0,3: images differ"])
        if case == "outside" and n == 3:
            assert expected == (False, ["1,2 * 0,3: outside the type-B span"])
        if case == "zero" and n:
            assert len(expected[1]) == 4**n


def test_exact_descent_classes_partition_the_group():
    for n in range(5):
        table = signed_permutations_by_descent(n)
        assert list(table) == list(type_b_compositions(n))
        for comp, words in table.items():
            assert type(words) is tuple
            assert all(signed_descent_composition(w) == comp for w in words)
        assert sorted(chain.from_iterable(table.values())) == sorted(signed_permutations(n))
        for comp in table:
            assert oracle.descent_class_bn(n, comp).terms == _contained_class_bn(n, comp).terms


def test_a_non_constant_exact_class_product_is_a_failure(monkeypatch):
    # one signed permutation moved from its exact class to another: the
    # products of the classes are no longer constant on them, and each
    # failure names the two classes and where the product varies
    n = 3
    table = dict(signed_permutations_by_descent(n))
    moved = table[(1, 2)][0]
    table[(1, 2)] = table[(1, 2)][1:]
    table[(2, 1)] = table[(2, 1)] + (moved,)
    monkeypatch.setattr(oracle, "signed_permutations_by_descent", lambda m: table)
    ok, failures = oracle.verify_signed_antimorphism(n)
    assert not ok and failures
    pattern = re.compile(
        r"exact classes (0,)?\d(,\d)* \* (0,)?\d(,\d)*: "
        r"product not constant on the class (0,)?\d(,\d)*"
    )
    assert all(pattern.fullmatch(f) for f in failures), failures[:3]
    assert failures[0] == "exact classes 1,1,1 * 1,2: product not constant on the class 1,1,1"
    # the identity's class still multiplies each class to itself
    assert not any(f.startswith("exact classes 3 *") for f in failures)


def test_a_product_leaving_the_degree_is_a_failure(monkeypatch):
    # a term of another degree has no class to land in: every pair fails
    original = sym.internal_product
    extra = sym.monomial(QQ, (1, 2), basis=sym.R)
    monkeypatch.setattr(
        sym, "internal_product", lambda f, g: original(f, g) + extra.convert(f.basis)
    )
    assert oracle.verify_descent_antimorphism(2) == (
        False,
        ["1,1 * 1,1", "1,1 * 2", "2 * 1,1", "2 * 2"],
    )


def test_a_moved_permutation_fails_the_symmetric_check(monkeypatch):
    # the same for Sn: the count at the moved permutation follows its own
    # class, not the one it is listed in, so every pair whose product
    # tells the two classes apart fails
    n = 3
    table = dict(permutations_by_descent(n))
    table[(1, 2)], moved = table[(1, 2)][1:], table[(1, 2)][0]
    table[(2, 1)] = table[(2, 1)] + (moved,)
    monkeypatch.setattr(oracle, "permutations_by_descent", lambda m: table)
    ok, failures = oracle.verify_descent_antimorphism(n)
    assert not ok
    assert failures == [
        "1,1,1 * 1,2", "1,1,1 * 2,1",
        "1,2 * 1,1,1", "1,2 * 1,2", "1,2 * 2,1",
        "2,1 * 1,1,1", "2,1 * 1,2", "2,1 * 2,1",
    ]


def test_signed_antimorphism_in_degree_5():
    assert oracle.verify_signed_antimorphism(5) == (True, [])


def test_descent_antimorphism_in_degree_6():
    assert oracle.verify_descent_antimorphism(6) == (True, [])
