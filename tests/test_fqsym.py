import itertools
import random
from fractions import Fraction

import pytest

from peakforge import algebra, fqsym, oracle, sym
from peakforge.combinatorics import inverse, inverse_inversion_masks, left_right_minima, permutations
from peakforge.scalars import QQ, QQq, cyclotomic_field, ring_of
from reference_permutations import hook_size, inversion_mask, weak_order_ideal, weak_order_leq


def G(p, coeff=1, ring=QQ):
    return fqsym.monomial(ring, p, coeff, basis=fqsym.G)


def F(p, coeff=1, ring=QQ):
    return fqsym.monomial(ring, p, coeff, basis=fqsym.F)


def M(p, coeff=1, ring=QQ):
    return fqsym.monomial(ring, p, coeff, basis=fqsym.M)


# ---- F/G relabelling


def test_f_g_examples():
    assert fqsym.convert(G((1, 2)), fqsym.F).terms == F((1, 2)).terms
    assert fqsym.convert(G((2, 3, 1)), fqsym.F).terms == F((3, 1, 2)).terms
    for p in permutations(4):
        f = G(p)
        assert fqsym.convert(f, fqsym.F).terms == {inverse(p): QQ(1)}
        assert fqsym.convert(fqsym.convert(f, fqsym.F), fqsym.G).terms == f.terms


# ---- equality across bases


def _elements_in_every_ring():
    q = QQq.q
    zeta = cyclotomic_field(3).zeta
    pools = {
        QQ: [QQ(1), QQ(-2), QQ(Fraction(1, 3))],
        QQq: [q, QQq.one - q, QQq.one / (QQq.one - q ** 2)],
        zeta.field: [zeta, zeta + 1, -zeta * zeta],
    }
    for ring, (a, b, c) in pools.items():
        terms = {(2, 1, 3): a, (1, 3, 2): b, (3, 1, 2): c, (2, 1): a, (): b}
        yield fqsym.FqsymElement(ring, fqsym.G, terms)
        # a truncated series keeps its bound in every basis
        yield fqsym.FqsymElement(ring, fqsym.G, terms, bound=3)


def test_the_bases_of_one_element_compare_equal():
    g = fqsym.monomial(QQ, (2, 1, 3), basis=fqsym.G)
    assert g == fqsym.convert(g, fqsym.F) and g == fqsym.convert(g, fqsym.M)
    assert G((2, 3, 1)) == F((3, 1, 2)) and F((3, 1, 2)) == G((2, 3, 1))
    assert M((1, 2)) == G((1, 2)) - G((2, 1))
    for g in _elements_in_every_ring():
        forms = [g] + [fqsym.convert(g, basis) for basis in (fqsym.F, fqsym.M)]
        assert [f.basis for f in forms] == [fqsym.G, fqsym.F, fqsym.M]
        assert all(f.ring is g.ring and f.bound == g.bound for f in forms)
        others = [
            g + G((1, 2, 3), ring=g.ring),
            g.scaled(2),
            fqsym.FqsymElement(g.ring, fqsym.F, g.terms),  # the keys, not inverted
        ]
        for a, b in itertools.product(forms, forms):
            assert a == b and not a != b, (a.basis, b.basis)
        for a, other in itertools.product(forms, others):
            for b in (other, *(fqsym.convert(other, x) for x in fqsym.FqsymElement.bases)):
                assert a != b and b != a and not a == b, (a.basis, b.basis)
    # Q embeds in Q(zeta_3): a rational element equals its image there
    rational = next(_elements_in_every_ring())
    cyclotomic = fqsym.convert(rational, fqsym.M).with_ring(cyclotomic_field(3))
    assert rational == cyclotomic and cyclotomic == rational


# ---- internal product


def test_internal_product_examples():
    assert fqsym.internal_product(F((1, 2, 3)), F((2, 3, 1))) == F((2, 3, 1))
    assert fqsym.internal_product(G((2, 1)), G((2, 1))) == G((1, 2))
    assert fqsym.internal_product(F((2, 3, 1)), F((2, 3, 1))) == F((3, 1, 2))


def test_internal_product_group_laws():
    for p in permutations(3):
        for t in permutations(3):
            prod = fqsym.internal_product(F(p), F(t))
            assert list(prod.terms) == [tuple(p[x - 1] for x in t)]
    # G-side is the opposite composition
    for p in permutations(3):
        for t in permutations(3):
            prod = fqsym.internal_product(G(p), G(t))
            assert list(prod.terms) == [tuple(t[x - 1] for x in p)]


def _random_f_element(ring, rng, degrees):
    zeta = ring.zeta if ring is not QQ else 1
    terms = {}
    for n in degrees:
        perms = list(permutations(n))
        for p in rng.sample(perms, min(6, len(perms))):
            # few distinct coefficients, so that compositions collide and cancel
            terms[p] = ring(Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))) * (
                zeta ** rng.randint(0, 1)
            )
    return fqsym.FqsymElement(ring, fqsym.F, terms)


def test_internal_product_is_the_group_product_in_each_degree():
    rng = random.Random(6)
    before = len(algebra._words), len(algebra._pairs)
    for ring in (QQ, cyclotomic_field(3)):
        for _ in range(10):
            f = _random_f_element(ring, rng, rng.sample(range(5), 3))
            g = _random_f_element(ring, rng, rng.sample(range(5), 3))
            prod = fqsym.internal_product(f, g)
            assert prod.ring is ring and prod.basis == fqsym.F
            for n in range(5):
                a, b = f.homogeneous(n), g.homogeneous(n)
                if not (a and b):
                    assert not prod.homogeneous(n)
                    continue
                group = oracle.group_product(
                    oracle.GroupAlgebraElement(ring, oracle.SYMMETRIC, a.terms),
                    oracle.GroupAlgebraElement(ring, oracle.SYMMETRIC, b.terms),
                )
                assert prod.homogeneous(n).terms == group.terms, (ring, n)
    # composition shares no structure constants, whose words would pile
    # up: n!^2 pairs of permutations after one dense product in degree n
    assert (len(algebra._words), len(algebra._pairs)) == before


# ---- dual of the monomial basis


def monomial_dual(p, ring) -> fqsym.FqsymElement:
    """The dual basis element of M_p, expanded over the F basis: the sum of
    F_tau over the weak-order ideal of the inverse of p (inclusive)."""
    terms = {tau: ring(1) for tau in weak_order_ideal(inverse(tuple(p)))}
    return fqsym.FqsymElement(ring, fqsym.F, terms)


def test_monomial_dual_examples():
    d = monomial_dual((3, 1, 2), QQ)
    assert d == F((1, 2, 3)) + F((2, 1, 3)) + F((2, 3, 1))
    assert monomial_dual((1, 2), QQ) == F((1, 2))
    assert monomial_dual((2, 1), QQ) == F((1, 2)) + F((2, 1))


def test_monomial_dual_matches_transition_matrix():
    for n in range(1, 6):
        for sigma in itertools.islice(permutations(n), 0, None, 5):
            d = monomial_dual(sigma, QQ)
            for tau in permutations(n):
                expected = QQ(1) if weak_order_leq(tau, inverse(sigma)) else QQ(0)
                assert d.coefficient(tau) == expected


# ---- monomial basis conversions


def test_m_basis_degree_2():
    assert fqsym.g_to_m(G((1,))) == M((1,))
    assert fqsym.g_to_m(G((1, 2))) == M((1, 2)) + M((2, 1))
    assert fqsym.g_to_m(G((2, 1))) == M((2, 1))
    assert fqsym.m_to_g(M((1, 2))) == G((1, 2)) - G((2, 1))


def test_m_conversion_round_trip():
    rng = random.Random(3)
    # small supports in each degree, then larger ones at degree 5
    for n, size in [(1, 1), (2, 2), (3, 6), (4, 6), (5, 6), (5, 40), (5, 120)]:
        perms = list(permutations(n))
        terms = {p: Fraction(rng.randint(-2, 2)) for p in rng.sample(perms, size)}
        f = fqsym.FqsymElement(QQ, fqsym.G, terms)
        assert fqsym.m_to_g(fqsym.g_to_m(f)) == f
        g = fqsym.FqsymElement(QQ, fqsym.M, terms)
        assert fqsym.g_to_m(fqsym.m_to_g(g)) == g


def _g_to_m_by_definition(f):
    """The M coefficient of sigma is the sum of the G coefficients over the
    weak-order ideal of the inverse of sigma; degrees in order of first
    appearance, sigma in lexicographic order."""
    out = {}
    for n in dict.fromkeys(len(p) for p in f.terms):
        for sigma in permutations(n):
            total = f.ring(0)
            for tau in weak_order_ideal(inverse(sigma)):
                if tau in f.terms:
                    total = total + f.terms[tau]
            if total:
                out[sigma] = total
    return out


def _g_to_m_cases():
    rng = random.Random(12)
    q = QQq.q
    zeta = cyclotomic_field(3).zeta
    pools = {
        QQ: [QQ(1), QQ(-1), QQ(2), QQ(Fraction(1, 2)), QQ(Fraction(-1, 2))],
        QQq: [q, -q, QQq.one - q, q - QQq.one, QQq.one / (QQq.one - q ** 2)],
        zeta.field: [zeta, -zeta, zeta + 1, -zeta - 1, zeta * zeta],
    }
    for ring, pool in pools.items():
        # random support and coefficients (opposite pairs cancel), one
        # degree at a time and mixed
        for degrees in ([1], [2], [3], [4], [5], [5, 2, 0], [3, 4, 1]):
            for _ in range(3):
                terms = {}
                for n in degrees:
                    perms = list(permutations(n))
                    for p in rng.sample(perms, rng.randint(1, len(perms))):
                        terms[p] = rng.choice(pool)
                yield fqsym.FqsymElement(ring, fqsym.G, terms)
        # a single coefficient class, and every permutation of degree 4
        yield fqsym.FqsymElement(
            ring, fqsym.G, {p: pool[2] for p in permutations(4)}
        )
        # a truncated series
        yield fqsym.FqsymElement(
            ring, fqsym.G, {(2, 1, 3): pool[0], (1, 3, 2): pool[1], (1,): pool[3]}, bound=3
        )
        yield fqsym.FqsymElement(ring, fqsym.G, {})


def test_g_to_m_matches_the_weak_order_definition():
    for f in _g_to_m_cases():
        got = fqsym.g_to_m(f)
        expected = _g_to_m_by_definition(f)
        assert got.ring is f.ring and got.basis == fqsym.M
        assert got.terms == expected
        assert list(got.terms) == list(expected)
    # the sum cancels on M_21
    assert fqsym.g_to_m(G((1, 2)) - G((2, 1))).terms == {(1, 2): QQ(1)}


def test_m_to_g_inverts_the_weak_order_definition():
    for f in _g_to_m_cases():
        m = fqsym.FqsymElement(f.ring, fqsym.M, _g_to_m_by_definition(f), bound=f.bound)
        got = fqsym.m_to_g(m)
        assert got.ring is f.ring and got.basis == fqsym.G and got.bound == f.bound
        assert got.terms == f.terms


def _m_to_g_by_elimination(f):
    """The G coefficients of an M-basis element by ascending-length
    elimination along the right weak order: the G coefficient of rho is the
    M coefficient of rho inverse less the G coefficients found below rho."""
    out = {}
    for n in dict.fromkeys(len(p) for p in f.terms):
        masks = inverse_inversion_masks(n)
        rows = sorted(
            ((masks[inverse(rho)], rho) for rho in permutations(n)),
            key=lambda row: row[0].bit_count(),
        )
        known = []  # (mask, coefficient) with the coefficient nonzero
        for m, rho in rows:
            total = f.terms.get(inverse(rho), f.ring(0))
            for pm, c in known:
                if pm | m == m:
                    total = total - c
            if total:
                known.append((m, total))
                out[rho] = total
    return out


def test_m_to_g_matches_the_elimination():
    rng = random.Random(19)
    q = QQq.q
    zeta = cyclotomic_field(3).zeta
    pools = {
        QQ: [QQ(1), QQ(-1), QQ(3), QQ(Fraction(-1, 2))],
        QQq: [q, -q, QQq.one - q, QQq.one / (QQq.one - q)],
        zeta.field: [zeta, -zeta, zeta + 1, -zeta - 1],
    }
    for ring, pool in pools.items():
        for degrees in ([0], [1], [2], [3], [4], [5], [6], [6, 3, 0], [5, 4, 1]):
            if ring is not QQ and 6 in degrees:
                continue  # degree 6 over Q only, to keep the elimination cheap
            terms = {}
            for n in degrees:
                perms = list(permutations(n))
                for p in rng.sample(perms, rng.randint(1, len(perms))):
                    terms[p] = rng.choice(pool)
            # M images of sparse G elements: most G sums cancel
            sparse = {p: c for p, c in itertools.islice(terms.items(), 3)}
            image = fqsym.g_to_m(fqsym.FqsymElement(ring, fqsym.G, sparse))
            for m in (fqsym.FqsymElement(ring, fqsym.M, terms), image):
                got = fqsym.m_to_g(m)
                assert got.ring is ring and got.basis == fqsym.G
                assert got.terms == _m_to_g_by_elimination(m), (ring, degrees)
            assert fqsym.m_to_g(image).terms == sparse


def test_m_to_g_round_trips_in_degree_7():
    rng = random.Random(7)
    perms = list(permutations(7))
    dense = {p: Fraction(rng.randint(1, 3)) for p in perms}
    identity = tuple(range(1, 8))
    one_term = {(3, 1, 4, 7, 2, 6, 5): QQ(-2)}
    for terms in (dense, {identity: QQ(1)}, one_term):
        m = fqsym.FqsymElement(QQ, fqsym.M, terms)
        assert fqsym.g_to_m(fqsym.m_to_g(m)).terms == terms
        g = fqsym.FqsymElement(QQ, fqsym.G, terms)
        assert fqsym.m_to_g(fqsym.g_to_m(g)).terms == terms
    # M of the identity spreads over the 2^6 sets of its ascents
    expansion = fqsym.m_to_g(M(identity))
    assert len(expansion.terms) == 64
    assert expansion.coefficient(identity) == QQ(1)
    assert expansion.coefficient(identity[::-1]) == QQ(1)
    assert expansion.coefficient((2, 1, 3, 4, 5, 6, 7)) == QQ(-1)


def test_g_to_m_round_trips_sparse_elements_in_degree_7():
    # 21 inversion bits, three OR-table chunks; the M coefficients are
    # memoized on the bitset of the terms below, checked here against the
    # independent Moebius route
    rng = random.Random(30)
    q = QQq.q
    zeta = cyclotomic_field(3).zeta
    pools = {
        QQ: [QQ(1), QQ(-2), QQ(Fraction(1, 3)), QQ(5)],
        QQq: [q, QQq.one - q, -q * q, QQq.one / (QQq.one - q)],
        zeta.field: [zeta, zeta + 1, -zeta * zeta, zeta.field(4)],
    }
    perms = list(permutations(7))
    for ring, pool in pools.items():
        for size in (6, 40):
            terms = {p: pool[i % len(pool)] for i, p in enumerate(rng.sample(perms, size))}
            f = fqsym.FqsymElement(ring, fqsym.G, terms)
            assert len(set(terms.values())) >= 3
            image = fqsym.g_to_m(f)
            assert list(image.terms) == sorted(image.terms)
            assert fqsym.m_to_g(image) == f and fqsym.m_to_g(image).terms == terms
        # with a degree-4 and a degree-0 part alongside
        mixed = dict(terms)
        mixed.update({(2, 4, 1, 3): pool[0], (): pool[1]})
        f = fqsym.FqsymElement(ring, fqsym.G, mixed)
        assert fqsym.m_to_g(fqsym.g_to_m(f)).terms == mixed


def test_inverse_inversion_masks_orientation():
    # n <= 7: the first-letter recursion pair by pair up to the monomial cap
    for n in range(8):
        table = inverse_inversion_masks(n)
        assert list(table) == list(permutations(n))
        for sigma, mask in table.items():
            assert mask == inversion_mask(inverse(sigma))


def test_sum_of_monomials_is_complete_image():
    for n in range(1, 6):
        total = fqsym.FqsymElement(QQ, fqsym.M, {p: QQ(1) for p in permutations(n)})
        expected = sym.to_fqsym(sym.monomial(QQ, (n,), basis=sym.S))
        assert fqsym.m_to_g(total) == expected


# ---- hook evaluation


def hook_evaluation(p, q):
    """The specialization F_p(1-q): (-q)^k when the descent set of p is
    {1, ..., k} (k = 0 for no descents), zero otherwise."""
    ring = ring_of(q)
    k = hook_size(tuple(p))
    return ring(0) if k is None else (-ring(q)) ** k


def test_hook_evaluation_examples():
    q = QQq.q
    assert hook_evaluation((1, 2, 3), q) == QQq.one
    assert hook_evaluation((2, 1), q) == -q
    assert hook_evaluation((1, 3, 2, 4), q) == QQq.zero


def test_hook_evaluation_sums_to_lr_power():
    # hooks below the inverse are the hooks with left-right minima inside
    # LR(sigma); summing (-q)^k over them telescopes to (1-q)^(lr - 1)
    q = QQq.q
    for n in range(1, 6):
        for sigma in permutations(n):
            total = QQq.zero
            for tau in weak_order_ideal(inverse(sigma)):
                total = total + hook_evaluation(tau, q)
            _, k = left_right_minima(sigma)
            assert total == (QQq.one - q) ** (k - 1), sigma


def test_complete_monomial_expansion_examples():
    q = QQq.q
    e1 = fqsym.complete_monomial_expansion(1, q)
    assert e1 == M((1,), ring=QQq).scaled(QQq.one - q)
    e2 = fqsym.complete_monomial_expansion(2, q)
    assert e2.coefficient((1, 2)) == QQq.one - q
    assert e2.coefficient((2, 1)) == (QQq.one - q) ** 2
    # q = 0 degenerates to the sum of all monomials
    zero_q = fqsym.complete_monomial_expansion(3, QQ(0))
    assert zero_q.terms == {p: QQ(1) for p in permutations(3)}


def test_complete_monomial_expansion_counts_the_minima():
    # the first-letter count against the one-scan reference, in key order
    for q in (QQq.q, QQ(0), QQ(1), QQ(3)):
        ring = ring_of(q)
        for n in range(8):
            expected = {}
            for sigma in permutations(n):
                c = (ring(1) - ring(q)) ** left_right_minima(sigma)[1]
                if c:
                    expected[sigma] = c
            got = fqsym.complete_monomial_expansion(n, q)
            assert got.terms == expected and list(got.terms) == list(expected), (q, n)


def test_appendix_monomial_expansion_small():
    q = QQq.q
    for n in range(1, 5):
        lhs = fqsym.convert(
            sym.to_fqsym(sym.one_minus_q_transform(sym.monomial(QQq, (n,)), q)),
            fqsym.M,
        )
        assert lhs == fqsym.complete_monomial_expansion(n, q)


def test_basis_changes_refuse_the_wrong_basis():
    g = fqsym.FqsymElement(QQ, fqsym.G, {(2, 1): QQ(1)})
    m = fqsym.FqsymElement(QQ, fqsym.M, {(2, 1): QQ(1)})
    with pytest.raises(ValueError, match="expected a G-basis element"):
        fqsym.g_to_m(m)
    with pytest.raises(ValueError, match="expected an M-basis element"):
        fqsym.m_to_g(g)
