import itertools
import math
import random
from fractions import Fraction

import pytest

from peakforge import mr, sym
from peakforge.combinatorics import (
    barred_weight,
    colored_compositions,
    compositions,
    major_index,
    standardized_shape,
    type_b_compositions,
)
from peakforge.scalars import QQ, QQq, cyclotomic_field, ring_of
import reference_series
from reference_series import (
    assert_same_table,
    flat_series,
    mr_lambda_series,
    reference_table,
)


def MS(key, coeff=1, ring=QQ):
    return mr.monomial(ring, key, coeff, basis=mr.S)


def MR_(key, coeff=1, ring=QQ):
    return mr.monomial(ring, key, coeff, basis=mr.R)


# ---- bar, product, coproduct


def test_bar_examples():
    f = MS(((2, 0), (1, 1)))
    assert mr.bar(f) == MS(((2, 1), (1, 0)))
    assert mr.bar(mr.bar(f)) == f


def test_product_is_concatenation():
    assert MS(((1, 0),)) * MS(((1, 1),)) == MS(((1, 0), (1, 1)))


def test_coproduct_barred_letter():
    cp = mr.coproduct(MS(((1, 1),)))
    assert cp == {((), ((1, 1),)): QQ(1), (((1, 1),), ()): QQ(1)}


def test_coproduct_preserves_colors():
    cp = mr.coproduct(MS(((2, 1),)))
    assert cp == {
        ((), ((2, 1),)): QQ(1),
        (((1, 1),), ((1, 1),)): QQ(1),
        (((2, 1),), ()): QQ(1),
    }


# ---- internal product


def test_internal_barred_barred_is_plain():
    assert mr.internal_product(MS(((1, 1),)), MS(((1, 1),))) == MS(((1, 0),))


def test_internal_neutrality():
    for n in range(1, 5):
        e = MS(((n, 0),))
        for key in colored_compositions(n):
            f = MS(key)
            assert mr.internal_product(e, f) == f
            assert mr.internal_product(f, e) == f


def test_sigma_bar_is_central_and_acts_by_bar():
    for n in range(1, 5):
        e = MS(((n, 1),))
        for key in colored_compositions(n):
            f = MS(key)
            assert mr.internal_product(e, f) == mr.bar(f)
            assert mr.internal_product(f, e) == mr.bar(f)


def test_bar_interacts_with_internal_product():
    # bar(f) * bar(g) = f * g (the two central factors collapse), and
    # bar(f * g) = bar(f) * g = f * bar(g)
    for n in range(1, 4):
        keys = list(colored_compositions(n))
        for a in keys:
            for b in keys:
                f, g = MS(a), MS(b)
                prod = mr.internal_product(f, g)
                assert mr.internal_product(mr.bar(f), mr.bar(g)) == prod
                assert mr.internal_product(mr.bar(f), g) == mr.bar(prod)
                assert mr.internal_product(f, mr.bar(g)) == mr.bar(prod)


def test_internal_associative_small():
    for n in range(1, 4):
        keys = list(colored_compositions(n))
        for a, b, c in itertools.product(keys, repeat=3):
            left = mr.internal_product(mr.internal_product(MS(a), MS(b)), MS(c))
            right = mr.internal_product(MS(a), mr.internal_product(MS(b), MS(c)))
            assert left == right, (a, b, c)
    rng = random.Random(5)
    keys = list(colored_compositions(5))
    for _ in range(40):
        a, b, c = (rng.choice(keys) for _ in range(3))
        left = mr.internal_product(mr.internal_product(MS(a), MS(b)), MS(c))
        right = mr.internal_product(MS(a), mr.internal_product(MS(b), MS(c)))
        assert left == right, (a, b, c)


# ---- colored ribbons


def test_colored_ribbon_round_trip():
    rng = random.Random(11)
    for n in range(5):
        keys = list(colored_compositions(n))
        terms = {k: Fraction(rng.randint(-2, 2)) for k in keys}
        f = mr.MrElement(QQ, mr.S, terms)
        assert mr.convert(mr.convert(f, mr.R), mr.S) == f


def test_colored_ribbon_same_color_merges_only():
    # mixed-color words do not coarsen
    assert mr.convert(MS(((1, 0), (1, 1))), mr.R) == MR_(((1, 0), (1, 1)))
    # equal-color pairs coarsen like classical ribbons
    f = mr.convert(MS(((1, 0), (1, 0))), mr.R)
    assert f == MR_(((1, 0), (1, 0))) + MR_(((2, 0),))
    g = mr.convert(MS(((1, 1), (1, 1))), mr.R)
    assert g == MR_(((1, 1), (1, 1))) + MR_(((2, 1),))


def test_colored_ribbon_specializes_to_plain_ribbon():
    # forgetting colors after converting matches the level-1 transition
    for n in range(1, 5):
        for I in compositions(n):
            colored = MS(tuple((p, 0) for p in I))
            via_mr = mr.specialize_bar(mr.convert(colored, mr.R))
            # ribbon keys with colors dropped, re-interpreted in Sym's R basis
            expected = sym.convert(sym.monomial(QQ, I, basis=sym.S), sym.R)
            got = {}
            for key, c in mr.convert(colored, mr.R).terms.items():
                word = tuple(s for s, _ in key)
                got[word] = got.get(word, QQ(0)) + c
            assert {k: v for k, v in got.items() if v} == expected.terms


# ---- superization


def test_superization_series_degree_1():
    q = QQq.q
    series = mr.superization_series(q, 1)
    assert series.coefficient(((1, 0),)) == QQq.one
    assert series.coefficient(((1, 1),)) == -q


def test_superization_examples():
    q = QQq.q
    assert mr.superization(mr.unit(QQq), q) == mr.unit(QQq)
    f = mr.superization(MS(((1, 0),), ring=QQq), q)
    assert f == MS(((1, 0),), ring=QQq) - q * MS(((1, 1),), ring=QQq)


def test_superization_at_minus_one_is_flat_sum():
    # sharp(S_n) at q = -1 expands as sum over i+j=n of Lambda_i-bar S_j
    ring = QQ
    q = ring(-1)
    got = mr.superization(MS(((3, 0),)), q)
    expected = mr.MrElement.zero(ring, mr.S)
    lam = mr_lambda_series(ring, 3, color=1)
    sig = mr.sigma_series(ring, 3)
    expected = mr.product(lam, sig).homogeneous(3)
    assert got == expected


def test_superization_matches_internal_product():
    q = QQq.q
    for n in range(4):
        series = reference_series.superization_series(q, n)
        for key in colored_compositions(n):
            f = MS(key, ring=QQq)
            assert mr.superization(f, q) == mr.internal_product(f, series)


def test_sharp_letter_closed_form_matches_lambda_sigma():
    for q in reference_series.CLOSED_FORM_QS:
        series = reference_series.superization_series(q, 7)
        for k in range(1, 8):
            plain = reference_table(series, k)
            barred = reference_table(mr.bar(series), k)
            assert_same_table(mr._sharp_letter(q, (k, 0)), plain)
            assert_same_table(mr._sharp_letter(q, (k, 1)), barred)


def test_superization_series_reads_the_letter_tables():
    for q in (cyclotomic_field(3).zeta, QQ(-1), QQq.q):
        for n in range(6):
            series = mr.superization_series(q, n)
            assert series == reference_series.superization_series(q, n)
            assert series.bound == n


def test_superization_is_bialgebra_endomorphism():
    q = QQq.q
    pairs = [(((1, 0),), ((2, 1),)), (((1, 1),), ((1, 0), (1, 1))), (((2, 0),), ((1, 1),))]
    for a, b in pairs:
        f, g = MS(a, ring=QQq), MS(b, ring=QQq)
        assert mr.superization(f * g, q) == mr.superization(f, q) * mr.superization(g, q)
    for n in range(1, 4):
        for key in colored_compositions(n):
            f = MS(key, ring=QQq)
            lhs = mr.coproduct(mr.superization(f, q))
            rhs = {}
            for (a, b), c in mr.coproduct(f).items():
                fa = mr.superization(MS(a, ring=QQq), q)
                fb = mr.superization(MS(b, ring=QQq), q)
                for ka, ca in fa.terms.items():
                    for kb, cb in fb.terms.items():
                        key2 = (ka, kb)
                        rhs[key2] = rhs.get(key2, QQq.zero) + c * ca * cb
            rhs = {k: v for k, v in rhs.items() if v}
            assert lhs == rhs


def test_superization_is_left_star_module_map():
    q = QQq.q
    for n in range(1, 4):
        keys = list(colored_compositions(n))
        for a in keys:
            for b in keys:
                f, g = MS(a, ring=QQq), MS(b, ring=QQq)
                lhs = mr.superization(mr.internal_product(f, g), q)
                rhs = mr.internal_product(f, mr.superization(g, q))
                assert lhs == rhs, (a, b)


def test_flat_series_identities():
    # sigma-bar * sharp-series = flat-series at q = -1, degreewise
    n_max = 4
    sharp = mr.superization_series(QQ(-1), n_max)
    flat = flat_series(n_max)
    for n in range(1, n_max + 1):
        sig_bar = MS(((n, 1),))
        assert mr.internal_product(sig_bar, sharp.homogeneous(n)) == flat.homogeneous(n)
    # lambda * (flat degree n) = (sharp degree n); the barred series instead
    # fixes the flat component, since lambda-bar = lambda * sigma-bar
    lam = mr_lambda_series(QQ, n_max, color=0)
    lam_bar = mr_lambda_series(QQ, n_max, color=1)
    for n in range(1, n_max + 1):
        flat_n = flat.homogeneous(n)
        assert mr.internal_product(lam.homogeneous(n), flat_n) == sharp.homogeneous(n)
        assert mr.internal_product(lam_bar.homogeneous(n), flat_n) == flat_n


def test_specialize_bar_morphism_and_transform():
    q = QQq.q
    # specializing the sharp series gives the (1-q) series degreewise
    n_max = 4
    sharp = mr.superization_series(q, n_max)
    theta_series = sym.one_minus_q_series(q, n_max)
    assert mr.specialize_bar(sharp) == theta_series
    # and the whole transform commutes with the specialization
    for n in range(1, n_max + 1):
        for key in colored_compositions(n):
            f = MS(key, ring=QQq)
            lhs = mr.specialize_bar(mr.superization(f, q))
            rhs = sym.one_minus_q_transform(mr.specialize_bar(f), q)
            assert lhs == rhs, key
    # it also intertwines internal products
    for key1 in colored_compositions(3):
        for key2 in colored_compositions(3):
            f, g = MS(key1), MS(key2)
            lhs = mr.specialize_bar(mr.internal_product(f, g))
            rhs = sym.internal_product(mr.specialize_bar(f), mr.specialize_bar(g))
            assert lhs == rhs


# ---- type-B complete basis


def test_bsym_complete_examples():
    assert mr.bsym_complete((3,)) == MS(((3, 0),))
    assert mr.bsym_complete((0, 1)) == MS(((1, 0),)) + MS(((1, 1),))
    expected = MS(((1, 0),)) * (MS(((1, 0),)) + MS(((1, 1),)))
    assert mr.bsym_complete((1, 1)) == expected


def test_bsym_complete_independent():
    from peakforge.oracle import bsym_span

    for n in range(1, 5):
        span = bsym_span(n)
        assert span.rank == 2**n


# ---- inverse superization series and Klyachko elements


def test_inverse_series_degree_1_coefficients():
    q = QQq.q
    assert mr.inverse_superization_series(q, 0) == mr.unit(QQq).truncate(0)
    g = mr.inverse_superization_series(q, 1)
    denom = QQq.one - q**2
    assert g.coefficient(((1, 0),)) == QQq.one / denom
    assert g.coefficient(((1, 1),)) == q / denom


def test_internal_product_is_the_sum_of_same_degree_pieces():
    # inhomogeneous, truncated factors in mixed bases: cross-degree pairs
    # vanish, so the product splits degree by degree
    rng = random.Random(11)
    words = [w for n in range(5) for w in colored_compositions(n)]

    def draw(basis):
        terms = {
            w: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            for w in rng.sample(words, 12)
        }
        return mr.MrElement(QQ, basis, terms).truncate(4)

    for _ in range(4):
        f, g = draw(mr.S), draw(mr.R)
        pieces = mr.MrElement.zero(QQ, mr.S)
        for d in range(5):
            pieces = pieces + mr.internal_product(f.homogeneous(d), g.homogeneous(d))
        product = mr.internal_product(f, g)
        assert product == pieces
        assert product.bound == 4


@pytest.mark.parametrize("module", [sym, mr], ids=["sym", "mr"])
def test_bounded_product_keeps_every_admissible_pair(module):
    # truncating both factors at b keeps every pair of degrees that sums to
    # at most b, the pairs summing to exactly b included
    rng = random.Random(5)
    element = module.SymElement if module is sym else module.MrElement
    weighted = compositions if module is sym else colored_compositions
    words = [w for n in range(5) for w in weighted(n)]

    def draw():
        terms = {
            w: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            for w in rng.sample(words, 10)
        }
        return element(QQ, rng.choice(element.bases), terms)

    for _ in range(4):
        f, g = draw(), draw()
        full = module.product(f, g)
        for b in range(1, 8):
            bounded = module.product(f.truncate(b), g.truncate(b))
            assert bounded == full.truncate(b)
            assert bounded.bound == b


def test_letter_tables_keep_equal_scalars_of_different_fields_apart():
    # -1 in Q(zeta_2) equals -1 in Q and hashes alike; the cached letter
    # tables must still answer over the field they were asked for
    field = cyclotomic_field(2)
    for ring, q in ((field, field.zeta), (QQ, QQ(-1)), (field, field(-1))):
        sharp = mr.superization(MS(((2, 0), (1, 1)), ring=ring), q)
        dilated = sym.one_minus_q_transform(sym.monomial(ring, (2, 1)), q)
        for c in [*sharp.terms.values(), *dilated.terms.values()]:
            assert ring_of(c) is ring
        for k in range(1, 6):
            tables = [sym._one_minus_q_letter(q, k)]
            tables += [mr._sharp_letter(q, (k, color)) for color in (0, 1)]
            for _, c in itertools.chain(*tables):
                assert type(c) is type(ring.one) and ring_of(c) is ring


def test_inverse_series_composes_to_sigma():
    q = QQq.q
    n_max = 6
    g = mr.inverse_superization_series(q, n_max)
    sharp = mr.superization_series(q, n_max)
    assert mr.internal_product(g, sharp) == mr.sigma_series(QQq, n_max)


def test_inverse_series_rejects_roots_of_unity():
    # 1 - zeta^(2i) vanishes first at i = r / gcd(r, 2), the order of zeta^2,
    # and every i <= n_max is the size of a one-letter word
    for r in range(2, 7):
        field = cyclotomic_field(r)
        first = r // math.gcd(r, 2)
        for n_max in range(first + 2):
            if n_max >= first:
                with pytest.raises(ZeroDivisionError):
                    mr.inverse_superization_series(field.zeta, n_max)
            else:
                g = mr.inverse_superization_series(field.zeta, n_max)
                assert all(ring_of(c) is field for c in g.terms.values())


def _int_poly_mul(a, b, top):
    out = [0] * (top + 1)
    for i, x in enumerate(a[: top + 1]):
        for j, y in enumerate(b[: top + 1 - i]):
            out[i + j] += x * y
    return out


def test_cleared_inverse_coefficients_match_the_defining_sum():
    # the coefficient of a colored word in g is the sum of
    # q^(e_1 a_1 + ... + e_m a_m) over e_1 > ... > e_m >= 0 with e_j of
    # parity c_j; summed by brute force up to q^top, times c_n
    top = 14
    for n in range(1, 5):
        c_n = [1]
        for i in range(1, n + 1):
            c_n = _int_poly_mul(c_n, [1] + [0] * (2 * i - 1) + [-1], top)
        cleared = mr.cleared_inverse_component(n)[1]
        assert set(cleared.terms) == set(colored_compositions(n))
        for word in colored_compositions(n):
            series = [0] * (top + 1)
            for exps in itertools.combinations(range(top, -1, -1), len(word)):
                if all(e % 2 == c for e, (_, c) in zip(exps, word)):
                    degree = sum(e * a for e, (a, _) in zip(exps, word))
                    if degree <= top:
                        series[degree] += 1
            coeff = cleared.coefficient(word)
            assert coeff.den == (1,)
            got = list(coeff.num[: top + 1]) + [0] * (top + 1 - len(coeff.num))
            assert got == _int_poly_mul(c_n, series, top), word


def test_cleared_inverse_component_is_the_scaled_series():
    q = QQq.q
    g = mr.inverse_superization_series(q, 6)
    for n in range(7):
        c_n, cleared = mr.cleared_inverse_component(n)
        assert set(cleared.terms) == set(g.homogeneous(n).terms)
        for word, coeff in cleared.terms.items():
            assert coeff.den == (1,)
            assert coeff == c_n * g.coefficient(word)


K2_EXPECTED = {
    ((2, 0),): 0,
    ((2, 1),): 2,
    ((1, 0), (1, 0)): 2,
    ((1, 0), (1, 1)): 3,
    ((1, 1), (1, 0)): 1,
    ((1, 1), (1, 1)): 4,
}

K3_EXPECTED = {
    ((3, 0),): 0,
    ((3, 1),): 3,
    ((2, 0), (1, 0)): 4,
    ((2, 0), (1, 1)): 5,
    ((2, 1), (1, 0)): 2,
    ((2, 1), (1, 1)): 7,
    ((1, 0), (2, 0)): 2,
    ((1, 0), (2, 1)): 4,
    ((1, 1), (2, 0)): 1,
    ((1, 1), (2, 1)): 5,
    ((1, 0), (1, 0), (1, 0)): 6,
    ((1, 0), (1, 0), (1, 1)): 7,
    ((1, 0), (1, 1), (1, 0)): 3,
    ((1, 0), (1, 1), (1, 1)): 8,
    ((1, 1), (1, 0), (1, 0)): 5,
    ((1, 1), (1, 0), (1, 1)): 6,
    ((1, 1), (1, 1), (1, 0)): 4,
    ((1, 1), (1, 1), (1, 1)): 9,
}


def _exponent_table(element):
    q = QQq.q
    out = {}
    for key, coeff in element.terms.items():
        for e in range(40):
            if coeff == q**e:
                out[key] = e
                break
        else:
            raise AssertionError(f"coefficient of {key} is not a power of q: {coeff}")
    return out


def test_klyachko_k1():
    k1 = mr.klyachko_element(1, "closed_form")
    assert _exponent_table(k1) == {((1, 0),): 0, ((1, 1),): 1}


def test_klyachko_k2_table():
    for mode in ("closed_form", "ribbon_sum"):
        k2 = mr.klyachko_element(2, mode)
        assert _exponent_table(k2) == K2_EXPECTED, mode


def test_klyachko_k3_table():
    for mode in ("closed_form", "ribbon_sum"):
        k3 = mr.klyachko_element(3, mode)
        assert _exponent_table(k3) == K3_EXPECTED, mode


def test_klyachko_modes_agree_at_4():
    assert mr.klyachko_element(4, "closed_form") == mr.klyachko_element(4, "ribbon_sum")


# ---- ordinal ribbon expansion


def ordinal_ribbon_expansion(comp, q) -> mr.MrElement:
    """Expansion of a plain ribbon over the ordinal sum of the two
    alphabets (the barred one scaled by q): the sum of q^(barred letters)
    R_J over the colored compositions J whose attached unsigned shape is
    the given composition."""
    ring = ring_of(q)
    comp = tuple(comp)
    n = sum(comp)
    terms = {}
    for jc in colored_compositions(n):
        if standardized_shape(jc) == comp:
            terms[jc] = ring(q) ** barred_weight(jc)
    return mr.MrElement(ring, mr.R, terms)


def test_ordinal_ribbon_expansion_examples():
    one = QQ(1)
    f = ordinal_ribbon_expansion((2,), one)
    assert f.terms == {
        ((2, 0),): one,
        ((2, 1),): one,
        ((1, 1), (1, 0)): one,
    }
    q = QQq.q
    g = ordinal_ribbon_expansion((1,), q)
    assert g.terms == {((1, 0),): QQq.one, ((1, 1),): q}


def test_ordinal_expansion_assembles_klyachko():
    q = QQq.q
    for n in range(1, 5):
        total = mr.MrElement.zero(QQq, mr.R)
        for I in compositions(n):
            total = total + (q ** (2 * major_index(I))) * ordinal_ribbon_expansion(I, q)
        assert total == mr.klyachko_element(n, "ribbon_sum")


def test_superization_at_zero_is_the_identity():
    # at q = 0 every letter is itself, with coefficient 1 and no zero entry
    for k in range(1, 7):
        for color in (0, 1):
            assert mr._sharp_letter(0, (k, color)) == ((((k, color),), 1),)
    rng = random.Random(27)
    words = [J for n in range(4) for J in colored_compositions(n)]
    f = mr.MrElement(
        QQ, mr.S, {J: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for J in words}
    )
    assert mr.superization(f, 0) == f


def test_klyachko_element_refuses_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'x'"):
        mr.klyachko_element(2, "x")
