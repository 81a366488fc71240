from fractions import Fraction
from math import gcd

import pytest

from peakforge import mr, oracle, peak, sym
from peakforge.algebra import S, internal
from peakforge.combinatorics import colored_compositions, compositions, type_b_compositions
from peakforge.linalg import GradedSubspace
from peakforge.scalars import QQ, QQq, cyclotomic_field, specialize


def test_series_coefficients():
    assert peak.series_coefficients([1], [1, -1], 5) == [1, 1, 1, 1, 1, 1]
    assert peak.series_coefficients([1], [1, -1, -1], 6) == [1, 1, 2, 3, 5, 8, 13]
    assert peak.series_coefficients([1, 0, -1], [1, -1, -1], 5) == [1, 1, 1, 2, 3, 5]
    assert peak.series_coefficients([1], [-1, 1], 3) == [-1, -1, -1, -1]
    for den in ([2, 1], [0, 1], [-3]):
        with pytest.raises(ValueError, match="constant term must be a unit"):
            peak.series_coefficients([1], den, 3)


def test_predicted_dimensions_tables():
    with pytest.raises(ValueError, match="^unknown algebra 'x'$"):
        peak.predicted_dimensions("x", 2, 3)
    assert peak.predicted_dimensions(peak.PEAK, 2, 5)[1] == [1, 1, 1, 2, 3, 5]
    assert peak.predicted_dimensions(peak.PEAK, 3, 6)[1] == [1, 1, 2, 3, 6, 11, 20]
    assert peak.predicted_dimensions(peak.UNITAL_PEAK, 2, 8)[1] == [
        1, 1, 2, 3, 5, 8, 13, 21, 34,
    ]
    assert peak.predicted_dimensions(peak.UNITAL_PEAK, 3, 6)[1] == [
        1, 1, 2, 4, 7, 13, 24,
    ]
    assert peak.predicted_dimensions(peak.MR_SHARP, 2, 8)[1] == [
        1, 1, 2, 4, 8, 16, 32, 64, 128,
    ]
    assert peak.predicted_dimensions(peak.MR_SHARP, 3, 8)[1] == [
        1, 2, 6, 17, 50, 146, 426, 1244, 3632,
    ]
    assert peak.predicted_dimensions(peak.MR_SHARP, 4, 8)[1] == [
        1, 2, 5, 14, 38, 104, 284, 776, 2120,
    ]
    assert peak.predicted_dimensions(peak.MR_SHARP_MODULE, 2, 4)[1] == [1, 1, 3, 5, 11]


def test_peak_dimensions_small():
    for r in (2, 3, 4):
        report = peak.hilbert_report(peak.PEAK, r, 5)
        assert report.match, report.to_json()
        report = peak.hilbert_report(peak.UNITAL_PEAK, r, 5)
        assert report.match, report.to_json()


def test_unit_is_in_every_peak_space():
    for r in (2, 3):
        assert peak.peak_subspace(0, r).rank == 1


def test_complete_membership_pattern():
    # S_n lies in the degree-n image iff n < r: below r no factor (1 - q^k)
    # vanishes, so the transform is invertible and the image is everything;
    # from degree r on, the S_n direction is never hit.
    for r in (2, 3, 4):
        for n in range(1, 7):
            ring = cyclotomic_field(r)
            member = peak.peak_subspace(n, r).contains({(n,): ring.one})
            assert member == (n < r), (r, n)


def test_transform_image_is_stable_under_retransform():
    # applying the (1-q) transform to a basis of its own image does not
    # change the rank: the image is transform-stable
    for r in (2, 3, 4):
        for n in range(7):
            ring = cyclotomic_field(r)
            space = peak.peak_subspace(n, r)
            again = GradedSubspace(ring, space.keys, degree=n)
            for row in space.basis():
                f = sym.SymElement(ring, sym.S, row)
                again.insert(sym.one_minus_q_transform(f, ring.zeta).terms)
            assert again.rank == space.rank, (r, n)


def test_peak_space_is_left_ideal():
    for r in (2, 3):
        for n in range(5):
            ok, witness = peak.closure_check(peak.peak_subspace(n, r), ideal=True)
            assert ok, (r, n, witness)


def test_unital_peak_closure_small():
    for r in (2, 3):
        for n in range(5):
            ok, witness = peak.closure_check(peak.unital_peak_subspace(n, r))
            assert ok, (r, n, witness)


@pytest.mark.parametrize("algebra", sorted(peak._BUILDERS))
def test_cached_subspaces_are_frozen(algebra):
    # the builders are cached, so an insert would change every later rank
    space = peak.subspace(algebra, 3, 2)
    rank = space.rank
    with pytest.raises(TypeError):
        space.insert({key: space.ring(1) for key in space.keys})
    assert space.rank == rank
    assert peak.subspace(algebra, 3, 2) is space
    assert peak.subspace(algebra, 3, 2).rank == rank


def test_closure_negative_control():
    # a generic one-dimensional subspace is not closed
    ring = QQ
    space = GradedSubspace(ring, sorted(compositions(3)), degree=3)
    space.insert({(1, 2): Fraction(1), (3,): Fraction(1)})
    ok, witness = peak.closure_check(space)
    assert not ok
    assert witness is not None


def _without_row(space, i=0):
    """The span of the rows of ``space`` less its row ``i``."""
    rows = space.basis()
    del rows[i]
    out = GradedSubspace(space.ring, space.keys, degree=space.degree)
    for row in rows:
        out.insert(row)
    return out


def _pairwise_closure(sub, ideal=False):
    """The closure check product by product, the reference for the
    residue-column kernel: each product formed in full by
    ``algebra.internal`` from key-indexed rows and tested by ``contains``."""
    colored = any(type(part) is tuple for part in sub.keys[-1])
    element = mr.MrElement if colored else sym.SymElement
    rows = sub.basis()
    pivots = sub.pivot_keys()
    if ideal:
        lefts = [({key: sub.ring(1)}, key) for key in sub.keys]
    else:
        lefts = list(zip(rows, pivots))
    for u, utag in lefts:
        for v, vtag in zip(rows, pivots):
            if not sub.contains(internal(u, v, element.structure, element.key_degree)):
                return False, f"{element.key_str(utag)} * {element.key_str(vtag)}"
    return True, None


@pytest.mark.parametrize(
    "builder, orders, n_max, ideal",
    [
        (peak.peak_subspace, (2, 3), 4, True),
        (peak.unital_peak_subspace, (2, 3, 4, 5), 5, False),
        (peak.mr_sharp_module_subspace, (2, 3), 4, False),
        (peak.mr_sharp_subspace, (3, 4), 4, True),
    ],
    ids=["peak", "unital-peak", "q-ring", "q-module"],
)
def test_closure_kernel_matches_the_pairwise_route(builder, orders, n_max, ideal):
    # the closed spans, and each of them less its first or its last row,
    # whose first failing pair the two routes must name alike
    verdicts = set()
    for r in orders:
        for n in range(n_max + 1):
            full = builder(n, r)
            for sub in (full, _without_row(full, 0), _without_row(full, -1)):
                result = peak.closure_check(sub, ideal)
                assert result == _pairwise_closure(sub, ideal), (r, n, sub.rank)
                verdicts.add(result[0])
            assert peak.closure_check(full, ideal) == (True, None)
    assert verdicts == {True, False}


def test_closure_kernel_matches_the_pairwise_route_off_the_builders():
    # the Fraction span of the negative control, and Q(zeta_5) spans whose
    # rows hold entries that are not integers
    rational = GradedSubspace(QQ, sorted(compositions(3)), degree=3)
    rational.insert({(1, 2): Fraction(1), (3,): Fraction(1)})
    field = cyclotomic_field(5)
    z = field.zeta
    spans = [rational]
    for n in (3, 4):
        keys = sorted(compositions(n))
        span = GradedSubspace(field, keys, degree=n)
        span.insert({keys[1]: z / 2, keys[-2]: 1 + z**2, keys[-1]: field(3)})
        span.insert({keys[0]: field.one, keys[-1]: z - z**3})
        span.insert({key: z**i / (i + 1) for i, key in enumerate(keys)})
        assert any(
            type(c.integer_or_self()) is not int
            for row in span.column_rows()
            for c in row.values()
        )
        spans.append(span)
    for sub in spans:
        for ideal in (False, True):
            assert peak.closure_check(sub, ideal) == _pairwise_closure(sub, ideal)


def test_closure_witness_names_the_keys():
    # one row short of a closed span, the first product that leaves it is
    # named by key strings, with bars as minus signs at level 2
    sub = _without_row(peak.unital_peak_subspace(3, 3))
    assert peak.closure_check(sub) == (False, "1,2 * 1,2")
    sub = _without_row(peak.mr_sharp_module_subspace(2, 3))
    assert peak.closure_check(sub) == (False, "1,-1 * 1,-1")
    # over Q(zeta_2), whose products run on integers
    sub = _without_row(peak.mr_sharp_module_subspace(3, 2))
    assert peak.closure_check(sub) == (False, "1,-1,1 * 1,-1,1")
    assert peak.closure_check(peak.mr_sharp_subspace(3, 2), ideal=True) == (True, None)
    sub = _without_row(peak.mr_sharp_subspace(3, 2))
    assert peak.closure_check(sub, ideal=True) == (False, "1,1,1 * 1,-1,1")


def test_bsym_is_the_q_ring_at_r2():
    # every type-B complete basis element lies in the r = 2 q-ring span V(n),
    # and both spans have rank 2^n: they are one span
    for n in range(7):
        target = peak.mr_sharp_module_subspace(n, 2)
        for comp in type_b_compositions(n):
            assert target.contains(mr.bsym_complete(comp).terms), (n, comp)
        assert oracle.bsym_span(n).rank == target.rank == 2**n


_OUTSIDE = {((1, 0), (1, 0)): 1}  # outside V(2)


def test_bsym_check_names_an_element_outside_the_q_ring(monkeypatch):
    original = mr.bsym_complete
    moved = mr.MrElement(QQ, mr.S, _OUTSIDE)
    monkeypatch.setattr(
        mr, "bsym_complete", lambda comp: moved if comp == (1, 1) else original(comp)
    )
    assert peak.bsym_closure_check(2) == (False, "1,1 outside the q-ring span")


def test_bsym_check_fails_on_a_q_ring_span_of_another_rank(monkeypatch):
    full = peak.mr_sharp_module_subspace(2, 2)
    assert not full.contains(_OUTSIDE)
    short = _without_row(full)
    monkeypatch.setattr(peak, "mr_sharp_module_subspace", lambda n, r: short)
    assert peak.bsym_closure_check(2) == (False, "0,1,1 outside the q-ring span")
    # one row over: every type-B element still lies inside, the ranks differ
    over = GradedSubspace(full.ring, full.keys, degree=2)
    for row in full.basis() + [_OUTSIDE]:
        over.insert(row)
    monkeypatch.setattr(peak, "mr_sharp_module_subspace", lambda n, r: over)
    assert peak.bsym_closure_check(2) == (False, "type-B rank 4 != q-ring rank 5")


def test_bsym_closure_failure_is_the_q_ring_witness(monkeypatch):
    # every word pair's structure constants land outside the shared span,
    # so every product does (the rows' coefficient sums are nonzero): both
    # routes name the same pair of pivot keys
    (outside,) = _OUTSIDE
    monkeypatch.setattr(mr.MrElement, "structure", staticmethod(lambda I, J: ((outside, 1),)))
    witness = (False, "1,1 * 1,1")
    assert peak.closure_check(peak.mr_sharp_module_subspace(2, 2)) == witness
    assert peak.bsym_closure_check(2) == witness


def test_mr_sharp_dimensions_small():
    assert [peak.mr_sharp_subspace(n, 2).rank for n in range(5)] == [1, 1, 2, 4, 8]
    assert [peak.mr_sharp_subspace(n, 3).rank for n in range(5)] == [1, 2, 6, 17, 50]
    assert [peak.mr_sharp_subspace(n, 4).rank for n in range(5)] == [1, 2, 5, 14, 38]


def _image_of_every_word(n, r, keys, element, transform):
    # reference: the definition, the span of the image of every complete
    # word of degree n
    ring = cyclotomic_field(r)
    space = GradedSubspace(ring, keys, degree=n)
    for key in keys:
        space.insert(transform(element.monomial(ring, key), ring.zeta).terms)
    return space


@pytest.mark.parametrize(
    "builder, element, transform, keys, n_max_by_r",
    [
        # r = 7 reaches a field of degree 6
        (peak.peak_subspace, sym.SymElement, sym.one_minus_q_transform,
         compositions, {1: 6, 2: 6, 3: 6, 4: 6, 5: 6, 6: 6, 7: 6}),
        # r = 5 and r = 8 reach fields of degree 4
        (peak.mr_sharp_subspace, mr.MrElement, mr.superization,
         colored_compositions, {1: 5, 2: 5, 3: 5, 4: 5, 5: 4, 8: 4}),
    ],
    ids=["peak", "mrsharp"],
)
def test_letter_recursion_spans_the_image_of_every_word(
    builder, element, transform, keys, n_max_by_r
):
    # the builders span the image from the letter images times the lower
    # degrees; r = 1 is the zero map above degree 0
    for r, n_max in n_max_by_r.items():
        for n in range(n_max + 1):
            reference = _image_of_every_word(
                n, r, sorted(keys(n)), element, transform
            )
            assert builder(n, r).basis() == reference.basis(), (r, n)


@pytest.mark.parametrize(
    "builder, image, element, keys, unit",
    [
        (peak.unital_peak_subspace, peak.peak_subspace, sym.SymElement,
         compositions, lambda k: (k,)),
        (peak.mr_sharp_module_subspace, peak.mr_sharp_subspace, mr.MrElement,
         colored_compositions, lambda k: ((k, 0),)),
    ],
    ids=["unital-peak", "mrsharp-module"],
)
def test_unit_products_span_the_module(builder, image, element, keys, unit):
    # reference: S_k times every row of the degree-(n-k) image span through
    # the algebra product, k = 0..n (S_0 = 1)
    for r in range(1, 5):
        ring = cyclotomic_field(r)
        for n in range(6):
            reference = GradedSubspace(ring, sorted(keys(n)), degree=n)
            for k in range(n + 1):
                s_k = element.monomial(ring, unit(k) if k else ())
                for row in image(n - k, r).basis():
                    product = s_k * element(ring, S, row)
                    reference.insert(product.terms)
            assert builder(n, r).basis() == reference.basis(), (r, n)


def test_mr_sharp_module_dimensions_small():
    # r = 2 realizes the type-B descent algebra dimensions 2^n
    assert [peak.mr_sharp_module_subspace(n, 2).rank for n in range(5)] == [
        1, 2, 4, 8, 16,
    ]
    # r = 3 follows the odd-r module series 1/(1 - 2(t + t^2 + t^3))
    assert [peak.mr_sharp_module_subspace(n, 3).rank for n in range(5)] == [
        1, 2, 6, 18, 52,
    ]
    assert peak.predicted_dimensions(peak.MR_SHARP_MODULE, 3, 4)[1] == [1, 2, 6, 18, 52]


def test_sharp_module_report_r2():
    report = peak.sharp_module_report(2, 4)
    assert report["dims"] == [1, 2, 4, 8, 16]
    matches = {c["source"]: c["match"] for c in report["candidates"]}
    assert matches["2^n"] is True
    assert matches["H_2(t)/(1-t)"] is True
    # the even-r closed formula disagrees: the open question, reported only
    assert any(not m for m in matches.values())
    # at r = 2 the odd-r series at r/2 = 1 is 1/(1 - 2t) = 2^n
    assert matches["1/(1-2(t+...+t^1))"] is True


@pytest.mark.parametrize(
    "r, dims",
    [(4, [1, 2, 6, 16, 44, 120]), (6, [1, 2, 6, 18, 52, 152])],
)
def test_sharp_module_report_even_r_candidate(r, dims):
    report = peak.sharp_module_report(r, 5)
    assert report["dims"] == dims
    matches = {c["source"]: c["match"] for c in report["candidates"]}
    assert matches == {
        f"1/(1-2(t+...+t^{r})+t^{r // 2})": False,
        f"H_{r}(t)/(1-t)": False,
        f"1/(1-2(t+...+t^{r // 2}))": True,
    }


def _enumerated_generator_count(n: int, r: int) -> int:
    """The reference count: every 2-colored composition of n, kept when no
    color-0 part is divisible by r and, for even r, no color-1 part is
    congruent to r/2 mod r."""
    return sum(
        all(
            not (color == 0 and size % r == 0)
            and not (r % 2 == 0 and color == 1 and size % r == r // 2)
            for size, color in jc
        )
        for jc in colored_compositions(n)
    )


def test_generator_count_series_matches_the_enumeration():
    for r in range(1, 9):
        counts = [peak.conjectured_generator_count(n, r) for n in range(10)]
        assert counts == [_enumerated_generator_count(n, r) for n in range(10)], r


def test_conjectured_generator_counts():
    for r in (2, 3, 4):
        _, predicted = peak.predicted_dimensions(peak.MR_SHARP, r, 8)
        counts = [peak.conjectured_generator_count(n, r) for n in range(9)]
        assert counts == predicted


def test_order_five_scan():
    # beyond the standard orders: the same machinery over Q(zeta_5)
    _, predicted = peak.predicted_dimensions(peak.MR_SHARP, 5, 5)
    dims = [peak.mr_sharp_subspace(n, 5).rank for n in range(6)]
    counts = [peak.conjectured_generator_count(n, 5) for n in range(6)]
    assert dims == predicted == counts == [1, 2, 6, 18, 54, 161]
    assert peak.hilbert_report(peak.PEAK, 5, 6).match
    assert peak.hilbert_report(peak.UNITAL_PEAK, 5, 6).match


def test_mr_closure_small():
    for r in (2, 3):
        for n in range(4):
            ok, witness = peak.closure_check(peak.mr_sharp_module_subspace(n, r))
            assert ok, (r, n, witness)
            ok, witness = peak.closure_check(peak.mr_sharp_subspace(n, r), ideal=True)
            assert ok, (r, n, witness)


def test_bsym_closure_small():
    for n in range(4):
        ok, witness = peak.bsym_closure_check(n)
        assert ok, (n, witness)


def test_generator_normalization():
    for n in range(1, 7):
        assert peak.generator_normalization_check(n), n
    for r in range(1, 7):
        for n in range(1, 7):
            assert peak.generator_normalization_check(n, r), (r, n)


def _lower_degree_span(ring, n):
    """Reference: the degree-n span of the products of S_k +- S_k-bar over
    the compositions of n with every part below n."""
    span = GradedSubspace(ring, sorted(colored_compositions(n)), degree=n)
    for comp in compositions(n):
        if any(part >= n for part in comp):
            continue
        words = [mr.unit(ring)]
        for part in comp:
            words = [
                mr.product(w, peak._plus_minus(ring, part, s))
                for w in words
                for s in (1, -1)
            ]
        for w in words:
            span.insert(w.terms)
    return span


@pytest.mark.parametrize("r", [None, 2, 3, 4])
def test_lower_degree_subalgebra_is_the_span_of_the_longer_words(r):
    # the lemma behind generator_normalization_check: in degree n the
    # subalgebra generated in lower degrees is every word but the letters
    ring = QQq if r is None else cyclotomic_field(r)
    for n in range(1, 6):
        span = _lower_degree_span(ring, n)
        assert span.rank == 2 * 3 ** (n - 1) - 2, (r, n)
        assert set(span.pivot_keys()) == set(span.keys) - {((n, 0),), ((n, 1),)}
        # every echelon row is the unit vector at its pivot: no row reaches
        # the letter columns
        for row, key in zip(span.basis(), span.pivot_keys()):
            assert row == {key: ring.one}, (r, n, key)


@pytest.mark.parametrize(
    "word, ok",
    [
        (lambda n: ((n, 0),), False),
        (lambda n: ((n, 1),), False),
        (lambda n: ((1, 1), (n - 1, 0)), True),
    ],
    ids=["plain-letter", "barred-letter", "two-letter-word"],
)
@pytest.mark.parametrize("r", [None, 3])
def test_generator_normalization_sees_a_letter_coefficient(monkeypatch, r, word, ok):
    # a superization off by c times a word: the check must fail when the
    # word is a letter of size n, and hold when it lies in the subalgebra
    superization = mr.superization

    def perturbed(f, q):
        n = max(f.key_degree(key) for key in f.terms)
        return superization(f, q) + mr.monomial(f.ring, word(n), 3)

    monkeypatch.setattr(mr, "superization", perturbed)
    for n in range(2, 5):
        assert peak.generator_normalization_check(n, r) == ok, n


def _specialized_terms(element, r):
    terms = {k: specialize(c, r) for k, c in element.terms.items()}
    return {k: c for k, c in terms.items() if c}


def _normalization_sides(ring, q, n, sign):
    """The superization of S_n +- S_n-bar and the left-hand side of
    ``generator_normalization_check`` over ``ring`` at ``q``."""
    gen = peak._plus_minus(ring, n, sign)
    sharp = mr.superization(gen, q)
    scale = ring(1) - q**n if sign == 1 else ring(1) + q**n
    return sharp, sharp - gen.scaled(scale)


def test_symbolic_route_specializes_to_the_cyclotomic_route():
    # Q(q) then q -> zeta_r, against the same elements computed over
    # Q(zeta_r) at zeta_r directly
    for r in range(3, 7):
        field = cyclotomic_field(r)
        for n in range(1, 5):
            for sign in (1, -1):
                symbolic = _normalization_sides(QQq, QQq.q, n, sign)
                direct = _normalization_sides(field, field.zeta, n, sign)
                for a, b in zip(symbolic, direct):
                    assert _specialized_terms(a, r) == b.terms, (r, n, sign)
        # the inverse series has denominators prod (1 - q^(2W)), W <= n,
        # which vanish at zeta_r once r divides 2W; in the ribbon basis its
        # coefficients are sums over unequal denominators
        n_max = min(4, r // gcd(r, 2) - 1)
        symbolic = mr.inverse_superization_series(QQq.q, n_max)
        direct = mr.inverse_superization_series(field.zeta, n_max)
        for basis in (mr.S, mr.R):
            assert _specialized_terms(mr.convert(symbolic, basis), r) == (
                mr.convert(direct, basis).terms
            ), (r, basis)


def _pm_one_by_definition(q_value, n_max):
    """f and g of the q = +-1 identities, built term by term as the paper
    defines them."""
    q = QQ(q_value)
    unit = mr.unit(QQ).truncate(n_max)

    def generator(n, sign):
        terms = {((n, 0),): QQ(1), ((n, 1),): QQ(sign)}
        return mr.MrElement(QQ, mr.S, terms).truncate(n_max)

    if q_value == 1:
        splus = sminus = unit
        for n in range(1, n_max + 1):
            splus = splus + generator(n, 1)
            sminus = sminus + generator(n, -1)
        return unit + mr.superization(splus, q), mr.superization(sminus, q) - unit
    f = g = mr.MrElement.zero(QQ, mr.S).truncate(n_max)
    for n in range(1, n_max + 1):
        sign_f = 1 if n % 2 == 0 else -1
        f = f + mr.superization(generator(n, sign_f), q)
        g = g + mr.superization(generator(n, -sign_f), q)
    return f, g


def test_pm_one_identities():
    ok, f, g = peak.pm_one_identity_check(1, 5)
    assert ok
    assert f.coefficient(()) == QQ(2)
    assert not g.coefficient(())
    ok, f, g = peak.pm_one_identity_check(-1, 5)
    assert ok
    assert not f.coefficient(())
    with pytest.raises(ValueError):
        peak.pm_one_identity_check(3, 2)
    for q_value in (1, -1):
        for n_max in range(0, 9):
            ok, f, g = peak.pm_one_identity_check(q_value, n_max)
            want_f, want_g = _pm_one_by_definition(q_value, n_max)
            assert ok
            assert (f.terms, f.bound) == (want_f.terms, want_f.bound), (q_value, n_max)
            assert (g.terms, g.bound) == (want_g.terms, want_g.bound), (q_value, n_max)
            assert peak.pm_one_identity_witness(q_value, n_max) is None


def test_pm_one_letter_is_the_closed_form_at_plus_minus_one():
    for q_value in (1, -1):
        for k in range(1, 6):
            for color in (0, 1):
                table = peak._pm_one_letter(q_value, (k, color))
                assert all(type(c) is int and c in (1, -1) for _, c in table)
                assert table == mr._sharp_letter(QQ(q_value), (k, color))


def test_hilbert_report_json_schema():
    report = peak.hilbert_report(peak.MR_SHARP, 3, 3)
    data = report.to_json()
    assert data["algebra"] == "mrsharp"
    assert data["r"] == 3
    assert data["dims"] == [1, 2, 6, 17]
    assert data["match"] is True
    assert set(data["predicted"]) == {"source", "values"}
