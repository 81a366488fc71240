from fractions import Fraction
from math import gcd

import pytest

from peakforge import mr, peak, sym
from peakforge.combinatorics import colored_compositions, compositions
from peakforge.linalg import GradedSubspace
from peakforge.scalars import QQ, QQq, cyclotomic_field, specialize


def test_series_coefficients():
    assert peak.series_coefficients([1], [1, -1], 5) == [1, 1, 1, 1, 1, 1]
    assert peak.series_coefficients([1], [1, -1, -1], 6) == [1, 1, 2, 3, 5, 8, 13]
    assert peak.series_coefficients([1, 0, -1], [1, -1, -1], 5) == [1, 1, 1, 2, 3, 5]


def test_predicted_dimensions_tables():
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
            ok, witness = peak.closure_check(peak.peak_subspace(n, r), "sym", ideal=True)
            assert ok, (r, n, witness)


def test_unital_peak_closure_small():
    for r in (2, 3):
        for n in range(5):
            ok, witness = peak.closure_check(peak.unital_peak_subspace(n, r), "sym")
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
    ok, witness = peak.closure_check(space, "sym")
    assert not ok
    assert witness is not None


def _without_first_row(space):
    out = GradedSubspace(space.ring, space.keys, degree=space.degree)
    for row in space.basis()[1:]:
        out.insert(row)
    return out


def test_closure_witness_names_the_keys():
    # one row short of a closed span, the first product that leaves it is
    # named by key strings, with bars as minus signs at level 2
    sub = _without_first_row(peak.unital_peak_subspace(3, 3))
    assert peak.closure_check(sub, "sym") == (False, "1,2 * 1,2")
    sub = _without_first_row(peak.mr_sharp_module_subspace(2, 3))
    assert peak.closure_check(sub, "mr") == (False, "1,-1 * 1,-1")
    # over Q(zeta_2), whose products run on integers
    sub = _without_first_row(peak.mr_sharp_module_subspace(3, 2))
    assert peak.closure_check(sub, "mr") == (False, "1,-1,1 * 1,-1,1")
    assert peak.closure_check(peak.mr_sharp_subspace(3, 2), "mr", ideal=True) == (True, None)
    sub = _without_first_row(peak.mr_sharp_subspace(3, 2))
    assert peak.closure_check(sub, "mr", ideal=True) == (False, "1,1,1 * 1,-1,1")


def test_bsym_closure_witness_names_the_compositions(monkeypatch):
    # every product lands on a key outside the type-B span, so the first
    # pair of type-B compositions fails
    outside = mr.monomial(QQ, ((1, 0), (1, 0)))
    monkeypatch.setattr(mr, "internal_product", lambda u, v: outside)
    assert peak.bsym_closure_check(2) == (False, "0,1,1 * 0,1,1")


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
    "builder, element, transform, keys, r_max, n_max",
    [
        (peak.peak_subspace, sym.SymElement, sym.one_minus_q_transform,
         compositions, 6, 6),
        (peak.mr_sharp_subspace, mr.MrElement, mr.superization,
         colored_compositions, 4, 5),
    ],
    ids=["peak", "mrsharp"],
)
def test_letter_recursion_spans_the_image_of_every_word(
    builder, element, transform, keys, r_max, n_max
):
    # the builders span the image from the letter images times the lower
    # degrees; r = 1 is the zero map above degree 0
    for r in range(1, r_max + 1):
        for n in range(n_max + 1):
            reference = _image_of_every_word(
                n, r, sorted(keys(n)), element, transform
            )
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
            ok, witness = peak.closure_check(
                peak.mr_sharp_module_subspace(n, r), "mr"
            )
            assert ok, (r, n, witness)
            ok, witness = peak.closure_check(
                peak.mr_sharp_subspace(n, r), "mr", ideal=True
            )
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


def test_hilbert_report_json_schema():
    report = peak.hilbert_report(peak.MR_SHARP, 3, 3)
    data = report.to_json()
    assert data["algebra"] == "mrsharp"
    assert data["r"] == 3
    assert data["dims"] == [1, 2, 6, 17]
    assert data["match"] is True
    assert set(data["predicted"]) == {"source", "values"}
