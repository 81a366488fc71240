"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  All comparisons are exact; there are no tolerances anywhere.

Run with ``pytest -s tests/test_acceptance.py`` to see the summary lines.
"""

import time
from fractions import Fraction

from peakforge import fqsym, mr, oracle, peak, sym
from peakforge.combinatorics import (
    flag_major_index,
    flag_major_index_by_weights,
    major_index,
    merged_shape,
    parse_colored_composition,
    permutations,
    standardized_shape,
)
from peakforge.scalars import QQ, QQq


def _report(number, description, t0, limit):
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.1f}s < {limit}s) - {description}")
    assert elapsed < limit, f"criterion {number} exceeded its runtime budget"


K2_EXPONENTS = {
    ((2, 0),): 0,
    ((2, 1),): 2,
    ((1, 0), (1, 0)): 2,
    ((1, 0), (1, 1)): 3,
    ((1, 1), (1, 0)): 1,
    ((1, 1), (1, 1)): 4,
}

K3_EXPONENTS = {
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


def test_criterion_01_klyachko_tables():
    t0 = time.time()
    q = QQq.q
    for n, expected in ((2, K2_EXPONENTS), (3, K3_EXPONENTS)):
        closed = mr.klyachko_element(n, "closed_form")
        ribbon = mr.klyachko_element(n, "ribbon_sum")
        assert closed == ribbon
        assert set(closed.terms) == set(expected)
        for key, exponent in expected.items():
            assert closed.terms[key] == q**exponent, key
    _report(1, "q-Klyachko expansions in degrees 2 and 3, both routes", t0, 5)


def test_criterion_02_flag_major_index():
    t0 = time.time()
    jc = parse_colored_composition("2,1,1,-3,-1,-2,4,-1,2,2")
    shape = standardized_shape(jc)
    assert shape == (2, 1, 1, 3, 1, 6, 3, 2)
    assert merged_shape(jc) == shape
    assert major_index(shape) == 55
    assert flag_major_index(jc) == 117
    assert flag_major_index_by_weights(jc) == 117
    _report(2, "flag major index 117 by both algorithms, shape and maj", t0, 1)


def test_criterion_03_peak_hilbert_series():
    t0 = time.time()
    for r in (2, 3, 4):
        for algebra in (peak.PEAK, peak.UNITAL_PEAK):
            report = peak.hilbert_report(algebra, r, 8)
            assert report.match, report.to_json()
    _report(3, "peak and unital peak dimensions, r in {2,3,4}, n <= 8", t0, 120)


def test_criterion_04_conjecture_scan():
    t0 = time.time()
    for r in (2, 3, 4):
        report = peak.hilbert_report(peak.MR_SHARP, r, 6)
        assert report.match, report.to_json()
        _, predicted = peak.predicted_dimensions(peak.MR_SHARP, r, 8)
        counts = [peak.conjectured_generator_count(n, r) for n in range(9)]
        assert counts == predicted, (r, counts, predicted)
    _report(4, "superization image dimensions n <= 6 and part counting n <= 8", t0, 600)


def test_criterion_05_closures():
    t0 = time.time()
    for r in (2, 3):
        for n in range(7):
            ok, witness = peak.closure_check(peak.unital_peak_subspace(n, r))
            assert ok, (r, n, witness)
        for n in range(5):
            ok, witness = peak.closure_check(peak.mr_sharp_module_subspace(n, r))
            assert ok, (r, n, witness)
            ok, witness = peak.closure_check(peak.mr_sharp_subspace(n, r), ideal=True)
            assert ok, (r, n, witness)
    for n in range(5):
        ok, witness = peak.bsym_closure_check(n)
        assert ok, (n, witness)
    _report(5, "closure of the unital peak, module, ideal and type-B spans", t0, 600)


def test_criterion_06_oracles():
    t0 = time.time()
    for n in range(1, 6):
        ok, failures = oracle.verify_descent_antimorphism(n)
        assert ok, failures[:3]
    for n in range(1, 5):
        ok, failures = oracle.verify_signed_antimorphism(n)
        assert ok, failures[:3]
    _report(6, "group-algebra anti-isomorphisms (symmetric n <= 5, signed n <= 4)", t0, 300)


def test_criterion_07_inverse_transform():
    t0 = time.time()
    q = QQq.q
    n_max = 5
    g = mr.inverse_superization_series(q, n_max)
    sharp = mr.superization_series(q, n_max)
    assert mr.internal_product(g, sharp) == mr.sigma_series(QQq, n_max)
    _report(7, "inverse superization series composes to sigma through degree 5", t0, 60)


def test_criterion_08_appendix_theorem():
    t0 = time.time()
    q = QQq.q
    for n in range(1, 7):
        lhs = fqsym.convert(
            sym.to_fqsym(sym.one_minus_q_transform(sym.monomial(QQq, (n,)), q)),
            fqsym.M,
        )
        assert lhs == fqsym.complete_monomial_expansion(n, q), n
    for n in range(1, 6):
        image = fqsym.convert(sym.to_fqsym(sym.power_sum(n, QQ)), fqsym.M)
        expected = {
            p: Fraction(1) for p in permutations(n) if p[0] == 1
        }
        assert image.terms == expected, n
    _report(8, "monomial expansion of the dilated complete and power sums", t0, 120)


def test_criterion_09_series_identities():
    t0 = time.time()
    ok, _, _ = peak.pm_one_identity_check(1, 6)
    assert ok
    ok, _, _ = peak.pm_one_identity_check(-1, 6)
    assert ok
    for n in range(1, 5):
        assert peak.generator_normalization_check(n), n
    _report(9, "q = +-1 quadratic identities and generator normalization", t0, 120)


def test_criterion_10_module_discrepancy_report():
    t0 = time.time()
    report = peak.sharp_module_report(2, 4)
    assert report["dims"] == [1, 2, 4, 8, 16]
    matches = {c["source"]: c["match"] for c in report["candidates"]}
    assert matches["2^n"] is True
    assert matches["H_2(t)/(1-t)"] is True
    assert matches["1/(1-2(t+...+t^2)+t^1)"] is False
    # every candidate is reported; none of them gates the run
    assert len(report["candidates"]) == 3
    _report(10, "even-r module dimensions reported against all three candidates", t0, 300)
