import itertools
import random
from fractions import Fraction
from functools import partial
from math import inf
from operator import add

import pytest

from peakforge import algebra, mr, oracle, scalars, sym
from peakforge.combinatorics import colored_compositions, compositions
from peakforge.scalars import QQ, Cyclo, QQq, RatFunc, cyclotomic_field
from reference_permutations import delta

# ---- margin matrices


def _brute_readings(rows, cols):
    """Column readings of the matrices with the given margins, found by
    trying every row whose entries are at most min(row sum, column sum)."""
    if sum(rows) != sum(cols):
        return ()
    row_choices = [
        [t for t in itertools.product(*(range(min(r, c) + 1) for c in cols)) if sum(t) == r]
        for r in rows
    ]
    readings = []
    for M in itertools.product(*row_choices):
        if all(sum(row[c] for row in M) == cols[c] for c in range(len(cols))):
            readings.append(
                tuple(
                    tuple((i, row[c]) for i, row in enumerate(M) if row[c])
                    for c in range(len(cols))
                )
            )
    return tuple(sorted(readings))


def test_column_readings_match_brute_force():
    for n in range(6):
        for rows in compositions(n):
            for cols in compositions(n):
                got = algebra.column_reading_structure(rows, cols)
                assert tuple(r for r, _ in got) == _brute_readings(rows, cols), (rows, cols)
                assert got and all(mult == 1 for _, mult in got)


def test_column_readings_edge_cases():
    assert algebra.column_reading_structure((1, 2), (2,)) == ()
    assert algebra.column_reading_structure((2,), ()) == ()
    assert algebra.column_reading_structure((), ()) == (((), 1),)


# ---- structure constants by letter peeling


def _by_readings(rows, cols, read):
    """Structure constants read off the margin matrices one by one: each
    column reading gives the word ``read(reading)``, accumulated."""
    acc = {}
    for reading, mult in algebra.column_reading_structure(rows, cols):
        word = read(reading)
        acc[word] = acc.get(word, 0) + mult
    return tuple(sorted(acc.items()))


def _sym_reference(I, J):
    return _by_readings(J, I, lambda reading: tuple(v for col in reading for _, v in col))


def _mr_reference(left, right):
    def read(reading):
        return tuple(
            (v, right[row][1] ^ left[c][1])
            for c, col in enumerate(reading)
            for row, v in col
        )

    sizes = (tuple(s for s, _ in right), tuple(s for s, _ in left))
    return _by_readings(*sizes, read)


def _assert_frozen(result):
    assert type(result) is tuple
    for pair in result:
        assert type(pair) is tuple and type(pair[0]) is tuple


def test_peeled_constants_match_the_margin_matrices():
    for n in range(8):
        words = list(compositions(n))
        for I in words:
            for J in words:
                got = sym.internal_structure(I, J)
                assert got == _sym_reference(I, J), (I, J)
                _assert_frozen(got)
    for n in range(6):
        words = list(colored_compositions(n))
        for left in words:
            for right in words:
                got = mr.internal_structure(left, right)
                assert got == _mr_reference(left, right), (left, right)
                _assert_frozen(got)


def test_peeled_constants_share_their_words():
    # results hold one object per word and per (word, multiplicity) pair,
    # shared across the pairs of words they come from
    words = list(colored_compositions(4))
    first_word, first_pair = {}, {}
    occurrences = 0
    for left in words:
        for right in words:
            got = mr.internal_structure(left, right)
            assert got == _mr_reference(left, right), (left, right)
            _assert_frozen(got)
            for pair in got:
                assert first_word.setdefault(pair[0], pair[0]) is pair[0]
                assert first_pair.setdefault(pair, pair) is pair
            occurrences += len(got)
    assert occurrences > 2 * len(first_pair)  # most pairs recur
    # a word of degree 2 that (a, a) * (b) and (b) * (a, a) both produce
    a, b = (1, 0), (2, 1)
    (x, _), = mr.internal_structure((a, a), (b,))
    (y, _), = mr.internal_structure((b,), (a, a))
    assert x == y == ((1, 1), (1, 1)) and x is y
    for I in compositions(4):
        for J in compositions(4):
            assert sym.internal_structure(I, J) == _sym_reference(I, J)


def test_peeled_constants_edge_cases():
    a, b = (1, 0), (2, 1)
    cases = ((sym.internal_structure, 1, (1, 2)), (mr.internal_structure, a, (a, b)))
    for structure, one, word in cases:
        # the empty words: the unit of degree 0, and nothing across degrees
        assert structure((), ()) == (((), 1),)
        assert structure((), (one,)) == ()
        assert structure((one,), ()) == ()
        # pairs of unequal degree
        assert structure(word, (one,)) == ()
        assert structure((one,), word) == ()
        assert structure(word, word + (one,)) == ()
    # a one-letter word against a long word: S_n is the unit of degree n
    # on the right, and reads the right word on the left
    long = (1, 2, 1, 3)
    assert sym.internal_structure((7,), long) == ((long, 1),)
    assert sym.internal_structure(long, (7,)) == ((long, 1),)
    colored = ((1, 0), (2, 1), (1, 1), (3, 0))
    barred = tuple((s, 1 - c) for s, c in colored)
    assert mr.internal_structure(((7, 0),), colored) == ((colored, 1),)
    assert mr.internal_structure(((7, 1),), colored) == ((barred, 1),)
    assert mr.internal_structure(colored, ((7, 0),)) == ((colored, 1),)
    assert mr.internal_structure(colored, ((7, 1),)) == ((barred, 1),)
    for I, J in (((7,), long), (long, (7,)), ((1, 6), long)):
        assert sym.internal_structure(I, J) == _sym_reference(I, J)
    cases = ((((7, 1),), colored), (colored, ((7, 1),)), (((1, 1), (6, 0)), colored))
    for left, right in cases:
        assert mr.internal_structure(left, right) == _mr_reference(left, right)


# ---- the product kernels: words as keys, and rationals accumulated as integers

# Q, Q(zeta_1) and Q(zeta_2) run on integers, Q(q) with constant
# denominators on integers at q = 2^B; Q(zeta_3) runs the field's own
# arithmetic
FIELDS = (QQ, cyclotomic_field(1), cyclotomic_field(2), cyclotomic_field(3), QQq)


def _generator(ring):
    return {QQ: Fraction(1), QQq: QQq.q}.get(ring) or ring.zeta


def _random_element(cls, keys, ring, rng):
    gen = _generator(ring)
    terms = {
        k: ring(Fraction(rng.randint(-6, 6), rng.randint(2, 6))) * gen ** rng.randint(0, 2)
        for k in rng.sample(keys, 5)
    }
    return cls(ring, "S", terms)


def _word_keyed_loop(op, f, g):
    """op(f, g) for operands over S, over every pair of terms in the field's
    own arithmetic, with no grouping by degree and no integer clearing;
    cancelled keys are dropped once, at the end, as Element does."""
    if op is mr.product:
        out = algebra._concatenate(f.terms, g.terms, f.key_degree, inf)
    else:
        out = {}
        for I, cu in f.terms.items():
            for J, cv in g.terms.items():
                if f.key_degree(I) == f.key_degree(J):
                    c = cu * cv
                    for K, mult in f.structure(I, J):
                        s = out.get(K)
                        out[K] = mult * c if s is None else s + mult * c
    return {K: c for K, c in out.items() if c}


def _check_kernel(op, f, g):
    """op(f, g) has the terms of the word-keyed loop, in the same order and
    of the same type: Fractions over Q, and over Q(zeta_r) Cyclo values of
    the field with the vectors and denominators of Cyclo arithmetic."""
    out = op(f, g)
    ring = f.ring
    assert out.ring is ring
    expected = _word_keyed_loop(op, f, g)
    assert list(out.terms.items()) == list(expected.items())
    for c, e in zip(out.terms.values(), expected.values()):
        assert c and type(c) is type(e)
        if ring is QQ:
            assert type(c) is Fraction
        elif ring is not QQq:
            assert type(c) is Cyclo and c.field is ring and (c.vec, c.den) == (e.vec, e.den)
    return out


def test_rational_products_match_the_generic_loop():
    rng = random.Random(8)
    sym_keys = [I for n in range(1, 5) for I in compositions(n)]
    mr_keys = [J for n in range(1, 4) for J in colored_compositions(n)]
    for ring in FIELDS:
        for _ in range(15):
            f, g = (_random_element(sym.SymElement, sym_keys, ring, rng) for _ in range(2))
            _check_kernel(sym.internal_product, f, g)
            f, g = (_random_element(mr.MrElement, mr_keys, ring, rng) for _ in range(2))
            _check_kernel(mr.internal_product, f, g)
            _check_kernel(mr.product, f, g)


def test_internal_products_read_the_cached_structure_for_every_pair():
    # the functools caches of the structure callables are the one cache of
    # constants: once cleared, a repeated product computes its constants again
    rng = random.Random(20)
    cases = (
        (sym, sym.SymElement, list(compositions(4))),
        (mr, mr.MrElement, list(colored_compositions(3))),
    )
    for module, cls, keys in cases:
        for ring in (QQ, cyclotomic_field(3)):
            f, g = (_random_element(cls, keys, ring, rng) for _ in range(2))
            first = module.internal_product(f, g)
            assert first
            module.internal_structure.cache_clear()
            again = module.internal_product(f, g)
            assert module.internal_structure.cache_info().misses > 0
            assert list(again.terms.items()) == list(first.terms.items())


def test_rational_products_drop_cancelled_keys():
    def S(key, c):
        return sym.monomial(QQ, key, c)

    def M(key, c):
        return mr.monomial(QQ, key, c)

    a = (1, 0)
    cases = [
        # S11 * S11 = 2 S11 and S2 * S11 = S11, so S11 cancels
        (
            sym.internal_product,
            S((1, 1), Fraction(1, 2)) + S((2,), -1) + S((1, 2), Fraction(1, 5)),
            S((1, 1), 1) + S((3,), Fraction(1, 6)),
            S((1, 2), Fraction(1, 30)),
        ),
        # the same with integer coefficients, so that nothing is divided
        (
            sym.internal_product,
            S((1, 1), 1) + S((2,), -2) + S((1, 2), 1),
            S((1, 1), 1) + S((3,), 1),
            S((1, 2), 1),
        ),
        # (1/2 a + 1/3 aa)(aa - 3/2 a): the two aaa terms cancel
        (
            mr.product,
            M((a,), Fraction(1, 2)) + M((a, a), Fraction(1, 3)),
            M((a, a), 1) + M((a,), Fraction(-3, 2)),
            M((a, a), Fraction(-3, 4)) + M((a, a, a, a), Fraction(1, 3)),
        ),
        # both terms of u give 1/6 S[1,-1] against v, with opposite signs
        (
            mr.internal_product,
            M(((2, 1),), Fraction(1, 2)) + M((a, a), Fraction(-1, 2)),
            M(((1, 1), a), Fraction(1, 3)),
            M(((1, 1), a), Fraction(-1, 6)),
        ),
    ]
    for ring in FIELDS:
        # over Q(zeta_3) and Q(q) the left factor is scaled by the generator,
        # so that the coefficients are not all rational
        gen = _generator(ring)
        for op, u, v, product in cases:
            u, v = u.with_ring(ring).scaled(gen), v.with_ring(ring)
            out = _check_kernel(op, u, v)
            assert out == product.with_ring(ring).scaled(gen), (ring, op)
            assert list(out.terms) == list(product.terms)


def _substituted_by_field(terms, table):
    """Word substitution in the field's own arithmetic, with no integer
    clearing; cancelled keys stay, with zero coefficients."""
    out = {}
    for key, c in terms.items():
        for new_key, mult in table(key):
            s = out.get(new_key)
            out[new_key] = mult * c if s is None else s + mult * c
    return out


def _assert_same_terms(got, expected, ring):
    # keys, their order, the kept zero keys, and values of the field's type
    assert list(got.items()) == list(expected.items())
    for c, e in zip(got.values(), expected.values()):
        if ring is QQ:
            assert type(c) is Fraction
        elif ring is not QQq:
            assert type(c) is Cyclo and c.field is ring and (c.vec, c.den) == (e.vec, e.den)


def test_word_substitution_matches_the_field_loop():
    # ribbons to complete words and back, and forgetting colours: over Q,
    # Q(zeta_1), Q(zeta_2) and Q(q) on integers, over Q(zeta_3) in the
    # field's arithmetic
    rng = random.Random(21)
    sym_keys = [I for n in range(1, 6) for I in compositions(n)]
    mr_keys = [J for n in range(1, 4) for J in colored_compositions(n)]
    tables = (
        (partial(algebra._ribbon_table, add, True), sym.SymElement, sym_keys),
        (partial(algebra._ribbon_table, add, False), sym.SymElement, sym_keys),
        (mr._forget_colors, mr.MrElement, mr_keys),
    )
    for ring in FIELDS:
        for table, cls, keys in tables:
            for _ in range(10):
                terms = _random_element(cls, keys, ring, rng).terms
                got = algebra.expand(terms, table)
                _assert_same_terms(got, _substituted_by_field(terms, table), ring)
        # R_11 + R_2 = S_11 - S_2 + S_2: the key S_2 stays, with a zero
        gen = _generator(ring)
        terms = {(1, 1): gen * Fraction(1, 3), (2,): gen * Fraction(1, 3)}
        table = tables[0][0]
        got = algebra.expand(terms, table)
        _assert_same_terms(got, _substituted_by_field(terms, table), ring)
        assert list(got) == [(1, 1), (2,)] and not got[(2,)]


# ---- Q(q) values cleared to integer polynomials: Kronecker substitution


def _zq(coeffs, den=1):
    """The rational function (sum of coeffs[i] q^i) / den."""
    q = QQq.q
    return sum((c * q**i for i, c in enumerate(coeffs)), QQq.zero) / den


def _random_zq(rng, top=9):
    # signed coefficients over a constant denominator; the values (2q + 4)/6
    # and the like leave content for the constructor to cancel
    coeffs = [rng.randint(-top, top) for _ in range(rng.randint(1, 4))]
    return _zq(coeffs, rng.choice((1, 1, 2, 3, 6)))


# denominators with shared factors (1 - q, 1 + q) and an integer content, so
# that the lcm of an operand's denominators is a proper multiple of each
_DENOMINATORS = ((1, -1), (1, 1), (1, 0, -1), (2, 4), (1, -1, 0, 1), (3, 0, 3), (1, -2, 1))


def _random_qq(rng):
    return _random_zq(rng) / _zq(rng.choice(_DENOMINATORS))


def _check_over_integers(kernel, operands, *args):
    """The kernel through scalars.over_integers, on the Kronecker path,
    against the same kernel in RatFunc arithmetic: keys, their order, the
    kept zero keys and canonical RatFunc values."""
    calls = []

    def spy(*call):
        calls.append(call[: len(operands)])
        return kernel(*call)

    got = scalars.over_integers(spy, operands, *args)
    # the height run on the l1 norms, then the run on the encoded ints
    assert len(calls) == 2
    assert all(type(c) is int for terms in calls[1] for c in terms.values())
    expected = kernel(*operands, *args)
    assert list(got.items()) == list(expected.items())
    for c, e in zip(got.values(), expected.values()):
        assert type(c) is RatFunc and (c._num, c._den) == (e._num, e._den)
    return got


def _kernel_cases(u_sym, v_sym, u_mr, v_mr, u_perm, v_perm):
    """(kernel, operands, args) for the four kernels behind over_integers;
    the sym operands are over compositions, the mr ones over colored
    compositions and the perm ones over permutations of one degree."""
    ribbons = partial(algebra._ribbon_table, add, True)
    return [
        (algebra._internal, (u_sym, v_sym), (sym.internal_structure, sum)),
        (algebra._internal, (u_mr, v_mr), (mr.internal_structure, mr.MrElement.key_degree)),
        (algebra._concatenate, (u_mr, v_mr), (mr.MrElement.key_degree, inf)),
        (algebra._concatenate, (u_sym, v_sym), (sum, 4)),
        (algebra._expand, (u_sym,), (ribbons,)),
        (algebra._expand, (u_sym,), (partial(algebra._ribbon_table, add, False),)),
        (algebra._expand, (u_mr,), (mr._forget_colors,)),
        (algebra._compositions, (u_perm, v_perm), ()),
    ]


def test_kronecker_kernels_match_ratfunc_arithmetic():
    rng = random.Random(22)
    sym_keys = [I for n in range(1, 5) for I in compositions(n)]
    mr_keys = [J for n in range(1, 4) for J in colored_compositions(n)]
    perms = list(itertools.permutations(range(1, 5)))

    def operand(keys, size):
        return {k: _random_zq(rng) for k in rng.sample(keys, size)}

    for _ in range(12):
        cases = _kernel_cases(
            operand(sym_keys, 6), operand(sym_keys, 6),
            operand(mr_keys, 6), operand(mr_keys, 6),
            operand(perms, 5), operand(perms, 5),
        )
        for kernel, operands, args in cases:
            _check_over_integers(kernel, operands, *args)
    # the same with non-constant denominators, distinct within each operand
    for _ in range(6):
        dicts = []
        for keys, size in ((sym_keys, 4), (sym_keys, 4), (mr_keys, 4), (mr_keys, 4), (perms, 3), (perms, 3)):
            values = {}
            while len(values) < size:
                x = _random_qq(rng)
                if len(x._den) > 1:
                    values.setdefault(x._den, x)
            dicts.append(dict(zip(rng.sample(keys, size), values.values())))
        for kernel, operands, args in _kernel_cases(*dicts):
            _check_over_integers(kernel, operands, *args)
    # R_111 = S_111 - S_12 - S_21 + S_3, R_12 = S_12 - S_3, R_21 = S_21 - S_3
    # and R_3 = S_3: the S_3 sums cancel, to 0 in the first case and to the
    # denominator 1 in the second, with all the operands' denominators
    # non-constant
    q = QQq.q
    one = QQq.one
    ribbons = partial(algebra._ribbon_table, add, True)
    cases = (
        ((one / (1 - q), one / (1 + q), 2 / (1 - q**2), 2 / (1 + q)), QQq.zero),
        ((one / (1 - q), QQq.zero, 2 * q / (1 - q**2), q / (1 + q)), QQq.one),
    )
    for (u111, u12, u21, u3), s3 in cases:
        terms = {(1, 1, 1): u111, (1, 2): u12, (2, 1): u21, (3,): u3}
        terms = {k: c for k, c in terms.items() if c}
        assert all(len(c._den) > 1 for c in terms.values())
        got = _check_over_integers(algebra._expand, (terms,), ribbons)
        assert (3,) in got and got[(3,)] == s3 and got[(3,)]._den == (1,)


def test_kronecker_kernels_at_the_height_bound():
    # one term per operand and one multiplier of absolute value 1 per result
    # coefficient, so the l1 bound is attained: the results reach the
    # height 2^k - 1 = 2^(B-1) - 1, and a B one bit short decodes them
    # wrongly
    for k in (1, 7, 31, 64, 100):
        big = 2**k - 1
        cases = _kernel_cases(
            {(2,): _zq((0, big))}, {(2,): _zq((0, 1))},
            {((1, 0),): _zq((0, 0, big))}, {((1, 0),): _zq((1,))},
            {(1, 2, 3): _zq((big,))}, {(3, 1, 2): _zq((0, 1))},
        )
        ribbons = cases[4][2]
        cases.append((algebra._expand, ({(1, 1): _zq((0, -big))},), ribbons))
        for kernel, operands, args in cases:
            got = _check_over_integers(kernel, operands, *args)
            assert max(abs(c) for v in got.values() for c in v._num) == big, (k, kernel)
        # -R_11 + R_2 = -S_11 + 2 S_2: the signed multiplier of R_11 adds to
        # the bound of S_2, where the norms alone would cancel to 0
        terms = {(1, 1): _zq((0, -big)), (2,): _zq((0, big))}
        got = _check_over_integers(algebra._expand, (terms,), *ribbons)
        assert got[(2,)] == _zq((0, 2 * big))


def test_kronecker_keeps_cancelled_keys_and_reduces_constant_denominators():
    p = _zq((1, -3, 0, 2))
    # S11 * S11 = 2 S11 and S2 * S11 = S11: the key S11 cancels
    u = {(1, 1): p / 3, (2,): -2 * p / 3, (1, 2): _zq((2, 4), 6)}
    v = {(1, 1): _zq((0, 5), 2), (3,): _zq((3,), 2)}
    got = _check_over_integers(algebra._internal, (u, v), sym.internal_structure, sum)
    assert (1, 1) in got and got[(1, 1)] == 0
    # S3 is the unit in degree 3: (4q + 2)/6 * 3/2 = (2q + 1)/2, the
    # content 3 of the integer sum cancelling against the denominator 12
    assert got[(1, 2)] == _zq((1, 2), 2)
    # R_11 + R_2 = S_11 - S_2 + S_2: the key S_2 stays, with a zero
    terms = {(1, 1): _zq((-1, 0, 7), 6), (2,): _zq((-1, 0, 7), 6)}
    got = _check_over_integers(algebra._expand, (terms,), partial(algebra._ribbon_table, add, True))
    assert list(got) == [(1, 1), (2,)] and got[(2,)] == 0
    # and the zero RatFunc is the canonical zero
    assert (got[(2,)]._num, got[(2,)]._den) == ((), (1,))
    # zero values bound no result, so the operands' own heights keep their
    # encodings apart: at q = 2, the values 2 and q would fall into one
    # coefficient class of _compositions and reorder its keys
    u = {(1, 2, 3): _zq((2,)), (2, 1, 3): _zq((0, 1))}
    v = {(1, 2, 3): QQq.zero, (3, 1, 2): QQq.zero}
    got = _check_over_integers(algebra._compositions, (u, v))
    assert len(got) == 4 and not any(got.values())


def test_rational_functions_clear_to_the_lcm_of_their_denominators():
    q = QQq.q
    terms = {(1,): q, (2,): 1 / (1 - q), (3,): q / (1 - q**2)}
    calls = []

    def identity(t):
        calls.append(t)
        return dict(t)

    assert scalars.over_integers(identity, (terms,)) == terms
    # the height run on the l1 norms, then the run on T(2^B) for the
    # cleared integer polynomials T = m * terms
    norms, encoded = calls
    bits = max(norms.values()).bit_length() + 1
    cleared = {k: scalars._from_kronecker(bits, v, (1,)) for k, v in encoded.items()}
    # the lcm m is q^2 - 1, with a positive leading coefficient
    m = RatFunc((-1, 0, 1))
    assert all(cleared[k] == c * m for k, c in terms.items())
    # a Fraction among RatFuncs is not cleared: the field path takes it
    calls.clear()
    mixed = {(1,): q, (2,): Fraction(1, 2)}
    assert scalars.over_integers(identity, (mixed,)) == mixed
    assert calls == [mixed]


def test_rational_times_cyclotomic_product():
    field = cyclotomic_field(3)
    f = sym.monomial(QQ, (1, 1), Fraction(1, 2)) + sym.monomial(QQ, (2,), Fraction(1, 3))
    g = sym.monomial(field, (1, 1), field.zeta)
    out = sym.internal_product(f, g)
    assert out.ring is field
    assert all(type(c) is Cyclo for c in out.terms.values())
    assert out == sym.internal_product(f.with_ring(field), g)
    assert out == sym.monomial(field, (1, 1), field.zeta * Fraction(4, 3))


def test_word_elements_compare_across_bases():
    # S_2 = R_2, while S_(1,1) = R_(1,1) + R_2
    assert sym.monomial(QQ, (2,), basis=sym.S) == sym.monomial(QQ, (2,), basis=sym.R)
    assert sym.monomial(QQ, (2,), basis=sym.R) == sym.monomial(QQ, (2,), basis=sym.S)
    assert sym.monomial(QQ, (1, 1), basis=sym.S) != sym.monomial(QQ, (1, 1), basis=sym.R)
    s11 = sym.monomial(QQ, (1, 1), basis=sym.S)
    assert s11 == sym.monomial(QQ, (1, 1), basis=sym.R) + sym.monomial(QQ, (2,), basis=sym.R)
    letter = ((2, 1),)
    assert mr.monomial(QQ, letter, basis=mr.S) == mr.monomial(QQ, letter, basis=mr.R)


def test_elements_over_rings_with_no_common_field_are_unequal():
    field = cyclotomic_field(3)
    assert (field.one == QQq.one) is False
    cyclotomic, symbolic = sym.unit(field), sym.unit(QQq)
    assert (cyclotomic == symbolic) is False
    assert (symbolic == cyclotomic) is False
    assert cyclotomic != symbolic
    # Q embeds in both, so a rational element still compares by value
    assert sym.unit(QQ) == cyclotomic and sym.unit(QQ) == symbolic


def test_elements_of_different_groups_stay_unequal():
    sn = delta(QQ, (1,), oracle.SYMMETRIC)
    bn = delta(QQ, (1,), oracle.HYPEROCTAHEDRAL)
    assert sn != bn and bn != sn
    assert sn == delta(QQ, (1,), oracle.SYMMETRIC)
    # each group is an algebra of its own, with no change of basis between
    for f, basis in ((sn, oracle.HYPEROCTAHEDRAL), (bn, oracle.SYMMETRIC)):
        with pytest.raises(ValueError) as exc:
            f.convert(basis)
        assert oracle.SYMMETRIC in str(exc.value) and oracle.HYPEROCTAHEDRAL in str(exc.value)
    assert sn.convert(oracle.SYMMETRIC) is sn


def test_word_element_times_a_scalar_scales_it():
    f = sym.SymElement(QQ, sym.S, {(1, 2): Fraction(1, 2), (3,): Fraction(-1)})
    assert (f * 3).terms == {(1, 2): Fraction(3, 2), (3,): Fraction(-3)}
    assert f * Fraction(2, 3) == f.scaled(Fraction(2, 3))
    assert (f * 0).terms == {}
    field = cyclotomic_field(3)
    g = mr.MrElement(field, mr.S, {((1, 1),): field.one})
    assert (g * field.zeta).terms == {((1, 1),): field.zeta}


def test_element_repr_of_zero_and_of_many_terms():
    assert repr(sym.SymElement.zero(QQ, sym.S)) == "SymElement<S>(0)"
    assert repr(mr.MrElement.zero(QQ, mr.R)) == "MrElement<R>(0)"
    # eight terms in key order, then the count
    keys = sorted(compositions(4)) + [(5,)]
    f = sym.SymElement(QQ, sym.S, {I: Fraction(i + 1, 2) for i, I in enumerate(keys)})
    assert repr(f) == (
        "SymElement((1/2)*S[1,1,1,1] + (1)*S[1,1,2] + (3/2)*S[1,2,1] + (2)*S[1,3]"
        " + (5/2)*S[2,1,1] + (3)*S[2,2] + (7/2)*S[3,1] + (4)*S[4] ... (9 terms))"
    )
    eight = sym.SymElement(QQ, sym.S, {I: 1 for I in keys[:8]})
    assert "..." not in repr(eight) and repr(eight).count("*S[") == 8
    assert repr(mr.MrElement(QQ, mr.S, {((1, 1), (2, 0)): QQ(-1)})) == "MrElement((-1)*S[-1,2])"


def test_misused_elements_raise_or_compare_unequal():
    with pytest.raises(ValueError, match="unknown basis 'X' for sym"):
        sym.SymElement(QQ, "X")
    f = sym.SymElement(QQ, sym.S, {(1,): QQ(1)})
    # elements of different algebras, or of one algebra in different bases
    with pytest.raises(TypeError, match="expected a SymElement"):
        f + mr.MrElement(QQ, mr.S, {((1, 0),): QQ(1)})
    with pytest.raises(ValueError, match="basis mismatch: S vs R"):
        f + sym.SymElement(QQ, sym.R, {(1,): QQ(1)})
    # a non-element is never equal, even to the unit or to its terms
    for other in (1, QQ(1), f.terms, "S[1]", None):
        assert (f == other) is False and (f != other) is True
    assert (sym.unit(QQ) == 1) is False
