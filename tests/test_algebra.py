import itertools
import random
from fractions import Fraction
from math import inf

from peakforge import algebra, mr, sym
from peakforge.combinatorics import colored_compositions, compositions
from peakforge.scalars import QQ, Cyclo, QQq, cyclotomic_field

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


# ---- the product kernels: word ids, and rationals accumulated as integers

# Q, Q(zeta_1) and Q(zeta_2) run on integers; Q(zeta_3) and Q(q) run the
# field's own arithmetic, on word ids like the others
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
    """op(f, g) for operands over S, accumulated on word keys in the field's
    own arithmetic, with no word ids and no integer clearing."""
    if op is mr.product:
        return algebra._concatenate(f.terms, g.terms, f.key_degree, inf)
    out = {}
    for I, cu in f.terms.items():
        for J, cv in g.terms.items():
            if f.key_degree(I) != f.key_degree(J):
                continue
            c = cu * cv
            for K, mult in f.structure(I, J):
                s = out.get(K)
                s = mult * c if s is None else s + mult * c
                if s:
                    out[K] = s
                else:
                    out.pop(K, None)
    return out


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


def test_rational_times_cyclotomic_product():
    field = cyclotomic_field(3)
    f = sym.monomial(QQ, (1, 1), Fraction(1, 2)) + sym.monomial(QQ, (2,), Fraction(1, 3))
    g = sym.monomial(field, (1, 1), field.zeta)
    out = sym.internal_product(f, g)
    assert out.ring is field
    assert all(type(c) is Cyclo for c in out.terms.values())
    assert out == sym.internal_product(f.with_ring(field), g)
    assert out == sym.monomial(field, (1, 1), field.zeta * Fraction(4, 3))
