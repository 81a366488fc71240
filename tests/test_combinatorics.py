import doctest
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import peakforge.combinatorics as comb
from peakforge.combinatorics import (
    barred_weight,
    colored_compositions,
    compositions,
    descent_composition,
    flag_major_index,
    flag_major_index_by_weights,
    format_colored_composition,
    inverse,
    left_right_minima,
    major_index,
    merged_shape,
    parse_colored_composition,
    part_weights,
    permutations,
    signed_descent_composition,
    standardize,
    standardize_signed,
    standardized_shape,
    type_b_compositions,
)
import reference_permutations
from reference_permutations import (
    compose,
    compose_signed,
    composition_from_descents,
    descent_positions,
    hook_size,
    signed_descent_set,
    weak_order_ideal,
    weak_order_leq,
)

BIG_SIGNED_J = ((2, 0), (1, 0), (1, 0), (3, 1), (1, 1), (2, 1), (4, 0), (1, 1), (2, 0), (2, 0))


def test_module_doctests():
    for module in (comb, reference_permutations):
        failures, _ = doctest.testmod(module)
        assert failures == 0


# ---- descent compositions and major index


def test_descent_composition_examples():
    assert descent_composition((1, 2, 3, 4)) == (4,)
    assert descent_composition((4, 3, 2, 1)) == (1, 1, 1, 1)
    assert descent_composition((4, 6, 7, 3, 5, 1, 8, 2)) == (3, 2, 2, 1)


def test_major_index_examples():
    assert major_index((5,)) == 0
    assert major_index((2, 1, 1, 3, 1, 6, 3, 2)) == 55
    assert major_index((1, 1)) == 1


def test_descent_classes_partition_the_group():
    for n in range(8):
        total = 0
        counts = {I: 0 for I in compositions(n)}
        for p in permutations(n):
            counts[descent_composition(p)] += 1
            total += 1
        assert total == sum(counts.values())
        assert all(c > 0 for c in counts.values())


# ---- standardization


def test_standardize_examples():
    assert standardize((3, 1, 2)) == (3, 1, 2)
    assert standardize("baa") == (3, 1, 2)
    assert standardize("aba") == (1, 3, 2)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=8), st.integers(1, 5))
def test_standardize_is_order_isomorphism_invariant(word, scale):
    # applying a strictly increasing map to the letters preserves the result
    mapped = [scale * (x + 1) for x in word]
    assert standardize(word) == standardize(mapped)
    assert descent_composition(standardize(word)) == descent_composition(
        standardize(mapped)
    )


def test_standardize_signed_long_word():
    barred = {2, 6, 9, 8, 7, 11, 15}
    values = (1, 5, 4, 3, 2, 6, 9, 8, 7, 11, 10, 12, 13, 16, 15, 14, 18, 17, 19)
    pairs = tuple((v, 1 if v in barred else 0) for v in values)
    assert standardize_signed(pairs) == (
        8, 11, 10, 9, 1, 2, 5, 4, 3, 6, 12, 13, 14, 16, 7, 15, 18, 17, 19,
    )


def test_standardize_signed_rejects_duplicates():
    with pytest.raises(ValueError):
        standardize_signed(((1, 0), (1, 0)))


def test_standardize_signed_identity_on_unbarred():
    for p in permutations(4):
        pairs = tuple((v, 0) for v in p)
        assert standardize_signed(pairs) == p


# ---- signed permutations and type-B compositions


def test_signed_descent_composition_examples():
    w = (-2, 3, 1, -5, 4, 6)
    assert signed_descent_composition(w) == (0, 2, 1, 3)
    # all-plus identity has no descents
    assert signed_descent_composition((1, 2, 3, 4, 5, 6)) == (6,)
    # same underlying permutation, single bar at position 4
    assert signed_descent_composition((2, 3, 1, -5, 4, 6)) == (2, 1, 3)


def test_signed_descent_composition_is_the_type_a_scan_of_0w():
    # the one scan of 0w against the successive gaps of w's descent set,
    # the empty word included
    for n in range(7):
        for w in comb.signed_permutations(n):
            expected = composition_from_descents(signed_descent_set(w), n)
            assert signed_descent_composition(w) == expected, w


def test_type_b_compositions_count():
    for n in range(1, 7):
        comps = list(type_b_compositions(n))
        assert len(comps) == 2**n
        assert len(set(comps)) == 2**n


def test_exact_type_b_descent_classes_partition():
    for n in range(1, 5):
        seen = {}
        for w in comb.signed_permutations(n):
            seen.setdefault(signed_descent_composition(w), []).append(w)
        assert sum(len(v) for v in seen.values()) == 2**n * _factorial(n)
        assert set(seen) <= set(type_b_compositions(n))


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


# ---- rho, bmaj


def test_shape_long_example():
    assert standardized_shape(BIG_SIGNED_J) == (2, 1, 1, 3, 1, 6, 3, 2)
    assert merged_shape(BIG_SIGNED_J) == (2, 1, 1, 3, 1, 6, 3, 2)


def test_shape_trivial_cases():
    assert standardized_shape(((2, 1),)) == (2,)
    assert merged_shape(((1, 1), (1, 0))) == (2,)
    for jc in colored_compositions(4):
        if all(c == 0 for _, c in jc):
            assert standardized_shape(jc) == tuple(s for s, _ in jc)


def test_flag_major_index_examples():
    assert flag_major_index(BIG_SIGNED_J) == 117
    assert flag_major_index_by_weights(BIG_SIGNED_J) == 117
    assert part_weights(BIG_SIGNED_J) == (14, 12, 10, 9, 7, 5, 4, 3, 2, 0)
    assert flag_major_index(((5, 0),)) == 0
    assert flag_major_index(((1, 1), (1, 0))) == 1
    assert flag_major_index_by_weights(((2, 1),)) == 2
    assert flag_major_index_by_weights(((1, 1), (1, 1))) == 4


def test_shape_and_flag_major_agree_up_to_weight_7():
    for n in range(8):
        for jc in colored_compositions(n):
            assert standardized_shape(jc) == merged_shape(jc)
            assert flag_major_index(jc) == flag_major_index_by_weights(jc)


def test_shape_independent_of_representative():
    for n in range(7):
        for jc in colored_compositions(n):
            shape = tuple(s for s, _ in jc)
            expected = standardized_shape(jc)
            for p in comb.permutations_by_descent(n)[shape]:
                pairs = []
                i = 0
                for size, color in jc:
                    for _ in range(size):
                        pairs.append((p[i], color))
                        i += 1
                got = descent_composition(standardize_signed(tuple(pairs)))
                assert got == expected


# ---- left-right minima, hooks, weak order


def test_left_right_minima_examples():
    assert left_right_minima((4, 6, 7, 3, 5, 1, 8, 2)) == (frozenset({4, 3, 1}), 3)
    assert left_right_minima((1, 2, 3)) == (frozenset({1}), 1)
    assert left_right_minima((4, 3, 2, 1)) == (frozenset({1, 2, 3, 4}), 4)


def test_hook_size_examples():
    assert hook_size((1, 2, 3, 4)) == 0
    assert hook_size((4, 3, 2, 1)) == 3
    assert hook_size((1, 3, 2, 4)) is None


def test_weak_order_ideal_examples():
    assert weak_order_ideal((2, 3, 1)) == frozenset({(1, 2, 3), (2, 1, 3), (2, 3, 1)})
    assert weak_order_ideal((1, 2, 3, 4)) == frozenset({(1, 2, 3, 4)})
    assert len(weak_order_ideal((3, 2, 1))) == 6


def test_weak_order_ideal_matches_mask_order():
    for n in range(1, 6):
        for v in itertools.islice(permutations(n), 0, None, 7):
            ideal = weak_order_ideal(v)
            by_mask = {u for u in permutations(n) if weak_order_leq(u, v)}
            assert ideal == frozenset(by_mask)


def test_weak_order_ideal_downward_closed():
    for v in permutations(4):
        ideal = weak_order_ideal(v)
        for u in ideal:
            assert weak_order_ideal(u) <= ideal


def test_permutations_by_descent_matches_the_descent_sets():
    # the one-scan composition against the one built from the descent set
    for n in range(8):
        table = comb.permutations_by_descent(n)
        expected = {I: [] for I in compositions(n)}
        for p in permutations(n):
            I = composition_from_descents(descent_positions(p), n)
            assert descent_composition(p) == I
            expected[I].append(p)
        assert list(table) == list(expected)
        for I, perms in expected.items():
            assert type(table[I]) is tuple
            assert table[I] == tuple(perms)


def test_cached_tables_are_read_only():
    with pytest.raises(TypeError):
        comb.permutations_by_descent(3)[(3,)] = ()
    with pytest.raises(TypeError):
        comb.inverse_inversion_masks(2)[(2, 1)] = 0
    with pytest.raises(TypeError):
        comb.signed_permutations_by_descent(2)[(2,)] = ()
    assert comb.permutations_by_descent(3)[(3,)] == ((1, 2, 3),)
    assert comb.inverse_inversion_masks(2)[(2, 1)] == 1


# ---- parsing and formatting


def test_parsing_round_trips():
    assert parse_colored_composition("2,1,1,-3,-1,-2,4,-1,2,2") == BIG_SIGNED_J
    assert parse_colored_composition("3~1,2~0", colors=2) == ((3, 1), (2, 0))
    assert parse_colored_composition("1~2,2~0", colors=3) == ((1, 2), (2, 0))
    assert format_colored_composition(BIG_SIGNED_J) == "2,1,1,-3,-1,-2,4,-1,2,2"


def test_inverse_and_compose():
    for p in permutations(4):
        assert compose(p, inverse(p)) == (1, 2, 3, 4)
        assert compose(inverse(p), p) == (1, 2, 3, 4)
    u, v = (-2, 3, 1), (3, -1, 2)
    w = compose_signed(u, v)
    # w(i) = u(v(i)) with sign transport
    assert w == (1, 2, 3)
