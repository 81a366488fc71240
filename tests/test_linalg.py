import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakforge import scalars
from peakforge.linalg import GradedSubspace
from peakforge.scalars import QQ, QQq, Cyclo, cyclotomic_field


def _space(track=False):
    return GradedSubspace(QQ, ["a", "b", "c", "d"], track=track)


def test_insert_zero_does_not_grow():
    s = _space()
    assert s.insert({}) is False
    assert s.insert({"a": 0}) is False
    assert s.rank == 0


def test_insert_basis_vector():
    s = _space()
    assert s.insert({"a": 1}) is True
    assert s.rank == 1


def test_gaussian_elimination_example():
    s = _space()
    assert s.insert({"a": 1, "b": 1})
    assert s.insert({"a": 1})
    assert not s.insert({"b": 1})
    assert s.rank == 2


def test_contains():
    s = _space()
    assert s.contains({})
    s.insert({"a": 1})
    assert not s.contains({"b": 1})
    t = _space()
    t.insert({"a": 1, "b": 1})
    t.insert({"a": 1, "b": -1})
    assert t.contains({"b": 1})
    assert t.contains({"a": Fraction(1, 3)})


def test_unknown_key_raises():
    s = _space()
    with pytest.raises(KeyError):
        s.insert({"z": 1})


def test_ring_mismatch_raises():
    from peakforge.scalars import QQq

    s = _space()
    with pytest.raises(TypeError):
        s.insert({"a": QQq.q})


def test_entries_of_another_cyclotomic_field_are_refused():
    field = cyclotomic_field(3)
    s = GradedSubspace(field, ["x", "y"])
    with pytest.raises(TypeError):
        s.insert({"x": cyclotomic_field(5).zeta})
    with pytest.raises(TypeError):
        s.contains({"x": field.one, "y": cyclotomic_field(5).one})
    # an int or a Fraction entry is still coerced into the span's field
    assert s.insert({"x": 2, "y": Fraction(1, 2)})
    assert s.contains({"x": field(4), "y": 1})
    assert s.basis() == [{"x": field.one, "y": field(Fraction(1, 4))}]
    assert all(type(c) is Cyclo for row in s.basis() for c in row.values())
    # a span over Q holds Fractions and refuses every Cyclo entry, even one
    # of Q(zeta_1)
    rational = GradedSubspace(QQ, ["x"])
    with pytest.raises(TypeError):
        rational.insert({"x": cyclotomic_field(1).one})
    with pytest.raises(TypeError):
        rational.contains({"x": cyclotomic_field(1)(3)})


def test_rows_are_fully_reduced_with_unit_pivots():
    s = _space()
    s.insert({"a": 2, "b": 4, "c": 2})
    s.insert({"b": 3, "c": 3})
    pivots = s.pivot_keys()
    rows = s.basis()
    for pivot, row in zip(pivots, rows):
        assert row[pivot] == 1
        for other in pivots:
            if other != pivot:
                assert other not in row


def test_coordinates():
    s = _space(track=True)
    s.insert({"a": 1, "b": 1}, label="u")
    s.insert({"a": 1, "b": -1}, label="v")
    coords = s.coordinates({"b": 2})
    assert coords == {"u": 1, "v": -1}
    assert s.coordinates({"c": 1}) is None
    untracked = _space()
    with pytest.raises(ValueError):
        untracked.coordinates({"a": 1})


def test_tracked_span_shows_only_ambient_keys():
    vectors = [{"a": 1, "b": 1}, {"b": 1, "c": 2}]
    s = _space(track=True)
    plain = _space()
    for label, v in zip("uv", vectors):
        assert s.insert(v, label=label)
        plain.insert(v)
    assert s.contains({"a": 1, "b": 2, "c": 2})
    assert not s.contains({"d": 1})
    assert not s.contains({"a": 1})
    assert s.basis() == plain.basis()
    assert s.to_json() == plain.to_json()
    assert all(set(row) <= set(s.keys) for row in s.basis())
    # a dependent vector does not grow the span, and its own label stays
    # out of the coordinates of a member
    assert s.insert({"a": 2, "b": 3, "c": 2}, label="w") is False
    assert s.rank == 2
    assert s.basis() == plain.basis()
    assert s.coordinates({"a": 1, "b": 2, "c": 2}) == {"u": 1, "v": 1}


def test_spans_over_one_key_tuple_share_their_column_lookup():
    keys = ("a", "b", "c")
    first, second = GradedSubspace(QQ, keys), GradedSubspace(QQq, keys)
    assert first._index is second._index == {"a": 0, "b": 1, "c": 2}
    first.insert({"b": 1})
    assert second.rank == 0 and first.pivot_keys() == ["b"]
    with pytest.raises(ValueError, match="duplicate ambient key 'b'"):
        GradedSubspace(QQ, ["a", "b", "b"])


def test_contains_iff_insert_does_not_grow():
    rng = random.Random(7)
    keys = list(range(6))
    s = GradedSubspace(QQ, keys)
    vectors = [
        {k: Fraction(rng.randint(-3, 3)) for k in rng.sample(keys, rng.randint(1, 4))}
        for _ in range(12)
    ]
    for v in vectors:
        was_member = s.contains(v)
        grew = s.insert(dict(v))
        assert was_member == (not grew)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    ),
    st.randoms(use_true_random=False),
)
def test_rank_independent_of_insertion_order(rows, rng):
    keys = list(range(4))
    vectors = [{k: Fraction(c) for k, c in zip(keys, row) if c} for row in rows]
    s1 = GradedSubspace(QQ, keys)
    for v in vectors:
        s1.insert(v)
    shuffled = list(vectors)
    rng.shuffle(shuffled)
    s2 = GradedSubspace(QQ, keys)
    for v in shuffled:
        s2.insert(v)
    assert s1.rank == s2.rank
    # canonical reduced echelon form: the row sets agree exactly
    assert s1.basis() == s2.basis()


def test_over_cyclotomic_field():
    field = cyclotomic_field(3)
    z = field.zeta
    s = GradedSubspace(field, ["x", "y"])
    s.insert({"x": field.one, "y": z})
    assert s.contains({"x": z, "y": z * z})
    assert not s.contains({"x": field.one, "y": field.one})
    s.insert({"x": field.one, "y": field.one})
    assert s.rank == 2


def _reference_rref(field, vectors, n):
    """Dense Gauss-Jordan elimination in plain Cyclo arithmetic: the rows
    of the reduced echelon form, with unit pivots, sorted by pivot."""
    rows = {}
    for v in vectors:
        x = [v.get(k, field.zero) for k in range(n)]
        for p, row in rows.items():
            if x[p]:
                x = [a - x[p] * b for a, b in zip(x, row)]
        pivot = next((k for k in range(n) if x[k]), None)
        if pivot is None:
            continue
        inv = x[pivot].inverse()
        x = [a * inv for a in x]
        for p, row in rows.items():
            if row[pivot]:
                rows[p] = [a - row[pivot] * b for a, b in zip(row, x)]
        rows[pivot] = x
    return [rows[p] for p in sorted(rows)]


@st.composite
def _cyclo_vectors(draw):
    """A cyclotomic field, some sparse vectors over it, and probe vectors:
    combinations of the others and arbitrary ones.  Entries are units
    +-zeta^k, which keep rows integral as the rank scans do, or small
    vectors that may carry a denominator."""
    field = cyclotomic_field(draw(st.sampled_from([1, 2, 3, 4, 6, 5])))
    n = draw(st.integers(2, 6))
    unit = st.builds(
        lambda k, sign: sign * field.zeta**k,
        st.integers(0, field.order - 1),
        st.sampled_from([1, -1]),
    )
    general = st.builds(
        lambda vec, den: Cyclo(field, vec, den),
        st.tuples(*[st.integers(-2, 2)] * field.degree),
        st.sampled_from([1, 1, 2, 3]),
    )
    entry = st.one_of(unit, general)
    vector = st.dictionaries(st.integers(0, n - 1), entry, max_size=n)
    vectors = draw(st.lists(vector, min_size=1, max_size=n + 1))
    probes = draw(st.lists(vector, max_size=2))
    for _ in range(2):
        combo = {}
        for v in vectors:
            c = draw(entry)
            for k, a in v.items():
                combo[k] = combo.get(k, field.zero) + c * a
        probes.append(combo)
    return field, n, vectors, probes


@settings(max_examples=120, deadline=None)
@given(_cyclo_vectors())
def test_cyclotomic_elimination_matches_reference(case):
    """The span over Q(zeta_r) (integer-vector kernel for degree 1 and 2)
    agrees with dense elimination in plain Cyclo arithmetic, and with the
    generic kernel entry for entry."""
    field, n, vectors, probes = case
    keys = list(range(n))
    span = GradedSubspace(field, keys, track=True)
    generic = GradedSubspace(field, keys, track=True)
    generic._subtract = scalars.subtract_multiple
    for v in vectors:
        assert span.insert(v) == generic.insert(v)
    reference = _reference_rref(field, vectors, n)
    assert span.rank == len(reference)
    assert span.basis() == [
        {k: a for k, a in zip(keys, row) if a} for row in reference
    ]
    for probe in probes:
        member = _reference_rref(field, vectors + [probe], n) == reference
        assert span.contains(probe) == member
        coords = span.coordinates(probe)
        assert coords == generic.coordinates(probe)
        if not member:
            assert coords is None
            continue
        total = {}
        for label, c in coords.items():
            for k, a in vectors[label].items():
                total[k] = total.get(k, field.zero) + c * a
        assert {k: a for k, a in total.items() if a} == {
            k: a for k, a in probe.items() if a
        }


def test_to_json_is_deterministic():
    s = _space()
    s.insert({"b": 2, "c": 1})
    s.insert({"a": 1, "c": 5})
    assert s.to_json() == s.to_json()
    assert all(isinstance(entry[1], str) for row in s.to_json() for entry in row)


def _random_rational_vector(rng, keys, basis):
    """A sparse vector with non-integer entries, or a combination of
    earlier vectors with one entry cancelled, so that reduction meets
    both fresh denominators and exact cancellations."""
    if basis and rng.random() < 0.5:
        out = {}
        for v in rng.sample(basis, min(len(basis), rng.randint(1, 3))):
            c = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 5))
            for k, a in v.items():
                out[k] = out.get(k, 0) + c * a
        if rng.random() < 0.5 and out:
            out.pop(rng.choice(sorted(out)))
        return {k: a for k, a in out.items() if a}
    return {
        k: Fraction(rng.randint(-6, 6), rng.randint(1, 7))
        for k in rng.sample(keys, rng.randint(1, len(keys)))
    }


def _as_fractions(values: dict) -> dict:
    """The entries of a Q(zeta_1) span as the Fractions they stand for."""
    return {k: c.coeffs[0] for k, c in values.items()}


def test_rational_span_matches_the_fraction_kernel():
    """A span over Q, which eliminates with the generic kernel in Fraction
    arithmetic, against a span over Q(zeta_1) on the integer kernel."""
    rng = random.Random(13)
    for _ in range(25):
        keys = [(i,) for i in range(rng.randint(3, 8))]
        span = GradedSubspace(QQ, keys, track=True)
        reference = GradedSubspace(cyclotomic_field(1), keys, track=True)
        assert span._subtract is scalars.subtract_multiple
        assert reference._subtract is not scalars.subtract_multiple
        inserted = []
        for step in range(3 * len(keys)):
            v = _random_rational_vector(rng, keys, inserted)
            action = rng.choice(("insert", "contains", "coordinates"))
            if action == "insert":
                assert span.insert(v, label=step) == reference.insert(v, label=step)
                inserted.append(v)
            elif action == "contains":
                assert span.contains(v) == reference.contains(v)
            else:
                coords = span.coordinates(v)
                reference_coords = reference.coordinates(v)
                if coords is None:
                    assert reference_coords is None
                else:
                    assert coords == _as_fractions(reference_coords)
                    assert all(type(c) is Fraction for c in coords.values())
            rows = [_as_fractions(row) for row in reference.basis()]
            assert span.rank == reference.rank
            assert span.pivot_keys() == reference.pivot_keys()
            assert span.basis() == rows
            assert span.to_json() == [
                [[list(key), str(c)] for key, c in row.items()] for row in rows
            ]
        assert all(type(c) is Fraction for row in span.basis() for c in row.values())
        assert span.ring is QQ


class _FullScanSpan(GradedSubspace):
    """The reference for the column index: back-eliminates a new pivot by
    scanning every stored row."""

    def insert(self, vec, label=None):
        v = self._indexed(vec)
        if self._labels is not None:
            if label is None:
                label = len(self._labels)
            column = self._labels.setdefault(label, len(self.keys) + len(self._labels))
            v[column] = self.ring.one
        pivot = self._reduce(v)
        if pivot is None:
            return False
        inv = self.ring.one / v[pivot]
        row = {j: c * inv for j, c in v.items()}
        for other in self._rows.values():
            c = other.get(pivot)
            if c is not None:
                self._subtract(other, c, row)
        self._rows[pivot] = row
        return True


def _index_vectors(rng, ring, gen, n):
    """Sparse vectors over ``ring``, entries a rational part plus a multiple
    of a power of ``gen``, sometimes over gen + 2; every third is a
    combination of earlier ones, often with one entry cancelled, so that
    inserts both grow the span and fail to."""

    def entry():
        c = ring(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))))
        c = c + rng.randint(-1, 1) * gen ** rng.randint(1, 2)
        return c / (gen + 2) if rng.random() < 0.2 else c

    out = []
    for i in range(2 * n):
        if out and i % 3 == 2:
            v = {}
            for w in rng.sample(out, min(len(out), 3)):
                c = entry() or ring(1)
                for k, a in w.items():
                    v[k] = v.get(k, ring(0)) + c * a
            if v and rng.random() < 0.5:
                v.pop(rng.choice(sorted(v)))
        else:
            v = {k: entry() for k in rng.sample(range(n), rng.randint(1, 4))}
        out.append(v)
    return out


_Q3, _Q5 = cyclotomic_field(3), cyclotomic_field(5)


@pytest.mark.parametrize("track", [False, True], ids=["plain", "track"])
@pytest.mark.parametrize(
    "ring, gen",
    [(QQ, 1), (_Q3, _Q3.zeta), (_Q5, _Q5.zeta), (QQq, QQq.q)],
    ids=["Q", "Q(zeta_3)", "Q(zeta_5)", "Q(q)"],
)
def test_column_index_matches_the_full_scan(ring, gen, track):
    for seed in range(6):
        rng = random.Random(seed)
        n = rng.randint(5, 10)
        span = GradedSubspace(ring, range(n), track=track)
        reference = _FullScanSpan(ring, range(n), track=track)
        vectors = _index_vectors(rng, ring, gen, n)
        for label, v in enumerate(vectors):
            assert span.insert(v, label=label) == reference.insert(v, label=label)
            assert span.rank == reference.rank
            assert span.pivot_keys() == reference.pivot_keys()
            assert span.basis() == reference.basis()
            # a superset: every ambient non-pivot entry of a row is indexed,
            # and no pivot column is
            for pivot, row in span._rows.items():
                for j in row:
                    if j != pivot and j < n:
                        assert pivot in span._holders[j]
            assert not set(span._holders) & set(span._rows)
        if track:
            for probe in vectors + _index_vectors(rng, ring, gen, n)[:4]:
                assert span.coordinates(probe) == reference.coordinates(probe)
        assert span.freeze() is span
        assert span._holders is None
        with pytest.raises(TypeError):
            span.insert(vectors[0])
        assert span.basis() == reference.basis()


def test_column_insert_refuses_a_frozen_span():
    field = cyclotomic_field(3)
    s = GradedSubspace(field, ["x", "y"])
    s.insert({"x": field.one})
    s.freeze()
    with pytest.raises(TypeError, match="frozen"):
        s.insert_columns({1: field.zeta})
    assert s.rank == 1 and s.pivot_keys() == ["x"]


def test_column_insert_refuses_a_tracked_span():
    # a tracked span labels each insert; a column-keyed vector has no label
    field = cyclotomic_field(3)
    s = GradedSubspace(field, ["x", "y"], track=True)
    with pytest.raises(TypeError, match="tracked"):
        s.insert_columns({0: field.one})
    assert s.rank == 0
    assert s.insert({"x": field.one}, label="u")
    assert s.coordinates({"x": field(2)}) == {"u": 2}


@pytest.mark.parametrize("r", [1, 2, 3, 5, 6])
def test_column_route_builds_the_key_route_span(r):
    # the same vectors by key and by column give the same rows, by value
    # and by column
    field = cyclotomic_field(r)
    rng = random.Random(r)
    keys = [(i,) for i in range(7)]
    by_key, by_column = GradedSubspace(field, keys), GradedSubspace(field, keys)
    for _ in range(10):
        v = {}
        for j in rng.sample(range(len(keys)), rng.randint(1, 4)):
            vec = [rng.randint(-3, 3) for _ in range(field.degree)]
            if any(vec):
                v[j] = Cyclo(field, vec, rng.choice([1, 1, 2, 3]))
        column = by_column.column_index
        assert all(column[keys[j]] == j for j in v)
        grew = by_key.insert({keys[j]: c for j, c in v.items()})
        assert by_column.insert_columns(dict(v)) == grew
    assert by_column.basis() == by_key.basis()
    assert by_column.column_rows() == by_key.column_rows()
    assert [keys[min(row)] for row in by_key.column_rows()] == by_key.pivot_keys()


def test_column_views_are_read_only():
    # the index is shared by every span over the same key tuple, and the
    # rows belong to a cached frozen span: neither can be written through
    from peakforge import peak

    space = peak.mr_sharp_subspace(3, 3)
    rows = [dict(row) for row in space.column_rows()]
    index = space.column_index
    with pytest.raises(TypeError):
        del index[space.keys[0]]
    with pytest.raises(TypeError):
        index[("x",)] = 0
    for row in space.column_rows():
        with pytest.raises(TypeError):
            row[min(row)] = space.ring.zero
        with pytest.raises(TypeError):
            del row[min(row)]
    assert [dict(row) for row in space.column_rows()] == rows
    peak.mr_sharp_subspace.cache_clear()
    assert peak.mr_sharp_subspace(3, 3).basis() == space.basis()
