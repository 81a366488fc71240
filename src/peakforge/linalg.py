"""Exact sparse Gaussian elimination over any of the coefficient fields.

A :class:`GradedSubspace` is the fully reduced row echelon span of vectors
in one graded component.  Vectors are sparse maps from ambient basis keys
to scalars.  Pivots are the smallest nonzero key in the ambient key order,
pivot coefficients are rescaled to one after every reduction, and every row
is reduced against all the others, so rank and membership queries are exact
and the stored basis is canonical.

A new pivot is back-eliminated only from the rows that may hold its
column.  While a span can grow it keeps a column index: each ambient
non-pivot column maps to a superset of the pivots of the rows holding it.
Only such a column can become a pivot, since every stored row is zero at
every other pivot and label columns are never pivots.  Entries that
cancel leave stale pivots in the index, which a visit skips.
:meth:`GradedSubspace.freeze` releases the index.

Vectors enter by one of two routes into one elimination body:

* :meth:`GradedSubspace.insert` takes a map from ambient keys to scalars
  of any type the ring coerces.  It maps each key to its column, coerces
  each value into the ring and drops the zeros, and it raises on a key
  outside the ambient basis or a value of another field.
* :meth:`GradedSubspace.insert_columns` takes a vector already keyed by
  column, built from the rows that :meth:`GradedSubspace.column_rows`
  reads and the key -> column map :attr:`GradedSubspace.column_index`.
  It checks nothing per entry: the caller vouches that every column is an
  ambient one and every value a nonzero element of the span's own ring,
  and it hands the dict over.  It refuses a frozen span, as ``insert``
  does, and a tracked one, whose inserts carry labels.

Every elimination step is one ``target -= c * row``, and a span stores
its entries in its own ring.  It takes its kernel for that step once, from
:func:`~peakforge.scalars.elimination_kernel` (the scalars module
docstring says which fields run on integers); a new row is divided by its
pivot through :func:`~peakforge.scalars.divide_row`.
"""

from __future__ import annotations

from functools import cache
from types import MappingProxyType

from .scalars import Cyclo, divide_row, elimination_kernel, scalar_str


@cache
def _column_index(keys: tuple) -> dict:
    """Ambient key -> its column, built once per key tuple and shared,
    read-only, by every span over it: the spans of one degree share their
    key tuple (:func:`~peakforge.combinatorics.sorted_compositions`), so
    the cache holds one index per degree and alphabet."""
    index = {}
    for i, k in enumerate(keys):
        if k in index:
            raise ValueError(f"duplicate ambient key {k!r}")
        index[k] = i
    return index


class GradedSubspace:
    """Echelonized span of sparse vectors inside one graded component.

    ``ambient_keys`` fixes the ambient basis and its order.  With
    ``track=True`` each inserted vector gets a label and
    :meth:`coordinates` can express members as combinations of the
    inserted generators: each label is one more coordinate after the
    ambient ones, set to one in the vector it labels, so elimination
    carries the combinations along and pivots stay ambient.

    ``_holders`` is the column index of the module docstring: ambient
    non-pivot column -> a superset of the pivots of the rows holding it.
    :meth:`freeze` makes a span read-only, for spans shared by a cache,
    and releases the index.
    """

    def __init__(self, ring, ambient_keys, degree=None, track=False):
        self.ring = ring
        self.degree = degree
        self.keys = tuple(ambient_keys)
        self._index = _column_index(self.keys)
        self._rows: dict[int, dict] = {}
        self._holders: dict[int, set] | None = {}
        self._subtract = elimination_kernel(ring)
        # entries of the ring's own type skip coercion in _indexed: a
        # Fraction over Q, a RatFunc over Q(q), a Cyclo of this very field
        self._native = type(ring.one)
        # label -> its coordinate, numbered on from the ambient ones
        self._labels: dict | None = {} if track else None
        self._frozen = False

    def freeze(self) -> GradedSubspace:
        """Make later inserts raise and release the column index; return
        the span itself."""
        self._frozen = True
        self._holders = None
        return self

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _indexed(self, vec) -> dict:
        out = {}
        ring = self.ring
        native = self._native
        for key, c in vec.items():
            if type(c) is not native or (native is Cyclo and c.field is not ring):
                c = ring(c)
            if c:
                try:
                    out[self._index[key]] = c
                except KeyError:
                    raise KeyError(f"key {key!r} not in the ambient basis") from None
        return out

    def _reduce(self, v: dict):
        """Fully reduce an indexed vector against the stored rows in place;
        return its pivot, the smallest ambient coordinate left, or None."""
        rows = self._rows
        subtract = self._subtract
        for i in sorted(v):
            row = rows.get(i)
            if row is None:
                continue
            # every stored row is zero at every other pivot, so no earlier
            # subtraction has touched v[i], which is still nonzero
            subtract(v, v[i], row)
        pivot = min(v, default=len(self.keys))
        return pivot if pivot < len(self.keys) else None

    def insert(self, vec, label=None) -> bool:
        """Enlarge the span by a vector; True iff the rank grew."""
        if self._frozen:
            raise TypeError(f"{self!r} is frozen and cannot be enlarged")
        v = self._indexed(vec)
        if self._labels is not None:
            if label is None:
                label = len(self._labels)
            column = self._labels.setdefault(label, len(self.keys) + len(self._labels))
            v[column] = self.ring.one
        return self._grow(v)

    def insert_columns(self, v: dict) -> bool:
        """Enlarge an untracked span by a vector keyed by column, whose
        values are nonzero elements of the span's own ring; True iff the
        rank grew.  ``v`` is reduced in place and may become a stored row,
        so the caller hands it over."""
        if self._frozen:
            raise TypeError(f"{self!r} is frozen and cannot be enlarged")
        if self._labels is not None:
            raise TypeError(f"{self!r} is tracked, so every insert needs a label")
        return self._grow(v)

    def _grow(self, v: dict) -> bool:
        """Reduce an indexed vector; if it leaves the span, store it with
        its pivot entry one and back-eliminate its pivot."""
        pivot = self._reduce(v)
        if pivot is None:
            return False
        # a unit pivot keeps v as the row, with no inverse and no copy; the
        # pivot entry becomes the ring's one, so no row keeps an equal copy
        one = self.ring.one
        row = v
        lead = v[pivot]
        if lead is not one and lead != one:
            row = divide_row(v, lead)
        row[pivot] = one
        # back-eliminate the new pivot from the rows that may hold it; each
        # row changed, and the new one, may now hold every column of row
        rows, holders = self._rows, self._holders
        changed = [pivot]
        for p in holders.pop(pivot, ()):
            other = rows[p]
            c = other.get(pivot)
            if c is not None:
                self._subtract(other, c, row)
                changed.append(p)
        n = len(self.keys)
        for j in row:
            if j != pivot and j < n:
                holders.setdefault(j, set()).update(changed)
        rows[pivot] = row
        return True

    def contains(self, vec) -> bool:
        return self._reduce(self._indexed(vec)) is None

    def coordinates(self, vec):
        """Express a vector over the inserted generators, or None if it is
        not in the span.  Requires ``track=True``."""
        if self._labels is None:
            raise ValueError("subspace was not built with track=True")
        v = self._indexed(vec)
        if self._reduce(v) is not None:
            return None
        # the label coordinates hold the negated combination; labels are
        # numbered in insertion order
        labels = list(self._labels)
        n = len(self.keys)
        return {labels[j - n]: -c for j, c in v.items()}

    def basis(self):
        """Echelon rows as key-indexed dicts in ambient key order, sorted by
        pivot."""
        n = len(self.keys)
        out = []
        for pivot in sorted(self._rows):
            row = self._rows[pivot]
            out.append({self.keys[j]: c for j, c in sorted(row.items()) if j < n})
        return out

    @property
    def column_index(self):
        """Ambient key -> its column, read-only: a view of the index shared
        by every span over the same key tuple."""
        return MappingProxyType(self._index)

    def column_rows(self) -> list:
        """The stored echelon rows, keyed by column (label columns too, in
        a tracked span), sorted by pivot: read-only views of the span's
        own dicts."""
        rows = self._rows
        return [MappingProxyType(rows[p]) for p in sorted(rows)]

    def residue_map(self):
        """Column k -> NF(e_k), the normal form of the unit vector e_k,
        for every ambient column whose e_k is not in an untracked span:
        ``{k: 1}`` for a non-pivot column, the negated off-pivot part of
        its row for a pivot whose row has other entries; a pivot whose row
        is e_p is absent.  Read-only views, built at each call.

        Lemma: the rows are fully reduced, so e_p less its row holds no
        pivot column, and e_k - NF(e_k) lies in the span for every k.
        Hence x - sum_k x_k NF(e_k) lies in the span, and the sum has no
        pivot column, so it is the remainder of x, which :meth:`contains`
        tests: x lies in the span iff sum_k x_k NF(e_k) = 0."""
        if self._labels is not None:
            raise TypeError(f"{self!r} is tracked, so its rows carry label columns")
        rows = self._rows
        one = self.ring.one
        out = {}
        for k in range(len(self.keys)):
            row = rows.get(k)
            if row is None:
                out[k] = MappingProxyType({k: one})
            elif len(row) > 1:
                out[k] = MappingProxyType({j: -c for j, c in row.items() if j != k})
        return MappingProxyType(out)

    def pivot_keys(self):
        return [self.keys[i] for i in sorted(self._rows)]

    def to_json(self):
        return [
            [[list(key), scalar_str(c)] for key, c in row.items()]
            for row in self.basis()
        ]

    def __repr__(self):
        deg = f", degree={self.degree}" if self.degree is not None else ""
        return f"GradedSubspace(rank={self.rank}, ambient={len(self.keys)}{deg})"
