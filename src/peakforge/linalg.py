"""Exact sparse Gaussian elimination over any of the coefficient fields.

A :class:`GradedSubspace` is the fully reduced row echelon span of vectors
in one graded component.  Vectors are sparse maps from ambient basis keys
to scalars.  Pivots are the smallest nonzero key in the ambient key order,
pivot coefficients are rescaled to one after every reduction, and every row
is reduced against all the others, so rank and membership queries are exact
and the stored basis is canonical.
"""

from __future__ import annotations


def _subtract_multiple(target: dict, c, row: dict):
    """target -= c * row in place, dropping the entries that cancel."""
    for j, rc in row.items():
        newc = target.get(j)
        newc = -c * rc if newc is None else newc - c * rc
        if newc:
            target[j] = newc
        else:
            target.pop(j, None)


class GradedSubspace:
    """Echelonized span of sparse vectors inside one graded component.

    ``ambient_keys`` fixes the ambient basis and its order.  With
    ``track=True`` each inserted vector gets a label and
    :meth:`coordinates` can express members as combinations of the
    inserted generators.
    """

    def __init__(self, ring, ambient_keys, degree=None, track=False):
        self.ring = ring
        self.degree = degree
        self.keys = tuple(ambient_keys)
        self._index = {}
        for i, k in enumerate(self.keys):
            if k in self._index:
                raise ValueError(f"duplicate ambient key {k!r}")
            self._index[k] = i
        self._rows: dict[int, dict] = {}
        self._combos: dict[int, dict] | None = {} if track else None
        self._n_inserted = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _indexed(self, vec) -> dict:
        out = {}
        ring = self.ring
        for key, coeff in vec.items():
            c = ring(coeff)
            if c:
                try:
                    out[self._index[key]] = c
                except KeyError:
                    raise KeyError(f"key {key!r} not in the ambient basis") from None
        return out

    def _reduce(self, v: dict, combo: dict | None):
        """Fully reduce an indexed vector against the stored rows in place."""
        rows = self._rows
        if not rows:
            return
        for i in sorted(v):
            row = rows.get(i)
            if row is None:
                continue
            c = v.get(i)
            if not c:
                continue
            _subtract_multiple(v, c, row)
            if combo is not None:
                _subtract_multiple(combo, c, self._combos[i])

    def insert(self, vec, label=None) -> bool:
        """Enlarge the span by a vector; True iff the rank grew."""
        v = self._indexed(vec)
        if self._combos is not None and label is None:
            label = self._n_inserted
        self._n_inserted += 1
        combo = {label: self.ring(1)} if self._combos is not None else None
        self._reduce(v, combo)
        if not v:
            return False
        pivot = min(v)
        inv = self.ring(1) / v[pivot]
        row = {j: c * inv for j, c in v.items()}
        row[pivot] = self.ring(1)
        if combo is not None:
            combo = {l: c * inv for l, c in combo.items()}
        # back-eliminate the new pivot from the existing rows
        for i, other in self._rows.items():
            c = other.get(pivot)
            if not c:
                continue
            _subtract_multiple(other, c, row)
            if self._combos is not None:
                _subtract_multiple(self._combos[i], c, combo)
        self._rows[pivot] = row
        if self._combos is not None:
            self._combos[pivot] = combo
        return True

    def contains(self, vec) -> bool:
        v = self._indexed(vec)
        self._reduce(v, None)
        return not v

    def coordinates(self, vec):
        """Express a vector over the inserted generators, or None if it is
        not in the span.  Requires ``track=True``."""
        if self._combos is None:
            raise ValueError("subspace was not built with track=True")
        v = self._indexed(vec)
        combo: dict = {}
        self._reduce(v, combo)
        if v:
            return None
        # _reduce accumulates the negated combination
        return {label: -c for label, c in combo.items()}

    def basis(self):
        """Echelon rows as key-indexed dicts, sorted by pivot."""
        out = []
        for pivot in sorted(self._rows):
            row = self._rows[pivot]
            out.append({self.keys[j]: c for j, c in row.items()})
        return out

    def pivot_keys(self):
        return [self.keys[i] for i in sorted(self._rows)]

    def to_json(self):
        from .scalars import scalar_str

        rows = []
        for pivot in sorted(self._rows):
            row = self._rows[pivot]
            rows.append(
                [[list(self.keys[j]), scalar_str(c)] for j, c in sorted(row.items())]
            )
        return rows

    def __repr__(self):
        deg = f", degree={self.degree}" if self.degree is not None else ""
        return f"GradedSubspace(rank={self.rank}, ambient={len(self.keys)}{deg})"
