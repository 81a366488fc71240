"""Shared machinery for sparse basis expansions.

An :class:`Element` is a linear combination of basis keys (plain tuples)
with nonzero coefficients in one of the exact fields.  Subclasses fix the
algebra, the allowed basis tags and the grading of keys.  A ``bound`` marks
a truncated series: terms above the bound are dropped by ring operations,
and bounds propagate as the minimum of the operands'.

A :class:`WordElement` lives in a free algebra on graded letters: Sym, with
one letter per degree, and the Mantaci-Reutenauer algebra, with one per
degree and color.  Its basis changes, products, coproduct and letterwise
transforms are written here once, in terms of the letter tables the two
algebras supply.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cache, partial
from math import inf
from operator import itemgetter

from .combinatorics import format_composition
from .scalars import common_ring, over_integers, ring_of, scalar_str


def merge_bounds(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class Element:
    __slots__ = ("ring", "basis", "terms", "bound")

    algebra = ""
    bases: tuple = ()

    def __init__(self, ring, basis, terms=None, bound=None):
        if basis not in self.bases:
            raise ValueError(f"unknown basis {basis!r} for {self.algebra}")
        self.ring = ring
        self.basis = basis
        self.bound = bound
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    # ---- constructors

    @classmethod
    def zero(cls, ring, basis=None):
        return cls(ring, basis or cls.bases[0], {})

    @classmethod
    def monomial(cls, ring, key, coeff=1, basis=None):
        return cls(ring, basis or cls.bases[0], {key: ring(coeff)})

    @classmethod
    def unit(cls, ring, basis=None):
        return cls.monomial(ring, (), 1, basis=basis)

    # ---- grading

    @staticmethod
    def key_degree(key) -> int:
        raise NotImplementedError

    def homogeneous(self, d):
        cls = type(self)
        return cls(
            self.ring,
            self.basis,
            {k: c for k, c in self.terms.items() if self.key_degree(k) == d},
        )

    def truncate(self, n_max):
        cls = type(self)
        return cls(
            self.ring,
            self.basis,
            {k: c for k, c in self.terms.items() if self.key_degree(k) <= n_max},
            bound=merge_bounds(self.bound, n_max),
        )

    # ---- linear structure

    def coefficient(self, key):
        return self.terms.get(key, self.ring(0))

    def __bool__(self):
        return bool(self.terms)

    def _aligned(self, other):
        """Coerce two elements of the same algebra/basis to a common ring."""
        if type(other) is not type(self):
            raise TypeError(f"expected a {type(self).__name__}")
        if other.basis != self.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")
        ring = common_ring(self.ring, other.ring)
        return self.with_ring(ring), other.with_ring(ring)

    def with_ring(self, ring):
        if ring is self.ring:
            return self
        cls = type(self)
        return cls(
            ring,
            self.basis,
            {k: ring(c) for k, c in self.terms.items()},
            bound=self.bound,
        )

    def convert(self, basis):
        """The element in ``basis``.  The base class knows only its own basis:
        its tags may name different algebras (the group algebras of Sn and
        Bn), with no change of basis between them.  Subclasses whose bases
        span one algebra override this."""
        if basis != self.basis:
            raise ValueError(f"no change of basis from {self.basis} to {basis}")
        return self

    def __eq__(self, other):
        """Equality of elements.  A change of basis is a linear bijection,
        so two elements are equal exactly when their expansions over one
        basis agree: the right operand is converted to this basis, and the
        terms are compared in the common field of the two rings.  Elements
        with no common basis or field are unequal."""
        if type(other) is not type(self):
            return NotImplemented
        try:
            other = other.convert(self.basis)
            ring = common_ring(self.ring, other.ring)
        except (TypeError, ValueError):
            return False
        return self.with_ring(ring).terms == other.with_ring(ring).terms

    def __add__(self, other):
        a, b = self._aligned(other)
        terms = dict(a.terms)
        for k, c in b.terms.items():
            s = terms.get(k)
            terms[k] = c if s is None else s + c
        bound = merge_bounds(a.bound, b.bound)
        if bound is not None:
            terms = {k: c for k, c in terms.items() if self.key_degree(k) <= bound}
        return type(self)(a.ring, a.basis, terms, bound=bound)

    def __neg__(self):
        return type(self)(
            self.ring,
            self.basis,
            {k: -c for k, c in self.terms.items()},
            bound=self.bound,
        )

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, coeff):
        ring = common_ring(self.ring, ring_of(coeff))
        c = ring(coeff)
        return type(self)(
            ring,
            self.basis,
            {k: ring(v) * c for k, v in self.terms.items()},
            bound=self.bound,
        )

    def __rmul__(self, coeff):
        return self.scaled(coeff)

    # ---- presentation

    @staticmethod
    def key_str(key) -> str:
        return format_composition(key) or "()"

    @staticmethod
    def key_json(key):
        return list(key)

    def to_json_dict(self):
        return {
            "algebra": self.algebra,
            "basis": self.basis,
            "terms": [
                {"key": self.key_json(k), "coeff": scalar_str(self.terms[k])}
                for k in sorted(self.terms)
            ],
        }

    def __repr__(self):
        if not self.terms:
            return f"{type(self).__name__}<{self.basis}>(0)"
        bits = []
        for k in itertools.islice(sorted(self.terms), 8):
            bits.append(f"({scalar_str(self.terms[k])})*{self.basis}[{self.key_str(k)}]")
        more = "" if len(self.terms) <= 8 else f" ... ({len(self.terms)} terms)"
        return f"{type(self).__name__}({' + '.join(bits)}{more})"


S, R = "S", "R"


class WordElement(Element):
    """A combination of words in graded letters, over the multiplicative
    basis ``S`` of complete words or the ribbon basis ``R``: a complete word
    is the sum of the ribbons of all its coarsenings.

    Subclasses supply the letter tables, as static methods:

    * ``merge(a, b)`` -- the letter two adjacent letters coarsen into, or
      None where they may not merge;
    * ``split(letter)`` -- the (left word, right word) pairs of the
      coproduct of a letter;
    * ``structure(I, J)`` -- the integer structure constants of the
      internal product of two complete words.
    """

    bases = (S, R)

    def __mul__(self, other):
        if isinstance(other, WordElement):
            return word_product(self, other)
        return self.scaled(other)

    def convert(self, basis):
        """Re-express the element in another basis, through S; round-trips
        are exact."""
        if basis == self.basis:
            return self
        terms = self.terms
        if self.basis != S:
            terms = self._change(terms, self.basis, True)
        if basis != S:
            terms = self._change(terms, basis, False)
        return type(self)(self.ring, basis, terms, bound=self.bound)

    def _change(self, terms, basis, to_complete):
        """Terms over S from terms over another basis, or the reverse when
        ``to_complete`` is false."""
        return expand(terms, partial(_ribbon_table, self.merge, to_complete))


@cache
def _ribbon_table(merge, to_complete, key):
    # a ribbon is the alternating sum of the complete words coarsening it
    if to_complete:
        return tuple((k, -1 if m % 2 else 1) for k, m in coarsenings(key, merge))
    return tuple((k, 1) for k, _ in coarsenings(key, merge))


def word_product(f: WordElement, g: WordElement):
    """Concatenation product of complete words, returned in the basis of
    the left factor.

    The right factor is graded once, so under a bound only the pairs of
    degrees that stay within it are visited.
    """
    a, b = f.convert(S)._aligned(g.convert(S))
    bound = merge_bounds(a.bound, b.bound)
    limit = inf if bound is None else bound
    terms = over_integers(concatenate, (a.terms, b.terms), f.key_degree, limit)
    return type(f)(a.ring, S, terms, bound=bound).convert(f.basis)


def internal_product(f: WordElement, g: WordElement):
    """Degreewise internal product, returned in the basis of the left
    factor; cross-degree terms vanish."""
    a, b = f.convert(S)._aligned(g.convert(S))
    out = internal(a.terms, b.terms, f.structure, f.key_degree)
    result = type(f)(a.ring, S, out, bound=merge_bounds(a.bound, b.bound))
    return result.convert(f.basis)


def coproduct(f: WordElement) -> dict:
    """Coproduct in the S (x) S basis, as a map (left key, right key) ->
    coefficient.  Letters split as ``f.split(letter)`` and words split
    letter by letter.
    """

    def split_word(word):
        parts = {((), ()): 1}
        for letter in word:
            nxt: dict = {}
            for (lw, rw), mult in parts.items():
                for lt, rt in f.split(letter):
                    key = (lw + lt, rw + rt)
                    nxt[key] = nxt.get(key, 0) + mult
            parts = nxt
        return parts.items()

    terms = expand(f.convert(S).terms, split_word)
    return {k: c for k, c in terms.items() if c}


def letterwise(f: WordElement, q, letter):
    """The algebra endomorphism replacing each letter x of a complete word
    by the combination ``letter(q, x)``, over the field of q and of f."""
    ring = common_ring(ring_of(q), f.ring)
    a = f.convert(S).with_ring(ring)
    out = expand_letters(a.terms, partial(letter, ring(q)))
    return type(f)(ring, S, out, bound=a.bound).convert(f.basis)


# --------------------------------------------------------------------------
# Sparse kernels on term dicts.  Each holds one accumulation loop, and its
# result keeps the keys whose terms cancel, with zero coefficients: zeros
# leave at the Element or GradedSubspace the result reaches.  The algebras
# supply only their key tables, whose entries are (key, multiplier) pairs
# with the multiplier an int or a scalar.  Each loop visits keys and table
# entries in the order of its operands, inserts a key when it first meets
# it and never removes one (_compositions groups keys by coefficient), so
# its keys and their order depend only on the operands' keys, their order
# and which of their coefficients are equal: the contract under which
# scalars.over_integers runs the bilinear products and the word
# substitution on integers (the scalars module docstring says where).


def expand(terms: dict, table) -> dict:
    """Word substitution: each key is replaced by the combination
    ``table(key)``, whose multipliers are ints, through
    :func:`~peakforge.scalars.over_integers`."""
    return over_integers(_expand, (terms,), table)


def _expand(terms: dict, table) -> dict:
    out: dict = {}
    for key, c in terms.items():
        for new_key, mult in table(key):
            s = out.get(new_key)
            out[new_key] = mult * c if s is None else s + mult * c
    return out


def expand_letters(terms: dict, letter_table) -> dict:
    """Letter substitution: each word becomes the concatenation product of
    the combinations ``letter_table(letter)`` of its letters.

    Letters expand to nonempty words, so only the empty word reaches the
    empty key; the last letter of each word accumulates straight into the
    result.
    """
    out: dict = {}
    for word, c in terms.items():
        if not word:
            out[()] = c
            continue
        acc = {(): c}
        last = len(word) - 1
        for i, letter in enumerate(word):
            tails = letter_table(letter)
            nxt = out if i == last else {}
            for prefix, c0 in acc.items():
                for tail, mult in tails:
                    key = prefix + tail
                    s = nxt.get(key)
                    nxt[key] = mult * c0 if s is None else s + mult * c0
            acc = nxt
    return out


def internal(u: dict, v: dict, structure, degree) -> dict:
    """Degreewise internal product of two term dicts.

    ``structure(I, J)`` gives the integer structure constants of I * J as
    (key, multiplicity) pairs; cross-degree products vanish, so ``v`` is
    grouped by ``degree`` once and only pairs of equal degree are
    evaluated.  Each pair reads ``structure`` once, so a cached structure
    callable is the one cache of the constants.  It runs through
    :func:`~peakforge.scalars.over_integers`.  Cancelled keys stay, with
    zero coefficients.
    """
    return over_integers(_internal, (u, v), structure, degree)


def _internal(u: dict, v: dict, structure, degree) -> dict:
    by_degree: dict = {}
    for J, cv in v.items():
        by_degree.setdefault(degree(J), []).append((J, cv))
    out: dict = {}
    for I, cu in u.items():
        for J, cv in by_degree.get(degree(I), ()):
            c = cu * cv
            for k, mult in structure(I, J):
                s = out.get(k)
                out[k] = mult * c if s is None else s + mult * c
    return out


def concatenate(u: dict, v: dict, degree, limit) -> dict:
    """Concatenation product of two term dicts, keeping the words of
    degree at most ``limit``."""
    right: dict = {}
    for k2, c2 in v.items():
        right.setdefault(degree(k2), []).append((k2, c2))
    out: dict = {}
    for k1, c1 in u.items():
        d1 = degree(k1)
        for d2, pairs in right.items():
            if d1 + d2 <= limit:
                for k2, c2 in pairs:
                    key = k1 + k2
                    c = c1 * c2
                    s = out.get(key)
                    out[key] = c if s is None else s + c
    return out


def _compositions(u: dict, v: dict) -> dict:
    """The bilinear composition kernel, (u o v)(i) = u(v(i)), on operands
    of one degree: count the compositions of each pair of coefficient
    classes, then scale once per resulting element."""
    out: dict = {}
    right = by_coefficient(v)
    for cu, us in by_coefficient(u).items():
        for cv, vs in right.items():
            c = cu * cv
            for key, n in _count_compositions(us, vs).items():
                s = out.get(key)
                out[key] = n * c if s is None else s + n * c
    return out


def _count_compositions(us, vs) -> dict:
    """How often each u o v occurs over all pairs of (signed) permutations."""
    # u o v reads u at the entries of v: index j of a table below holds u(j)
    # for -n <= j <= n; itemgetter reads a tuple from two indices on
    tables = [(0, *u, *[-x for x in reversed(u)]) for u in us]
    counts = Counter()
    for v in vs:
        read = itemgetter(*v) if len(v) > 1 else lambda t, v=v: tuple(t[j] for j in v)
        counts.update(map(read, tables))
    return counts


def by_coefficient(terms: dict) -> dict:
    """Coefficient -> the keys that carry it, in the order of ``terms``."""
    out: dict = {}
    for key, c in terms.items():
        out.setdefault(c, []).append(key)
    return out


def coarsenings(key: tuple, merge) -> tuple:
    """All ways to merge adjacent letters of a word, each with its number
    of merges.  ``merge(a, b)`` is the merged letter, or None where a and b
    may not merge."""
    if not key:
        return (((), 0),)
    out = [((key[0],), 0)]
    for letter in key[1:]:
        nxt = []
        for word, merges in out:
            nxt.append((word + (letter,), merges))
            merged = merge(word[-1], letter)
            if merged is not None:
                nxt.append((word[:-1] + (merged,), merges + 1))
        out = nxt
    return tuple(out)


def peeled_structure(left: tuple, right: tuple, structure, sizes, read) -> tuple:
    """Sorted (word, multiplicity) structure constants of the internal
    product of two complete words, by peeling the first letter of ``left``.

    In a margin matrix (see :func:`column_reading_structure`) the first
    left letter fills the first column; the other columns are a matrix of
    the rest of ``left`` against what the fill leaves of ``right``, less
    the letters that reach zero.  So each fill contributes its head word
    followed by each word of ``structure(rest of left, rest of right)``.
    The algebra's letter table gives ``sizes(word)`` and ``read(a, b, v)``:
    the letter an entry v reads where left letter a meets right letter b,
    and b less v.  Equal words and equal pairs are one object across all
    results (:func:`_shared`).
    """
    if not left:
        return () if right else (((), 1),)
    a = left[0]
    acc: dict = {}
    for entries, caps in _column_fills(sizes(left)[0], sizes(right)):
        head = []
        rest = list(right)
        for row, v in entries:
            letter, rest[row] = read(a, right[row], v)
            head.append(letter)
        head = tuple(head)
        rest = tuple(b for b, cap in zip(rest, caps) if cap)
        for word, mult in structure(left[1:], rest):
            word = head + word
            acc[word] = acc.get(word, 0) + mult
    return tuple([_pairs.get(p) or _shared(p) for p in sorted(acc.items())])


# the constants of all pairs of words hold one object per word and one per
# (word, multiplicity) pair
_words: dict = {}
_pairs: dict = {}


def _shared(pair: tuple) -> tuple:
    word, mult = pair
    return _pairs.setdefault(pair, (_words.setdefault(word, word), mult))


@cache
def _column_fills(total: int, caps: tuple) -> tuple:
    """The ways to fill one column with entries summing to ``total``, entry
    i at most ``caps[i]``: sorted (nonzero (row, value) entries, caps left)
    pairs."""
    fills = [((), (), total)]  # (entries, caps left, sum still to place)
    for row, cap in enumerate(caps):
        fills = [
            (entries + ((row, v),) if v else entries, left + (cap - v,), rest - v)
            for entries, left, rest in fills
            for v in range(min(rest, cap) + 1)
        ]
    return tuple(sorted((entries, left) for entries, left, rest in fills if not rest))


@cache
def column_reading_structure(rows: tuple[int, ...], cols: tuple[int, ...]):
    """Column readings of the nonnegative integer matrices with row sums
    ``rows`` and column sums ``cols``.

    A matrix is read column by column, top to bottom, recording its nonzero
    entries as ``(row_index, value)`` pairs per column.  The matrices are
    enumerated the same way: each column in turn takes every fill summing
    to its column sum that the row sums still left allow, in sorted order,
    so the readings come out sorted.  A reading determines its matrix, so
    each is paired with multiplicity 1.  Returns the (reading, 1) pairs;
    this is the integral core of the degreewise internal product on
    products of complete functions.
    """
    if sum(rows) != sum(cols):
        return ()
    readings = [((), rows)]  # (columns read so far, row sums still left)
    for total in cols:
        readings = [
            (reading + (fill,), left)
            for reading, caps in readings
            for fill, left in _column_fills(total, caps)
        ]
    return tuple((reading, 1) for reading, _ in readings)
