"""Noncommutative symmetric functions.

Bases, indexed by compositions:

* ``S`` -- products of complete functions S^I = S_{i_1} ... S_{i_r};
* ``L`` -- products of elementary functions;
* ``R`` -- ribbons, with R_n = S_n and R_{1^n} the n-th elementary.

The outer product concatenates words of complete functions.  The coproduct
makes the complete generating series grouplike.  The degreewise internal
product is computed by the splitting recursion, unrolled per pair of basis
words into an enumeration of nonnegative integer matrices with prescribed
margins; the embedding into free quasi-symmetric functions and the group
algebras of the symmetric groups provide two independent cross-checks (see
the test suite).
"""

from __future__ import annotations

from functools import cache, lru_cache, partial
from operator import add

from . import algebra
from .algebra import (
    Element,
    coarsenings,
    expand,
    expand_letters,
    internal,
    internal_words,
    merge_bounds,
    word_product,
)
from .combinatorics import compositions, permutations_by_descent
from .scalars import common_ring, ring_of

S, L, R = "S", "L", "R"


class SymElement(Element):
    algebra = "sym"
    bases = (S, L, R)
    key_degree = staticmethod(sum)

    def __mul__(self, other):
        if isinstance(other, SymElement):
            return product(self, other)
        return self.scaled(other)


def monomial(ring, key, coeff=1, basis=S) -> SymElement:
    return SymElement.monomial(ring, tuple(key), coeff, basis=basis)


def unit(ring) -> SymElement:
    return SymElement.unit(ring, basis=S)


# --------------------------------------------------------------------------
# Basis conversions


@cache
def _alternating_words(n: int):
    """Expansion of the n-th elementary in the S basis (and of S_n in the
    elementary basis): sum over compositions I of n of (-1)^(n - len(I)) S^I."""
    return tuple((I, -1 if (n - len(I)) % 2 else 1) for I in compositions(n))


@cache
def _complete_to_ribbon(I):
    return tuple((J, 1) for J, _ in coarsenings(I, add))


@cache
def _ribbon_to_complete(I):
    return tuple((J, -1 if m % 2 else 1) for J, m in coarsenings(I, add))


def convert(f: SymElement, basis: str) -> SymElement:
    """Re-express an element in another basis, through S; round-trips are
    exact."""
    if basis == f.basis:
        return f
    terms = f.terms
    if f.basis == L:
        terms = expand_letters(terms, _alternating_words)
    elif f.basis == R:
        terms = expand(terms, _ribbon_to_complete)
    if basis == L:
        terms = expand_letters(terms, _alternating_words)
    elif basis == R:
        terms = expand(terms, _complete_to_ribbon)
    elif basis != S:
        raise ValueError(f"unknown basis {basis!r}")
    return SymElement(f.ring, basis, terms, bound=f.bound)


# --------------------------------------------------------------------------
# Products and coproduct


def product(f: SymElement, g: SymElement) -> SymElement:
    """Concatenation product, returned in the basis of the left factor."""
    out = word_product(convert(f, S), convert(g, S))
    return convert(out, f.basis)


@cache
def _split(k: int):
    return tuple(((i,) if i else (), (k - i,) if k - i else ()) for i in range(k + 1))


def coproduct(f: SymElement) -> dict:
    """Coproduct in the S (x) S basis, as a map (left key, right key) -> coeff.

    The complete generating series is grouplike, so each letter S_k splits
    as sum over i + j = k of S_i (x) S_j and words split multiplicatively.
    """
    return algebra.coproduct(convert(f, S).terms, _split)


# --------------------------------------------------------------------------
# Internal product


def _read_values(reading):
    return tuple([value for col in reading for _, value in col])


@cache
def internal_structure(I, J):
    """Integer structure constants of S^I * S^J in the S basis.

    Splitting the left word and pairing against the iterated coproduct of
    the right word leaves one nonnegative integer matrix per term, with row
    sums J and column sums I; the resulting word reads the columns left to
    right, each top to bottom.
    """
    return internal_words(J, I, _read_values)


def internal_product(f: SymElement, g: SymElement) -> SymElement:
    """Degreewise internal product; cross-degree terms vanish."""
    a = convert(f, S)
    b = convert(g, S)
    ring = common_ring(a.ring, b.ring)
    a, b = a.with_ring(ring), b.with_ring(ring)
    out = internal(a.terms, b.terms, internal_structure, sum)
    result = SymElement(ring, S, out, bound=merge_bounds(a.bound, b.bound))
    return convert(result, f.basis)


# --------------------------------------------------------------------------
# Antipode and series


@cache
def _antipode_letter(k: int):
    sign = -1 if k % 2 else 1
    return tuple((I, sign * s) for I, s in _alternating_words(k))


def antipode(f: SymElement) -> SymElement:
    """The Hopf antipode: S_n maps to (-1)^n times the n-th elementary, and
    products reverse."""
    a = convert(f, S)
    reversed_terms = {word[::-1]: c for word, c in a.terms.items()}
    out = expand_letters(reversed_terms, _antipode_letter)
    return convert(SymElement(a.ring, S, out, bound=a.bound), f.basis)


def sigma_series(ring, n_max: int) -> SymElement:
    """The complete generating series 1 + S_1 + S_2 + ... truncated."""
    terms = {(): ring(1)}
    for n in range(1, n_max + 1):
        terms[(n,)] = ring(1)
    return SymElement(ring, S, terms, bound=n_max)


def lambda_series(ring, n_max: int, t=None) -> SymElement:
    """The elementary generating series sum_k t^k Lambda_k, truncated, in
    the S basis.  ``t`` defaults to one."""
    t = ring(1) if t is None else ring(t)
    terms: dict = {(): ring(1)}
    power = ring(1)
    for k in range(1, n_max + 1):
        power = power * t
        # the words of distinct degrees are distinct: nothing accumulates
        terms.update((I, sign * power) for I, sign in _alternating_words(k))
    return SymElement(ring, S, terms, bound=n_max)


def one_minus_q_series(q, n_max: int) -> SymElement:
    """The grouplike series implementing the (1-q) alphabet transform:
    lambda_{-q} times sigma, truncated."""
    ring = ring_of(q)
    return product(lambda_series(ring, n_max, t=-q), sigma_series(ring, n_max))


# typed: equal scalars of different fields, such as -1 in Q and in
# Q(zeta_2), hash alike but give tables over different rings
@lru_cache(maxsize=None, typed=True)
def _one_minus_q_letter(q, k: int):
    series = one_minus_q_series(q, k)
    return tuple(sorted(series.homogeneous(k).terms.items()))


def one_minus_q_transform(f: SymElement, q) -> SymElement:
    """f evaluated on the (1-q)-dilated alphabet.

    Algebra endomorphism of Sym: each letter S_k is replaced by the
    degree-k component of the (1-q) series.  Agrees with the internal
    product against :func:`one_minus_q_series` (tested)."""
    ring = common_ring(ring_of(q), f.ring)
    a = convert(f, S).with_ring(ring)
    out = expand_letters(a.terms, partial(_one_minus_q_letter, ring(q)))
    return convert(SymElement(ring, S, out, bound=a.bound), f.basis)


def power_sum(n: int, ring) -> SymElement:
    """The degree-n power sum (Dynkin element): the alternating sum of the
    hook ribbons R_{1^k, n-k}."""
    if n < 1:
        raise ValueError("power sums start in degree 1")
    terms = {}
    for k in range(n):
        key = (1,) * k + (n - k,)
        terms[key] = ring(-1 if k % 2 else 1)
    return SymElement(ring, R, terms)


def to_fqsym(f: SymElement):
    """Embedding into free quasi-symmetric functions: a ribbon is the sum
    of G_sigma over permutations with that descent composition."""
    from .fqsym import FqsymElement

    a = convert(f, R)
    out: dict = {}
    for I, c in a.terms.items():
        for p in permutations_by_descent(sum(I))[I]:
            out[p] = c
    return FqsymElement(a.ring, "G", out, bound=a.bound)
