"""Noncommutative symmetric functions.

Bases, indexed by compositions:

* ``S`` -- products of complete functions S^I = S_{i_1} ... S_{i_r};
* ``L`` -- products of elementary functions;
* ``R`` -- ribbons, with R_n = S_n and R_{1^n} the n-th elementary.

The outer product concatenates words of complete functions.  The coproduct
makes the complete generating series grouplike.  The degreewise internal
product follows the splitting recursion one letter of the left word at a
time, with the structure constants of the shorter pairs cached and shared;
the embedding into free quasi-symmetric functions and the group algebras
of the symmetric groups provide two independent cross-checks (see the test
suite).
"""

from __future__ import annotations

from functools import cache, lru_cache
from operator import add

from . import algebra
from .algebra import (
    R,
    S,
    WordElement,
    expand_letters,
    peeled_structure,
    word_product,
)
from .combinatorics import compositions, permutations_by_descent, sorted_compositions
from .fqsym import FqsymElement
from .scalars import ring_of

L = "L"


# --------------------------------------------------------------------------
# Letter tables


@cache
def _alternating_words(n: int):
    """Expansion of the n-th elementary in the S basis (and of S_n in the
    elementary basis): sum over compositions I of n of (-1)^(n - len(I)) S^I."""
    return tuple((I, -1 if (n - len(I)) % 2 else 1) for I in compositions(n))


@cache
def _split(k: int):
    return tuple(((i,) if i else (), (k - i,) if k - i else ()) for i in range(k + 1))


def _read_entry(a: int, b: int, v: int):
    return v, b - v


@cache
def internal_structure(I, J):
    """Integer structure constants of S^I * S^J in the S basis.

    Splitting the left word and pairing against the iterated coproduct of
    the right word leaves one nonnegative integer matrix per term, with row
    sums J and column sums I; the resulting word reads the columns left to
    right, each top to bottom.  The first column reads the values of a fill
    of I's first letter into J, so the constants recurse through shorter
    pairs (see :func:`~peakforge.algebra.peeled_structure`).
    """
    # letters are their own sizes: tuple(J) is J
    return peeled_structure(I, J, internal_structure, tuple, _read_entry)


class SymElement(WordElement):
    algebra = "sym"
    bases = (S, L, R)
    key_degree = staticmethod(sum)
    merge = staticmethod(add)
    split = staticmethod(_split)
    structure = staticmethod(internal_structure)

    def _change(self, terms, basis, to_complete):
        if basis == L:
            # the same letter substitution goes either way
            return expand_letters(terms, _alternating_words)
        return super()._change(terms, basis, to_complete)


def monomial(ring, key, coeff=1, basis=S) -> SymElement:
    return SymElement.monomial(ring, tuple(key), coeff, basis=basis)


def unit(ring) -> SymElement:
    return SymElement.unit(ring, basis=S)


# --------------------------------------------------------------------------
# Basis conversions, products and coproduct


def convert(f: SymElement, basis: str) -> SymElement:
    """Re-express an element in another basis, through S; round-trips are
    exact."""
    return f.convert(basis)


def product(f: SymElement, g: SymElement) -> SymElement:
    """Concatenation product, returned in the basis of the left factor."""
    return word_product(f, g)


def coproduct(f: SymElement) -> dict:
    """Coproduct in the S (x) S basis, as a map (left key, right key) -> coeff.

    The complete generating series is grouplike, so each letter S_k splits
    as sum over i + j = k of S_i (x) S_j and words split multiplicatively.
    """
    return algebra.coproduct(f)


def internal_product(f: SymElement, g: SymElement) -> SymElement:
    """Degreewise internal product; cross-degree terms vanish."""
    return algebra.internal_product(f, g)


# --------------------------------------------------------------------------
# Series


def sigma_series(ring, n_max: int) -> SymElement:
    """The complete generating series 1 + S_1 + S_2 + ... truncated."""
    terms = {(): ring(1)}
    for n in range(1, n_max + 1):
        terms[(n,)] = ring(1)
    return SymElement(ring, S, terms, bound=n_max)


def one_minus_q_series(q, n_max: int) -> SymElement:
    """The grouplike series implementing the (1-q) alphabet transform,
    lambda_{-q} times sigma, truncated: the unit plus the letter tables of
    sizes 1..n_max."""
    ring = ring_of(q)
    terms = {(): ring.one}
    for k in range(1, n_max + 1):
        terms.update(_one_minus_q_letter(q, k))
    return SymElement(ring, S, terms, bound=n_max)


# typed: equal scalars of different fields, such as -1 in Q and in
# Q(zeta_2), hash alike but give tables over different rings
@lru_cache(maxsize=None, typed=True)
def _one_minus_q_letter(q, k: int):
    """S_k((1-q)A), the degree-k part of sum_i (-q)^i Lambda_i S_(k-i), in
    closed form: the sum over compositions I of k, with last part l and
    length m, of (-1)^(m-1) (q^(k-l) - q^k) S^I, sorted, without zeros.

    Lemma: a word I gets exactly two terms.  One is I itself in
    (-q)^k Lambda_k, worth (-1)^m q^k; the other is I without its last
    part in (-q)^(k-l) Lambda_(k-l), times S_l, worth (-1)^(m-1) q^(k-l).
    At q = zeta_r the two cancel exactly when r divides l."""
    ring = ring_of(q)
    power = [ring.one, ring(q)]
    for _ in range(1, k):
        power.append(power[-1] * q)
    by_last = [power[k - l] - power[k] for l in range(k + 1)]
    return tuple(
        (I, by_last[I[-1]] if len(I) % 2 else -by_last[I[-1]])
        for I in sorted_compositions(k)
        if by_last[I[-1]]
    )


def one_minus_q_transform(f: SymElement, q) -> SymElement:
    """f evaluated on the (1-q)-dilated alphabet.

    Algebra endomorphism of Sym: each letter S_k is replaced by the
    degree-k component of the (1-q) series.  Agrees with the internal
    product against :func:`one_minus_q_series` (tested)."""
    return algebra.letterwise(f, q, _one_minus_q_letter)


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
    a = convert(f, R)
    out: dict = {}
    for I, c in a.terms.items():
        for p in permutations_by_descent(sum(I))[I]:
            out[p] = c
    return FqsymElement(a.ring, "G", out, bound=a.bound)
