"""The level-2 Mantaci-Reutenauer algebra: the free product of two copies
of the algebra of noncommutative symmetric functions.

Keys are 2-colored compositions; color 0 letters are S_k on the plain
alphabet, color 1 letters ("barred") are S_k on the second alphabet.  The
bar involution flips every color.  Two bases are carried:

* ``S`` -- products of colored complete functions (multiplicative);
* ``R`` -- colored ribbons, defined by same-color coarsening: a colored
  complete word is the sum of the colored ribbons over all ways of merging
  adjacent equal-colored parts.  This is the direct extension of the
  classical ribbon transition and is validated against the expansion of
  the type-B q-Klyachko elements (see the tests).

The internal product follows the splitting recursion letter by letter as
in :mod:`peakforge.sym`, with colors transported along: a color-1 letter on
the left acts through the bar involution.
"""

from __future__ import annotations

from functools import cache, lru_cache
from math import prod

from . import algebra
from .algebra import R, S, WordElement, expand, peeled_structure, word_product
from .combinatorics import (
    colored_compositions,
    colored_weight,
    flag_major_index,
    format_colored_composition,
    sorted_compositions,
    underlying_composition,
)
from .scalars import QQ, QQq, ring_of
from . import sym


# --------------------------------------------------------------------------
# Letter tables: ribbons coarsen within a color, letters split within
# their color


def _merge_same_color(a, b):
    return (a[0] + b[0], a[1]) if a[1] == b[1] else None


@cache
def _split(letter):
    size, color = letter
    return tuple(
        (((i, color),) if i else (), ((size - i, color),) if size - i else ())
        for i in range(size + 1)
    )


def _read_entry(a, b, v):
    return (v, a[1] ^ b[1]), (b[0] - v, b[1])


@cache
def internal_structure(left, right):
    """Integer structure constants of the internal product of two colored
    complete words, in the colored S basis.

    The underlying sizes pair through margin matrices as in Sym; a color-1
    letter of the left word bars the column it extracts, so an entry v
    reads as (v, row color XOR column color), and what is left of a right
    letter keeps its color (see :func:`~peakforge.algebra.peeled_structure`).
    """
    sizes = underlying_composition
    return peeled_structure(left, right, internal_structure, sizes, _read_entry)


class MrElement(WordElement):
    algebra = "mr"
    key_degree = staticmethod(colored_weight)
    merge = staticmethod(_merge_same_color)
    split = staticmethod(_split)
    structure = staticmethod(internal_structure)

    @staticmethod
    def key_str(key):
        return format_colored_composition(key) or "()"

    @staticmethod
    def key_json(key):
        return [list(p) for p in key]


def monomial(ring, key, coeff=1, basis=S) -> MrElement:
    return MrElement.monomial(ring, tuple(tuple(p) for p in key), coeff, basis=basis)


def unit(ring) -> MrElement:
    return MrElement.unit(ring, basis=S)


def bar(f: MrElement) -> MrElement:
    """The involutive automorphism exchanging the two alphabets."""
    return MrElement(
        f.ring,
        f.basis,
        {tuple((s, 1 - c) for s, c in key): v for key, v in f.terms.items()},
        bound=f.bound,
    )


# --------------------------------------------------------------------------
# Basis conversions, products, coproduct, internal product


def convert(f: MrElement, basis: str) -> MrElement:
    return f.convert(basis)


def product(f: MrElement, g: MrElement) -> MrElement:
    return word_product(f, g)


def coproduct(f: MrElement) -> dict:
    """Coproduct in the S (x) S basis; both colored complete series are
    grouplike, so letters split within their color."""
    return algebra.coproduct(f)


def internal_product(f: MrElement, g: MrElement) -> MrElement:
    return algebra.internal_product(f, g)


# --------------------------------------------------------------------------
# Series


def sigma_series(ring, n_max: int) -> MrElement:
    """1 + S_1 + S_2 + ... on the plain alphabet, truncated."""
    terms = {(): ring(1)}
    terms.update((((n, 0),), ring(1)) for n in range(1, n_max + 1))
    return MrElement(ring, S, terms, bound=n_max)


def superization_series(q, n_max: int) -> MrElement:
    """The grouplike series lambda-bar_{-q} times sigma implementing the
    alphabet transform A -> A - q Abar (the q-superization), truncated: the
    unit plus the letter tables of sizes 1..n_max on the plain alphabet."""
    ring = ring_of(q)
    terms = {(): ring.one}
    for k in range(1, n_max + 1):
        terms.update(_sharp_letter(q, (k, 0)))
    return MrElement(ring, S, terms, bound=n_max)


# typed: equal scalars of different fields, such as -1 in Q and in
# Q(zeta_2), hash alike but give tables over different rings
@lru_cache(maxsize=None, typed=True)
def _sharp_letter(q, letter):
    """S_k(A - q Abar) for the letter (k, c), the degree-k part of
    sum_i (-q)^i Lambda_i S_(k-i) with Lambda_i on the other alphabet, in
    closed form: the sum over i = 0..k and compositions I of i of
    (-1)^len(I) q^i Ibar (k-i, c), sorted, where Ibar is I painted with
    color 1-c and the tail (k-i, c) is absent when i = k.

    Lemma: no two terms share a word.  The tail is the one letter of color
    c, so a word gives back i and I."""
    size, color = letter
    ring = ring_of(q)
    power = [ring.one, ring(q)]
    for _ in range(1, size):
        power.append(power[-1] * q)
    out = []
    for i in range(size + 1):
        if not power[i]:  # q = 0
            break
        tail = ((size - i, color),) if i < size else ()
        signed = (power[i], -power[i])
        out.extend(
            (tuple((p, 1 - color) for p in I) + tail, signed[len(I) % 2])
            for I in sorted_compositions(i)
        )
    return tuple(sorted(out))


def superization(f: MrElement, q) -> MrElement:
    """The q-superization transform: internal product with the superization
    series.  It is an algebra automorphism, so it acts letterwise on
    colored complete words (cross-checked against the internal product in
    the tests)."""
    return algebra.letterwise(f, q, _sharp_letter)


def _forget_colors(key):
    return ((tuple(s for s, _ in key), 1),)


def specialize_bar(f: MrElement):
    """The algebra morphism identifying the two alphabets: forget colors."""
    a = convert(f, S)
    terms = expand(a.terms, _forget_colors)
    return sym.SymElement(a.ring, sym.S, terms, bound=a.bound)


# --------------------------------------------------------------------------
# Type-B complete basis


def bsym_complete(comp) -> MrElement:
    """The type-B complete basis element of a type-B composition
    (i_0, i_1, ..., i_r) over Q: S_{i_0} on the plain alphabet times the
    superizations (at q = -1) of S_{i_1}, ..., S_{i_r}."""
    comp = tuple(comp)
    out = unit(QQ)
    if comp and comp[0] != 0:
        out = monomial(QQ, ((comp[0], 0),))
    q = QQ(-1)
    for part in comp[1:]:
        out = product(out, MrElement(QQ, S, dict(_sharp_letter(q, (part, 0)))))
    return out


# --------------------------------------------------------------------------
# Inverse of the generic superization, and type-B q-Klyachko elements


def _inverse_exponents(word):
    """E and the partial sums W_1 < ... < W_m of the sizes of a colored
    complete word, whose coefficient in the inverse superization series is
    q^E / prod_j (1 - q^(2 W_j)).

    The coefficient is the sum of q^(e_1 a_1 + ... + e_m a_m) over strictly
    decreasing exponents e_1 > ... > e_m >= 0 with e_j of parity c_j.  It
    telescopes into nested geometric series, one factor 1 / (1 - q^(2 W_j))
    per letter; the numerator exponents ending in each parity follow an
    integer recursion.
    """
    e = [0, 0]
    sums = []
    w = 0
    for size, color in word:
        b = w + e[1 - color]
        w += size
        e[color], e[1 - color] = b, b + w
        sums.append(w)
    return e[0], sums


def inverse_superization_series(q, n_max: int) -> MrElement:
    """The series g with g * (superization series) = sigma, up to degree
    n_max: the ordered product over decreasing k of sigma_{q^(2k+1)} on the
    barred alphabet times sigma_{q^(2k)} on the plain one, with every
    infinite geometric sum evaluated exactly."""
    ring = ring_of(q)
    q = ring(q)
    factor = {i: ring(1) - q ** (2 * i) for i in range(1, n_max + 1)}
    if not all(factor.values()):
        raise ZeroDivisionError(
            "inverse superization series is singular at this root of unity"
        )
    terms: dict = {(): ring(1)}
    for n in range(1, n_max + 1):
        for word in colored_compositions(n):
            e, sums = _inverse_exponents(word)
            c = q**e / prod((factor[w] for w in sums), start=ring(1))
            if c:
                terms[word] = c
    return MrElement(ring, S, terms, bound=n_max)


def cleared_inverse_component(n: int):
    """(c_n, c_n g_n) over Q(q): g_n is the degree-n part of the inverse
    superization series, in the colored S basis, and c_n is the product of
    (1 - q^(2i)) for i <= n, which clears every denominator of g_n.

    The partial sums of a degree-n word are distinct and end at n, so its
    coefficient in c_n g_n is q^E times the factors (1 - q^(2i)) of c_n
    whose i is not a partial sum: an integer polynomial, built without
    division."""
    q = QQq.q
    factor = {i: 1 - q ** (2 * i) for i in range(1, n + 1)}
    terms = {}
    for word in colored_compositions(n):
        e, sums = _inverse_exponents(word)
        c = q**e
        for i in set(factor).difference(sums):
            c = c * factor[i]
        terms[word] = c
    return prod(factor.values(), start=QQq.one), MrElement(QQq, S, terms)


def klyachko_element(n: int, mode: str = "closed_form") -> MrElement:
    """The type-B q-Klyachko element of degree n over Q(q), in the colored
    ribbon basis.

    ``closed_form`` is the degree-n term of the inverse superization series
    with its denominators cleared (:func:`cleared_inverse_component`);
    ``ribbon_sum`` expands sum_J q^(flag major index of J) R_J directly.
    """
    q = QQq.q
    if mode == "closed_form":
        return convert(cleared_inverse_component(n)[1], R)
    if mode == "ribbon_sum":
        terms = {jc: q ** flag_major_index(jc) for jc in colored_compositions(n)}
        return MrElement(QQq, R, terms)
    raise ValueError(f"unknown mode {mode!r}")
