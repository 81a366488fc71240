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

The internal product is computed from the splitting recursion exactly as
in :mod:`peakforge.sym`, with colors transported along: a color-1 letter on
the left acts through the bar involution.
"""

from __future__ import annotations

from functools import cache, lru_cache, partial

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
from .combinatorics import (
    colored_compositions,
    colored_weight,
    flag_major_index,
    standardized_shape,
    barred_weight,
)
from .scalars import QQ, QQq, common_ring, ring_of
from . import sym

S, R = "S", "R"


class MrElement(Element):
    algebra = "mr"
    bases = (S, R)
    key_degree = staticmethod(colored_weight)

    def __mul__(self, other):
        if isinstance(other, MrElement):
            return product(self, other)
        return self.scaled(other)

    @staticmethod
    def key_str(key):
        if not key:
            return "()"
        return ",".join(str(s) if c == 0 else f"-{s}" for s, c in key)

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
# Basis conversions: same-color coarsening


def _merge_same_color(a, b):
    return (a[0] + b[0], a[1]) if a[1] == b[1] else None


@cache
def _complete_to_ribbon(key):
    return tuple((k, 1) for k, _ in coarsenings(key, _merge_same_color))


@cache
def _ribbon_to_complete(key):
    return tuple(
        (k, -1 if m % 2 else 1) for k, m in coarsenings(key, _merge_same_color)
    )


def convert(f: MrElement, basis: str) -> MrElement:
    if basis == f.basis:
        return f
    table = _ribbon_to_complete if f.basis == R else _complete_to_ribbon
    return MrElement(f.ring, basis, expand(f.terms, table), bound=f.bound)


# --------------------------------------------------------------------------
# Products, coproduct, internal product


def product(f: MrElement, g: MrElement) -> MrElement:
    out = word_product(convert(f, S), convert(g, S))
    return convert(out, f.basis)


@cache
def _split(letter):
    size, color = letter
    return tuple(
        (((i, color),) if i else (), ((size - i, color),) if size - i else ())
        for i in range(size + 1)
    )


def coproduct(f: MrElement) -> dict:
    """Coproduct in the S (x) S basis; both colored complete series are
    grouplike, so letters split within their color."""
    return algebra.coproduct(convert(f, S).terms, _split)


@cache
def internal_structure(left, right):
    """Integer structure constants of the internal product of two colored
    complete words, in the colored S basis.

    The underlying sizes pair through margin matrices as in Sym; a color-1
    letter of the left word bars the column it extracts, so the output
    colors are the XOR of the row and column colors.
    """

    def read(reading):
        return tuple(
            [
                (value, right[row][1] ^ left[c][1])
                for c, col in enumerate(reading)
                for row, value in col
            ]
        )

    return internal_words(
        tuple(s for s, _ in right), tuple(s for s, _ in left), read
    )


def internal_product(f: MrElement, g: MrElement) -> MrElement:
    a = convert(f, S)
    b = convert(g, S)
    ring = common_ring(a.ring, b.ring)
    a, b = a.with_ring(ring), b.with_ring(ring)
    out = internal(a.terms, b.terms, internal_structure, colored_weight)
    result = MrElement(ring, S, out, bound=merge_bounds(a.bound, b.bound))
    return convert(result, f.basis)


# --------------------------------------------------------------------------
# Series


def _tagged(f: sym.SymElement, color: int) -> MrElement:
    """A Sym series on one alphabet: every letter gets the same color."""
    terms = {tuple((p, color) for p in I): c for I, c in f.terms.items()}
    return MrElement(f.ring, S, terms, bound=f.bound)


def sigma_series(ring, n_max: int, color: int = 0) -> MrElement:
    return _tagged(sym.sigma_series(ring, n_max), color)


def lambda_series(ring, n_max: int, t=None, color: int = 0) -> MrElement:
    """sum_k t^k Lambda_k on the chosen alphabet, in the colored S basis."""
    return _tagged(sym.lambda_series(ring, n_max, t), color)


def superization_series(q, n_max: int) -> MrElement:
    """The grouplike series lambda-bar_{-q} times sigma implementing the
    alphabet transform A -> A - q Abar (the q-superization)."""
    ring = ring_of(q)
    return product(
        lambda_series(ring, n_max, t=-ring(q), color=1),
        sigma_series(ring, n_max, color=0),
    )


def flat_series(n_max: int, ring=QQ) -> MrElement:
    """lambda times sigma-bar, the bar image of the superization series at
    q = -1."""
    return product(
        lambda_series(ring, n_max, color=0), sigma_series(ring, n_max, color=1)
    )


# typed: equal scalars of different fields, such as -1 in Q and in
# Q(zeta_2), hash alike but give tables over different rings
@lru_cache(maxsize=None, typed=True)
def _sharp_letter(q, letter):
    size, color = letter
    series = superization_series(q, size)
    if color == 1:
        series = bar(series)
    return tuple(sorted(series.homogeneous(size).terms.items()))


def superization(f: MrElement, q) -> MrElement:
    """The q-superization transform: internal product with the superization
    series.  It is an algebra automorphism, so it acts letterwise on
    colored complete words (cross-checked against the internal product in
    the tests)."""
    ring = common_ring(ring_of(q), f.ring)
    a = convert(f, S).with_ring(ring)
    out = expand_letters(a.terms, partial(_sharp_letter, ring(q)))
    return convert(MrElement(ring, S, out, bound=a.bound), f.basis)


def _forget_colors(key):
    return ((tuple(s for s, _ in key), 1),)


def specialize_bar(f: MrElement):
    """The algebra morphism identifying the two alphabets: forget colors."""
    a = convert(f, S)
    terms = expand(a.terms, _forget_colors)
    return sym.SymElement(a.ring, sym.S, terms, bound=a.bound)


# --------------------------------------------------------------------------
# Type-B complete basis


def bsym_complete(comp, ring=QQ) -> MrElement:
    """The type-B complete basis element of a type-B composition
    (i_0, i_1, ..., i_r): S_{i_0} on the plain alphabet times the
    superizations (at q = -1) of S_{i_1}, ..., S_{i_r}."""
    comp = tuple(comp)
    out = unit(ring)
    if comp and comp[0] != 0:
        out = monomial(ring, ((comp[0], 0),))
    q = ring(-1)
    for part in comp[1:]:
        out = product(out, MrElement(ring, S, dict(_sharp_letter(q, (part, 0)))))
    return out


# --------------------------------------------------------------------------
# Inverse of the generic superization, and type-B q-Klyachko elements


def _inverse_coefficient(word, ring, q):
    """Coefficient of a colored complete word in the inverse superization
    series: the exact sum of q^(e_1 a_1 + ... + e_m a_m) over strictly
    decreasing exponents e_1 > ... > e_m >= 0 with e_j of parity c_j.

    The sum telescopes into nested geometric series; each level contributes
    a factor 1 / (1 - q^(2 W)) with W a suffix sum of the sizes.
    """
    one = ring(1)
    acc = {0: one, 1: one}
    w_total = 0
    q = ring(q)
    for size, color in word:
        prev_w = w_total
        w_total += size
        denom = one - q ** (2 * w_total)
        if not denom:
            raise ZeroDivisionError(
                "inverse superization series is singular at this root of unity"
            )
        inner_parity = (color + 1) % 2
        b = (q**prev_w) * acc[inner_parity] / denom
        acc = {color: b, 1 - color: b * q**w_total}
    return acc[0]


def inverse_superization_series(q, n_max: int) -> MrElement:
    """The series g with g * (superization series) = sigma, up to degree
    n_max: the ordered product over decreasing k of sigma_{q^(2k+1)} on the
    barred alphabet times sigma_{q^(2k)} on the plain one, with every
    infinite geometric sum evaluated exactly."""
    ring = ring_of(q)
    terms: dict = {(): ring(1)}
    for n in range(1, n_max + 1):
        for word in colored_compositions(n):
            c = _inverse_coefficient(word, ring, q)
            if c:
                terms[word] = c
    return MrElement(ring, S, terms, bound=n_max)


def klyachko_element(n: int, mode: str = "closed_form") -> MrElement:
    """The type-B q-Klyachko element of degree n over Q(q), in the colored
    ribbon basis.

    ``closed_form`` normalizes the degree-n term of the inverse
    superization series by the product of (1 - q^(2i)); ``ribbon_sum``
    expands sum_J q^(flag major index of J) R_J directly.
    """
    q = QQq.q
    if mode == "closed_form":
        norm = QQq.one
        for i in range(1, n + 1):
            norm = norm * (QQq.one - q ** (2 * i))
        terms = {}
        for word in colored_compositions(n):
            c = _inverse_coefficient(word, QQq, q)
            if c:
                terms[word] = c * norm
        return convert(MrElement(QQq, S, terms), R)
    if mode == "ribbon_sum":
        terms = {jc: q ** flag_major_index(jc) for jc in colored_compositions(n)}
        return MrElement(QQq, R, terms)
    raise ValueError(f"unknown mode {mode!r}")


def ordinal_ribbon_expansion(comp, q) -> MrElement:
    """Expansion of a plain ribbon over the ordinal sum of the two
    alphabets (the barred one scaled by q): the sum of q^(barred letters)
    R_J over the colored compositions J whose attached unsigned shape is
    the given composition."""
    ring = ring_of(q)
    comp = tuple(comp)
    n = sum(comp)
    terms = {}
    for jc in colored_compositions(n):
        if standardized_shape(jc) == comp:
            terms[jc] = ring(q) ** barred_weight(jc)
    return MrElement(ring, R, terms)
