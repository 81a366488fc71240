"""Free quasi-symmetric functions in the G, F and monomial bases.

Keys are permutations (one-line words).  F_sigma = G_{sigma inverse}; the
degreewise internal product is composition of permutations on the F basis.
The monomial basis is pinned by the 0-1 transition G_pi = sum of M_sigma
over sigma with pi below the inverse of sigma in right weak order; its
inverse is computed by ascending-length elimination.  Only the internal
(degreewise) product is implemented; the outer shifted-shuffle product is
out of scope here.
"""

from __future__ import annotations

from .algebra import Element, internal, merge_bounds
from .combinatorics import (
    descent_positions,
    inverse,
    compose,
    left_right_minima,
    permutations,
    weak_order_ideal,
    weak_order_lower_masks,
)
from .scalars import common_ring, ring_of

G, F, M = "G", "F", "M"


class FqsymElement(Element):
    algebra = "fqsym"
    bases = (G, F, M)
    key_degree = staticmethod(len)


def monomial(ring, key, coeff=1, basis=G) -> FqsymElement:
    return FqsymElement.monomial(ring, tuple(key), coeff, basis=basis)


def _invert_keys(f: FqsymElement, new_basis: str) -> FqsymElement:
    return FqsymElement(
        f.ring,
        new_basis,
        {inverse(p): c for p, c in f.terms.items()},
        bound=f.bound,
    )


def g_to_f(f: FqsymElement) -> FqsymElement:
    if f.basis != G:
        raise ValueError("expected a G-basis element")
    return _invert_keys(f, F)


def f_to_g(f: FqsymElement) -> FqsymElement:
    if f.basis != F:
        raise ValueError("expected an F-basis element")
    return _invert_keys(f, G)


def g_to_m(f: FqsymElement) -> FqsymElement:
    """Expand a G-basis element over the monomial basis.

    The coefficient of M_sigma is the sum of the G coefficients over the
    weak-order ideal of the inverse of sigma.
    """
    if f.basis != G:
        raise ValueError("expected a G-basis element")
    out: dict = {}
    by_degree: dict = {}
    for p, c in f.terms.items():
        by_degree.setdefault(len(p), {})[p] = c
    for n, terms in by_degree.items():
        masks = weak_order_lower_masks(n)
        items = [(masks[p], c) for p, c in terms.items()]
        for sigma in permutations(n):
            m = masks[inverse(sigma)]
            total = None
            for pm, c in items:
                if pm | m == m:
                    total = c if total is None else total + c
            if total:
                out[sigma] = total
    return FqsymElement(f.ring, M, out, bound=f.bound)


def m_to_g(f: FqsymElement) -> FqsymElement:
    """Inverse of :func:`g_to_m`, by ascending-length elimination along the
    right weak order."""
    if f.basis != M:
        raise ValueError("expected an M-basis element")
    out: dict = {}
    by_degree: dict = {}
    for p, c in f.terms.items():
        by_degree.setdefault(len(p), {})[p] = c
    for n, terms in by_degree.items():
        masks = weak_order_lower_masks(n)
        order = sorted(permutations(n), key=lambda p: bin(masks[p]).count("1"))
        known: list = []  # (mask, rho, coeff) with coeff nonzero
        for rho in order:
            m = masks[rho]
            total = terms.get(inverse(rho))
            for pm, _, c in known:
                if pm | m == m:
                    total = -c if total is None else total - c
            if total:
                known.append((m, rho, total))
                out[rho] = total
    return FqsymElement(f.ring, G, out, bound=f.bound)


def convert(f: FqsymElement, basis: str) -> FqsymElement:
    if basis == f.basis:
        return f
    if f.basis == F:
        return convert(f_to_g(f), basis)
    if f.basis == M:
        return convert(m_to_g(f), basis)
    # from G
    if basis == F:
        return g_to_f(f)
    if basis == M:
        return g_to_m(f)
    raise ValueError(f"unknown basis {basis!r}")


def _composition(p, t):
    return ((compose(p, t), 1),)


def internal_product(f: FqsymElement, g: FqsymElement) -> FqsymElement:
    """Degreewise internal product: composition on the F basis."""
    a = convert(f, F)
    b = convert(g, F)
    ring = common_ring(a.ring, b.ring)
    a, b = a.with_ring(ring), b.with_ring(ring)
    out = internal(a.terms, b.terms, _composition, len)
    result = FqsymElement(ring, F, out, bound=merge_bounds(a.bound, b.bound))
    return convert(result, f.basis)


def monomial_dual(p, ring) -> FqsymElement:
    """The dual basis element of M_p, expanded over the F basis: the sum of
    F_tau over the weak-order ideal of the inverse of p (inclusive)."""
    terms = {tau: ring(1) for tau in weak_order_ideal(inverse(tuple(p)))}
    return FqsymElement(ring, F, terms)


def hook_evaluation(p, q):
    """The specialization F_p(1-q): (-q)^k when the descent set of p is
    {1, ..., k} (k = 0 for no descents), zero otherwise."""
    ring = ring_of(q)
    descents = descent_positions(tuple(p))
    k = len(descents)
    if descents != tuple(range(1, k + 1)):
        return ring(0)
    return (-ring(q)) ** k


def complete_monomial_expansion(n: int, q) -> FqsymElement:
    """The monomial expansion of the degree-n complete function on the
    (1-q)-dilated alphabet: sum over permutations of (1-q)^(number of
    left-to-right minima) times M_sigma."""
    ring = ring_of(q)
    one_minus_q = ring(1) - ring(q)
    powers = [ring(1)]
    for _ in range(n):
        powers.append(powers[-1] * one_minus_q)
    terms = {}
    for sigma in permutations(n):
        _, k = left_right_minima(sigma)
        if powers[k]:
            terms[sigma] = powers[k]
    return FqsymElement(ring, M, terms)
