"""Group algebras of the symmetric and hyperoctahedral groups.

These provide ground truth for the internal products: each graded
component of the level-1 algebra is anti-isomorphic to the descent algebra
of the symmetric group, and the span of the type-B complete basis is
anti-isomorphic to the descent algebra of the hyperoctahedral group.  The
checks here multiply descent classes by brute force and compare.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from .algebra import Element, _compositions, _over_integers
from .combinatorics import (
    descent_set,
    format_composition,
    permutations_by_descent,
    signed_descent_set,
    signed_permutations,
    type_b_compositions,
)
from .linalg import GradedSubspace
from .scalars import QQ
from . import mr
from . import sym

SYMMETRIC, HYPEROCTAHEDRAL = "Sn", "Bn"


class GroupAlgebraElement(Element):
    """Element of the group algebra; the basis tag names the group."""

    algebra = "group"
    bases = (SYMMETRIC, HYPEROCTAHEDRAL)
    key_degree = staticmethod(len)

    @property
    def group(self):
        return self.basis


def delta(ring, word, group=SYMMETRIC, coeff=1) -> GroupAlgebraElement:
    return GroupAlgebraElement(ring, group, {tuple(word): ring(coeff)})


def group_product(f: GroupAlgebraElement, g: GroupAlgebraElement) -> GroupAlgebraElement:
    """Bilinear extension of composition: (u o v)(i) = u(v(i))."""
    if f.group != g.group:
        raise ValueError("group mismatch")
    if f.terms and g.terms and len({len(w) for w in chain(f.terms, g.terms)}) > 1:
        raise ValueError("degree mismatch in group product")
    a, b = f._aligned(g)
    out = _over_integers(_compositions, a.terms, b.terms)
    return GroupAlgebraElement(a.ring, f.group, out)


def descent_class_sn(n: int, comp, ring=QQ) -> GroupAlgebraElement:
    """Sum of the permutations of 1..n with descent composition ``comp``."""
    terms = {p: ring(1) for p in permutations_by_descent(n).get(tuple(comp), ())}
    return GroupAlgebraElement(ring, SYMMETRIC, terms)


def descent_class_bn(n: int, comp, ring=QQ) -> GroupAlgebraElement:
    """Sum of the signed permutations whose descent set is CONTAINED IN the
    descent set of the type-B composition ``comp`` (the class matching the
    type-B complete basis)."""
    target = set(descent_set(tuple(comp)))
    terms = {}
    for w in signed_permutations(n):
        if set(signed_descent_set(w)) <= target:
            terms[w] = ring(1)
    return GroupAlgebraElement(ring, HYPEROCTAHEDRAL, terms)


def sym_to_group(f, n: int) -> GroupAlgebraElement:
    """Image of a degree-n element under ribbon -> exact descent class: the
    G expansion of :func:`sym.to_fqsym`, read in the group algebra."""
    ribbons = sym.convert(f, sym.R)
    if any(sum(I) != n for I in ribbons.terms):
        raise ValueError("element is not homogeneous of the stated degree")
    return GroupAlgebraElement(ribbons.ring, SYMMETRIC, sym.to_fqsym(ribbons).terms)


def _pair(I, J) -> str:
    return f"{format_composition(I)} * {format_composition(J)}"


def verify_descent_antimorphism(n: int):
    """Check that the internal product maps to the opposite product of
    descent classes: for all compositions I, J of n, the class expansion of
    R_I * R_J equals class(J) times class(I).  Returns (ok, failures), each
    failure naming its pair as ``"I * J"``."""
    from .combinatorics import compositions

    comps = list(compositions(n))
    classes = {I: descent_class_sn(n, I) for I in comps}
    failures = []
    for I in comps:
        fI = sym.monomial(QQ, I, basis=sym.R)
        for J in comps:
            fJ = sym.monomial(QQ, J, basis=sym.R)
            lhs = sym_to_group(sym.internal_product(fI, fJ), n)
            rhs = group_product(classes[J], classes[I])
            if lhs.terms != rhs.terms:
                failures.append(_pair(I, J))
    return not failures, failures


def bsym_span(n: int) -> GradedSubspace:
    """Coordinate-tracked span over Q of the degree-n type-B complete basis
    elements, labelled by their type-B compositions: of rank 2^n exactly
    when they are independent."""
    from .combinatorics import colored_compositions

    space = GradedSubspace(QQ, sorted(colored_compositions(n)), degree=n, track=True)
    for comp in sorted(type_b_compositions(n)):
        space.insert(mr.bsym_complete(comp).terms, label=comp)
    return space


def verify_signed_antimorphism(n: int):
    """Type-B analogue: expand the internal product of two type-B complete
    basis elements over that basis, map to contained-descent classes, and
    compare with the opposite product in the hyperoctahedral group algebra.
    Returns (ok, failures), each naming its pair as ``"I * J"`` and whether
    the product left the span or the images differ (or a dependent basis)."""
    comps = list(type_b_compositions(n))
    span = bsym_span(n)
    if span.rank < len(comps):
        return False, ["the type-B complete basis elements are dependent"]
    classes = {I: descent_class_bn(n, I) for I in comps}
    elements = {I: mr.bsym_complete(I) for I in comps}
    failures = []
    for I in comps:
        for J in comps:
            prod = mr.internal_product(elements[I], elements[J])
            coords = span.coordinates(prod.terms)
            if coords is None:
                failures.append(f"{_pair(I, J)}: outside the type-B span")
                continue
            # every class is a sum of group elements with coefficient one
            lhs = Counter()
            for K, c in coords.items():
                lhs.update(dict.fromkeys(classes[K].terms, c))
            rhs = group_product(classes[J], classes[I])
            if {w: c for w, c in lhs.items() if c} != rhs.terms:
                failures.append(f"{_pair(I, J)}: images differ")
    return not failures, failures

