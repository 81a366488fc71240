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
from operator import itemgetter

from .algebra import Element
from .combinatorics import (
    descent_set,
    format_composition,
    permutations_by_descent,
    signed_descent_set,
    signed_permutations,
    type_b_compositions,
)
from .linalg import GradedSubspace
from .scalars import QQ, common_ring
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
    ring = common_ring(f.ring, g.ring)
    # count the compositions of each pair of coefficient classes in int,
    # then scale once per resulting element
    out: dict = {}
    right = _by_coefficient(g.terms)
    for cu, us in _by_coefficient(f.terms).items():
        for cv, vs in right.items():
            c = ring(cu) * ring(cv)
            for key, n in _count_compositions(us, vs).items():
                s = out.get(key)
                out[key] = n * c if s is None else s + n * c
    return GroupAlgebraElement(ring, f.group, {k: c for k, c in out.items() if c})


def _by_coefficient(terms: dict) -> dict:
    """Coefficient -> the keys that carry it."""
    out: dict = {}
    for key, c in terms.items():
        out.setdefault(c, []).append(key)
    return out


def _count_compositions(us, vs) -> dict:
    """How often each u o v occurs over all pairs of (signed) permutations."""
    # u o v reads u at the entries of v: index j of a table below holds u(j)
    # for -n <= j <= n; the two leading reads of index 0 make every read a
    # tuple, even for the empty permutation
    tables = [(0, *u, *[-x for x in reversed(u)]) for u in us]
    counts = Counter()
    for v in vs:
        counts.update(map(itemgetter(0, 0, *v), tables))
    return {key[2:]: n for key, n in counts.items()}


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
    """Image of a degree-n element under ribbon -> exact descent class."""
    ribbons = sym.convert(f, sym.R)
    out = GroupAlgebraElement(ribbons.ring, SYMMETRIC, {})
    for I, c in ribbons.terms.items():
        if sum(I) != n:
            raise ValueError("element is not homogeneous of the stated degree")
        out = out + c * descent_class_sn(n, I, ribbons.ring)
    return out


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


def bsym_span(n: int, ring=QQ) -> GradedSubspace:
    """Coordinate-tracked span of the type-B complete basis elements inside
    the degree-n component of the level-2 algebra."""
    from .combinatorics import colored_compositions

    space = GradedSubspace(
        ring, sorted(colored_compositions(n)), degree=n, track=True
    )
    for comp in sorted(type_b_compositions(n)):
        element = mr.bsym_complete(comp, ring)
        grew = space.insert(element.terms, label=comp)
        if not grew:
            raise ArithmeticError(f"type-B basis element {comp} is dependent")
    return space


def verify_signed_antimorphism(n: int):
    """Type-B analogue: expand the internal product of two type-B complete
    basis elements over that basis, map to contained-descent classes, and
    compare with the opposite product in the hyperoctahedral group algebra.
    Returns (ok, failures), each failure naming its pair as ``"I * J"`` and
    saying whether the product left the span or the images differ."""
    comps = list(type_b_compositions(n))
    span = bsym_span(n)
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

