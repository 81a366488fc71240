"""Group algebras of the symmetric and hyperoctahedral groups.

These provide ground truth for the internal products: each graded
component of the level-1 algebra is anti-isomorphic to the descent algebra
of the symmetric group, and the span of the type-B complete basis is
anti-isomorphic to the descent algebra of the hyperoctahedral group.  The
checks here multiply exact descent classes by brute force, counting the
compositions of their words in integers, and compare.
"""

from __future__ import annotations

from itertools import chain

from .algebra import Element, _compositions, _count_compositions
from .combinatorics import (
    descent_set,
    format_composition,
    permutations_by_descent,
    signed_permutations_by_descent,
    sorted_compositions,
    type_b_compositions,
)
from .linalg import GradedSubspace
from .scalars import QQ, over_integers
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


def group_product(f: GroupAlgebraElement, g: GroupAlgebraElement) -> GroupAlgebraElement:
    """Bilinear extension of composition: (u o v)(i) = u(v(i))."""
    if f.group != g.group:
        raise ValueError("group mismatch")
    if f.terms and g.terms and len({len(w) for w in chain(f.terms, g.terms)}) > 1:
        raise ValueError("degree mismatch in group product")
    a, b = f._aligned(g)
    out = over_integers(_compositions, (a.terms, b.terms))
    return GroupAlgebraElement(a.ring, f.group, out)


def descent_class_sn(n: int, comp) -> GroupAlgebraElement:
    """Sum over Q of the permutations of 1..n with descent composition ``comp``."""
    terms = dict.fromkeys(permutations_by_descent(n).get(tuple(comp), ()), QQ.one)
    return GroupAlgebraElement(QQ, SYMMETRIC, terms)


def descent_class_bn(n: int, comp) -> GroupAlgebraElement:
    """Sum of the signed permutations whose descent set is CONTAINED IN the
    descent set of the type-B composition ``comp`` (the class matching the
    type-B complete basis), over Q: the union of the exact classes below it."""
    table = signed_permutations_by_descent(n)
    words = chain.from_iterable(table[A] for A in _below(table, comp))
    return GroupAlgebraElement(QQ, HYPEROCTAHEDRAL, dict.fromkeys(words, QQ.one))


def _below(table, comp) -> list:
    """The exact classes of ``table`` whose descent sets lie in that of the
    type-B composition ``comp``."""
    target = set(descent_set(tuple(comp)))
    return [A for A in table if target.issuperset(descent_set(A))]


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
    failure naming its pair as ``"I * J"``.

    The group side counts the compositions of the two exact classes' words
    in integers; the pair passes iff every permutation of each class K
    occurs as often as R_K's coefficient says, which checks both that the
    product is constant on the classes and that it equals the image."""
    table = permutations_by_descent(n)
    complete = {I: sym.monomial(QQ, I, basis=sym.R).convert(sym.S) for I in table}
    failures = []
    for I, fI in complete.items():
        for J, fJ in complete.items():
            coeffs = sym.internal_product(fI, fJ).convert(sym.R).terms
            counts = _count_compositions(table[J], table[I])
            if not coeffs.keys() <= table.keys() or any(
                set(map(counts.get, ps)) != {coeffs.get(K)} for K, ps in table.items()
            ):
                failures.append(_pair(I, J))
    return not failures, failures


def bsym_span(n: int) -> GradedSubspace:
    """Coordinate-tracked span over Q of the degree-n type-B complete basis
    elements, labelled by their type-B compositions: of rank 2^n exactly
    when they are independent."""
    keys = sorted_compositions(n, colored=True)
    space = GradedSubspace(QQ, keys, degree=n, track=True)
    for comp in sorted(type_b_compositions(n)):
        space.insert(mr.bsym_complete(comp).terms, label=comp)
    return space


def verify_signed_antimorphism(n: int):
    """Type-B analogue: expand the internal product of two type-B complete
    basis elements over that basis, map to contained-descent classes, and
    compare with the opposite product in the hyperoctahedral group algebra.
    Returns (ok, failures), each naming its pair as ``"I * J"`` and whether
    the product left the span or the images differ (or a dependent basis).

    Both sides are compared on the exact descent classes (Solomon, *J.
    Algebra* 41 (1976)): each product of two exact classes is counted once
    in integers and must be constant on every exact class, else the failure
    names the two classes; a contained class is the sum of the exact
    classes below it."""
    comps = list(type_b_compositions(n))
    span = bsym_span(n)
    if span.rank < len(comps):
        return False, ["the type-B complete basis elements are dependent"]
    table = signed_permutations_by_descent(n)
    # the product of two exact classes, by its coordinates on them in the
    # order of the table
    exact = {}
    failures = []
    for A, us in table.items():
        for B, vs in table.items():
            counts = _count_compositions(us, vs)
            coords = [set(map(counts.get, ws)) for ws in table.values()]
            bad = next((M for M, c in zip(table, coords) if len(c) > 1), None)
            if bad is not None:
                failures.append(
                    f"exact classes {_pair(A, B)}: product not constant on "
                    f"the class {format_composition(bad)}"
                )
            exact[A, B] = tuple(c.pop() or 0 for c in coords)
    if failures:
        return False, failures
    below = {K: _below(table, K) for K in comps}
    above = {M: [K for K in comps if M in below[K]] for M in table}
    elements = {I: mr.bsym_complete(I) for I in comps}
    for I in comps:
        for J in comps:
            prod = mr.internal_product(elements[I], elements[J])
            coords = span.coordinates(prod.terms)
            if coords is None:
                failures.append(f"{_pair(I, J)}: outside the type-B span")
                continue
            lhs = tuple(sum(coords.get(K, 0) for K in above[M]) for M in table)
            terms = [exact[A, B] for A in below[J] for B in below[I]]
            rhs = tuple(map(sum, zip(*terms)))
            if lhs != rhs:
                failures.append(f"{_pair(I, J)}: images differ")
    return not failures, failures
