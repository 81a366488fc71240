"""Permutation references that only the tests use: composition of
(signed) permutations, descent sets and the composition they cut, hook
sizes, the right weak order by inversion masks and by its covers, and the
group-algebra element of one word.  The library reads the same facts from
one-scan descent compositions, its cached tables
(``permutations_by_descent``, ``inverse_inversion_masks``) and from the
exact descent classes of ``oracle``; the tests check those against these
definitions."""

from functools import cache

from peakforge.oracle import SYMMETRIC, GroupAlgebraElement


def compose(u, v):
    """(u o v)(i) = u(v(i))."""
    return tuple(u[x - 1] for x in v)


def compose_signed(u, v):
    """(u o v)(i) = u(v(i)), with u(-j) = -u(j)."""
    out = []
    for x in v:
        if x > 0:
            out.append(u[x - 1])
        else:
            out.append(-u[-x - 1])
    return tuple(out)


def descent_positions(perm) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(len(perm) - 1) if perm[i] > perm[i + 1])


def signed_descent_set(w) -> tuple[int, ...]:
    """Descents of a signed permutation, with w(0) = 0 prepended; a subset
    of 0..n-1.

    >>> signed_descent_set((-2, 3, 1, -5, 4, 6))
    (0, 2, 3)
    """
    vals = (0,) + tuple(w)
    return tuple(i for i in range(len(w)) if vals[i] > vals[i + 1])


def composition_from_descents(descents, n: int) -> tuple[int, ...]:
    """The (type-B) composition of n whose descent set is ``descents``: the
    successive gaps, with a leading zero part exactly when 0 is a descent.

    >>> composition_from_descents({3, 5, 7}, 8), composition_from_descents({0, 2}, 3)
    ((3, 2, 2, 1), (0, 2, 1))
    """
    if n == 0:
        return ()
    parts = []
    prev = 0
    for c in sorted(descents):
        parts.append(c - prev)
        prev = c
    parts.append(n - prev)
    return tuple(parts)


def hook_size(perm):
    """k >= 0 when the descent set is exactly {1, ..., k}, else None.

    >>> hook_size((1, 2, 3)), hook_size((3, 2, 1)), hook_size((1, 3, 2, 4))
    (0, 2, None)
    """
    descents = descent_positions(perm)
    k = len(descents)
    if descents == tuple(range(1, k + 1)):
        return k
    return None


def inversion_mask(perm) -> int:
    """Bitmask of value inversions: bit for each pair a < b with a after b."""
    pos = {v: i for i, v in enumerate(perm)}
    mask = 0
    bit = 0
    n = len(perm)
    for b in range(2, n + 1):
        for a in range(1, b):
            if pos[a] > pos[b]:
                mask |= 1 << bit
            bit += 1
    return mask


def weak_order_leq(u, v) -> bool:
    """u <= v in right weak order (inversion-set containment)."""
    mu, mv = inversion_mask(u), inversion_mask(v)
    return mu | mv == mv


@cache
def weak_order_ideal(perm) -> frozenset:
    """All permutations below ``perm`` in right weak order, inclusive.

    Covers go down by undoing a descent (swapping an adjacent out-of-order
    pair of positions).

    >>> sorted(weak_order_ideal((2, 3, 1)))
    [(1, 2, 3), (2, 1, 3), (2, 3, 1)]
    """
    seen = {perm}
    stack = [perm]
    while stack:
        u = stack.pop()
        for i in range(len(u) - 1):
            if u[i] > u[i + 1]:
                v = u[:i] + (u[i + 1], u[i]) + u[i + 2 :]
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    return frozenset(seen)


def delta(ring, word, group=SYMMETRIC, coeff=1) -> GroupAlgebraElement:
    return GroupAlgebraElement(ring, group, {tuple(word): ring(coeff)})
