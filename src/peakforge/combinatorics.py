"""Compositions, permutations, their signed/colored variants, and the
descent statistics built on them.

Conventions used throughout the package:

- A *composition* of n is a tuple of positive integers summing to n;
  the empty tuple is the unique composition of 0.
- A *permutation* is a one-line word, a tuple containing 1..n.
- A *signed permutation* is a one-line word of nonzero integers whose
  absolute values form a permutation, e.g. ``(-2, 3, 1)``.
- A *colored composition* of level c is a tuple of ``(size, color)`` pairs
  with sizes >= 1 and colors in ``range(c)``; at level 2, color 1 is
  rendered with a minus sign ("barred").
- A *type-B composition* is a composition whose first part may be 0.

Everything here is a pure function of immutable values.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from functools import cache

# --------------------------------------------------------------------------
# Compositions


def compositions(n: int):
    """All compositions of n in lexicographic order.

    >>> list(compositions(3))
    [(1, 1, 1), (1, 2), (2, 1), (3,)]
    """
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def descent_set(comp: tuple[int, ...]) -> tuple[int, ...]:
    """Partial sums of a (type-B) composition, excluding the total.

    >>> descent_set((3, 2, 2, 1))
    (3, 5, 7)
    """
    out = []
    total = 0
    for part in comp[:-1]:
        total += part
        out.append(total)
    return tuple(out)


def composition_from_descents(descents, n: int) -> tuple[int, ...]:
    """The composition of n with the given descent set.

    >>> composition_from_descents({3, 5, 7}, 8)
    (3, 2, 2, 1)
    """
    if n == 0:
        return ()
    cuts = sorted(descents)
    parts = []
    prev = 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(n - prev)
    return tuple(parts)


def major_index(comp: tuple[int, ...]) -> int:
    """Sum of the descent positions of a composition.

    >>> major_index((2, 1, 1, 3, 1, 6, 3, 2))
    55
    """
    return sum(descent_set(comp))


# --------------------------------------------------------------------------
# Permutations (one-line words, values 1..n)


def permutations(n: int):
    """All permutations of 1..n in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def inverse(perm):
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v - 1] = i + 1
    return tuple(inv)


def compose(u, v):
    """(u o v)(i) = u(v(i))."""
    return tuple(u[x - 1] for x in v)


def descent_positions(perm) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(len(perm) - 1) if perm[i] > perm[i + 1])


def descent_composition(perm) -> tuple[int, ...]:
    """The composition of n recording the descent set of a permutation.

    >>> descent_composition((4, 6, 7, 3, 5, 1, 8, 2))
    (3, 2, 2, 1)
    """
    return composition_from_descents(descent_positions(perm), len(perm))


def standardize(word):
    """The permutation order-isomorphic to a word, ties broken left to right.

    >>> standardize("baa")
    (3, 1, 2)
    >>> standardize("aba")
    (1, 3, 2)
    """
    order = sorted(range(len(word)), key=lambda i: (word[i], i))
    out = [0] * len(word)
    for rank, i in enumerate(order, start=1):
        out[i] = rank
    return tuple(out)


def left_right_minima(perm) -> tuple[frozenset, int]:
    """Values with no smaller value to their left, and their count.

    >>> left_right_minima((4, 6, 7, 3, 5, 1, 8, 2))
    (frozenset({1, 3, 4}), 3)
    """
    mins = []
    best = None
    for v in perm:
        if best is None or v < best:
            mins.append(v)
            best = v
    return frozenset(mins), len(mins)


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


def lex_min_permutation(comp: tuple[int, ...]):
    """The lexicographically smallest permutation whose descent composition
    is ``comp``.

    >>> lex_min_permutation((2, 1))
    (1, 3, 2)
    """
    n = sum(comp)
    descents = set(descent_set(comp))
    # run[i]: number of consecutive descents starting at position i
    run = [0] * (n + 2)
    for i in range(n - 1, 0, -1):
        run[i] = run[i + 1] + 1 if i in descents else 0
    avail = list(range(1, n + 1))
    word = []
    prev = None
    for i in range(1, n + 1):
        d = run[i]
        if prev is None or (i - 1) in descents:
            j = d
        else:
            j = max(d, bisect_right(avail, prev))
        v = avail.pop(j)
        word.append(v)
        prev = v
    return tuple(word)


@cache
def permutations_by_descent(n: int) -> dict:
    """Permutations of 1..n grouped by descent composition."""
    groups: dict = {I: [] for I in compositions(n)}
    for p in permutations(n):
        groups[descent_composition(p)].append(p)
    return {I: tuple(ps) for I, ps in groups.items()}


# ---- weak order -----------------------------------------------------------


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


@cache
def weak_order_lower_masks(n: int) -> dict:
    """Permutation -> inversion bitmask table for one degree (cached)."""
    return {p: inversion_mask(p) for p in permutations(n)}


# --------------------------------------------------------------------------
# Signed permutations (one-line words of nonzero integers)


def signed_permutations(n: int):
    """All signed permutations of 1..n (2^n n! of them)."""
    for p in permutations(n):
        for signs in itertools.product((1, -1), repeat=n):
            yield tuple(s * v for s, v in zip(signs, p))


def compose_signed(u, v):
    """(u o v)(i) = u(v(i)), with u(-j) = -u(j)."""
    out = []
    for x in v:
        if x > 0:
            out.append(u[x - 1])
        else:
            out.append(-u[-x - 1])
    return tuple(out)


def signed_descent_set(w) -> tuple[int, ...]:
    """Descents of a signed permutation, with w(0) = 0 prepended; a subset
    of 0..n-1."""
    vals = (0,) + tuple(w)
    return tuple(i for i in range(len(w)) if vals[i] > vals[i + 1])


def signed_descent_composition(w) -> tuple[int, ...]:
    """The type-B composition of a signed permutation: successive gaps of
    its descent set, with a leading zero part exactly when 0 is a descent.

    >>> signed_descent_composition((-2, 3, 1, -5, 4, 6))
    (0, 2, 1, 3)
    """
    return composition_from_descents(signed_descent_set(w), len(w))


def type_b_compositions(n: int):
    """All 2^n type-B compositions of n (first part may be zero)."""
    if n == 0:
        yield ()
        return
    for comp in compositions(n):
        yield comp
        yield (0,) + comp


# --------------------------------------------------------------------------
# Colored compositions


def colored_compositions(n: int, colors: int = 2):
    """All colored compositions of n at a given level.

    >>> list(colored_compositions(2))
    [((1, 0), (1, 0)), ((1, 0), (1, 1)), ((1, 1), (1, 0)), ((1, 1), (1, 1)), ((2, 0),), ((2, 1),)]
    """
    for comp in compositions(n):
        for painting in itertools.product(range(colors), repeat=len(comp)):
            yield tuple(zip(comp, painting))


def is_colored_composition(jc, colors: int = 2) -> bool:
    return all(
        isinstance(p, tuple) and len(p) == 2 and p[0] >= 1 and 0 <= p[1] < colors
        for p in jc
    )


def colored_weight(jc) -> int:
    return sum(size for size, _ in jc)


def underlying_composition(jc) -> tuple[int, ...]:
    return tuple(size for size, _ in jc)


def barred_weight(jc) -> int:
    """Total number of barred letters: the sizes of the color-1 parts."""
    return sum(size for size, color in jc if color == 1)


def standardize_signed(pairs):
    """Standardize a word of distinct (value, color) letters, color 1 barred,
    under the order: every barred letter is smaller than every unbarred one,
    and each block is ordered by value.

    >>> standardize_signed(((1, 1), (2, 0)))
    (1, 2)
    >>> standardize_signed(((1, 0), (2, 1)))
    (2, 1)
    """
    if len(set(pairs)) != len(pairs):
        raise ValueError("signed standardization needs distinct letters")
    return standardize([(1 - color, value) for value, color in pairs])


def standardized_shape(jc) -> tuple[int, ...]:
    """The unsigned composition attached to a level-2 colored composition:
    sign any permutation of the underlying shape blockwise, standardize the
    signed word, and take its descent composition.  Independent of the
    chosen permutation; the lexicographically minimal one is used.

    >>> standardized_shape(((2, 0), (1, 0), (1, 0), (3, 1), (1, 1), (2, 1), (4, 0), (1, 1), (2, 0), (2, 0)))
    (2, 1, 1, 3, 1, 6, 3, 2)
    """
    shape = underlying_composition(jc)
    perm = lex_min_permutation(shape)
    pairs = []
    i = 0
    for size, color in jc:
        for _ in range(size):
            pairs.append((perm[i], color))
            i += 1
    return descent_composition(standardize_signed(tuple(pairs)))


def merged_shape(jc) -> tuple[int, ...]:
    """Same composition as :func:`standardized_shape`, computed by a single
    left-to-right pass: a boundary between a barred part and an unbarred
    part to its right is erased (the two sizes add up).

    >>> merged_shape(((1, 1), (1, 0)))
    (2,)
    """
    parts = []
    prev_color = None
    for size, color in jc:
        if parts and prev_color == 1 and color == 0:
            parts[-1] += size
        else:
            parts.append(size)
        prev_color = color
    return tuple(parts)


def flag_major_index(jc) -> int:
    """Twice the major index of the attached unsigned composition, plus the
    number of barred letters.

    >>> flag_major_index(((2, 0), (1, 0), (1, 0), (3, 1), (1, 1), (2, 1), (4, 0), (1, 1), (2, 0), (2, 0)))
    117
    """
    return 2 * major_index(standardized_shape(jc)) + barred_weight(jc)


def part_weights(jc, colors: int = 2) -> tuple[int, ...]:
    """Right-to-left weights of the parts of a colored composition: the
    rightmost part weighs its color, and each part to the left adds the
    representative in 1..colors of (next color - this color) mod colors.
    """
    weights = []
    next_weight = None
    next_color = None
    for size, color in reversed(jc):
        if next_weight is None:
            w = color
        else:
            step = (next_color - color) % colors
            if step == 0:
                step = colors
            w = next_weight + step
        weights.append(w)
        next_weight, next_color = w, color
    return tuple(reversed(weights))


def flag_major_index_by_weights(jc, colors: int = 2) -> int:
    """Weight form of the flag major index; agrees with
    :func:`flag_major_index` at level 2 and extends to any number of colors.
    """
    return sum(size * w for (size, _), w in zip(jc, part_weights(jc, colors)))


# --------------------------------------------------------------------------
# Text encodings


def parse_colored_composition(text: str, colors: int = 2):
    """Parse "2,1,-3" (minus = barred, level 2) or "2~0,1~2" (explicit colors)."""
    text = text.strip()
    if not text:
        return ()
    parts = []
    for token in text.split(","):
        token = token.strip()
        if "~" in token:
            size, color = token.split("~")
            parts.append((int(size), int(color)))
        elif token.startswith("-"):
            parts.append((int(token[1:]), 1))
        else:
            parts.append((int(token), 0))
    jc = tuple(parts)
    if not is_colored_composition(jc, colors):
        raise ValueError(f"not a colored composition of level {colors}: {text!r}")
    return jc


def format_composition(comp) -> str:
    return ",".join(str(p) for p in comp)


def format_colored_composition(jc, colors: int = 2) -> str:
    if colors == 2:
        return ",".join(str(size) if color == 0 else f"-{size}" for size, color in jc)
    return ",".join(f"{size}~{color}" for size, color in jc)
