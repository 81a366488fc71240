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
from functools import cache
from operator import or_
from types import MappingProxyType

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


def descent_composition(perm) -> tuple[int, ...]:
    """The composition of n recording the descent set of a word of
    distinct values, such as a permutation, read off in one scan.

    >>> descent_composition((4, 6, 7, 3, 5, 1, 8, 2))
    (3, 2, 2, 1)
    """
    n = len(perm)
    parts, start = [], 0
    for i in range(1, n):
        if perm[i - 1] > perm[i]:
            parts.append(i - start)
            start = i
    return (*parts, n - start) if n else ()


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


@cache
def permutations_by_descent(n: int) -> MappingProxyType:
    """Permutations of 1..n grouped by descent composition, as a read-only
    mapping: the table is cached and shared by every caller.

    Lemma: i is a descent of sigma exactly when bit (i - 1, i) of its mask
    in :func:`inverse_inversion_masks` is set, so each permutation's group
    is read off its mask restricted to those n - 1 adjacent bits.
    """
    adjacent = {i: 1 << (i * (i + 1) // 2 - 1) for i in range(1, n)}  # bit (i-1, i)
    groups: dict = {I: [] for I in compositions(n)}
    by_pattern = {sum([adjacent[i] for i in descent_set(I)]): ps for I, ps in groups.items()}
    everywhere = sum(adjacent.values())
    for p, mask in inverse_inversion_masks(n).items():
        by_pattern[mask & everywhere].append(p)
    return MappingProxyType({I: tuple(ps) for I, ps in groups.items()})


# ---- weak order -----------------------------------------------------------


@cache
def inverse_inversion_masks(n: int) -> MappingProxyType:
    """Permutation sigma -> the bitmask of the value inversions of its
    inverse, for one degree, as a read-only mapping in lexicographic order
    (the table is cached and shared).

    Bit (a, b), a < b, at a + b(b - 1)/2, is set iff sigma(a) > sigma(b),
    so u lies in the weak order ideal of the inverse of sigma iff the mask
    of the inverse of u is contained in the mask of sigma.

    Built by the first letter: in lexicographic order s = (v,) + t, the
    values of t at or above v raised by one, for v = 1..n and t of degree
    n - 1 in lexicographic order.  Lemma 1: bit (a, b) of t is bit
    (a + 1, b + 1) of s, as raising keeps the order.  Lemma 2: bit (0, b)
    of s is set iff t(b - 1) < v, so the row-0 bits of s are a prefix OR
    over the values of t below v.

    >>> inverse_inversion_masks(3)[(2, 3, 1)]
    6
    """
    if n == 0:
        return MappingProxyType({(): 0})
    moved = [1 << (a + 1 + b * (b + 1) // 2) for b in range(1, n - 1) for a in range(b)]
    tables = or_tables(moved)
    row0 = [1 << (b * (b - 1) // 2) for b in range(n)]  # bit (0, b), b >= 1
    raised, prefixes = [], []
    for t, mask in inverse_inversion_masks(n - 1).items():
        bits = 0
        for table in tables:
            bits |= table[mask & 255]
            mask >>= 8
        raised.append(bits)
        by_value = [row0[b] for b in inverse(t)]
        prefixes.append(list(itertools.accumulate(by_value, or_, initial=0)))
    masks = []
    for v in range(n):
        masks += [bits | prefix[v] for bits, prefix in zip(raised, prefixes)]
    return MappingProxyType(dict(zip(permutations(n), masks)))


def or_tables(bits: list) -> list:
    """For each 8-bit chunk of an index into ``bits``, the 256-entry table
    of the OR of the ``bits[j]`` whose bit j the chunk sets; a mask's OR is
    one read per chunk."""
    tables = []
    for low in range(0, len(bits), 8):
        table = [0]
        for bit in bits[low : low + 8]:
            table += [t | bit for t in table]
        tables.append(table)
    return tables


# --------------------------------------------------------------------------
# Signed permutations (one-line words of nonzero integers)


def signed_permutations(n: int):
    """All signed permutations of 1..n (2^n n! of them)."""
    for p in permutations(n):
        for signs in itertools.product((1, -1), repeat=n):
            yield tuple(s * v for s, v in zip(signs, p))


def signed_descent_composition(w) -> tuple[int, ...]:
    """The type-B composition of a signed permutation: the descent
    composition of the word 0w with one taken off its first part, so the
    first part is 0 exactly when 0 is a descent; () for the empty word.

    Lemma: position i is a descent of w, with w(0) = 0, exactly when i + 1
    is a descent of 0w, so the two descent sets differ by a shift of one.

    >>> signed_descent_composition((-2, 3, 1, -5, 4, 6))
    (0, 2, 1, 3)
    """
    if not w:
        return ()
    first, *rest = descent_composition((0, *w))
    return (first - 1, *rest)


def type_b_compositions(n: int):
    """All 2^n type-B compositions of n (first part may be zero)."""
    if n == 0:
        yield ()
        return
    for comp in compositions(n):
        yield comp
        yield (0,) + comp


@cache
def signed_permutations_by_descent(n: int) -> MappingProxyType:
    """Signed permutations of 1..n grouped by type-B descent composition
    (the exact descent classes), as a read-only mapping: the table is
    cached and shared by every caller."""
    groups: dict = {I: [] for I in type_b_compositions(n)}
    for w in signed_permutations(n):
        groups[signed_descent_composition(w)].append(w)
    return MappingProxyType({I: tuple(ws) for I, ws in groups.items()})


# --------------------------------------------------------------------------
# Colored compositions


def colored_compositions(n: int):
    """All 2-colored compositions of n.

    >>> list(colored_compositions(2))
    [((1, 0), (1, 0)), ((1, 0), (1, 1)), ((1, 1), (1, 0)), ((1, 1), (1, 1)), ((2, 0),), ((2, 1),)]
    """
    for comp in compositions(n):
        for painting in itertools.product((0, 1), repeat=len(comp)):
            yield tuple(zip(comp, painting))


@cache
def sorted_compositions(n: int, colored: bool = False) -> tuple:
    """The compositions of n, or its 2-colored compositions, sorted: one
    tuple per degree and alphabet, cached and shared by every caller (the
    ambient keys of the degree-n spans and the words of the letter
    tables)."""
    return tuple(sorted(colored_compositions(n) if colored else compositions(n)))


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
    chosen permutation; the one signed here has blocks of consecutive
    values, the highest block first and each block increasing.

    >>> standardized_shape(((2, 0), (1, 0), (1, 0), (3, 1), (1, 1), (2, 1), (4, 0), (1, 1), (2, 0), (2, 0)))
    (2, 1, 1, 3, 1, 6, 3, 2)
    """
    pairs = []
    top = sum(size for size, _ in jc)
    for size, color in jc:
        top -= size
        pairs.extend((top + i, color) for i in range(1, size + 1))
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
