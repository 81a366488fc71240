"""Free quasi-symmetric functions in the G, F and monomial bases.

Keys are permutations (one-line words).  F_sigma = G_{sigma inverse}; the
degreewise internal product is composition of permutations on the F basis.
The monomial basis is pinned by the 0-1 transition G_pi = sum of M_sigma
over sigma with pi below the inverse of sigma in right weak order, as in
Aguiar and Sottile (Adv. Math. 191 (2005)), who define M from G by Moebius
inversion on the weak order.  G -> M reads, for each sigma, the set of
terms below the inverse of sigma as an integer bitset, a few bit-table
reads per sigma, and memoizes the M coefficient on that bitset (see
:func:`g_to_m`); M -> G reads the weak order's Moebius function, which is
explicit (see :func:`m_to_g`).  Only the internal (degreewise) product is
implemented; the outer shifted-shuffle product is out of scope here.
"""

from __future__ import annotations

from itertools import accumulate

from .algebra import Element, _compositions, by_coefficient, merge_bounds
from .combinatorics import inverse, inverse_inversion_masks, left_right_minima, or_tables
from .scalars import over_integers, ring_of

G, F, M = "G", "F", "M"


class FqsymElement(Element):
    algebra = "fqsym"
    bases = (G, F, M)
    key_degree = staticmethod(len)

    def convert(self, basis):
        """Re-express the element in another basis, through G: F_sigma is
        G_{sigma inverse}, and :func:`m_to_g` inverts :func:`g_to_m`."""
        if basis == self.basis:
            return self
        if self.basis == F:
            return _invert_keys(self, G).convert(basis)
        if self.basis == M:
            return m_to_g(self).convert(basis)
        if basis == F:
            return _invert_keys(self, F)
        return g_to_m(self) if basis == M else Element.convert(self, basis)


def monomial(ring, key, coeff=1, basis=G) -> FqsymElement:
    return FqsymElement.monomial(ring, tuple(key), coeff, basis=basis)


def _invert_keys(f: FqsymElement, new_basis: str) -> FqsymElement:
    return FqsymElement(
        f.ring,
        new_basis,
        {inverse(p): c for p, c in f.terms.items()},
        bound=f.bound,
    )


def _by_degree(terms: dict) -> dict:
    out: dict = {}
    for p, c in terms.items():
        out.setdefault(len(p), {})[p] = c
    return out


def _class_sum(counts, classes):
    """Sum of count times coefficient over the classes; None when that sum
    is zero or empty."""
    total = None
    for k, (_, c) in zip(counts, classes):
        if k:
            term = c if k == 1 else k * c
            total = term if total is None else total + term
    return total or None


def g_to_m(f: FqsymElement) -> FqsymElement:
    """Expand a G-basis element over the monomial basis.

    The coefficient of M_sigma is the sum of the G coefficients over the
    weak-order ideal of the inverse of sigma.  In each degree the G terms
    are grouped by coefficient, each term one bit of an integer, the terms
    of one coefficient on adjacent bits.  ``above[j]`` holds the terms with
    inversion j; OR tables over 8-bit chunks of a mask give the terms having
    some inversion in the chunk.  The terms outside the ideal of sigma
    inverse are those having an inversion it lacks, a few table reads, and
    the rest are ``below``.  The coefficient of M_sigma depends on that int
    alone and is memoized on it; on a miss each class is counted by one
    ``bit_count``, and the sum of count times coefficient is memoized on the
    count vector.  Sigma runs in the order of :func:`inverse_inversion_masks`.
    """
    if f.basis != G:
        raise ValueError("expected a G-basis element")
    out: dict = {}
    for n, terms in _by_degree(f.terms).items():
        masks = inverse_inversion_masks(n)
        size = n * (n - 1) // 2
        classes = []  # (bits of the class's terms, coefficient)
        rows = []  # each term's inversion mask in binary, term 0 first
        start = 0
        for c, keys in by_coefficient(terms).items():
            rows.extend(format(masks[inverse(p)], f"0{size}b") for p in keys)
            classes.append((((1 << len(keys)) - 1) << start, c))
            start += len(keys)
        # transpose: column j of the rows, read bottom-up as a binary
        # number, holds the terms with inversion size - 1 - j
        above = [int("".join(col), 2) for col in zip(*reversed(rows))][::-1]
        tables = or_tables(above)
        everything, full = (1 << start) - 1, (1 << size) - 1
        sums: dict = {}  # the terms below, as bits -> their coefficient sum
        by_counts: dict = {}  # the same sum, keyed by the count of each class
        for sigma, mask in masks.items():
            lacks = mask ^ full
            outside = 0
            for table in tables:
                outside |= table[lacks & 255]
                lacks >>= 8
            below = everything ^ outside
            if below not in sums:
                counts = tuple([(below & bits).bit_count() for bits, _ in classes])
                if counts not in by_counts:
                    by_counts[counts] = _class_sum(counts, classes)
                sums[below] = by_counts[counts]
            total = sums[below]
            if total is not None:
                out[sigma] = total
    return FqsymElement(f.ring, M, out, bound=f.bound)


def m_to_g(f: FqsymElement) -> FqsymElement:
    """Inverse of :func:`g_to_m`, by Moebius inversion on the right weak
    order: G_pi sums M_sigma over the tau = sigma inverse at or above pi,
    and mu(tau, pi) is (-1)^|J| when pi = tau w0(J) for a set J of ascent
    positions of tau, zero otherwise (Bjoerner and Brenti, Combinatorics of
    Coxeter Groups, Ch. 3).  w0(J) reverses each run of J together with the
    position after it, so c M_sigma adds (-1)^|J| c to G_pi for each way to
    cut tau after its descents and after the ascents outside J.
    """
    if f.basis != M:
        raise ValueError("expected an M-basis element")
    out: dict = {}
    for sigma, c in f.terms.items():
        tau, signed = inverse(sigma), (c, -c)
        cuts = [((), (), 0)]  # (pieces reversed, open piece reversed, |J| mod 2)
        for i, x in enumerate(tau):
            ascent = i + 1 < len(tau) and x < tau[i + 1]
            grown = []
            for done, piece, odd in cuts:
                grown.append((done + (x,) + piece, (), odd))
                if ascent:
                    grown.append((done, (x,) + piece, 1 - odd))
            cuts = grown
        for pi, _, odd in cuts:
            s = out.get(pi)
            out[pi] = signed[odd] if s is None else s + signed[odd]
    return FqsymElement(f.ring, G, out, bound=f.bound)


def convert(f: FqsymElement, basis: str) -> FqsymElement:
    return f.convert(basis)


def internal_product(f: FqsymElement, g: FqsymElement) -> FqsymElement:
    """Degreewise internal product: composition on the F basis."""
    a, b = convert(f, F)._aligned(convert(g, F))
    right = _by_degree(b.terms)
    out: dict = {}
    for n, terms in _by_degree(a.terms).items():
        if n in right:
            out.update(over_integers(_compositions, (terms, right[n])))
    result = FqsymElement(a.ring, F, out, bound=merge_bounds(a.bound, b.bound))
    return convert(result, f.basis)


def complete_monomial_expansion(n: int, q) -> FqsymElement:
    """The monomial expansion of the degree-n complete function on the
    (1-q)-dilated alphabet: sum over permutations of (1-q)^(number of
    left-to-right minima) times M_sigma.

    Lemma: the minima of s = (v,) + t, with the values of t at or above v
    raised by one, are v and the minima of t below v; s runs in the order
    of :func:`~peakforge.combinatorics.inverse_inversion_masks`."""
    ring = ring_of(q)
    one_minus_q = ring(1) - ring(q)
    powers = [ring(1)]
    for _ in range(n):
        powers.append(powers[-1] * one_minus_q)
    if n == 0:
        return FqsymElement(ring, M, {(): powers[0]})
    below = [  # per t, by its first letter v: 1 + the minima of t below v
        list(accumulate([x in mins for x in range(1, n)], initial=1))
        for mins, _ in map(left_right_minima, inverse_inversion_masks(n - 1))
    ]
    counts = [k[v] for v in range(n) for k in below]
    keys = inverse_inversion_masks(n)
    return FqsymElement(ring, M, dict(zip(keys, map(powers.__getitem__, counts))))
