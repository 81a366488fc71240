"""Higher-order peak subalgebras and their level-2 analogues: dimension
scans, closure checks, generator normalization, and the q = +-1 series
identities.

For a primitive r-th root of unity q, the image of the (1-q) transform on
noncommutative symmetric functions is the (non-unital) order-r peak
algebra; the right module its degreewise units generate is the unital one.
At level 2 the same construction applies to the q-superization transform.
All ranks are computed exactly over Q(zeta_r); nothing here is numerical.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import accumulate

from .algebra import concatenate, expand_letters
from .combinatorics import format_composition, sorted_compositions, type_b_compositions
from .linalg import GradedSubspace
from .scalars import QQ, QQq, Cyclo, cyclotomic_field
from . import mr, oracle, sym

PEAK = "peak"
UNITAL_PEAK = "unital-peak"
MR_SHARP = "mrsharp"
MR_SHARP_MODULE = "mrsharp-module"

ALGEBRAS = (PEAK, UNITAL_PEAK, MR_SHARP, MR_SHARP_MODULE)


# --------------------------------------------------------------------------
# Power series utilities and predicted Hilbert series


def series_coefficients(numerator, denominator, n_max: int) -> list[int]:
    """Coefficients of numerator/denominator as a power series (exact
    integer long division; the constant term of the denominator must be
    a unit)."""
    num = list(numerator) + [0] * (n_max + 1 - len(numerator))
    den = list(denominator)
    if den[0] not in (1, -1):
        raise ValueError("denominator constant term must be a unit")
    out = []
    for n in range(n_max + 1):
        c = num[n]
        for k in range(1, min(n, len(den) - 1) + 1):
            c -= den[k] * out[n - k]
        out.append(c * den[0])
    return out


def predicted_dimensions(algebra: str, r: int, n_max: int):
    """(source label, list of predicted dimensions) for a dimension scan:
    the series N/D with D = 1-t-...-t^r at level 1 and 1-2(t+...+t^r),
    plus t^(r/2) for even r, at level 2; N = 1-t^r for the image spans and
    1 for the unital ones."""
    if algebra not in ALGEBRAS:
        raise ValueError(f"unknown algebra {algebra!r}")
    if algebra in (PEAK, UNITAL_PEAK):
        den, den_label = [1] + [-1] * r, f"1-t-...-t^{r}"
    else:
        den, den_label = [1] + [-2] * r, f"1-2(t+...+t^{r})"
        if r % 2 == 0:
            den[r // 2] += 1
            den_label += f"+t^{r // 2}"
    if algebra in (PEAK, MR_SHARP):
        num, num_label = [1] + [0] * (r - 1) + [-1], f"(1-t^{r})"
    else:
        num, num_label = [1], "1"
    return f"{num_label}/({den_label})", series_coefficients(num, den, n_max)


def sharp_module_candidates(r: int, n_max: int) -> dict:
    """All candidate dimension predictions for the level-2 right module:
    the direct series, the partial sums of the image series, for even r
    the odd-r series 1/(1-2(t+...+t^(r/2))) with r/2 in place of r, and
    (at r = 2) the type-B descent algebra dimensions 2^n."""
    label, values = predicted_dimensions(MR_SHARP_MODULE, r, n_max)
    _, image = predicted_dimensions(MR_SHARP, r, n_max)
    out = {label: values, f"H_{r}(t)/(1-t)": list(accumulate(image))}
    if r % 2 == 0:
        half = r // 2
        out[f"1/(1-2(t+...+t^{half}))"] = series_coefficients([1], [1] + [-2] * half, n_max)
    if r == 2:
        out["2^n"] = [2**n for n in range(n_max + 1)]
    return out


def conjectured_generator_count(n: int, r: int) -> int:
    """Number of 2-colored compositions of n whose color-0 parts are not
    divisible by r and, for even r, whose color-1 parts are not congruent
    to r/2 mod r: the coefficient of t^n in 1/(1 - sum a_s t^s), where a_s
    is the number of colors a part of size s may take."""
    colors = [(s % r != 0) + (r % 2 == 1 or s % r != r // 2) for s in range(1, n + 1)]
    return series_coefficients([1], [1] + [-a for a in colors], n)[n]


# --------------------------------------------------------------------------
# Subspace constructions


def _span(n: int, ring, keys, factors, lower) -> GradedSubspace:
    """Degree-n span over ``ring`` = Q(zeta_r) of f * b for each (k, terms f)
    in ``factors``, f homogeneous of degree k, and each echelon row b of the
    degree-(n-k) span ``lower(n - k, r)``; the span of 1 at degree 0.
    Frozen, since the cached builders share it with every caller.

    Lemma: f * b = {a + w: x * y for a, x in f for w, y in b}, with no key
    met twice and no zero value.  Every letter has positive degree, so a
    word of degree n has exactly one prefix of degree k: a + w = a' + w'
    with a, a' of degree k forces a = a' and w = w'.  Each value is a
    product of two nonzero scalars, a nonzero int or Cyclo x and a nonzero
    Cyclo y, so none is zero; and an int times a Cyclo of the field is a
    Cyclo of the field.  The product therefore enters the span by column,
    without ``algebra.word_product``: each prefix a sends the columns of
    the lower keys w to those of a + w, once per factor."""
    space = GradedSubspace(ring, keys, degree=n)
    if not n:
        space.insert({(): ring.one})
        return space.freeze()
    column = space.column_index
    for k, f in factors:
        low = lower(n - k, ring.order)
        terms = [(tuple([column[a + w] for w in low.keys]), x) for a, x in f.items()]
        for row in low.column_rows():
            space.insert_columns(
                {cols[w]: x * y for cols, x in terms for w, y in row.items()}
            )
    return space.freeze()


def _letter_images(ring, n: int, table, letters) -> list:
    """(k, terms of the image of x at q = zeta_r) for the letters x of each
    size k, k = 1..n in turn, read from the transform's cached letter
    ``table``, which carries no zero coefficients; a coefficient that is a
    rational integer, such as +-1, is kept as an int.

    Both transforms are algebra maps, so the image of a word x.w is
    transform(x) times the image of w: these factors times the image spans
    of lower degree span the degree-n image.  Small letters go first: they
    keep the echelon rows sparse while the span fills, where large letters
    first leave dense partial rows to back-eliminate."""
    return [
        (k, {a: c.integer_or_self() for a, c in table(ring.zeta, x)})
        for k in range(1, n + 1)
        for x in letters(k)
    ]


@cache
def peak_subspace(n: int, r: int) -> GradedSubspace:
    """Degree-n span of the (1-q) images of the complete words, over
    Q(zeta_r)."""
    ring = cyclotomic_field(r)
    images = _letter_images(ring, n, sym._one_minus_q_letter, lambda k: (k,))
    return _span(n, ring, sorted_compositions(n), images, peak_subspace)


@cache
def unital_peak_subspace(n: int, r: int) -> GradedSubspace:
    """Degree-n span of S_k times the degree-(n-k) peak subspace."""
    ring = cyclotomic_field(r)
    units = [(k, {(k,) if k else (): 1}) for k in range(n + 1)]
    return _span(n, ring, sorted_compositions(n), units, peak_subspace)


@cache
def mr_sharp_subspace(n: int, r: int) -> GradedSubspace:
    """Degree-n span of the q-superizations of the colored complete words,
    over Q(zeta_r)."""
    ring = cyclotomic_field(r)
    images = _letter_images(ring, n, mr._sharp_letter, lambda k: ((k, 0), (k, 1)))
    keys = sorted_compositions(n, colored=True)
    return _span(n, ring, keys, images, mr_sharp_subspace)


@cache
def mr_sharp_module_subspace(n: int, r: int) -> GradedSubspace:
    """Degree-n span of S_k (plain alphabet) times the degree-(n-k)
    superization image."""
    ring = cyclotomic_field(r)
    units = [(k, {((k, 0),) if k else (): 1}) for k in range(n + 1)]
    keys = sorted_compositions(n, colored=True)
    return _span(n, ring, keys, units, mr_sharp_subspace)


_BUILDERS = {
    PEAK: peak_subspace,
    UNITAL_PEAK: unital_peak_subspace,
    MR_SHARP: mr_sharp_subspace,
    MR_SHARP_MODULE: mr_sharp_module_subspace,
}


def subspace(algebra: str, n: int, r: int) -> GradedSubspace:
    return _BUILDERS[algebra](n, r)


# --------------------------------------------------------------------------
# Closure checks


def closure_check(sub: GradedSubspace, ideal: bool = False):
    """Check closure of an echelonized subspace under the degreewise
    internal product.

    The ambient keys name the algebra: colored compositions are words of
    the level-2 algebra MR, compositions words of Sym.  In degree 0 the one
    key () is the unit of both, whose products agree, so Sym reads it.
    With ``ideal=False``: every product of two basis rows must stay inside.
    With ``ideal=True``: every product (full ambient basis) * (basis row)
    must stay inside (left ideal over the whole graded component).
    Returns (ok, witness) where the witness names the first failing pair,
    ``"<left key> * <right key>"``; a row is named by its pivot key.

    Lemma: the rows are fully reduced, so a vector x lies in the span iff
    its normal form sum_k x_k NF(e_k) is zero, where NF(e_k) is the
    span's residue map (:meth:`~peakforge.linalg.GradedSubspace.residue_map`)
    and a column absent from it has NF(e_k) = 0.  So each product is
    accumulated only on the residue columns, from the structure constants
    of each word pair (read once per pair, and kept only on those
    columns), and tested by its normal form.  An empty residue map is the
    whole component, closed without a product.  A span is one graded
    component, so every word pair is of one degree.
    """
    residue = sub.residue_map()
    if not residue:
        return True, None
    colored = any(type(part) is tuple for part in sub.keys[-1])
    element = mr.MrElement if colored else sym.SymElement
    structure = element.structure
    keys = sub.keys
    column = sub.column_index
    forms = {k: [(j, _integral(c)) for j, c in form.items()] for k, form in residue.items()}
    rows = [[(j, _integral(c)) for j, c in row.items()] for row in sub.column_rows()]
    pivots = sub.pivot_keys()
    if ideal:
        lefts = [([(i, 1)], key) for i, key in enumerate(keys)]
    else:
        lefts = list(zip(rows, pivots))
    n = len(keys)
    # word pair i * n + j -> its (residue column, multiplicity) pairs, each
    # pair stored once in ``shared``: word pairs repeat most of them, and
    # the table grows as the square of the component
    table: dict = {}
    shared: dict = {}
    for u, utag in lefts:
        for v, vtag in zip(rows, pivots):
            acc: dict = {}
            for i, cu in u:
                for j, cv in v:
                    terms = table.get(i * n + j)
                    if terms is None:
                        terms = table[i * n + j] = [
                            shared.setdefault(pair, pair)
                            for k, mult in structure(keys[i], keys[j])
                            if (pair := (column[k], mult))[0] in forms
                        ]
                    if terms:
                        c = cu * cv
                        for col, mult in terms:
                            s = acc.get(col)
                            acc[col] = mult * c if s is None else s + mult * c
            normal: dict = {}
            for col, a in acc.items():
                if a:
                    for j, x in forms[col]:
                        s = normal.get(j)
                        normal[j] = a * x if s is None else s + a * x
            if any(normal.values()):
                return False, f"{element.key_str(utag)} * {element.key_str(vtag)}"
    return True, None


def _integral(c):
    """A rational-integer Cyclo as an int, which multiplies without a
    product in the field; any other value as it is."""
    return c.integer_or_self() if type(c) is Cyclo else c


def bsym_closure_check(n: int):
    """Closure of the type-B complete basis span under the internal product.

    Lemma: if span(BSym) equals the r = 2 q-ring span V, BSym is closed
    exactly when V is.  So this checks that every type-B element lies in V
    (a witness names its type-B composition) and that the ranks agree (a
    witness gives both), then returns ``closure_check(V)``."""
    target = mr_sharp_module_subspace(n, 2)
    for comp in sorted(type_b_compositions(n)):
        if not target.contains(mr.bsym_complete(comp).terms):
            return False, f"{format_composition(comp)} outside the q-ring span"
    rank = oracle.bsym_span(n).rank
    if rank != target.rank:
        return False, f"type-B rank {rank} != q-ring rank {target.rank}"
    return closure_check(target)


# --------------------------------------------------------------------------
# Generator normalization and the q = +-1 identities


def _plus_minus(ring, n: int, sign: int) -> mr.MrElement:
    """S_n on the plain alphabet plus or minus S_n on the barred one."""
    return mr.MrElement(
        ring, mr.S, {((n, 0),): ring(1), ((n, 1),): ring(sign)}
    )


def generator_normalization_check(n: int, r: int | None = None) -> bool:
    """Check that the superization of S_n^{+-} is congruent to
    (1 -+ q^n) S_n^{+-} modulo the subalgebra generated in lower degrees.

    The algebra is free on the letters S_(k,0), S_(k,1), which the S_k^{+-}
    of each degree k span in characteristic 0: in degree n the subalgebra is
    the span of the words of two or more letters, so an element lies in it
    exactly when its coefficients at the two letters of size n vanish.

    ``r`` picks q = zeta_r; with ``r`` None the check runs symbolically
    over Q(q)."""
    if r is None:
        ring = QQq
        q = ring.q
    else:
        ring = cyclotomic_field(r)
        q = ring.zeta
    one = ring(1)
    for sign in (1, -1):
        gen = _plus_minus(ring, n, sign)
        scale = one - (q**n) if sign == 1 else one + (q**n)
        lhs = mr.superization(gen, q) - gen.scaled(scale)
        if lhs.coefficient(((n, 0),)) or lhs.coefficient(((n, 1),)):
            return False
    return True


def pm_one_identity_check(q_value: int, n_max: int):
    """The two series identities behind the r = 1 and r = 2 cases.

    q = +1:  with f = 1 + sharp(1 + sum S_n^+) and g = sharp(1 + sum S_n^-) - 1,
             f^2 = g^2 + 4.
    q = -1:  with f the sharps of the even S^+ and odd S^- generators and
             g the sharps of the even S^- and odd S^+ ones,
             (f + 2)^2 = g^2 + 4.

    Sharp is an algebra map, so both read (F + 2)^2 = G^2 + 4 with
    F = sharp(sum S_n^{q^n}) and G = sharp(sum S_n^{-q^n}): identities
    between truncated series in the level-2 algebra.  Returns (ok, f, g),
    f and g over Q.

    Lemma: the check is exact in Z.  At q = +-1 every multiplier
    (-1)^len(I) q^i of the letter images is +-1, so F, G and both sides
    have integer coefficients, and Z is a subring of Q: sums and products
    of integers are the same in both, so the two sides are equal over Q
    exactly when their integer terms, zeros dropped, are equal.
    """
    f, g, lhs, rhs = _pm_one_sides(q_value, n_max)
    return lhs == rhs, _over_q(f, n_max), _over_q(g, n_max)


def pm_one_identity_witness(q_value: int, n_max: int):
    """None when :func:`pm_one_identity_check` holds; otherwise the first
    word, in sorted order, where (F + 2)^2 and G^2 + 4 differ, as
    (word, coefficient in (F + 2)^2, coefficient in G^2 + 4)."""
    _, _, lhs, rhs = _pm_one_sides(q_value, n_max)
    words = [w for w in lhs.keys() | rhs.keys() if lhs.get(w, 0) != rhs.get(w, 0)]
    if not words:
        return None
    word = min(words)
    return mr.MrElement.key_str(word), lhs.get(word, 0), rhs.get(word, 0)


# the constant term of G^2 + 4
_PM_ONE_CONSTANT = 4


@cache
def _pm_one_letter(q_value: int, letter) -> tuple:
    """``mr._sharp_letter`` at q = +-1, each multiplier an int."""
    return tuple((w, int(c)) for w, c in mr._sharp_letter(QQ(q_value), letter))


def _pm_one_sides(q_value: int, n_max: int):
    """(f, g, (F + 2)^2, G^2 + 4) of :func:`pm_one_identity_check` as
    integer term dicts, the last two truncated at ``n_max`` with zeros
    dropped."""
    if q_value not in (1, -1):
        raise ValueError("q must be +1 or -1")
    table = partial(_pm_one_letter, q_value)

    def sharp_sum(sign):  # sharp(sum S_n^{sign q^n})
        letters = {}
        for n in range(1, n_max + 1):
            letters[((n, 0),)] = 1
            letters[((n, 1),)] = sign * q_value**n
        return {w: c for w, c in expand_letters(letters, table).items() if c}

    def square(u):
        return concatenate(u, u, mr.MrElement.key_degree, n_max)

    F, g = sharp_sum(1), sharp_sum(-1)
    f = {**F, (): 2}
    lhs = {w: c for w, c in square(f).items() if c}
    rhs = square(g)
    rhs[()] = rhs.get((), 0) + _PM_ONE_CONSTANT
    rhs = {w: c for w, c in rhs.items() if c}
    return (f if q_value == 1 else F), g, lhs, rhs


def _over_q(terms: dict, n_max: int) -> mr.MrElement:
    """The integer terms as an element over Q, truncated at ``n_max``; one
    Fraction per distinct coefficient."""
    rational = {c: QQ(c) for c in set(terms.values())}
    return mr.MrElement(QQ, mr.S, {w: rational[c] for w, c in terms.items()}, bound=n_max)


# --------------------------------------------------------------------------
# Reports


class HilbertReport:
    """Computed vs predicted dimensions of one graded scan."""

    def __init__(
        self,
        algebra: str,
        r: int,
        dims: list[int],
        predicted_source: str,
        predicted: list[int],
    ):
        self.algebra = algebra
        self.r = r
        self.dims = dims
        self.predicted_source = predicted_source
        self.predicted = predicted

    @property
    def match(self) -> bool:
        return self.dims == self.predicted[: len(self.dims)]

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra,
            "r": self.r,
            "dims": self.dims,
            "predicted": {"source": self.predicted_source, "values": self.predicted},
            "match": self.match,
        }


def hilbert_report(algebra: str, r: int, n_max: int) -> HilbertReport:
    dims = [subspace(algebra, n, r).rank for n in range(n_max + 1)]
    source, predicted = predicted_dimensions(algebra, r, n_max)
    return HilbertReport(algebra, r, dims, source, predicted)


def sharp_module_report(r: int, n_max: int) -> dict:
    """Computed module dimensions against every candidate formula; the
    even-r module series is an open question, so mismatches are reported,
    not failed."""
    dims = [mr_sharp_module_subspace(n, r).rank for n in range(n_max + 1)]
    candidates = sharp_module_candidates(r, n_max)
    return {
        "algebra": MR_SHARP_MODULE,
        "r": r,
        "dims": dims,
        "candidates": [
            {"source": source, "values": values, "match": values[: len(dims)] == dims}
            for source, values in candidates.items()
        ],
    }
