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

from dataclasses import dataclass
from functools import cache

from .algebra import internal
from .combinatorics import colored_compositions, compositions
from .linalg import GradedSubspace
from .scalars import QQ, QQq, cyclotomic_field
from . import mr
from . import sym

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


def _peak_denominator(r: int) -> list[int]:
    return [1] + [-1] * r


def _sharp_denominator(r: int) -> list[int]:
    den = [1] + [-2] * r
    if r % 2 == 0:
        den[r // 2] += 1
    return den


def predicted_dimensions(algebra: str, r: int, n_max: int):
    """(source label, list of predicted dimensions) for a dimension scan."""
    if algebra == PEAK:
        num = [1] + [0] * (r - 1) + [-1]
        return (
            f"(1-t^{r})/(1-t-...-t^{r})",
            series_coefficients(num, _peak_denominator(r), n_max),
        )
    if algebra == UNITAL_PEAK:
        return (
            f"1/(1-t-...-t^{r})",
            series_coefficients([1], _peak_denominator(r), n_max),
        )
    if algebra == MR_SHARP:
        num = [1] + [0] * (r - 1) + [-1]
        return (
            f"(1-t^{r})/(1-2(t+...+t^{r}){'+t^' + str(r // 2) if r % 2 == 0 else ''})",
            series_coefficients(num, _sharp_denominator(r), n_max),
        )
    if algebra == MR_SHARP_MODULE:
        return (
            f"1/(1-2(t+...+t^{r}){'+t^' + str(r // 2) if r % 2 == 0 else ''})",
            series_coefficients([1], _sharp_denominator(r), n_max),
        )
    raise ValueError(f"unknown algebra {algebra!r}")


def sharp_module_candidates(r: int, n_max: int) -> dict:
    """All candidate dimension predictions for the level-2 right module:
    the direct series, the partial sums of the image series, and (at r = 2)
    the type-B descent algebra dimensions 2^n."""
    out = {}
    label, values = predicted_dimensions(MR_SHARP_MODULE, r, n_max)
    out[label] = values
    _, image = predicted_dimensions(MR_SHARP, r, n_max)
    sums = []
    total = 0
    for v in image:
        total += v
        sums.append(total)
    out[f"H_{r}(t)/(1-t)"] = sums
    if r == 2:
        out["2^n"] = [2**n for n in range(n_max + 1)]
    return out


def conjectured_generator_count(n: int, r: int) -> int:
    """Number of 2-colored compositions of n whose color-0 parts are not
    divisible by r and, for even r, whose color-1 parts are not congruent
    to r/2 mod r."""
    count = 0
    for jc in colored_compositions(n):
        ok = True
        for size, color in jc:
            if color == 0 and size % r == 0:
                ok = False
                break
            if r % 2 == 0 and color == 1 and size % r == r // 2:
                ok = False
                break
        if ok:
            count += 1
    return count


# --------------------------------------------------------------------------
# Subspace constructions


def _image_span(n: int, r: int, keys, element, transform) -> GradedSubspace:
    """Degree-n span of the images of the complete words ``keys`` under
    ``transform`` at q = zeta_r, over Q(zeta_r); frozen, since the cached
    builders share it with every caller."""
    ring = cyclotomic_field(r)
    space = GradedSubspace(ring, keys, degree=n)
    for key in keys:
        space.insert(transform(element.monomial(ring, key), ring.zeta).terms)
    return space.freeze()


def _module_span(n: int, r: int, keys, image_span, letter) -> GradedSubspace:
    """Degree-n span of the complete letter ``letter(k)`` times the
    degree-(n-k) image span, for k from n down to 0; frozen like
    :func:`_image_span`."""
    space = GradedSubspace(cyclotomic_field(r), keys, degree=n)
    for k in range(n, -1, -1):
        prefix = (letter(k),) if k else ()
        for row in image_span(n - k, r).basis():
            space.insert({prefix + key: c for key, c in row.items()})
    return space.freeze()


@cache
def peak_subspace(n: int, r: int) -> GradedSubspace:
    """Degree-n span of the (1-q) images of the complete words, over
    Q(zeta_r)."""
    return _image_span(
        n, r, sorted(compositions(n)), sym.SymElement, sym.one_minus_q_transform
    )


@cache
def unital_peak_subspace(n: int, r: int) -> GradedSubspace:
    """Degree-n span of S_k times the degree-(n-k) peak subspace."""
    return _module_span(n, r, sorted(compositions(n)), peak_subspace, lambda k: k)


@cache
def mr_sharp_subspace(n: int, r: int) -> GradedSubspace:
    """Degree-n span of the q-superizations of the colored complete words,
    over Q(zeta_r)."""
    return _image_span(
        n, r, sorted(colored_compositions(n)), mr.MrElement, mr.superization
    )


@cache
def mr_sharp_module_subspace(n: int, r: int) -> GradedSubspace:
    """Degree-n span of S_k (plain alphabet) times the degree-(n-k)
    superization image."""
    return _module_span(
        n, r, sorted(colored_compositions(n)), mr_sharp_subspace, lambda k: (k, 0)
    )


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


def closure_check(sub: GradedSubspace, algebra: str, ideal: bool = False):
    """Check closure of an echelonized subspace under the degreewise
    internal product.

    With ``ideal=False``: every product of two basis rows must stay inside.
    With ``ideal=True``: every product (full ambient basis) * (basis row)
    must stay inside (left ideal over the whole graded component).
    Returns (ok, witness) where the witness names the first failing pair,
    ``"<left key> * <right key>"``; a row is named by its pivot key.
    """
    element = {"sym": sym.SymElement, "mr": mr.MrElement}.get(algebra)
    if element is None:
        raise ValueError(f"unknown algebra {algebra!r}")
    rows = sub.basis()
    pivots = sub.pivot_keys()
    if ideal:
        lefts = [({key: sub.ring(1)}, key) for key in sub.keys]
    else:
        lefts = list(zip(rows, pivots))
    for u, utag in lefts:
        for v, vtag in zip(rows, pivots):
            if not sub.contains(internal(u, v, element.structure, element.key_degree)):
                return False, f"{element.key_str(utag)} * {element.key_str(vtag)}"
    return True, None


def bsym_closure_check(n: int):
    """Closure of the span of the type-B complete basis elements under the
    internal product (q = -1 superization), over Q.  The witness names the
    two type-B compositions of the first product that leaves the span."""
    from .combinatorics import format_composition, type_b_compositions

    space = GradedSubspace(QQ, sorted(colored_compositions(n)), degree=n)
    elements = {I: mr.bsym_complete(I) for I in sorted(type_b_compositions(n))}
    for e in elements.values():
        space.insert(e.terms)
    for I, u in elements.items():
        for J, v in elements.items():
            prod = mr.internal_product(u, v)
            if not space.contains(prod.terms):
                return False, f"{format_composition(I)} * {format_composition(J)}"
    return True, None


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

    ``r`` picks q = zeta_r; with ``r`` None the check runs symbolically
    over Q(q)."""
    if r is None:
        ring = QQq
        q = ring.q
    else:
        ring = cyclotomic_field(r)
        q = ring.zeta
    span = GradedSubspace(ring, sorted(colored_compositions(n)), degree=n)
    for comp in compositions(n):
        if any(part >= n for part in comp):
            continue
        words = [mr.unit(ring)]
        for part in comp:
            words = [
                mr.product(w, _plus_minus(ring, part, s))
                for w in words
                for s in (1, -1)
            ]
        for w in words:
            span.insert(w.terms)
    one = ring(1)
    for sign in (1, -1):
        gen = _plus_minus(ring, n, sign)
        scale = one - (q**n) if sign == 1 else one + (q**n)
        lhs = mr.superization(gen, q) - gen.scaled(scale)
        if not span.contains(lhs.terms):
            return False
    return True


def pm_one_identity_check(q_value: int, n_max: int):
    """The two series identities behind the r = 1 and r = 2 cases.

    q = +1:  with f = 1 + sharp(1 + sum S_n^+) and g = sharp(1 + sum S_n^-) - 1,
             f^2 = g^2 + 4.
    q = -1:  with f the sharps of the even S^+ and odd S^- generators and
             g the sharps of the even S^- and odd S^+ ones,
             (f + 2)^2 = g^2 + 4.

    Both are identities between truncated series in the level-2 algebra.
    Returns (ok, f, g).
    """
    if q_value not in (1, -1):
        raise ValueError("q must be +1 or -1")
    ring = QQ
    q = ring(q_value)
    unit = mr.unit(ring).truncate(n_max)
    if q_value == 1:
        splus = unit
        sminus = unit
        for n in range(1, n_max + 1):
            splus = splus + _plus_minus(ring, n, 1).truncate(n_max)
            sminus = sminus + _plus_minus(ring, n, -1).truncate(n_max)
        f = unit + mr.superization(splus, q)
        g = mr.superization(sminus, q) - unit
        lhs = mr.product(f, f)
        rhs = mr.product(g, g) + 4 * unit
        return lhs == rhs, f, g
    f = mr.MrElement.zero(ring, mr.S).truncate(n_max)
    g = mr.MrElement.zero(ring, mr.S).truncate(n_max)
    for n in range(1, n_max + 1):
        sign_f = 1 if n % 2 == 0 else -1
        f = f + mr.superization(_plus_minus(ring, n, sign_f).truncate(n_max), q)
        g = g + mr.superization(_plus_minus(ring, n, -sign_f).truncate(n_max), q)
    lhs = mr.product(f + 2 * unit, f + 2 * unit)
    rhs = mr.product(g, g) + 4 * unit
    return lhs == rhs, f, g


# --------------------------------------------------------------------------
# Reports


@dataclass
class HilbertReport:
    """Computed vs predicted dimensions of one graded scan."""

    algebra: str
    r: int
    dims: list[int]
    predicted_source: str
    predicted: list[int]

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
