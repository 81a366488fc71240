"""The lambda-sigma route to the transform series, kept as the reference
that the closed-form letter tables of ``sym`` and ``mr`` are checked
against: the elementary series, on one alphabet or on a colored one, and
the truncated products lambda_{-q} sigma (the (1-q) transform) and
lambda-bar_{-q} sigma (the q-superization)."""

from peakforge import mr, sym
from peakforge.scalars import QQ, QQq, cyclotomic_field, ring_of

# the q the closed forms are checked at: every primitive root of unity of
# order r = 1..8, +-1 over Q, and q itself over Q(q)
CLOSED_FORM_QS = [cyclotomic_field(r).zeta for r in range(1, 9)] + [
    QQ(1),
    QQ(-1),
    QQq.q,
]


def lambda_series(ring, n_max: int, t=None) -> sym.SymElement:
    """The elementary generating series sum_k t^k Lambda_k, truncated, in
    the S basis.  ``t`` defaults to one."""
    t = ring(1) if t is None else ring(t)
    terms: dict = {(): ring(1)}
    power = ring(1)
    for k in range(1, n_max + 1):
        power = power * t
        # the words of distinct degrees are distinct: nothing accumulates
        terms.update((I, sign * power) for I, sign in sym._alternating_words(k))
    return sym.SymElement(ring, sym.S, terms, bound=n_max)


def mr_lambda_series(ring, n_max: int, t=None, color: int = 0) -> mr.MrElement:
    """sum_k t^k Lambda_k on the chosen alphabet, in the colored S basis."""
    f = lambda_series(ring, n_max, t)
    terms = {tuple((p, color) for p in I): c for I, c in f.terms.items()}
    return mr.MrElement(ring, mr.S, terms, bound=n_max)


def one_minus_q_series(q, n_max: int) -> sym.SymElement:
    """lambda_{-q} times sigma, truncated."""
    ring = ring_of(q)
    return sym.product(lambda_series(ring, n_max, t=-q), sym.sigma_series(ring, n_max))


def superization_series(q, n_max: int) -> mr.MrElement:
    """lambda-bar_{-q} times sigma, truncated."""
    ring = ring_of(q)
    return mr.product(
        mr_lambda_series(ring, n_max, t=-ring(q), color=1),
        mr.sigma_series(ring, n_max),
    )


def flat_series(n_max: int, ring=QQ) -> mr.MrElement:
    """lambda times sigma-bar, the bar image of the superization series at
    q = -1."""
    return mr.product(
        mr_lambda_series(ring, n_max, color=0), mr.bar(mr.sigma_series(ring, n_max))
    )


def reference_table(series, k: int) -> tuple:
    """The degree-k part of a reference series, as a letter table: sorted
    (word, coefficient) pairs without zeros."""
    return tuple(sorted(series.homogeneous(k).terms.items()))


def assert_same_table(table, reference):
    """The same words in the same order, with canonical coefficients: equal
    scalars of one type over one field."""
    assert [word for word, _ in table] == [word for word, _ in reference]
    for (word, c), (_, d) in zip(table, reference):
        assert c == d, word
        assert type(c) is type(d) and ring_of(c) is ring_of(d), word
