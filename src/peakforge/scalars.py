"""Exact coefficient arithmetic: Q, Q(q), and cyclotomic fields Q(zeta_r).

Three coefficient fields are supported, all exact:

* ``QQ`` -- the rationals, whose elements are :class:`fractions.Fraction`;
* ``QQq`` -- the field Q(q) of rational functions in one indeterminate,
  whose elements are :class:`RatFunc`: a numerator and a denominator in
  Z[q] (dense integer coefficient tuples) with gcd one in Z[q] and a
  positive leading denominator coefficient; products cancel across the
  factors and sums take one gcd against the factor the denominators share
  (Henrici's gcd split);
* ``cyclotomic_field(r)`` -- Q(zeta_r) = Q[x]/Phi_r(x), whose elements are
  :class:`Cyclo` integer coefficient vectors of length phi(r) over a common
  denominator.  Each field holds one table, x^j mod Phi_r for j < r, which
  reduces products, evaluates integer polynomials at zeta^k (for
  :func:`specialize` and the Galois conjugates) and so inverts by the norm:
  1/a is the product of the other conjugates of a over N(a).

Integer polynomials are the one polynomial representation at run time.
``Fraction`` appears only as the element type of ``QQ``, in coercion (the
``RatFunc`` constructor clears the denominators of its arguments), and in
the ``num``/``den``/``coeffs`` views.

Elements are immutable, hashable, support ``+ - * / **`` with ``int`` and
``Fraction`` coercion, and are always kept in canonical form, so ``==`` is
mathematical equality.  Rationals embed in both larger fields; mixing Q(q)
with a cyclotomic field raises ``TypeError`` (use :func:`specialize` to send
q to a root of unity explicitly).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import add, sub

__all__ = [
    "QQ",
    "QQq",
    "RatFunc",
    "Cyclo",
    "CyclotomicField",
    "cyclotomic_field",
    "cyclotomic_polynomial",
    "specialize",
    "SpecializationError",
    "ring_of",
    "common_ring",
    "scalar_str",
]

_F0 = Fraction(0)
_F1 = Fraction(1)
_ONE = (_F1,)
_Z1 = (1,)


class SpecializationError(ZeroDivisionError):
    """Raised when a rational function cannot be evaluated at a root of unity."""


# --------------------------------------------------------------------------
# Polynomials over Z: dense tuples of int, ascending, no trailing zeros; ()
# is zero.


def _pstrip(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _pstrip(out)


def _pneg(a):
    return tuple(-c for c in a)


def _int_content_strip(coeffs):
    g = gcd(*coeffs)
    return coeffs if g < 2 else tuple(c // g for c in coeffs)


def _int_cleared(coeffs):
    """An integer polynomial P and a positive integer m with coeffs = P/m."""
    coeffs = _pstrip(tuple(Fraction(c) for c in coeffs))
    m = lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (m // c.denominator) for c in coeffs), m


def _cleared_terms(terms: dict):
    """Integer terms T, a positive integer m and the field's constructor
    ``make`` with terms = {k: make(T[k], m)}, when the values are all ints
    and Fractions (``make`` is Fraction) or all Cyclo values of one field of
    degree 1, Q(zeta_1) or Q(zeta_2) (``make`` is the field); None otherwise."""
    first = next(iter(terms.values()), None)
    make = first.field if type(first) is Cyclo else Fraction
    if make is Fraction:
        if any(type(c) is not Fraction and type(c) is not int for c in terms.values()):
            return None
        parts = [(c.numerator, c.denominator) for c in terms.values()]
    elif make.degree == 1 and all(type(c) is Cyclo and c.field is make for c in terms.values()):
        parts = [(c.vec[0], c.den) for c in terms.values()]
    else:
        return None
    m = lcm(*{d for _, d in parts})
    return {k: n * (m // d) for k, (n, d) in zip(terms, parts)}, m, make


def _int_prem(a, b):
    """Pseudo-remainder of two integer polynomials (b nonzero)."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(a) - 1 >= db:
        la = a[-1]
        shift = len(a) - 1 - db
        a = [lb * c for c in a]
        for i, cb in enumerate(b):
            a[shift + i] -= la * cb
        while a and not a[-1]:
            a.pop()
    return tuple(a)


def _int_mul(a, b):
    if not a or not b:
        return ()
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        c = b[0]
        return a if c == 1 else tuple(x * c for x in a)
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return tuple(out)


def _int_divexact(a, b):
    """a / b in Z[q], for a nonzero b that divides a there."""
    if len(b) == 1:
        c = b[0]
        return a if c == 1 else tuple(x // c for x in a)
    nb = len(b) - 1
    lb = b[-1]
    low = b[:-1]
    rem = list(a)
    quo = [0] * (len(a) - nb)
    for k in range(len(a) - nb - 1, -1, -1):
        c = rem[k + nb]
        if c:
            c //= lb
            quo[k] = c
            for i, cb in enumerate(low, k):
                rem[i] -= c * cb
    return tuple(quo)


def _int_gcd(a, b):
    """gcd of two integer polynomials in Z[q], leading coefficient positive:
    the gcd of the contents times the gcd of the primitive parts, which the
    primitive pseudo-remainder sequence gives up to sign."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) < 2:
        if b:
            # a constant shares only an integer factor with the content
            return (gcd(b[0], *a),)
        return a if not a or a[-1] > 0 else _pneg(a)
    ca = gcd(*a)
    cb = gcd(*b)
    A = a if ca == 1 else tuple(c // ca for c in a)
    B = b if cb == 1 else tuple(c // cb for c in b)
    while len(B) > 1:
        A, B = B, _int_content_strip(_int_prem(A, B))
    if B:
        # a nonzero constant remainder: the primitive parts are coprime
        A = _Z1
    c = gcd(ca, cb)
    if A[-1] < 0:
        c = -c
    return A if c == 1 else tuple(c * x for x in A)


def _int_cancel(a, b):
    """a and b divided by their gcd in Z[q]."""
    g = _int_gcd(a, b)
    if g == _Z1:
        return a, b
    return _int_divexact(a, g), _int_divexact(b, g)


def _poly_str(coeffs, var="q"):
    if not coeffs:
        return "0"
    parts = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k == 0:
            body = str(c)
        else:
            power = var if k == 1 else f"{var}^{k}"
            if c == 1:
                body = power
            elif c == -1:
                body = "-" + power
            else:
                body = f"{c}*{power}"
        if parts and not body.startswith("-"):
            parts.append("+" + body)
        else:
            parts.append(body)
    return "".join(parts)


# --------------------------------------------------------------------------
# Operations shared by the two field element types


class _FieldElement:
    """Subtraction, reflected division and integer powers, in terms of
    ``_coerce`` and the arithmetic each field element type defines."""

    __slots__ = ()

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        one = self._coerce(1)
        if k < 0:
            return (one / self) ** (-k)
        out = one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out


# --------------------------------------------------------------------------
# Q(q)


class RatFunc(_FieldElement):
    """A rational function in q over Q, stored as N/D with N and D integer
    polynomials (ascending ``int`` tuples) in canonical form: gcd(N, D) = 1
    in Z[q], so they share neither a polynomial factor nor an integer
    content; the leading coefficient of D is positive; zero is () over (1,).

    ``num`` and ``den`` give the same value with a monic denominator, as
    tuples of Fraction.  Construct values from ``QQq.q`` by arithmetic
    rather than calling this constructor directly.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num=(), den=_ONE):
        num, m = _int_cleared(num)
        den, k = _int_cleared(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            num, den = (), _Z1
        else:
            # (num/m) / (den/k)
            num, den = _int_cancel(_int_mul(num, (k,)), _int_mul(den, (m,)))
            if den[-1] < 0:
                num, den = _pneg(num), _pneg(den)
        self._num = num
        self._den = den

    @property
    def num(self) -> tuple[Fraction, ...]:
        lc = self._den[-1]
        return tuple(Fraction(c, lc) for c in self._num)

    @property
    def den(self) -> tuple[Fraction, ...]:
        d = self._den
        if len(d) == 1:
            return _ONE
        return tuple(Fraction(c, d[-1]) for c in d)

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, int):
            return _ratfunc((int(x),) if x else (), _Z1)
        if isinstance(x, Fraction):
            return _ratfunc((x.numerator,) if x else (), (x.denominator,))
        return None

    def __bool__(self):
        return bool(self._num)

    def __eq__(self, other):
        if type(other) is not RatFunc:
            other = RatFunc._coerce(other)
            if other is None:
                return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        # a constant hashes like the equal Fraction, since it compares equal
        if len(self._den) == 1 and len(self._num) < 2:
            return hash(Fraction(self._num[0] if self._num else 0, self._den[0]))
        return hash((RatFunc, self._num, self._den))

    def __neg__(self):
        return _ratfunc(_pneg(self._num), self._den)

    def __add__(self, other):
        if type(other) is not RatFunc:
            other = RatFunc._coerce(other)
            if other is None:
                return NotImplemented
        n1, d1 = self._num, self._den
        n2, d2 = other._num, other._den
        if not n1:
            return other
        if not n2:
            return self
        if d1 == d2:
            n = _padd(n1, n2)
            if not n:
                return _ratfunc((), _Z1)
            if d1 == _Z1:
                return _ratfunc(n, _Z1)
            return _ratfunc(*_int_cancel(n, d1))
        # with g = gcd(d1, d2) and d_i = g*e_i, the sum is
        # (n1*e2 + n2*e1) / (g*e1*e2); the numerator is coprime to e1 and
        # e2, so only g can share a factor with it
        g = _int_gcd(d1, d2)
        e1, e2 = _int_divexact(d1, g), _int_divexact(d2, g)
        n, g = _int_cancel(_padd(_int_mul(n1, e2), _int_mul(n2, e1)), g)
        return _ratfunc(n, _int_mul(_int_mul(g, e1), e2))

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is not RatFunc:
            other = RatFunc._coerce(other)
            if other is None:
                return NotImplemented
        n1, d1 = self._num, self._den
        n2, d2 = other._num, other._den
        if not n1 or not n2:
            return _ratfunc((), _Z1)
        # cancel across the two factors; each factor is canonical, so the
        # product of the cancelled parts is too and needs no second gcd
        if d2 != _Z1:
            n1, d2 = _int_cancel(n1, d2)
        if d1 != _Z1:
            n2, d1 = _int_cancel(n2, d1)
        return _ratfunc(_int_mul(n1, n2), _int_mul(d1, d2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not RatFunc:
            other = RatFunc._coerce(other)
            if other is None:
                return NotImplemented
        n, d = other._num, other._den
        if not n:
            raise ZeroDivisionError("division by zero rational function")
        if n[-1] < 0:
            n, d = _pneg(n), _pneg(d)
        return self * _ratfunc(d, n)

    def __str__(self):
        if len(self._den) == 1:
            return _poly_str(self.num)
        return f"({_poly_str(self.num)})/({_poly_str(self.den)})"

    def __repr__(self):
        return f"RatFunc({self})"


def _ratfunc(num, den):
    """A RatFunc from integer tuples already in canonical form."""
    r = RatFunc.__new__(RatFunc)
    r._num = num
    r._den = den
    return r


# --------------------------------------------------------------------------
# Cyclotomic fields


@cache
def cyclotomic_polynomial(r: int) -> tuple[int, ...]:
    """Coefficients of Phi_r (ascending degree), by dividing x^r - 1 by the
    cyclotomic polynomials of the proper divisors of r.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if r < 1:
        raise ValueError("order must be positive")
    poly = (-1,) + (0,) * (r - 1) + (1,)
    for d in range(1, r):
        if r % d == 0:
            poly = _int_divexact(poly, cyclotomic_polynomial(d))
    return poly


class CyclotomicField:
    """Q(zeta_r) realized as Q[x]/Phi_r(x); use :func:`cyclotomic_field`.

    ``powers[j]`` is x^j mod Phi_r as an integer vector, for j < r; since
    Phi_r divides x^r - 1, these r vectors reduce every power of zeta."""

    def __init__(self, order: int):
        self.order = order
        self.modulus = cyclotomic_polynomial(order)
        self.degree = d = len(self.modulus) - 1
        low = [-c for c in self.modulus[:-1]]  # x^d = sum low[i] x^i
        vec = [1] + [0] * (d - 1)
        powers = []
        for _ in range(order):
            powers.append(tuple(vec))
            top = vec[-1]
            vec = [0] + vec[:-1]
            if top:
                for i, c in enumerate(low):
                    vec[i] += top * c
        self.powers = tuple(powers)
        # the k != 1 in (Z/r)^*: zeta -> zeta^k are the other embeddings
        self._conjugates = tuple(k for k in range(2, order) if gcd(k, order) == 1)
        self.name = f"QQ(zeta_{order})"
        self.zero = Cyclo(self, (0,) * d, 1)
        self.one = Cyclo(self, self.powers[0], 1)
        self.zeta = Cyclo(self, self.powers[1 % order], 1)

    def _at(self, coeffs, k=1):
        """The integer vector of sum_i coeffs[i] * zeta^(i*k), for an
        integer polynomial ``coeffs`` of any length."""
        r, d = self.order, self.degree
        if k == 1:
            acc = list(coeffs[:r])
            for i in range(r, len(coeffs)):
                acc[i % r] += coeffs[i]
        else:
            acc = [0] * r
            for i, c in enumerate(coeffs):
                acc[i * k % r] += c
        out = acc[:d] + [0] * (d - len(acc))
        powers = self.powers
        for j in range(d, len(acc)):
            c = acc[j]
            if c:
                for t, p in enumerate(powers[j]):
                    if p:
                        out[t] += c * p
        return tuple(out)

    def __call__(self, x, den: int = 1):  # x/den for an int x, den > 0
        if isinstance(x, Cyclo):
            if x.field is not self:
                raise TypeError("element of a different cyclotomic field")
            return x
        if isinstance(x, int):
            g = gcd(x, den)
            return _cyclo(self, (x // g,) + (0,) * (self.degree - 1), den // g)
        if isinstance(x, Fraction):
            return Cyclo(
                self,
                (x.numerator,) + (0,) * (self.degree - 1),
                x.denominator,
            )
        if isinstance(x, RatFunc):
            raise TypeError(
                "cannot mix Q(q) with a cyclotomic field; specialize() first"
            )
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def __repr__(self):
        return self.name


@cache
def cyclotomic_field(r: int) -> CyclotomicField:
    return CyclotomicField(r)


class Cyclo(_FieldElement):
    """An element of Q(zeta_r): integer coefficient vector over a common
    positive denominator, reduced mod Phi_r, gcd one.

    Fields of degree 1 and 2 (r = 1, 2, 3, 4, 6) multiply in closed form and
    degree 2 also inverts in closed form; higher degrees convolve and reduce
    through the field's table of zeta powers.  Every other inverse is the
    product of the other conjugates over the norm, all in integers.

    Elimination in degree 1 and 2 does not come through here entry by
    entry: :func:`cyclo_subtract_multiple` applies the same closed forms to
    the integer vectors of whole sparse rows."""

    __slots__ = ("field", "vec", "den")

    def __init__(self, field, vec, den=1):
        if den < 0:
            vec = tuple(-v for v in vec)
            den = -den
        g = gcd(den, *vec)
        if g > 1:
            vec = tuple(v // g for v in vec)
            den //= g
        self.field = field
        self.vec = tuple(vec)
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.vec)

    def _coerce(self, x):
        if isinstance(x, Cyclo):
            return x if x.field is self.field else None
        if isinstance(x, (int, Fraction)):
            return self.field(x)
        return None

    def __bool__(self):
        return any(self.vec)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.vec == other.vec and self.den == other.den

    def __hash__(self):
        # a rational hashes like the equal Fraction, since it compares equal
        if not any(self.vec[1:]):
            return hash(Fraction(self.vec[0], self.den))
        return hash((Cyclo, self.field.order, self.vec, self.den))

    def __neg__(self):
        return _cyclo(self.field, tuple(-v for v in self.vec), self.den)

    def _sum(self, other, op):
        """self + other or self - other, as ``op`` is ``add`` or ``sub``."""
        da, db = self.den, other.den
        if da == db:
            vec = tuple(map(op, self.vec, other.vec))
            if da == 1:
                return _cyclo(self.field, vec, 1)
            return Cyclo(self.field, vec, da)
        g = gcd(da, db)
        ma, mb = db // g, da // g
        return Cyclo(
            self.field,
            tuple(op(a * ma, b * mb) for a, b in zip(self.vec, other.vec)),
            da * ma,
        )

    def __add__(self, other):
        if type(other) is not Cyclo or other.field is not self.field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._sum(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Cyclo or other.field is not self.field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._sum(other, sub)

    def __mul__(self, other):
        if type(other) is not Cyclo or other.field is not self.field:
            if type(other) is int:
                return self._times_int(other)
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        field = self.field
        a, b = self.vec, other.vec
        d = field.degree
        if d == 1:
            out = (a[0] * b[0],)
        elif d == 2:
            # x^2 = m0 + m1*x
            m0, m1 = field.powers[2]
            a0, a1 = a
            b0, b1 = b
            t = a1 * b1
            out = (a0 * b0 + m0 * t, a0 * b1 + a1 * b0 + m1 * t)
        else:
            conv = [0] * (2 * d - 1)
            for i, va in enumerate(a):
                if va:
                    for j, vb in enumerate(b, i):
                        if vb:
                            conv[j] += va * vb
            out = field._at(conv)
        den = self.den * other.den
        if den == 1:
            return _cyclo(field, out, 1)
        return Cyclo(field, out, den)

    __rmul__ = __mul__

    def _times_int(self, m: int):
        """self * m for an int m, without coercing m to the field; the
        product needs the gcd pass only when its denominator is not 1."""
        if m == 1:
            return self
        field = self.field
        if not m:
            return field.zero
        vec = tuple([m * v for v in self.vec])
        if self.den == 1:
            return _cyclo(field, vec, 1)
        return Cyclo(field, vec, self.den)

    def inverse(self):
        field = self.field
        a = self.vec
        if not any(a):
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        if field.degree == 2:
            # times the conjugate a0 + a1*x' (x + x' = m1, x*x' = -m0),
            # over the norm
            m0, m1 = field.powers[2]
            a0, a1 = a
            norm = a0 * a0 + m1 * a0 * a1 - m0 * a1 * a1
            return Cyclo(field, (self.den * (a0 + m1 * a1), -self.den * a1), norm)
        # 1/a = (product of the other conjugates of a) / N(a), N(a) rational
        rest = field.one
        for k in field._conjugates:
            rest = rest * _cyclo(field, field._at(a, k), 1)
        norm = (_cyclo(field, a, 1) * rest).vec[0]
        return Cyclo(field, tuple(self.den * v for v in rest.vec), norm)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __str__(self):
        inner = ",".join(str(c) for c in self.coeffs)
        return f"[{inner}]@{self.field.order}"

    def __repr__(self):
        return f"Cyclo({self})"


def _cyclo(field, vec, den):
    """A Cyclo from a vector and denominator already in canonical form."""
    r = Cyclo.__new__(Cyclo)
    r.field = field
    r.vec = vec
    r.den = den
    return r


def cyclo_subtract_multiple(target: dict, c: Cyclo, row: dict):
    """target -= c * row in place, for sparse vectors over a field of degree
    1 or 2 with no zero entries, dropping the entries that cancel.

    The elimination kernel of :class:`~peakforge.linalg.GradedSubspace`
    over Q(zeta_r), r = 1, 2, 3, 4, 6.  An entry whose c, row and target
    values all have denominator 1 is computed on the integer vectors, by
    the closed forms of :meth:`Cyclo.__mul__`; any other goes through
    ``Cyclo`` arithmetic.  Both give the same canonical values."""
    field = c.field
    integral = c.den == 1
    if field.degree == 1:
        (c0,) = c.vec
        for j, rc in row.items():
            t = target.get(j)
            if integral and rc.den == 1 and (t is None or t.den == 1):
                p = c0 * rc.vec[0]
                if t is None:
                    target[j] = _cyclo(field, (-p,), 1)
                else:
                    a = t.vec[0] - p
                    if a:
                        target[j] = _cyclo(field, (a,), 1)
                    else:
                        del target[j]
            else:
                _subtract_entry(target, j, t, c, rc)
        return
    m0, m1 = field.powers[2]  # x^2 = m0 + m1*x
    c0, c1 = c.vec
    for j, rc in row.items():
        t = target.get(j)
        if integral and rc.den == 1 and (t is None or t.den == 1):
            b0, b1 = rc.vec
            u = c1 * b1
            p0 = c0 * b0 + m0 * u
            p1 = c0 * b1 + c1 * b0 + m1 * u
            if t is None:
                target[j] = _cyclo(field, (-p0, -p1), 1)
            else:
                a0, a1 = t.vec
                a0 -= p0
                a1 -= p1
                if a0 or a1:
                    target[j] = _cyclo(field, (a0, a1), 1)
                else:
                    del target[j]
        else:
            _subtract_entry(target, j, t, c, rc)


def _subtract_entry(target, j, t, c, rc):
    """target[j] = t - c * rc in Cyclo arithmetic (t None for a missing
    entry), dropping it if it cancels."""
    newc = -(c * rc) if t is None else t - c * rc
    if newc:
        target[j] = newc
    else:
        del target[j]


# --------------------------------------------------------------------------
# Ring objects


class RationalField:
    name = "QQ"
    zero = _F0
    one = _F1

    def __call__(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into QQ")

    def __repr__(self):
        return self.name


class RationalFunctionField:
    name = "QQ(q)"

    def __init__(self):
        self.zero = RatFunc()
        self.one = RatFunc(_ONE)
        self.q = RatFunc((_F0, _F1))

    def __call__(self, x):
        value = RatFunc._coerce(x)
        if value is None:
            raise TypeError(f"cannot coerce {x!r} into Q(q)")
        return value

    def __repr__(self):
        return self.name


QQ = RationalField()
QQq = RationalFunctionField()


def ring_of(x):
    """The field an element belongs to."""
    if isinstance(x, (Fraction, int)):
        return QQ
    if isinstance(x, RatFunc):
        return QQq
    if isinstance(x, Cyclo):
        return x.field
    raise TypeError(f"not a scalar: {x!r}")


def common_ring(a, b):
    """The smallest field containing both rings (Q embeds everywhere)."""
    if a is b:
        return a
    if a is QQ:
        return b
    if b is QQ:
        return a
    raise TypeError(f"incompatible coefficient rings {a!r} and {b!r}")


def specialize(f, order: int) -> Cyclo:
    """Evaluate a rational function (or rational) at a primitive root of
    unity of the given order.

    Raises :class:`SpecializationError` when the denominator vanishes there,
    i.e. when the cyclotomic polynomial of that order divides it.
    """
    field = cyclotomic_field(order)
    if isinstance(f, (int, Fraction)):
        return field(f)
    if not isinstance(f, RatFunc):
        raise TypeError(f"cannot specialize {f!r}")
    den = field._at(f._den)
    if not any(den):
        raise SpecializationError(
            f"denominator vanishes at a primitive {order}-th root of unity "
            f"(the cyclotomic polynomial of order {order} divides it)"
        )
    return _cyclo(field, field._at(f._num), 1) * _cyclo(field, den, 1).inverse()


def scalar_str(x) -> str:
    """Canonical string form of a scalar, stable across runs."""
    if isinstance(x, (Fraction, int, RatFunc, Cyclo)):
        return str(x)
    raise TypeError(f"not a scalar: {x!r}")
