"""Exact coefficient arithmetic: Q, Q(q), and cyclotomic fields Q(zeta_r).

Three coefficient fields are supported, all exact:

* ``QQ`` -- the rationals, whose elements are :class:`fractions.Fraction`;
* ``QQq`` -- the field Q(q) of rational functions in one indeterminate,
  whose elements are :class:`RatFunc` (dense numerator/denominator
  polynomials over Q, denominator monic, gcd one);
* ``cyclotomic_field(r)`` -- Q(zeta_r) = Q[x]/Phi_r(x), whose elements are
  :class:`Cyclo` integer coefficient vectors of length phi(r) over a common
  denominator, reduced modulo the r-th cyclotomic polynomial.

Elements are immutable, hashable, support ``+ - * / **`` with ``int`` and
``Fraction`` coercion, and are always kept in canonical form, so ``==`` is
mathematical equality.  Rationals embed in both larger fields; mixing Q(q)
with a cyclotomic field raises ``TypeError`` (use :func:`specialize` to send
q to a root of unity explicitly).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd

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


class SpecializationError(ZeroDivisionError):
    """Raised when a rational function cannot be evaluated at a root of unity."""


# --------------------------------------------------------------------------
# Dense univariate polynomials over Q: tuples of Fraction, no trailing zeros.
# () is the zero polynomial.


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


def _pscale(a, s):
    if not s:
        return ()
    return _pstrip(tuple(c * s for c in a))


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [_F0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return _pstrip(out)


def _pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    if len(a) < len(b):
        return (), _pstrip(rem)
    quo = [_F0] * (len(a) - len(b) + 1)
    inv = 1 / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + len(b) - 1] * inv
        if c:
            quo[k] = c
            for i, cb in enumerate(b):
                rem[k + i] -= c * cb
    return _pstrip(quo), _pstrip(rem)


def _int_content_strip(coeffs):
    g = 0
    for c in coeffs:
        g = gcd(g, c)
        if g == 1:
            return tuple(coeffs)
    if g > 1:
        return tuple(c // g for c in coeffs)
    return tuple(coeffs)


def _int_primitive(coeffs):
    """Clear denominators of a Fraction polynomial and strip the content."""
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    coeffs = coeffs[:n]
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    return _int_content_strip(ints)


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
        if not a:
            break
    return tuple(a)


def _pgcd(a, b):
    # primitive pseudo-remainder sequence over Z; far cheaper than Euclid
    # with Fraction coefficients
    A = _int_primitive(a)
    B = _int_primitive(b)
    while B:
        A, B = B, _int_content_strip(_int_prem(A, B))
    if not A:
        return ()
    lc = A[-1]
    if lc == 1:
        return tuple(Fraction(c) for c in A)
    return tuple(Fraction(c, lc) for c in A)


def _pxgcd(a, b):
    """Monic g = gcd(a, b) together with u, v such that u*a + v*b = g."""
    r0, r1 = a, b
    s0, s1 = _ONE, ()
    t0, t1 = (), _ONE
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _padd(s0, _pneg(_pmul(q, s1)))
        t0, t1 = t1, _padd(t0, _pneg(_pmul(q, t1)))
    if r0 and r0[-1] != 1:
        inv = 1 / r0[-1]
        r0, s0, t0 = _pscale(r0, inv), _pscale(s0, inv), _pscale(t0, inv)
    return r0, s0, t0


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
    """A rational function in q over Q, in canonical reduced form.

    The denominator is monic and coprime to the numerator; the zero element
    has numerator () and denominator 1.  Construct values from ``QQq.q`` by
    arithmetic rather than calling this constructor directly.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=(), den=_ONE):
        num = _pstrip(tuple(Fraction(c) for c in num))
        den = _pstrip(tuple(Fraction(c) for c in den))
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            den = _ONE
        elif den != _ONE:
            g = _pgcd(num, den)
            if len(g) > 1:
                num = _pdivmod(num, g)[0]
                den = _pdivmod(den, g)[0]
            if den[-1] != 1:
                inv = 1 / den[-1]
                num = _pscale(num, inv)
                den = _pscale(den, inv)
        self.num = num
        self.den = den

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction)):
            return RatFunc((Fraction(x),))
        return None

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant hashes like the equal Fraction, since it compares equal
        if self.den == _ONE and len(self.num) < 2:
            return hash(self.num[0] if self.num else _F0)
        return hash((RatFunc, self.num, self.den))

    def __neg__(self):
        r = RatFunc.__new__(RatFunc)
        r.num = _pneg(self.num)
        r.den = self.den
        return r

    def __add__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            if self.den == _ONE:
                r = RatFunc.__new__(RatFunc)
                r.num = _padd(self.num, other.num)
                r.den = _ONE
                return r
            return RatFunc(_padd(self.num, other.num), self.den)
        return RatFunc(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    __radd__ = __add__

    def __mul__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == _ONE and other.den == _ONE:
            r = RatFunc.__new__(RatFunc)
            r.num = _pmul(self.num, other.num)
            r.den = _ONE
            return r
        # cancel across the two factors first to keep the gcd inputs small
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if n1 and d2 != _ONE:
            g = _pgcd(n1, d2)
            if len(g) > 1:
                n1 = _pdivmod(n1, g)[0]
                d2 = _pdivmod(d2, g)[0]
        if n2 and d1 != _ONE:
            g = _pgcd(n2, d1)
            if len(g) > 1:
                n2 = _pdivmod(n2, g)[0]
                d1 = _pdivmod(d1, g)[0]
        return RatFunc(_pmul(n1, n2), _pmul(d1, d2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __str__(self):
        if self.den == _ONE:
            return _poly_str(self.num)
        return f"({_poly_str(self.num)})/({_poly_str(self.den)})"

    def __repr__(self):
        return f"RatFunc({self})"


# --------------------------------------------------------------------------
# Cyclotomic fields


def _int_div_monic(a, b):
    """Exact division of integer polynomials, b monic."""
    rem = list(a)
    quo = [0] * (len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + len(b) - 1]
        if c:
            quo[k] = c
            for i, cb in enumerate(b):
                rem[k + i] -= c * cb
    if any(rem):
        raise ArithmeticError("inexact integer polynomial division")
    return tuple(quo)


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
            poly = _int_div_monic(poly, cyclotomic_polynomial(d))
    return poly


class CyclotomicField:
    """Q(zeta_r) realized as Q[x]/Phi_r(x); use :func:`cyclotomic_field`."""

    def __init__(self, order: int):
        self.order = order
        self.modulus = cyclotomic_polynomial(order)
        self.degree = len(self.modulus) - 1
        # reduction rows: x^(degree + i) mod Phi_r as integer vectors
        rows = [tuple(-c for c in self.modulus[:-1])]
        for _ in range(self.degree - 2):
            prev = rows[-1]
            shifted = [0] + list(prev[:-1])
            top = prev[-1]
            if top:
                for j, c in enumerate(rows[0]):
                    shifted[j] += top * c
            rows.append(tuple(shifted))
        self._rows = tuple(rows)
        self.name = f"QQ(zeta_{order})"
        self.zero = Cyclo(self, (0,) * self.degree, 1)
        self.one = Cyclo(self, (1,) + (0,) * (self.degree - 1), 1)
        if self.degree == 1:
            self.zeta = Cyclo(self, (self._rows[0][0],), 1)
        else:
            self.zeta = Cyclo(self, (0, 1) + (0,) * (self.degree - 2), 1)

    def __call__(self, x):
        if isinstance(x, Cyclo):
            if x.field is not self:
                raise TypeError("element of a different cyclotomic field")
            return x
        if isinstance(x, int):
            return Cyclo(self, (x,) + (0,) * (self.degree - 1), 1)
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
    positive denominator, reduced mod Phi_r, gcd one."""

    __slots__ = ("field", "vec", "den")

    def __init__(self, field, vec, den=1):
        if den < 0:
            vec = tuple(-v for v in vec)
            den = -den
        g = den
        for v in vec:
            g = gcd(g, v)
            if g == 1:
                break
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
        r = Cyclo.__new__(Cyclo)
        r.field = self.field
        r.vec = tuple(-v for v in self.vec)
        r.den = self.den
        return r

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return Cyclo(
                self.field, tuple(a + b for a, b in zip(self.vec, other.vec)), da
            )
        g = gcd(da, db)
        ma, mb = db // g, da // g
        return Cyclo(
            self.field,
            tuple(a * ma + b * mb for a, b in zip(self.vec, other.vec)),
            da * ma,
        )

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = self.field.degree
        a, b = self.vec, other.vec
        conv = [0] * (2 * d - 1)
        for i, va in enumerate(a):
            if va:
                for j, vb in enumerate(b):
                    if vb:
                        conv[i + j] += va * vb
        rows = self.field._rows
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                row = rows[k - d]
                for j, rv in enumerate(row):
                    if rv:
                        out[j] += c * rv
        return Cyclo(self.field, tuple(out), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        if not any(self.vec):
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        a = _pstrip(self.coeffs)
        modulus = tuple(Fraction(c) for c in self.field.modulus)
        g, u, _ = _pxgcd(a, modulus)
        if len(g) != 1:
            raise ArithmeticError("cyclotomic modulus is not squarefree-coprime")
        u = _pscale(u, 1 / g[0])
        den = 1
        for c in u:
            den = den * c.denominator // gcd(den, c.denominator)
        vec = [0] * self.field.degree
        for i, c in enumerate(u):
            vec[i] = c.numerator * (den // c.denominator)
        return Cyclo(self.field, tuple(vec), den)

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
    zeta = field.zeta

    def horner(coeffs):
        acc = field.zero
        for c in reversed(coeffs):
            acc = acc * zeta + field(c)
        return acc

    den = horner(f.den)
    if not den:
        raise SpecializationError(
            f"denominator vanishes at a primitive {order}-th root of unity "
            f"(the cyclotomic polynomial of order {order} divides it)"
        )
    return horner(f.num) / den


def scalar_str(x) -> str:
    """Canonical string form of a scalar, stable across runs."""
    if isinstance(x, (Fraction, int, RatFunc, Cyclo)):
        return str(x)
    raise TypeError(f"not a scalar: {x!r}")
