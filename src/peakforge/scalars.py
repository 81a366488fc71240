"""Exact coefficient arithmetic: Q, Q(q), and cyclotomic fields Q(zeta_r).

Three coefficient fields are supported, all exact:

* ``QQ`` -- the rationals, whose elements are :class:`fractions.Fraction`;
* ``QQq`` -- the field Q(q) of rational functions in one indeterminate,
  whose elements are :class:`RatFunc`: a numerator and a denominator in
  Z[q] (dense integer coefficient tuples) with gcd one in Z[q] and a
  positive leading denominator coefficient; sums and products are the
  textbook fractions, reduced by one gcd unless both denominators are 1,
  and a k-th power is N^k/D^k with no gcd;
* ``cyclotomic_field(r)`` -- Q(zeta_r) = Q[x]/Phi_r(x), whose elements are
  :class:`Cyclo` integer coefficient vectors of length phi(r) over a common
  denominator.  Each field keeps Phi_r and x^phi(r) reduced, nothing that
  grows with r: products, and integer polynomials evaluated at zeta (for
  :func:`specialize`), reduce modulo Phi_r from the top coefficient down.
  The inverse of a rational is one division; of any other element, the
  extended Euclidean algorithm modulo Phi_r in its fraction-free form
  (the subresultant remainder sequence, all in integers).

Integer polynomials are the one polynomial representation at run time.
``Fraction`` appears only as the element type of ``QQ``, in coercion (the
``RatFunc`` constructor clears the denominators of its arguments), and in
the ``num``/``den``/``coeffs`` views.

This module alone decides where the other modules skip the field
arithmetic, and how their values are cleared and decoded:

* :func:`over_integers` runs a sparse kernel of :mod:`peakforge.algebra`
  (word substitution, products, internal products, compositions of
  permutations) on integers.  Over Q, Q(zeta_1) and Q(zeta_2) each operand
  is cleared to integers over a positive integer; over Q(q) to integer
  polynomials over the lcm of its denominators in Z[q], which run
  evaluated at q = 2^B (Kronecker substitution) and decode exactly.
* :func:`elimination_kernel` gives :mod:`peakforge.linalg` its elimination
  step ``target -= c * row``: over Q(zeta_r) of degree 1 or 2 (r = 1, 2,
  3, 4, 6), :func:`cyclo_subtract_multiple`, which applies the
  closed-form products to the integer vectors of the entries; over every
  other field, :func:`subtract_multiple` in the field's arithmetic.
* :func:`divide_row` divides a new echelon row by its pivot for
  :mod:`peakforge.linalg`, over every field: over Q(zeta_r) of degree 2
  (r = 3, 4, 6), in closed form on the integer vectors (each entry times
  the pivot's conjugate, over its norm); over every other field, one
  inverse of the pivot and one product per entry.

Q(zeta_r) for r >= 3 stays off Kronecker substitution: there the height
pass and the decoding cost more than the closed-form products of degree 2.

Elements are immutable, hashable, support ``+ - * / **`` with ``int`` and
``Fraction`` coercion, and are always kept in canonical form, so ``==`` is
mathematical equality.  Rationals embed in both larger fields; mixing Q(q)
with a cyclotomic field raises ``TypeError`` (use :func:`specialize` to send
q to a root of unity explicitly).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from itertools import chain
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
    "over_integers",
    "elimination_kernel",
    "divide_row",
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


def _int_pdivmod(a, b):
    """(Q, R) with lc(b)^(deg a - deg b + 1) * a = Q*b + R and deg R < deg b,
    for integer polynomials with deg a >= deg b >= 0 (pseudo-division).
    Long division of the scaled a by b over Q gives Q, whose coefficients
    are integers, so each step divides by lc(b) exactly."""
    nb = len(b) - 1
    lb = b[-1]
    k = len(a) - nb
    scale = lb**k
    rem = [c * scale for c in a] if scale != 1 else list(a)
    quo = [0] * k
    low = b[:-1]
    for i in range(k - 1, -1, -1):
        c = rem[i + nb]
        if c:
            c //= lb
            quo[i] = c
            for j, cb in enumerate(low, i):
                rem[j] -= c * cb
    return tuple(quo), _pstrip(rem[:nb])


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


def _int_pow(a, k):
    """a^k in Z[q] for k >= 0, with 0^0 = 1; a monomial c*q^j gives
    c^k*q^(j*k) without a product."""
    if not a:
        return () if k else _Z1
    if not any(a[:-1]):
        return (0,) * ((len(a) - 1) * k) + (a[-1] ** k,)
    out = _Z1
    for _ in range(k):
        out = _int_mul(out, a)
    return out


def _int_divexact(a, b):
    """a / b in Z[q], for a nonzero b that divides a there."""
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
        A, B = B, _int_content_strip(_int_pdivmod(A, B)[1])
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


def _int_inverse_mod(a, m):
    """(s, c): an integer polynomial s and a nonzero integer c with
    s*a = c modulo m, for integer polynomials a and m that are coprime in
    Q[x], with 0 < deg a < deg m.

    The extended Euclidean algorithm in its fraction-free form, the
    subresultant remainder sequence (Cohen, *A Course in Computational
    Algebraic Number Theory*, Alg. 3.3.1), carrying the cofactor s of a
    through each step: each remainder R and its cofactor are divided by
    g*h^delta, exactly, since both are subresultants up to sign, so the
    coefficients grow linearly rather than exponentially.  The last
    remainder is a nonzero constant c, since a and m are coprime, and then
    deg s < deg m."""
    A, B = m, a
    sA, sB = (), _Z1
    g = h = 1
    while True:
        delta = len(A) - len(B)
        lb = B[-1]
        quo, R = _int_pdivmod(A, B)
        # sR = lb^(delta+1) * sA - quo * sB, where deg sA < deg sB
        sR = [-c for c in _int_mul(quo, sB)]
        scale = lb ** (delta + 1)
        for i, c in enumerate(sA):
            sR[i] += scale * c
        if len(R) == 1:
            return sR, R[0]
        beta = g * h**delta
        if beta != 1:
            R = [c // beta for c in R]
            sR = [c // beta for c in sR]
        A, B, sA, sB = B, R, sB, sR
        g = lb
        h = g**delta // h ** (delta - 1)


def _poly_str(coeffs):
    if not coeffs:
        return "0"
    parts = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k == 0:
            body = str(c)
        else:
            power = "q" if k == 1 else f"q^{k}"
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

    A sum is (n1*d2 + n2*d1)/(d1*d2) and a product (n1*n2)/(d1*d2), each
    divided by the gcd of its numerator and denominator; when both
    denominators are 1 the result is already canonical and takes no gcd.

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
        if d1 == _Z1 and d2 == _Z1:
            return _ratfunc(_padd(n1, n2), _Z1)
        n = _padd(_int_mul(n1, d2), _int_mul(n2, d1))
        return _ratfunc(*_int_cancel(n, _int_mul(d1, d2)))

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is not RatFunc:
            other = RatFunc._coerce(other)
            if other is None:
                return NotImplemented
        n1, d1 = self._num, self._den
        n2, d2 = other._num, other._den
        if d1 == _Z1 and d2 == _Z1:
            return _ratfunc(_int_mul(n1, n2), _Z1)
        return _ratfunc(*_int_cancel(_int_mul(n1, n2), _int_mul(d1, d2)))

    __rmul__ = __mul__

    def __pow__(self, k):
        # gcd(N, D) = 1 in Z[q], a unique factorization domain, gives
        # gcd(N^k, D^k) = 1, and D^k keeps a positive leading coefficient:
        # the power is canonical as it stands and takes no gcd
        if not isinstance(k, int):
            return NotImplemented
        n, d = self._num, self._den
        if k < 0:
            if not n:
                raise ZeroDivisionError("zero rational function to a negative power")
            n, d, k = d, n, -k
            if d[-1] < 0:
                n, d = _pneg(n), _pneg(d)
        return _ratfunc(_int_pow(n, k), _int_pow(d, k))

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

    The field keeps Phi_r (``modulus``, monic of degree d = phi(r)) and
    ``xd``, the vector of x^d reduced, -Phi_r[:d]; an integer polynomial
    reduces by ``xd`` from its top coefficient down (:meth:`_at`)."""

    def __init__(self, order: int):
        self.order = order
        self.modulus = cyclotomic_polynomial(order)
        self.degree = d = len(self.modulus) - 1
        self.xd = tuple(-c for c in self.modulus[:-1])  # x^d = sum xd[i] x^i
        self.name = f"QQ(zeta_{order})"
        self.zero = Cyclo(self, (0,) * d, 1)
        self.one = Cyclo(self, (1,) + (0,) * (d - 1), 1)
        self.zeta = Cyclo(self, self._at((0, 1)), 1)

    def _at(self, coeffs):
        """The integer vector of sum_i coeffs[i] * zeta^i, for an integer
        polynomial ``coeffs`` of any length: its remainder modulo Phi_r.
        Each coefficient from the top down to degree d is replaced by its
        multiple of ``xd``, d places lower, skipping the zeros of Phi_r."""
        d = self.degree
        acc = list(coeffs)
        xd = self.xd
        for i in range(len(acc) - 1, d - 1, -1):
            c = acc[i]
            if c:
                for j, m in enumerate(xd, i - d):
                    if m:
                        acc[j] += c * m
        return tuple(acc[:d]) + (0,) * (d - len(acc))

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

    Fields of degree 2 (r = 3, 4, 6) multiply in closed form, by
    x^2 = m0 + m1*x; every other degree convolves and reduces modulo Phi_r
    (:meth:`CyclotomicField._at`).  A rational inverts by one division, any
    other element by :func:`_int_inverse_mod`, all in integers.

    Elimination in degree 1 and 2, and row division in degree 2, do not
    come through here entry by entry: :func:`cyclo_subtract_multiple` and
    :func:`divide_row` apply closed forms to the integer vectors of whole
    sparse rows."""

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
        if d == 2:
            m0, m1 = field.xd  # x^2 = m0 + m1*x
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

    def integer_or_self(self):
        """self as an int when it is a rational integer, else self: an int
        multiplies a Cyclo through :meth:`_times_int`, without a full
        product in the field."""
        vec = self.vec
        return vec[0] if self.den == 1 and not any(vec[1:]) else self

    def inverse(self):
        field = self.field
        a = self.vec
        d = field.degree
        if not any(a[1:]):
            if not a[0]:
                raise ZeroDivisionError("inverse of zero cyclotomic element")
            return Cyclo(field, (self.den,) + (0,) * (d - 1), a[0])
        s, c = _int_inverse_mod(_pstrip(a), field.modulus)
        return Cyclo(field, tuple([self.den * v for v in s]) + (0,) * (d - len(s)), c)

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


def _conjugate_over_norm(field, a):
    """(q0, q1, N) with (a0 + a1*x) * (q0 + q1*x) = N, an integer, for the
    integer vector a of a nonzero element of a field of degree 2: q is the
    conjugate a0 + a1*x' (x + x' = m1, x*x' = -m0) and N the norm, which
    is positive, since these fields are imaginary quadratic."""
    m0, m1 = field.xd
    a0, a1 = a
    return a0 + m1 * a1, -a1, a0 * a0 + m1 * a0 * a1 - m0 * a1 * a1


# --------------------------------------------------------------------------
# Integer fast paths (see the module docstring)


def over_integers(kernel, operands: tuple, *args) -> dict:
    """``kernel(*operands, *args)``, run on integers where the field allows.

    ``kernel`` is linear in each of its term dicts ``operands`` (one or
    two), and the keys of its result, and their order, depend only on the
    operands' keys, their order and which of their coefficients are equal.
    When every coefficient is a rational of one field, Q, Q(zeta_1) or
    Q(zeta_2), the kernel runs on the integers D*t of each operand t, D the
    lcm of its denominators, and each sum is divided by the product of the
    D's once.  When every one is a rational function of Q(q), D is the lcm
    of the denominators in Z[q], a unique factorization domain, so each
    denominator divides it and D*t is exact, and the integer polynomials
    D*t run evaluated at q = 2^B.  B - 1 is the bit length of a height
    above every |coefficient| of the operands and the results: the same
    kernel run on the operands' l1 norms, with each multiplier taken in
    absolute value (:class:`_Height`), bounds them.  Lemma (von zur Gathen
    and Gerhard, *Modern Computer Algebra*, 8.4): a P in Z[q] with every
    |coefficient| < 2^(B-1) is determined by P(2^B), and P(2^B) = 0 only
    for P = 0 (:func:`_from_kronecker` decodes it).  Scaling by a nonzero D
    and this injective evaluation keep the keys, their order and the equal
    coefficients, and a sum cancels exactly where it does in the field, so
    the result is the field's, key for key.  Any other operands run in
    the field."""
    first = next(iter(operands[0].values()), None)
    kind = type(first)
    field = first.field if kind is Cyclo else None
    if field is not None and field.degree != 1:
        return kernel(*operands, *args)
    parts = []
    den = _Z1 if kind is RatFunc else 1
    for terms in operands:
        values = terms.values()
        if kind is RatFunc:
            if any(type(c) is not RatFunc for c in values):
                return kernel(*operands, *args)
            dens = {c._den for c in values}
            m = _Z1
            for d in dens:
                m = _int_mul(m, _int_divexact(d, _int_gcd(m, d)))
            scale = {d: _int_divexact(m, d) for d in dens}
            parts.append({k: _int_mul(c._num, scale[c._den]) for k, c in terms.items()})
            den = _int_mul(den, m)
            continue
        if field is None:
            if any(type(c) is not Fraction and type(c) is not int for c in values):
                return kernel(*operands, *args)
            pairs = [(c.numerator, c.denominator) for c in values]
        elif all(type(c) is Cyclo and c.field is field for c in values):
            pairs = [(c.vec[0], c.den) for c in values]
        else:
            return kernel(*operands, *args)
        m = lcm(*{d for _, d in pairs})
        parts.append({k: n * (m // d) for k, (n, d) in zip(terms, pairs)})
        den *= m
    make = field or Fraction
    if kind is RatFunc:
        norms = [{k: _Height(sum(map(abs, p))) for k, p in t.items()} for t in parts]
        height = max(chain(kernel(*norms, *args).values(), *(t.values() for t in norms)), default=0)
        bits = height.bit_length() + 1
        for t in parts:
            for k, p in t.items():
                v = 0
                for c in reversed(p):
                    v = (v << bits) + c
                t[k] = v
        make = partial(_from_kronecker, bits)
    return {k: make(s, den) for k, s in kernel(*parts, *args).items()}


class _Height(int):
    """A nonnegative int whose products are taken in absolute value: run on
    _Heights, a kernel sums |multiplier| * |coefficient| bounds, so a signed
    multiplier (the ribbon tables carry -1) cannot cancel in the bound."""

    __slots__ = ()

    def __mul__(self, other):
        return _Height(abs(int.__mul__(self, other)))

    __rmul__ = __mul__


def _from_kronecker(bits, value, m):
    """The canonical RatFunc P/m for the P whose coefficients lie in
    [-2^(bits-1), 2^(bits-1)) and P(2^bits) = value, and an integer
    polynomial m with a positive leading coefficient: the balanced base
    2^bits digits of value, over m, both divided by their gcd in Z[q].
    The constant coefficient of P is the residue of value mod 2^bits in
    [-2^(bits-1), 2^(bits-1)), and (value - that) / 2^bits is the value of
    (P - P(0))/q."""
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    coeffs = []
    while value:
        c = ((value + half) & mask) - half
        coeffs.append(c)
        value = (value - c) >> bits
    if m == _Z1:
        return _ratfunc(tuple(coeffs), _Z1)
    return _ratfunc(*_int_cancel(tuple(coeffs), m))


def elimination_kernel(ring):
    """The elimination step ``target -= c * row`` for sparse vectors over
    ``ring``: :func:`cyclo_subtract_multiple` over Q(zeta_r) of degree 1 or
    2, :func:`subtract_multiple` over every other field."""
    if isinstance(ring, CyclotomicField) and ring.degree <= 2:
        return cyclo_subtract_multiple
    return subtract_multiple


def subtract_multiple(target: dict, c, row: dict):
    """target -= c * row in place, dropping the entries that cancel."""
    # -c only for the entries the target lacks, negated once, and only if
    # there are any: most calls in rank scans find every entry present
    neg = None
    for j, rc in row.items():
        newc = target.get(j)
        if newc is None:
            if neg is None:
                neg = -c
            newc = neg * rc
        else:
            newc = newc - c * rc
        if newc:
            target[j] = newc
        else:
            target.pop(j, None)


def cyclo_subtract_multiple(target: dict, c: Cyclo, row: dict):
    """target -= c * row in place, for sparse vectors over a field of degree
    1 or 2 with no zero entries, dropping the entries that cancel.

    The elimination kernel of :class:`~peakforge.linalg.GradedSubspace`
    over Q(zeta_r), r = 1, 2, 3, 4, 6.  An entry whose c, row and target
    values all have denominator 1 is computed on the integer vectors, in
    closed form (an integer product in degree 1, the degree-2 product of
    :meth:`Cyclo.__mul__`); any other goes through ``Cyclo`` arithmetic.
    Both give the same canonical values."""
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
    m0, m1 = field.xd  # x^2 = m0 + m1*x
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


def divide_row(row: dict, p) -> dict:
    """{j: c / p for j, c in row.items()}, a new dict, for a nonzero p and
    values c of p's field.

    Over Q(zeta_r) of degree 2 (r = 3, 4, 6) each quotient is formed on
    the integer vectors: with p = P/den(p), c/p = c * den(p) * P' / N(P),
    where P' is the conjugate of P and N(P) = P*P' its norm, an integer;
    the product with c takes the closed form of :meth:`Cyclo.__mul__`, and
    one gcd makes the value canonical.  Over every other field it is one
    inverse of p and one product per entry.  Both give the canonical
    values of ``c * (1 / p)``."""
    if type(p) is not Cyclo or p.field.degree != 2:
        inv = p.inverse() if type(p) is Cyclo else 1 / p
        return {j: c * inv for j, c in row.items()}
    field = p.field
    out = {}
    m0, m1 = field.xd  # x^2 = m0 + m1*x
    q0, q1, norm = _conjugate_over_norm(field, p.vec)
    q0 *= p.den
    q1 *= p.den
    for j, c in row.items():
        b0, b1 = c.vec
        u = b1 * q1
        v0 = b0 * q0 + m0 * u
        v1 = b0 * q1 + b1 * q0 + m1 * u
        den = c.den * norm
        g = gcd(den, v0, v1)
        out[j] = _cyclo(field, (v0 // g, v1 // g), den // g)
    return out


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
