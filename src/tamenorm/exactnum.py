"""Exact arithmetic in Q[s, z] / (s^2 - ell, Phi_k(z)).

The element s plays the role of sqrt(ell), so half-integral powers of ell are
exact ring elements; z is a primitive k-th root of unity.  Every scalar is a
residue with rational coefficients, stored as an integer coefficient vector
over a common positive denominator, so equality is decidable and canonical.

The ring is not always a field (sqrt(ell) may already lie in Q(zeta_k));
inversion is defined exactly for units and raises NotInvertibleError
otherwise.  All operations are pure; values are immutable.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from numbers import Number, Rational
from operator import index

from .matrices import is_prime

MAX_ORDER = 1000  # largest cyclotomic order k; its table holds max(k, 2 phi(k) - 1) rows


class NotInvertibleError(ZeroDivisionError):
    """Raised when inverting a non-unit scalar."""


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficients low degree first)

def _poly_divmod(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("non-exact integer polynomial division")
        q = c // den[-1]
        out[i] = q
        for j, d in enumerate(den):
            num[i + j] -= q * d
    while num and num[-1] == 0:
        num.pop()
    return out, num


@lru_cache(maxsize=None)
def cyclotomic_poly(k):
    """Coefficients of the k-th cyclotomic polynomial, low degree first."""
    num = [-1] + [0] * (k - 1) + [1]  # z^k - 1
    for d in range(1, k):
        if k % d == 0:
            num, rem = _poly_divmod(num, cyclotomic_poly(d))
            assert not rem
    return tuple(num)


@lru_cache(maxsize=None)
def _ring_tables(k):
    """The one table of Q[z]/Phi_k: the degree d and, for each e < max(k, 2d - 1),
    the nonzero (index, value) pairs of z^e mod Phi_k.

    Rows below k serve roots of unity, lifts, conjugation and products by a
    monomial; rows d .. 2d - 2 reduce the convolution of two residues.
    """
    if k > MAX_ORDER:
        raise ValueError(f"root of unity order {k} exceeds the bound {MAX_ORDER}")
    phi = cyclotomic_poly(k)
    d = len(phi) - 1
    rows = []
    cur = [0] * d
    cur[0] = 1
    for _ in range(max(k, 2 * d - 1)):
        rows.append(tuple((t, v) for t, v in enumerate(cur) if v))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [x - top * c for x, c in zip(cur, phi)]
    return d, tuple(rows)


def _normalize(num, den):
    if den < 0:
        num = tuple(-x for x in num)
        den = -den
    g = gcd(den, *num)
    if g > 1:
        num = tuple(x // g for x in num)
        den //= g
    return num, den


def _make(ell, k, num, den=1):
    """Internal constructor for ring-op results.

    The inputs are already valid (`num` a tuple of ints of length 2 deg Phi_k,
    `den` > 0), so only the common factor is cancelled, and only when den > 1.
    """
    if den != 1:
        g = gcd(den, *num)
        if g > 1:
            num = tuple([x // g for x in num])
            den //= g
    x = _new(ExactScalar)
    x.ell = ell
    x.k = k
    x.num = num
    x.den = den
    return x


class ExactScalar:
    """An element of Q[s, z]/(s^2 - ell, Phi_k(z)).

    Coefficient layout: ``num[i*d + j]`` is the integer numerator of the
    coefficient of s^i z^j (i in {0,1}, j < d = deg Phi_k), all over the
    common positive denominator ``den``.  Orders k = 1 and 2 have d = 1, so
    their scalars are (num[0] + num[1] s) / den, a value in Q(s) that every
    other order holds in positions 0 and d; ring operations with such an
    operand work on those two positions and never lift it.

    A ring operation's result has order lcm of its operands' orders (a
    rational operand has order 1), whatever their values: a zero or rational
    value at order 12 still makes the result's order a multiple of 12.  The
    order shows in ``serialize()`` through the powers of z, so every fast
    path keeps it.  Operands other than scalars over the same prime are ints
    and Fractions (``numbers.Rational``); anything else is a TypeError.
    """

    __slots__ = ("ell", "k", "num", "den")
    __hash__ = None  # equality crosses cyclotomic orders; see __eq__

    def __init__(self, ell, k, num, den=1):
        if not is_prime(ell):
            raise ValueError(f"base prime must be prime, got {ell}")
        if k < 1:
            raise ValueError("cyclotomic order must be >= 1")
        d, _ = _ring_tables(k)
        num = tuple(_integer(x) for x in num)
        den = _integer(den)
        if len(num) != 2 * d:
            raise ValueError("coefficient vector has wrong length")
        if den == 0:
            raise ValueError("denominator must be nonzero")
        self.ell = ell
        self.k = k
        self.num, self.den = _normalize(num, den)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(q, ell, k=1):
        if not isinstance(q, Rational):
            raise TypeError(f"expected an int or Fraction, got {type(q).__name__}")
        q = Fraction(q)
        d, _ = _ring_tables(k)
        num = [0] * (2 * d)
        num[0] = q.numerator
        return ExactScalar(ell, k, num, q.denominator)

    @staticmethod
    def zero(ell, k=1):
        return ExactScalar.from_rational(0, ell, k)

    @staticmethod
    def one(ell, k=1):
        return ExactScalar.from_rational(1, ell, k)

    @staticmethod
    def sqrt_ell(ell):
        return ExactScalar(ell, 1, (0, 1))

    @staticmethod
    def zeta(ell, k, e=1):
        """The root of unity zeta_k^e."""
        if k < 1:
            raise ValueError(f"root of unity order must be >= 1, got {k}")
        d, rows = _ring_tables(k)
        num = [0] * (2 * d)
        for t, v in rows[e % k]:
            num[t] = v
        return ExactScalar(ell, k, num)

    # -- structure ----------------------------------------------------------

    @property
    def d(self):
        return len(self.num) // 2

    def lift(self, K):
        """The same value viewed in cyclotomic order K (k must divide K)."""
        if K == self.k:
            return self
        if K % self.k != 0:
            raise ValueError("can only lift to a multiple order")
        d_big, rows = _ring_tables(K)
        num = self.num
        d = len(num) // 2
        step = K // self.k  # z_k = z_K^step
        out0 = [0] * d_big
        out1 = [0] * d_big
        for j in range(d):
            c0, c1 = num[j], num[d + j]
            if c0 or c1:
                for t, v in rows[j * step]:
                    out0[t] += c0 * v
                    out1[t] += c1 * v
        return _make(self.ell, K, tuple(out0 + out1), self.den)

    def _coerce(self, other):
        """`other` as a scalar over the same prime (rationals at order 1), or
        None if it is neither a scalar nor a rational."""
        if isinstance(other, ExactScalar):
            if other.ell == self.ell:
                return other
            raise ValueError("scalars live over different base primes")
        if isinstance(other, Rational):
            return _make(self.ell, 1, (other.numerator, 0), other.denominator)
        return None

    def _common(self, other):
        other = self._coerce(other)
        if self.k == other.k:
            return self, other
        K = lcm(self.k, other.k)
        return (self if self.k == K else self.lift(K),
                other if other.k == K else other.lift(K))

    # -- ring operations ----------------------------------------------------

    def _add(self, other, sign):
        """self + sign * other, for sign = +1 or -1."""
        a, b = self, other
        if not isinstance(b, ExactScalar) or b.ell != a.ell:
            b = a._coerce(b)
            if b is None:
                return NotImplemented
        if a.k != b.k:
            if len(b.num) == 2 and a.k % b.k == 0:
                return _add_small(a, b, 1, sign)
            if len(a.num) == 2 and b.k % a.k == 0:
                return _add_small(b, a, sign, 1)
            a, b = a._common(b)
        aden, bden = a.den, b.den
        bn = b.num if sign > 0 else [-y for y in b.num]
        if aden == bden:
            return _make(a.ell, a.k, tuple([x + y for x, y in zip(a.num, bn)]), aden)
        num = tuple([x * bden + y * aden for x, y in zip(a.num, bn)])
        return _make(a.ell, a.k, num, aden * bden)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.ell, self.k, tuple([-x for x in self.num]), self.den)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        a, b = self, other
        if not isinstance(b, ExactScalar) or b.ell != a.ell:
            b = a._coerce(b)
            if b is None:
                return NotImplemented
        an, bn = a.num, b.num
        if len(bn) == 2 and a.k % b.k == 0:
            return _mul_small(a, b)
        if len(an) == 2 and b.k % a.k == 0:
            return _mul_small(b, a)
        # a monomial c s^i z^j / den (one nonzero coefficient) of dividing order
        if a.k % b.k == 0 and bn.count(0) == len(bn) - 1:
            return _mul_monomial(a, b)
        if b.k % a.k == 0 and an.count(0) == len(an) - 1:
            return _mul_monomial(b, a)
        if a.k != b.k:
            a, b = a._common(b)
        k, ell = a.k, a.ell
        an, bn = a.num, b.num
        d = len(an) // 2
        # s-blocks: (a0 + a1 s)(b0 + b1 s) = (a0 b0 + ell a1 b1) + (a0 b1 + a1 b0) s
        conv0 = [0] * (2 * d - 1)
        conv1 = [0] * (2 * d - 1)
        b_pairs = [(j, bn[j], bn[d + j]) for j in range(d) if bn[j] or bn[d + j]]
        for i in range(d):
            x0, x1 = an[i], an[d + i]
            if x0 or x1:
                ex1 = ell * x1
                for j, y0, y1 in b_pairs:
                    conv0[i + j] += x0 * y0 + ex1 * y1
                    conv1[i + j] += x0 * y1 + x1 * y0
        out0 = conv0[:d]
        out1 = conv1[:d]
        rows = _ring_tables(k)[1]
        for e in range(d, 2 * d - 1):
            c0, c1 = conv0[e], conv1[e]
            if c0 or c1:
                for t, v in rows[e]:
                    out0[t] += c0 * v
                    out1[t] += c1 * v
        return _make(ell, k, tuple(out0 + out1), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self):
        """Exact inverse; raises NotInvertibleError for non-units."""
        num = self.num
        if not any(num[1:]):
            # a rational p/q: the inverse is q/p, no linear solve needed
            p = num[0]
            if p == 0:
                raise NotInvertibleError("not invertible")
            out = [0] * len(num)
            out[0] = -self.den if p < 0 else self.den
            return _make(self.ell, self.k, tuple(out), abs(p))
        n = len(num)
        basis = [self * _make(self.ell, self.k, tuple(int(i == j) for j in range(n)))
                 for i in range(n)]
        # columns of the multiplication-by-self matrix, over Q
        M = [[Fraction(basis[j].num[i], basis[j].den) for j in range(n)] for i in range(n)]
        rhs = [Fraction(int(i == 0)) for i in range(n)]
        sol = _solve_fraction(M, rhs)
        if sol is None:
            raise NotInvertibleError("not invertible")
        den = lcm(*(x.denominator for x in sol))
        return _make(self.ell, self.k,
                     tuple(x.numerator * (den // x.denominator) for x in sol), den)

    def __truediv__(self, other):
        # b^-1 lives at b's own order; the product lifts to the common order
        b = self._coerce(other)
        return NotImplemented if b is None else self * b.inverse()

    def __rtruediv__(self, other):
        b = self._coerce(other)
        return NotImplemented if b is None else self.inverse() * b

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        if e == 0:
            return ExactScalar.one(self.ell, self.k)
        r = None
        b = self
        while True:
            if e & 1:
                r = b if r is None else r * b
            e >>= 1
            if not e:
                return r
            b = b * b

    def conj(self):
        """The cyclotomic conjugation z -> z^(-1); fixes s.  An involution."""
        k = self.k
        d, rows = _ring_tables(k)
        num = self.num
        out0 = [0] * d
        out1 = [0] * d
        for j in range(d):
            c0, c1 = num[j], num[d + j]
            if c0 or c1:
                for t, v in rows[(k - j) % k]:
                    out0[t] += c0 * v
                    out1[t] += c1 * v
        return _make(self.ell, k, tuple(out0 + out1), self.den)

    # -- predicates / conversions -------------------------------------------

    def is_zero(self):
        return not any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def as_rational(self):
        if not self.is_rational():
            raise ValueError("not a rational scalar")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # both sides are in lowest terms
            return (self.den == other.denominator and self.num[0] == other.numerator
                    and not any(self.num[1:]))
        if not isinstance(other, ExactScalar):
            if isinstance(other, Number):   # a float or complex, as in arithmetic
                raise TypeError(f"cannot compare a scalar with {type(other).__name__}")
            return NotImplemented
        if self.ell != other.ell:
            return False
        a, b = self._common(other)
        return a.num == b.num and a.den == b.den

    def __bool__(self):
        return not self.is_zero()

    # -- serialization ------------------------------------------------------

    def serialize(self):
        """Canonical text form: sum of monomials p/q[*s][*z^j], or "0"."""
        d = self.d
        den = self.den
        parts = []
        for j in range(d):
            for i in (0, 1):
                c = self.num[i * d + j]
                if c == 0:
                    continue
                g = gcd(c, den)
                body = f"{c // g}" if g == den else f"{c // g}/{den // g}"
                if i == 1:
                    body += "*s"
                if j == 1:
                    body += "*z"
                elif j > 1:
                    body += f"*z^{j}"
                parts.append(body)
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"ExactScalar({self.ell}, k={self.k}, {self.serialize()})"


_new = object.__new__


def _integer(x):
    try:
        return index(x)
    except TypeError:
        raise ValueError(f"coefficients and denominator must be integers, got {x!r}") from None


def _mul_small(a, b):
    """a * b where b = (p + q s) / den has d = 1 and its order divides a's."""
    p, q = b.num
    num = a.num
    if q == 0:
        if p != 1:
            num = tuple([p * x for x in num])
    else:
        d = len(num) // 2
        a0, a1 = num[:d], num[d:]
        qe = q * a.ell
        num = tuple([p * x + qe * y for x, y in zip(a0, a1)]
                    + [q * x + p * y for x, y in zip(a0, a1)])
    return _make(a.ell, a.k, num, a.den * b.den)


def _mul_monomial(a, m):
    """a * m where m = c s^i z^j / den has one nonzero coefficient and its
    order k divides a's order K: z_k^j = z_K^e with e = j K/k, and each term
    z_K^t of a moves to row (t + e) mod K of the order-K table."""
    num = m.num
    d = len(num) // 2
    c = sum(num)
    i, j = divmod(num.index(c), d)
    K, an = a.k, a.num
    D = len(an) // 2
    if i:  # (x0 + x1 s) s = ell x1 + x0 s
        x0, x1 = [a.ell * c * y for y in an[D:]], [c * y for y in an[:D]]
    else:
        x0, x1 = [c * y for y in an[:D]], [c * y for y in an[D:]]
    e = j * (K // m.k)
    rows = _ring_tables(K)[1]
    out0 = [0] * D
    out1 = [0] * D
    for t in range(D):
        c0, c1 = x0[t], x1[t]
        if c0 or c1:
            for u, v in rows[(t + e) % K]:
                out0[u] += c0 * v
                out1[u] += c1 * v
    return _make(a.ell, K, tuple(out0 + out1), a.den * m.den)


def _add_small(a, b, sa, sb):
    """sa * a + sb * b where b = (p + q s) / den has d = 1 and its order
    divides a's; sa and sb are +1 or -1."""
    aden, bden = a.den, b.den
    f = sa * bden
    num = [x * f for x in a.num]
    g = sb * aden
    num[0] += b.num[0] * g
    num[len(num) // 2] += b.num[1] * g
    return _make(a.ell, a.k, tuple(num), aden * bden)


def _solve_fraction(M, rhs):
    """Solve M x = rhs over Q; None if singular."""
    n = len(M)
    work = [row[:] + [rhs[i]] for i, row in enumerate(M)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != 0), None)
        if piv is None:
            return None
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [work[i][n] for i in range(n)]


# ---------------------------------------------------------------------------
# univariate polynomials over ExactScalar

class Poly:
    """Polynomial over ExactScalar, coefficients stored lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("need at least the constant coefficient")
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        if len(self.coeffs) == 1 and self.coeffs[0].is_zero():
            return -1
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    __hash__ = None

    def eval(self, x):
        """Exact Horner evaluation."""
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def serialize(self):
        return " ; ".join(c.serialize() for c in self.coeffs)

    def __repr__(self):
        return f"Poly[{self.serialize()}]"

