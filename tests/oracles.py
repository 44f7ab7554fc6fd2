"""Independent brute-force oracles shared by the test suite.

Everything here enumerates naively over F_q objects (q prime); none of it
touches the closed forms or recurrences under test.  `RefScalar` is the
original, unoptimised ExactScalar arithmetic, the slow reference for the
fast kernel in tamenorm.exactnum.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm


def all_vectors(n, q):
    return list(product(range(q), repeat=n))


def span(vectors, n, q):
    """Row space of `vectors` in F_q^n as a frozenset of points (q prime)."""
    space = {(0,) * n}
    for v in vectors:
        space |= {
            tuple((c * x + y) % q for x, y in zip(v, w))
            for c in range(1, q)
            for w in space
        }
    return frozenset(space)


def all_subspaces(n, q):
    """Every subspace of F_q^n as a frozenset of points (exhaustive BFS)."""
    points = all_vectors(n, q)
    zero = span([], n, q)
    seen = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for v in points:
            if v in cur:
                continue
            nxt = span(list(cur) + [v], n, q)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def subspace_dim(space, q):
    size = len(space)
    d = 0
    while q ** d < size:
        d += 1
    assert q ** d == size
    return d


def count_subspaces(n, d, q):
    """Brute-force number of d-dimensional subspaces of F_q^n."""
    return sum(1 for s in all_subspaces(n, q) if subspace_dim(s, q) == d)


def matrix_rank_bruteforce(M, q):
    """Rank over F_q by enumerating the row span."""
    n = len(M[0])
    return subspace_dim(span([tuple(r) for r in M], n, q), q)


def count_rank_matrices(r, m, n, q):
    """Brute-force count of rank-r matrices in M_{m x n}(F_q)."""
    count = 0
    for flat in product(range(q), repeat=m * n):
        M = [flat[i * n:(i + 1) * n] for i in range(m)]
        if matrix_rank_bruteforce(M, q) == r:
            count += 1
    return count


def count_chains(j, m, q):
    """Chains 0 = V_0 < V_1 < ... < V_j < F_q^m by exhaustive enumeration.

    Every V_i with i >= 1 is a proper nonzero subspace; inclusions strict.
    """
    if j == 0:
        return 1
    proper = [s for s in all_subspaces(m, q) if 1 < len(s) < q ** m]

    def extend(last, length):
        if length == j:
            return 1
        return sum(extend(s, length + 1) for s in proper if len(s) > len(last) and last < s)

    return sum(extend(s, 1) for s in proper)


# ---------------------------------------------------------------------------
# The original ExactScalar arithmetic, kept frozen as the slow reference for
# the fast kernel in tamenorm.exactnum: every result goes through the
# validating constructor and a gcd pass, every binary op lifts both operands
# to the lcm order, and every inverse is a Fraction Gauss solve.


@lru_cache(maxsize=None)
def _ref_cyclotomic_poly(k):
    """Coefficients of Phi_k, low degree first, by dividing z^k - 1."""
    num = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            den = _ref_cyclotomic_poly(d)
            out = [0] * (len(num) - len(den) + 1)
            for i in range(len(out) - 1, -1, -1):
                q = num[i + len(den) - 1] // den[-1]
                out[i] = q
                for j, c in enumerate(den):
                    num[i + j] -= q * c
            num = out
    return tuple(num)


@lru_cache(maxsize=None)
def _ref_ring_tables(k):
    phi = _ref_cyclotomic_poly(k)
    d = len(phi) - 1
    pows = []
    cur = [1] + [0] * (d - 1)
    for _ in range(max(k, 2 * d - 1)):
        pows.append(tuple(cur))
        nxt = [0] + cur
        top = nxt[d]
        cur = [x - top * c for x, c in zip(nxt[:d], phi)]
    return d, tuple(pows)


def _ref_normalize(num, den):
    if den < 0:
        num = tuple(-x for x in num)
        den = -den
    g = den
    for x in num:
        g = gcd(g, x)
        if g == 1:
            break
    if g > 1:
        num = tuple(x // g for x in num)
        den //= g
    if all(x == 0 for x in num):
        den = 1
    return num, den


def _ref_solve(M, rhs):
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


class RefScalar:
    """Q[s, z]/(s^2 - ell, Phi_k(z)) with the original, unoptimised arithmetic.

    Same layout as ExactScalar: ``num[i*d + j]`` over ``den`` is the
    coefficient of s^i z^j.  Inverses of non-units raise ZeroDivisionError.
    """

    def __init__(self, ell, k, num, den=1):
        d, _ = _ref_ring_tables(k)
        num = tuple(int(x) for x in num)
        assert len(num) == 2 * d and den != 0
        self.ell, self.k = ell, k
        self.num, self.den = _ref_normalize(num, int(den))

    @staticmethod
    def from_rational(q, ell, k=1):
        q = Fraction(q)
        d, _ = _ref_ring_tables(k)
        return RefScalar(ell, k, [q.numerator] + [0] * (2 * d - 1), q.denominator)

    @property
    def d(self):
        return len(self.num) // 2

    def lift(self, K):
        if K == self.k:
            return self
        assert K % self.k == 0
        d_big, pows = _ref_ring_tables(K)
        step = K // self.k
        d = self.d
        out = [0] * (2 * d_big)
        for i in (0, 1):
            for j in range(d):
                c = self.num[i * d + j]
                for t, v in enumerate(pows[(j * step) % K]):
                    out[i * d_big + t] += c * v
        return RefScalar(self.ell, K, out, self.den)

    def _common(self, other):
        if not isinstance(other, RefScalar):
            other = RefScalar.from_rational(other, self.ell, 1)
        assert other.ell == self.ell
        K = lcm(self.k, other.k)
        return self.lift(K), other.lift(K)

    def __add__(self, other):
        a, b = self._common(other)
        num = tuple(x * b.den + y * a.den for x, y in zip(a.num, b.num))
        return RefScalar(a.ell, a.k, num, a.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        return RefScalar(self.ell, self.k, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        a, b = self._common(other)
        num = tuple(x * b.den - y * a.den for x, y in zip(a.num, b.num))
        return RefScalar(a.ell, a.k, num, a.den * b.den)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        a, b = self._common(other)
        d, pows = _ref_ring_tables(a.k)
        ell = a.ell
        a0, a1 = a.num[:d], a.num[d:]
        b0, b1 = b.num[:d], b.num[d:]
        conv0 = [0] * (2 * d - 1)
        conv1 = [0] * (2 * d - 1)
        for i in range(d):
            for j in range(d):
                conv0[i + j] += a0[i] * b0[j] + ell * a1[i] * b1[j]
                conv1[i + j] += a0[i] * b1[j] + a1[i] * b0[j]
        out = [0] * (2 * d)
        for e in range(2 * d - 1):
            for t, v in enumerate(pows[e]):
                out[t] += conv0[e] * v
                out[d + t] += conv1[e] * v
        return RefScalar(ell, a.k, out, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self):
        n = 2 * self.d
        basis = [self * RefScalar(self.ell, self.k, [int(i == j) for j in range(n)])
                 for i in range(n)]
        M = [[Fraction(basis[j].num[i], basis[j].den) for j in range(n)] for i in range(n)]
        sol = _ref_solve(M, [Fraction(int(i == 0)) for i in range(n)])
        if sol is None:
            raise ZeroDivisionError("not invertible")
        den = 1
        for x in sol:
            den = den * x.denominator // gcd(den, x.denominator)
        return RefScalar(self.ell, self.k, [x.numerator * (den // x.denominator) for x in sol], den)

    def __truediv__(self, other):
        a, b = self._common(other)
        return a * b.inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        r = RefScalar.from_rational(1, self.ell, self.k)
        for _ in range(e):
            r = r * self
        return r

    def conj(self):
        d, pows = _ref_ring_tables(self.k)
        out = [0] * (2 * d)
        for i in (0, 1):
            for j in range(d):
                c = self.num[i * d + j]
                for t, v in enumerate(pows[(self.k - j) % self.k]):
                    out[i * d + t] += c * v
        return RefScalar(self.ell, self.k, out, self.den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RefScalar.from_rational(other, self.ell, 1)
        a, b = self._common(other)
        return a.num == b.num and a.den == b.den

    def serialize(self):
        d = self.d
        parts = []
        for j in range(d):
            for i in (0, 1):
                c = self.num[i * d + j]
                if c == 0:
                    continue
                q = Fraction(c, self.den)
                body = f"{q.numerator}" if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
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
