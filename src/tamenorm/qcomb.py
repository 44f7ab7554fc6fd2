"""Gaussian combinatorics at a concrete prime.

Computes q-binomials, rank counts c_{r,m} of matrices over F_ell, chain
counts D_{j,m} in the subspace poset, the lambda coefficients obtained from
inclusion-exclusion over chains, the derived b / b' coefficients, and the
divisibility and congruence certificates attached to them.

Chain convention: a length-j chain with a fixed top corresponds to
0 = V_0 < V_1 < ... < V_j < F_ell^m (all inclusions strict); D_{0,m} = 1.
This convention reproduces lambda = (ell+1, -ell) at n = 2 and is validated
against brute-force lattice enumeration (see module `lattice`).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .matrices import BoundExceeded, is_prime

MAX_DIGITS = 4300  # longest integer a certificate prints (Python's int -> str limit)
_SIZE_LIMIT = 10 ** (2 * MAX_DIGITS)


@dataclass(frozen=True)
class QCombContext:
    """Rank parameter n >= 1 and prime ell; n need not be odd.

    The largest integer in the tables for (n, ell) has about
    1.5 n^2 log10(ell) digits (measured for n <= 60), so ell^(3 n^2) must stay
    below 10^(2 MAX_DIGITS); since ell >= 2, a large n is refused on its
    bit count alone, before the power is formed.
    """

    n: int
    ell: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not is_prime(self.ell):
            raise ValueError(f"ell must be prime, got {self.ell}")
        e = 3 * self.n * self.n
        if e >= _SIZE_LIMIT.bit_length() or self.ell ** e >= _SIZE_LIMIT:
            raise BoundExceeded(f"n = {self.n}, ell = {self.ell}: the coefficient "
                                f"tables exceed {MAX_DIGITS}-digit integers")


@lru_cache(maxsize=None)
def q_binomial(a, b, q):
    """Gaussian binomial [a, b]_q: the number of b-dim subspaces of F_q^a."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if b < 0 or b > a:
        raise ValueError(f"invalid signature (a, b) = ({a}, {b})")
    if b == 0 or b == a:
        return 1
    # integral Pascal recurrence [a,b] = [a-1,b-1] + q^b [a-1,b]
    return q_binomial(a - 1, b - 1, q) + q ** b * q_binomial(a - 1, b, q)


def rank_count(r, m, ctx):
    """c_{r,m}: the number of rank-r matrices in M_{m x n}(F_ell)."""
    n, ell = ctx.n, ctx.ell
    if r < 0 or r > min(m, n):
        raise ValueError(f"need 0 <= r <= min(m, n), got r={r}, m={m}, n={n}")
    num = 1
    den = 1
    for j in range(r):
        num *= (ell ** m - ell ** j) * (ell ** n - ell ** j)
        den *= ell ** r - ell ** j
    assert num % den == 0  # the full product is a matrix count
    return num // den


@lru_cache(maxsize=None)
def chain_count(j, m, ctx):
    """D_{j,m}: chains 0 = V_0 < V_1 < ... < V_j < F_ell^m, strict inclusions.

    By the dimension d of the top subspace V_j:
    D_{j,m} = sum_{d=j}^{m-1} [m, d]_ell D_{j-1,d}.
    """
    if not (0 <= j <= m - 1 <= ctx.n - 1):
        raise ValueError(f"need 0 <= j <= m-1 <= n-1, got j={j}, m={m}")
    if j == 0:
        return 1
    return sum(q_binomial(m, d, ctx.ell) * chain_count(j - 1, d, ctx) for d in range(j, m))


def lambda_coefficients(ctx):
    """lambda_1..lambda_n from the signed chain counts over each stratum."""
    n, ell = ctx.n, ctx.ell
    out = []
    for m in range(1, n + 1):
        alt = sum((-1) ** j * chain_count(j, m, ctx) for j in range(m))
        out.append(q_binomial(n, m, ell) * alt)
    return out


@dataclass
class CoefficientTable:
    """All coefficients for one (n, ell), with pass/fail certificates.

    `c[m]` lists c_{0,m}..c_{m,m} for m = 0..n; `d[m]` lists D_{0,m}..D_{m-1,m}
    for m = 1..n (index 0 unused).  Failed divisibility claims are reported,
    never corrected; entries stay exact Fractions in that (never observed)
    case.
    """

    n: int
    ell: int
    lam: list
    c: list
    d: list
    b: list
    b_prime: list
    certificates: dict

    def to_json_dict(self):
        return {
            "n": self.n,
            "ell": self.ell,
            "lambda": list(self.lam),
            "c": [list(row) for row in self.c],
            "d": [list(row) for row in self.d],
            "b": list(self.b),
            "b_prime": list(self.b_prime),
            "certificates": self.certificates,
        }


def b_coefficients(ctx):
    """The b_r (and b'_r) with their divisibility certificates.

    Certificates:
      (i)   ell-1 divides ell^(n^2) - sum_m lambda_m ell^(n(n-m))     [b_0]
      (ii)  ell-1 divides b'_r for every 1 <= r <= n                  [b_r]
      (iii) per r: (ell-1) * c_{r,n} divides b'_r  -- evaluated, not assumed;
            fails at the boundary r = n whenever ell > 2.
    """
    n, ell = ctx.n, ctx.ell
    lam = lambda_coefficients(ctx)
    c = [[rank_count(r, m, ctx) for r in range(m + 1)] for m in range(n + 1)]
    d = [[]] + [[chain_count(j, m, ctx) for j in range(m)] for m in range(1, n + 1)]

    top = ell ** (n * n) - sum(lam[m - 1] * ell ** (n * (n - m)) for m in range(1, n + 1))
    unit = ell - 1  # always >= 1; mod-1 congruences are trivially true
    cert_i = top % unit == 0
    b0 = top // unit if cert_i else Fraction(top, unit)

    b_prime = []
    b = [b0]
    cert_ii = {}
    cert_iii = {}
    for r in range(1, n + 1):
        bp = sum(ell ** (n * (n - m)) * lam[m - 1] * c[m][r] for m in range(r, n + 1))
        b_prime.append(bp)
        ok2 = bp % unit == 0
        cert_ii[str(r)] = ok2
        b.append(-(bp // unit) if ok2 else -Fraction(bp, unit))
        mod = unit * c[n][r]
        cert_iii[str(r)] = {
            "claim_divisor": mod,
            "b_prime": bp,
            "pass": bp % mod == 0,
        }

    table = CoefficientTable(
        n=n,
        ell=ell,
        lam=lam,
        c=c,
        d=d,
        b=b,
        b_prime=b_prime,
        certificates={
            "b0_integrality": cert_i,
            "b_r_integrality": cert_ii,
            "strong_divisibility_claim": cert_iii,
            "all_b_integral": cert_i and all(cert_ii.values()),
        },
    )
    return table


def congruence_certificates(ctx):
    """lambda_m = C(n,m)(-1)^(m+1) and sum(lambda) = 1, both mod ell-1."""
    n, ell = ctx.n, ctx.ell
    lam = lambda_coefficients(ctx)
    unit = ell - 1
    per_m = {}
    for m in range(1, n + 1):
        target = comb(n, m) * (-1) ** (m + 1)
        ok = (lam[m - 1] - target) % unit == 0
        per_m[str(m)] = {"lambda": lam[m - 1], "target": target, "pass": ok}
    total_ok = (sum(lam) - 1) % unit == 0
    return {
        "identity": "lambda_congruences_mod_ell_minus_1",
        "n": n,
        "ell": ell,
        "per_m": per_m,
        "sum_congruence": {"sum": sum(lam), "pass": total_ok},
        "pass": total_ok and all(v["pass"] for v in per_m.values()),
    }
