"""Exact linear algebra used everywhere else.

Two flavours live here:

* integer matrices: Hermite normal form (row style, upper triangular),
  determinants, Smith exponents at a prime (elimination modulo a power of it);
* matrices over F_p and Z/p^N: RREF, inverses, Smith witnesses.

Everything is pure and allocation-cheap; sizes stay tiny (n <= 8).
"""

from fractions import Fraction
from itertools import product

MAX_PRIME = 10 ** 12  # largest prime tested: trial division stops by 10^6


class BoundExceeded(ValueError):
    """A request beyond the documented desk-scale bounds."""


# ---------------------------------------------------------------------------
# valuations

def v_ell(x, ell):
    """ell-adic valuation of a nonzero int or Fraction; ell >= 2."""
    if ell < 2:
        raise ValueError(f"valuation needs ell >= 2, got {ell}")
    if isinstance(x, Fraction):
        return v_ell(x.numerator, ell) - v_ell(x.denominator, ell)
    if x == 0:
        raise ValueError("valuation of zero")
    return _valuation(abs(x), ell)


def _valuation(x, ell):
    """ell-adic valuation of a positive int."""
    v = 0
    while x % ell == 0:
        x //= ell
        v += 1
    return v


# ---------------------------------------------------------------------------
# integer determinants

def mat_det(A):
    """Exact determinant via fraction-free Bareiss."""
    n = len(A)
    if n == 0:
        return 1
    M = [list(map(int, row)) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if M[r][k] != 0), None)
            if piv is None:
                return 0
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        top = M[k][k + 1:]
        akk = M[k][k]
        for i in range(k + 1, n):
            row = M[i]
            aik = row[k]
            row[k + 1:] = [(x * akk - aik * y) // prev for x, y in zip(row[k + 1:], top)]
        prev = akk
    return sign * M[n - 1][n - 1]


# ---------------------------------------------------------------------------
# integer lattices: HNF and ell-normalisation

def hnf_rows(rows):
    """Row-style Hermite normal form of integer rows spanning full column rank.

    Returns an n x n upper-triangular matrix with positive diagonal and the
    entries above each pivot reduced into [0, pivot).  This is the canonical
    basis of the integer row span.

    Column by column, Euclid's algorithm reduces the remaining rows by the
    one of least nonzero entry there until a single row, the pivot, is left
    nonzero; the pivot leaves the work list and reduces the entries above it
    in the pivots found before.  Later columns only subtract later pivots,
    which are zero in the columns already reduced.
    """
    if not rows:
        raise ValueError("no rows")
    n = len(rows[0])
    work = [list(r) for r in rows]
    out = []
    for col in range(n):
        while True:
            piv = None
            for r in work:
                x = r[col]
                if x and (piv is None or abs(x) < abs(piv[col])):
                    piv = r
            if piv is None:
                raise ValueError("rank deficient rows")
            p = piv[col]
            left = False
            for r in work:
                x = r[col]
                if x and r is not piv:
                    q = x // p
                    for j in range(col, n):
                        r[j] -= q * piv[j]
                    left = left or r[col] != 0
            if not left:
                break
        work = [r for r in work if r is not piv]
        if p < 0:
            piv = [-x for x in piv]
            p = -p
        for r in out:
            q = r[col] // p
            if q:
                for j in range(col, n):
                    r[j] -= q * piv[j]
        out.append(piv)
    return tuple(tuple(r) for r in out)


def ell_normalize(rows, ell):
    """Canonical basis, over Z_ell, of the lattice spanned by integer rows.

    The prime-to-ell structure is trivialised by saturating with ell^k Z^n,
    where k is the ell-valuation of the determinant; the result is the unique
    HNF basis with determinant ell^k.
    """
    H0 = hnf_rows(rows)
    n = len(H0)
    det = 1
    for i in range(n):
        det *= H0[i][i]
    k = v_ell(det, ell)
    sat = [list(r) for r in H0]
    q = ell ** k
    for i in range(n):
        e = [0] * n
        e[i] = q
        sat.append(e)
    H = hnf_rows(sat)
    det = 1
    for i in range(n):
        det *= H[i][i]
    assert det == ell ** k
    return H


def smith_ell_exponents_k(M, ell, k):
    """The ell-exponents of the elementary divisors of M, given k = v_ell(det M).

    Elimination over Z_(ell) modulo ell^(k+1): pivot on an entry of least
    valuation (the first ell-unit in row-major order if there is one, which
    ends the search), clear the pivot column below it by unimodular row
    operations (scale the row by the pivot's ell-unit part, subtract an
    integer multiple of the pivot row) and record the pivot valuation.  Every
    elementary divisor divides ell^k, so nothing is lost modulo ell^(k+1),
    and the pivot row needs no clearing: its entries have valuation at least
    the pivot's.  Returned weakly increasing.
    """
    n = len(M)
    if k == 0:
        return (0,) * n
    q = ell ** (k + 1)
    A = [[x % q for x in row] for row in M]
    exps = []
    for t in range(n):
        v = None
        for i in range(t, n):
            row = A[i]
            for j in range(t, n):
                x = row[j]
                if x:
                    w = _valuation(x, ell)
                    if v is None or w < v:
                        v, pi, pj = w, i, j
                        if w == 0:
                            break
            if v == 0:
                break
        A[t], A[pi] = A[pi], A[t]
        if pj != t:
            for row in A:
                row[t], row[pj] = row[pj], row[t]
        piv = A[t]
        pv = ell ** v
        unit = piv[t] // pv
        for i in range(t + 1, n):
            row = A[i]
            if row[t]:
                c = row[t] // pv
                A[i] = [(unit * x - c * y) % q for x, y in zip(row, piv)]
        exps.append(v)
    return tuple(exps)


# ---------------------------------------------------------------------------
# matrices over F_p

def rref_mod(rows, p):
    """Reduced row echelon form over F_p; zero rows dropped.

    The result is canonical, so equal row spans give equal tuples.
    """
    work = [list(r) for r in rows]
    m = len(work)
    n = len(work[0]) if m else 0
    out = []
    lead = 0
    r = 0
    while r < m and lead < n:
        piv = next((i for i in range(r, m) if work[i][lead] % p != 0), None)
        if piv is None:
            lead += 1
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][lead], -1, p)
        work[r] = [(x * inv) % p for x in work[r]]
        for i in range(m):
            if i != r and work[i][lead] % p:
                f = work[i][lead]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[r])]
        r += 1
        lead += 1
    for row in work[:r]:
        out.append(tuple(row))
    return tuple(out)


def det_mod(A, p):
    n = len(A)
    M = [[x % p for x in row] for row in A]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det = (det * M[col][col]) % p
        inv = pow(M[col][col], -1, p)
        for r in range(col + 1, n):
            if M[r][col]:
                f = (M[r][col] * inv) % p
                M[r] = [(x - f * y) % p for x, y in zip(M[r], M[col])]
    return det % p


def smith_witness_mod(X, p):
    """(U, V, r) with U X V = E_r over F_p, E_r the rank-r idempotent matrix.

    U and V are invertible; this is constructive Gaussian elimination and is
    the witness that any rank-r matrix is equivalent to E_r.
    """
    m = len(X)
    n = len(X[0])
    A = [[x % p for x in row] for row in X]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    r = 0
    while True:
        piv = None
        for i in range(r, m):
            for j in range(r, n):
                if A[i][j] % p:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i0, j0 = piv
        if i0 != r:
            A[r], A[i0] = A[i0], A[r]
            U[r], U[i0] = U[i0], U[r]
        if j0 != r:
            for row in A:
                row[r], row[j0] = row[j0], row[r]
            for row in V:
                row[r], row[j0] = row[j0], row[r]
        inv = pow(A[r][r], -1, p)
        A[r] = [(x * inv) % p for x in A[r]]
        U[r] = [(x * inv) % p for x in U[r]]
        for i in range(m):
            if i != r and A[i][r]:
                f = A[i][r]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[r])]
                U[i] = [(x - f * y) % p for x, y in zip(U[i], U[r])]
        for j in range(n):
            if j != r:
                f = A[r][j]
                if f:
                    for i in range(m):
                        A[i][j] = (A[i][j] - f * A[i][r]) % p
                    for i in range(n):
                        V[i][j] = (V[i][j] - f * V[i][r]) % p
        r += 1
    return tuple(map(tuple, U)), tuple(map(tuple, V)), r


def all_matrices_mod(m, n, p):
    for flat in product(range(p), repeat=m * n):
        yield tuple(flat[i * n:(i + 1) * n] for i in range(m))


def gl_order(n, p):
    o = 1
    for j in range(n):
        o *= p ** n - p ** j
    return o


def gl_elements(n, p):
    """All of GL_n(F_p) by filtering; fine for the desk-scale sizes used here."""
    for M in all_matrices_mod(n, n, p):
        if det_mod(M, p) != 0:
            yield M


def gl_generators(n, p):
    """A small generating set of GL_n(F_p): torus gen, cycle, transvection.

    The torus generator diag(g, 1, .., 1) with g a primitive root is left out
    at p = 2, where it is the identity.
    """
    gens = []
    if p > 2:
        d = [[int(i == j) for j in range(n)] for i in range(n)]
        d[0][0] = primitive_root(p)
        gens.append(tuple(map(tuple, d)))
    if n > 1:
        c = [[0] * n for _ in range(n)]
        for i in range(n):
            c[i][(i + 1) % n] = 1
        gens.append(tuple(map(tuple, c)))
        t = [[int(i == j) for j in range(n)] for i in range(n)]
        t[0][1] = 1
        gens.append(tuple(map(tuple, t)))
    return gens


def primitive_root(p):
    if p == 2:
        return 1
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise ValueError("no primitive root (p not prime?)")


# ---------------------------------------------------------------------------
# matrices over Z/p^N

def mat_mul_modq(A, B, q):
    n, k, m = len(A), len(B), len(B[0])
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(k)) % q for j in range(m))
        for i in range(n)
    )


def inv_mod_matrix_q(A, p, N):
    """Inverse over Z/p^N by Gauss-Jordan with unit pivoting."""
    q = p ** N
    n = len(A)
    work = [[A[i][j] % q for j in range(n)] + [int(i == j) for j in range(n)]
            for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] % p), None)
        if piv is None:
            raise ZeroDivisionError("matrix not invertible mod p^N")
        work[col], work[piv] = work[piv], work[col]
        inv = pow(work[col][col], -1, q)
        work[col] = [(x * inv) % q for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [(x - f * y) % q for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def mat_pow_modq(A, e, q):
    n = len(A)
    R = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    B = A
    while e:
        if e & 1:
            R = mat_mul_modq(R, B, q)
        e >>= 1
        if e:
            B = mat_mul_modq(B, B, q)
    return R


def is_prime(x):
    """Trial division; x above MAX_PRIME is refused rather than tested."""
    if x < 2:
        return False
    if x > MAX_PRIME:
        raise BoundExceeded(f"{x} exceeds the prime bound {MAX_PRIME}")
    d = 2
    while d * d <= x:
        if x % d == 0:
            return False
        d += 1
    return True
