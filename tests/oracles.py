"""Independent brute-force oracles shared by the test suite.

Everything here enumerates naively over F_q objects (q prime); none of it
touches the closed forms or recurrences under test.  `RefScalar` is the
original, unoptimised ExactScalar arithmetic, the slow reference for the
fast kernel in tamenorm.exactnum; `ref_smith_ell_exponents`, `ref_contains`
and `ref_join` are the minor-enumeration and `Fraction` paths that the
integer ell-adic kernels in tamenorm.matrices and tamenorm.lattice replaced.
`ref_verify_reduction` multiplies out the whole 2n x 2n witness element
k = (g_r,1)^{-1} h^{-1} g_X over Q, where tamenorm.hecke checks one n x n
block congruence mod ell.  `RefElt` is the Fraction
coset element of GL_1 x GL_2n x GL_1 that tamenorm.hecke replaced by
{r: coefficient} maps: K-membership by valuations, the U_m summands g_X
(built here by `ref_um_summand`), and the
frozen serialization of the g_r behind the "phi" certificate bytes;
`ref_nu_image` enumerates the stabilizer of X_r by brute force.  `RefGroup`
is the finite group on concrete tuple elements that the index-based
tamenorm.fingroup replaced: every product is recomputed and matrix inverses
are powers.  `ref_character_group` is the exponent search, and
`ref_characters_orthogonal` the exact orthogonality check, that the direct
construction in tamenorm.classfield.character_group replaced;
`ref_fourier_inversion` is the per-character h^2 loop that
tamenorm.lfactor.tame_group_algebra_check replaced by summing each column of
the character table once; `ref_chain_count` is the sum over dimension sets
that the recurrence in tamenorm.qcomb.chain_count replaced.
`ref_enumerate_X_ge1` builds the members of X_n^{>=1} from the row-reduced
bases of the proper subspaces of F_ell^n, one `from_rows` each, the route
that tamenorm.lattice.enumerate_X_ge1 replaced by sorting the depth-1 sweep.
`ref_hnf_candidates` is every HNF basis up to a diagonal depth, and
`ref_sublattices_up_to_depth` keeps those whose Smith exponents are within
the depth: the sweep that
tamenorm.lattice.sublattices_up_to_depth replaced by building only the
lattices between ell^depth Z^n and Z^n.  `ref_verify_inclusion_exclusion`
is the lattice-by-lattice inclusion-exclusion sweep, with every member
joined and every containment tested at every lattice, that
tamenorm.lattice.verify_inclusion_exclusion replaced by one verdict per
image mod ell.  `join` is the lattice intersection by duality and two
canonical HNFs (`_ell_power_hnf`, `_adjugate_upper`) that the same function
replaced by ANDing the members' subspaces of F_ell^n as bitsets; it is the
join of the lattice-by-lattice sweep, and `ref_join` is its Fraction
reference.  `smith_ell_exponents` (k from a
Bareiss determinant) and `ideal_product_form` (composition by ideal
multiplication) are routes that only the tests take.
`ref_class_number_table` is the triple-by-triple loop over the reduced forms
that tamenorm.classfield.class_number_table replaced by counting one
arithmetic progression of discriminants per (a, b) and residue class of c.
`ref_rank_table` is one RREF (`rank_mod`) per matrix of M_n(F_ell), the
route that tamenorm.hecke._rank_table replaced by extending the span of
each row prefix, and `ref_orbit` grows the orbit of X_r under the
generators and their inverses by full matrix products.
`ref_frob_poly` forms P_lambda and P as two products of 2n binomials with
the schoolbook `ref_poly_mul`, the route that
tamenorm.lfactor.frob_poly_from_satake replaced by one linear-factor
recurrence for P.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import gcd, lcm, prod

from tamenorm import classfield, hecke, lattice, lfactor, trc
from tamenorm.exactnum import ExactScalar, Poly
from tamenorm.classfield import _elt_mul, _ideal_to_form, form_to_ideal
from tamenorm.lattice import LatticeClass, relative_position
from tamenorm.matrices import (
    all_matrices_mod,
    ell_normalize,
    gl_generators,
    hnf_rows,
    inv_mod_matrix_q,
    mat_det,
    rref_mod,
    smith_ell_exponents_k,
    v_ell,
)
from tamenorm.qcomb import q_binomial


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


@lru_cache(maxsize=None)
def all_subspaces(n, q):
    """Every subspace of F_q^n as a frozenset of points (exhaustive BFS).

    A subspace W not containing v grows to W + F_q v = {w + c v}.
    """
    points = all_vectors(n, q)
    zero = span([], n, q)
    seen = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for v in points:
            if v in cur:
                continue
            nxt = frozenset(
                tuple((x + c * y) % q for x, y in zip(w, v))
                for w in cur
                for c in range(q)
            )
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


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


# ---------------------------------------------------------------------------
# Polynomials over ExactScalar multiplied schoolbook, and the Frobenius
# polynomials as two independent products of 2n linear factors.


def ref_poly_add(P, Q):
    """P + Q, coefficient by coefficient."""
    n = max(len(P.coeffs), len(Q.coeffs))
    out = []
    for i in range(n):
        a = P.coeffs[i] if i < len(P.coeffs) else None
        b = Q.coeffs[i] if i < len(Q.coeffs) else None
        out.append(b if a is None else a if b is None else a + b)
    return Poly(out)


def ref_poly_mul(P, Q):
    """P * Q schoolbook; a zero-valued coefficient of P contributes no term."""
    zero = P.coeffs[0] - P.coeffs[0]
    out = [zero] * (len(P.coeffs) + len(Q.coeffs) - 1)
    for i, a in enumerate(P.coeffs):
        if a.is_zero():
            continue
        for j, b in enumerate(Q.coeffs):
            out[i + j] = out[i + j] + a * b
    return Poly(out)


def ref_frob_poly(sp):
    """P_lambda = prod (1 - alpha_i s^{2n-1} X) and P = prod (1 - alpha_i s^{-1} X),
    each its own product of 2n binomials; the route that
    tamenorm.lfactor.frob_poly_from_satake replaced by one recurrence for P
    and P_lambda(X) = P(ell^n X)."""
    n, ell = sp.n, sp.ell
    one = ExactScalar.one(ell)
    s = ExactScalar.sqrt_ell(ell)
    s_pow = s ** (2 * n - 1)
    s_inv = s / ell
    P_lam = Poly([one])
    P_cen = Poly([one])
    for a in sp.alpha:
        P_lam = ref_poly_mul(P_lam, Poly([one, -(a * s_pow)]))
        P_cen = ref_poly_mul(P_cen, Poly([one, -(a * s_inv)]))
    return lfactor.FrobPoly(n, ell, P_lam, P_cen)


# ---------------------------------------------------------------------------
# The minor-enumeration and Fraction kernels replaced by integer ell-adic
# elimination, kept as the slow references for relative_position, contains,
# the HNF join and the U_m -> psi_m witness check.


def _leibniz_det(M):
    n = len(M)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(M[i][perm[i]] for i in range(n))
    return total


def ref_det(M):
    """Determinant over Q as a Fraction: the Leibniz expansion of M with the
    denominators of each row cleared, divided back out."""
    scale, rows = 1, []
    for row in M:
        row = [Fraction(x) for x in row]
        d = lcm(*(x.denominator for x in row))
        scale *= d
        rows.append([int(x * d) for x in row])
    return Fraction(_leibniz_det(rows), scale)


def ref_mat_mul(A, B):
    """The product of two int or Fraction matrices, entry by entry."""
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(len(B))) for j in range(len(B[0])))
        for i in range(len(A))
    )


def ref_mat_inv(A):
    """Inverse over Q, one `_ref_solve` per column.  Raises on singular input."""
    n = len(A)
    M = [[Fraction(x) for x in row] for row in A]
    cols = [_ref_solve(M, [Fraction(int(i == j)) for i in range(n)]) for j in range(n)]
    if None in cols:
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def ref_ell_power_denominator(x, ell):
    """True if the reduced denominator of the Fraction x is a power of ell."""
    d = Fraction(x).denominator
    while d % ell == 0:
        d //= ell
    return d == 1


def ref_ell_integral(M, ell):
    return all(x == 0 or v_ell(Fraction(x), ell) >= 0 for row in M for x in row)


def ref_unit_det(M, ell):
    det = ref_det(M)
    return det != 0 and v_ell(det, ell) == 0


def ref_smith_ell_exponents(M, ell):
    """Elementary-divisor ell-exponents from minor valuations.

    The i-th exponent is the least valuation over i x i minors minus the same
    for (i-1) x (i-1) minors.  Returned weakly increasing.
    """
    n = len(M)
    vals = [0]
    for size in range(1, n + 1):
        best = None
        for rs in combinations(range(n), size):
            for cs in combinations(range(n), size):
                d = _leibniz_det([[M[r][c] for c in cs] for r in rs])
                if d != 0 and (best is None or v_ell(d, ell) < best):
                    best = v_ell(d, ell)
        if best is None:
            raise ValueError("singular matrix")
        vals.append(best)
    return tuple(vals[i + 1] - vals[i] for i in range(n))


def ref_contains(L_big, L_small):
    """Solve rows(L_small) = X rows(L_big) over Q; contained iff X is ell-integral."""
    X = ref_mat_mul(L_small.basis, ref_mat_inv(L_big.basis))
    return all(x == 0 or v_ell(x, L_big.ell) >= 0 for row in X for x in row)


def ref_join(L1, L2):
    """L1 intersect L2 as (L1* + L2*)*, with Fraction inverses."""
    ell, n = L1.ell, L1.n
    dual_rows = []
    for L in (L1, L2):
        inv = ref_mat_inv(L.basis)
        dual_rows.extend(tuple(inv[i][j] for i in range(n)) for j in range(n))
    t = 0
    for row in dual_rows:
        for x in row:
            if x != 0:
                t = max(t, v_ell(Fraction(x).denominator, ell))
            if not ref_ell_power_denominator(x, ell):
                raise ArithmeticError("dual basis has non-ell denominator")
    scale = ell ** t
    int_rows = [[int(x * scale) for x in row] for row in dual_rows]
    inv = ref_mat_inv(ell_normalize(int_rows, ell))
    res = [[Fraction(inv[i][j]) * scale for i in range(n)] for j in range(n)]
    out = []
    for row in res:
        if any(x.denominator != 1 for x in row):
            raise ArithmeticError("intersection of integral lattices must be integral")
        out.append([int(x) for x in row])
    return LatticeClass.from_rows(out, ell)


def join(L1, L2):
    """The join L1 v L2 = L1 intersect L2, via duality: (L1* + L2*)*.

    With D the larger determinant, D L* is spanned by the columns of
    (D / det H) adj(H) for the canonical basis H of L; the intersection is
    spanned by the columns of D Hd^{-1} = D adj(Hd) / det(Hd), Hd the
    canonical basis of D (L1* + L2*).  All of it is integer arithmetic, and
    both spans are Z-lattices of ell-power index, so one HNF each is their
    canonical basis.
    """
    lattice._check_compatible(L1, L2)
    ell, n = L1.ell, L1.n
    adj = [_adjugate_upper(L.basis) for L in (L1, L2)]
    D = max(det for det, _ in adj)
    dual_rows = []
    for det, X in adj:
        s = D // det
        dual_rows.extend([s * X[i][j] for i in range(n)] for j in range(n))
    det_d, Xd = _adjugate_upper(_ell_power_hnf(dual_rows, ell))
    out = []
    for j in range(n):
        row = []
        for i in range(n):
            x = D * Xd[i][j]
            if x % det_d:
                raise ArithmeticError("intersection of integral lattices must be integral")
            row.append(x // det_d)
        out.append(row)
    return LatticeClass(ell, n, _ell_power_hnf(out, ell))


def _ell_power_hnf(rows, ell):
    """The HNF of integer rows spanning a Z-lattice of ell-power index, which
    is then its canonical basis over Z_ell too; the index is checked exactly."""
    H = hnf_rows(rows)
    det = prod(H[i][i] for i in range(len(H)))
    if ell ** v_ell(det, ell) != det:
        raise ArithmeticError(f"index {det} is not a power of {ell}")
    return H


def _adjugate_upper(H):
    """(det H, adj H) of an upper-triangular integer matrix, by back substitution.

    adj H = det(H) H^{-1} is integral, so each division below is exact.
    """
    n = len(H)
    det = 1
    for i in range(n):
        det *= H[i][i]
    X = [[0] * n for _ in range(n)]
    for c in range(n):
        for i in range(c, -1, -1):
            s = det if i == c else 0
            for j in range(i + 1, c + 1):
                s -= H[i][j] * X[j][c]
            X[i][c] = s // H[i][i]
    return det, X


def smith_ell_exponents(M, ell):
    """Elementary-divisor ell-exponents with k = v_ell(det M) from a Bareiss
    determinant, the route for a matrix that is not triangular."""
    det = mat_det(M)
    if det == 0:
        raise ValueError("singular matrix")
    return smith_ell_exponents_k(M, ell, v_ell(det, ell))


def _subspace_rrefs(n, d, ell):
    """All RREF matrices of d-dimensional subspaces of F_ell^n, by pivot
    columns, then free entries row-major."""
    if d == 0:
        yield ()
        return
    for pivots in combinations(range(n), d):
        free_positions = [(i, j) for i in range(d) for j in range(pivots[i] + 1, n)
                          if j not in pivots]
        for vals in product(range(ell), repeat=len(free_positions)):
            M = [[0] * n for _ in range(d)]
            for i, p in enumerate(pivots):
                M[i][p] = 1
            for (i, j), v in zip(free_positions, vals):
                M[i][j] = v
            yield tuple(tuple(r) for r in M)


def ref_enumerate_X_ge1(n, ell):
    """All lattices L with ell Z^n <= L < Z^n, one per proper subspace
    L / ell Z^n of F_ell^n in RREF order, each spanned by its RREF rows and
    ell Z^n."""
    out = []
    for d in range(n):
        for rref in _subspace_rrefs(n, d, ell):
            rows = [list(r) for r in rref]
            rows += [[ell * (i == j) for j in range(n)] for i in range(n)]
            out.append(LatticeClass.from_rows(rows, ell))
    return out


def ref_hnf_candidates(n, ell, depth):
    """Every HNF basis with diagonal exponents <= depth, as LatticeClass, in
    product order: by diagonal exponents, then off-diagonal entries row-major."""
    for diag_exps in product(range(depth + 1), repeat=n):
        diag = [ell ** e for e in diag_exps]
        off_ranges = [range(diag[j]) for i in range(n) for j in range(i + 1, n)]
        for off in product(*off_ranges):
            M = [[0] * n for _ in range(n)]
            t = 0
            for i in range(n):
                M[i][i] = diag[i]
                for j in range(i + 1, n):
                    M[i][j] = off[t]
                    t += 1
            yield LatticeClass(ell, n, tuple(tuple(r) for r in M))


def ref_sublattices_up_to_depth(n, ell, depth):
    """The lattices between ell^depth Z^n and Z^n: the HNF candidates whose
    largest invariant exponent is <= depth, in candidate order."""
    return [L for L in ref_hnf_candidates(n, ell, depth)
            if max(relative_position(L)) <= depth]


def _ref_chain_weights(members):
    """w[k] = 1 - sum of w[a] over the members a strictly containing k, with
    one `contains` per ordered pair, and the total number of chains."""
    m = len(members)
    strictly_above = [[] for _ in range(m)]
    for a in range(m):
        for k in range(m):
            if a != k and lattice.contains(members[a], members[k]):
                strictly_above[k].append(a)
    order = sorted(range(m), key=lambda i: members[i].index_valuation())
    w = [0] * m
    counts = [0] * m
    for k in order:
        w[k] = 1 - sum(w[a] for a in strictly_above[k])
        counts[k] = 1 + sum(counts[a] for a in strictly_above[k])
    return w, sum(counts)


def ref_verify_inclusion_exclusion(n, ell, depth):
    """Chain-wise inclusion-exclusion over X_n^{>=1}, every member pair joined
    by the HNF `join` and the set S of members above each lattice recomputed
    at every lattice.  The lattice helpers, and `join` and `_ref_chain_weights`
    here, are looked up on their modules at call time, so a test can patch
    them for this route."""
    lattice._check_request(n, ell, depth)
    M = sum(q_binomial(n, d, ell) for d in range(n))
    if M * (M + 1) // 2 > lattice.MAX_JOINS:
        raise lattice.BoundExceeded(f"{M} members need more than {lattice.MAX_JOINS} joins")
    members = lattice.enumerate_X_ge1(n, ell)
    w, n_chains = _ref_chain_weights(members)

    def cert(cases, ok, failure, **fields):
        return trc.check("inclusion_exclusion", ok, failure, cases, n=n, ell=ell, depth=depth,
                         **fields)

    index = {members[i]: i for i in range(M)}
    join_idx = [[0] * M for _ in range(M)]
    for i in range(M):
        for j in range(i, M):
            J = join(members[i], members[j])
            if J not in index:
                return cert(0, False, {"reason": "join left the generated semilattice",
                                       "pair": [members[i].basis, members[j].basis]})
            join_idx[i][j] = join_idx[j][i] = index[J]

    pairs_by_join = [[] for _ in range(M)]
    for i in range(M):
        for j in range(M):
            pairs_by_join[join_idx[i][j]].append((i, j))

    cases = 0
    for L in lattice.sublattices_up_to_depth(n, ell, depth):
        S = [k for k in range(M) if lattice.contains(members[k], L)]
        in_S = [False] * M
        for k in S:
            in_S[k] = True
        lhs = 1 if S else 0
        rhs = sum(w[k] for k in S)
        if lhs != rhs:
            return cert(cases, False, {"lattice": L.basis, "lhs": lhs, "rhs": rhs})
        for i in S:
            for j in S:
                if not in_S[join_idx[i][j]]:
                    return cert(cases, False, {"lattice": L.basis, "pair": [i, j],
                                               "reason": "join containment missing"})
        for k in S:
            for (i, j) in pairs_by_join[k]:
                if not (in_S[i] and in_S[j]):
                    return cert(cases, False,
                                {"lattice": L.basis, "pair": [i, j],
                                 "reason": "containment in join without both factors"})
        cases += 1
    return cert(cases, True, None, members=M, chains=n_chains)


def ref_verify_reduction(X, U, V, r, m, ctx):
    """The U_m witness check over Q: k = (g_r,1)^{-1} h^{-1} g_X lies in K."""
    ell = ctx.ell
    if ref_det(V) % ell == 0:  # no B = V^{-1} mod ell
        return False
    k_mat, A, B, gX = ref_reduction_element(X, U, V, r, m, ctx)
    if not (ref_ell_integral(k_mat, ell) and ref_unit_det(k_mat, ell)):
        return False
    detA = ref_det(A)
    detB = ref_det(B)
    if detA == 0 or detB == 0:
        return False
    twist_k = gX.twist * (ell ** m) * detB / detA
    return v_ell(twist_k, ell) == 0


def ref_reduction_element(X, U, V, r, m, ctx):
    """(k, A, B, g_X) over Q with k = (g_r,1)^{-1} h^{-1} g_X the U_m witness."""
    n, ell = ctx.n, ctx.ell
    A = [[U[i][j] if (i < m and j < m) else int(i == j) for j in range(n)] for i in range(n)]
    B = inv_mod_matrix_q(V, ell, 1)
    size = 2 * n
    h_inv = [[Fraction(0)] * size for _ in range(size)]
    for i in range(n):
        for j in range(n):
            h_inv[i][j] = Fraction(A[i][j], ell) if j < m else Fraction(A[i][j])
            h_inv[n + i][n + j] = Fraction(B[i][j])
    Xr = hecke.x_r_matrix(r, n)
    g_r_inv = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    for i in range(n):
        for j in range(n):
            if Xr[i][j]:
                g_r_inv[i][n + j] = Fraction(-1, ell)
    gX = ref_um_summand(X, m, ctx)
    return ref_mat_mul(g_r_inv, ref_mat_mul(h_inv, gX.mat)), A, B, gX


# ---------------------------------------------------------------------------
# coset elements of GL_1 x GL_2n x GL_1 over Q_ell, with Fraction entries


RefElt = namedtuple("RefElt", "gl1 mat twist")


def ref_elt(gl1, mat, twist, ell):
    """A RefElt with every entry a Fraction whose denominator is a power of ell."""
    elt = RefElt(Fraction(gl1), tuple(tuple(Fraction(x) for x in row) for row in mat),
                 Fraction(twist))
    entries = [x for row in elt.mat for x in row] + [elt.gl1, elt.twist]
    assert elt.gl1 != 0 and elt.twist != 0
    assert all(ref_ell_power_denominator(x, ell) for x in entries)
    return elt


def ref_in_level(g, ell):
    """Membership in K = GL_1(Z_ell) x GL_2n(Z_ell) x GL_1(Z_ell) by valuations."""
    return (ref_ell_integral(g.mat, ell) and ref_unit_det(g.mat, ell)
            and v_ell(g.gl1, ell) == 0 and v_ell(g.twist, ell) == 0)


def ref_same_coset(g1, g2, ell):
    """Left cosets agree: g1^{-1} g2 lies in K."""
    h = RefElt(g2.gl1 / g1.gl1, ref_mat_mul(ref_mat_inv(g1.mat), g2.mat), g2.twist / g1.twist)
    return ref_in_level(h, ell)


def ref_g_r(r, ctx):
    """(g_r, 1) with g_r = 1 x [[1, ell^{-1} X_r], [0, 1]]."""
    n, ell = ctx.n, ctx.ell
    X = hecke.x_r_matrix(r, n)
    mat = [[Fraction(int(i == j)) for j in range(2 * n)] for i in range(2 * n)]
    for i in range(n):
        for j in range(n):
            if X[i][j]:
                mat[i][n + j] = Fraction(1, ell)
    return ref_elt(1, mat, 1, ell)


def ref_um_summand(X, m, ctx):
    """(1, [[t_m, X], [0, 1]], det(t_m)^{-1}) for X in M_{m x n}(F_ell), with
    t_m = diag(ell,..,ell,1,..,1) (m entries ell) and X padded by zero rows
    to n x n: the oracle's own g_X."""
    n, ell = ctx.n, ctx.ell
    mat = [[int(i == j) for j in range(2 * n)] for i in range(2 * n)]
    for i in range(m):
        mat[i][i] = ell
        mat[i][n:] = X[i]
    return ref_elt(1, mat, Fraction(ell) ** -m, ell)


def ref_um_cosets(m, ctx):
    """The ell^{mn} summands of U_m: X ranges over lifts of M_{m x n}(F_ell)."""
    return [ref_um_summand(X, m, ctx) for X in all_matrices_mod(m, ctx.n, ctx.ell)]


def ref_serialize(g):
    """The certificate JSON of a coset representative, frozen as first written."""
    def f(x):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)

    return {
        "gl1": f(g.gl1),
        "mat": [[f(x) for x in row] for row in g.mat],
        "twist": f(g.twist),
    }


def ref_nu_image(r, n, ell):
    """{det(A)^{-1} det(B) : (A, B) in GL_n(F_ell)^2, A X_r = X_r B}, by brute force."""
    Xr = hecke.x_r_matrix(r, n)
    gl = []
    for flat in product(range(ell), repeat=n * n):
        M = [flat[i * n:(i + 1) * n] for i in range(n)]
        d = _leibniz_det(M) % ell
        if d:
            gl.append((M, d))
    image = set()
    for A, dA in gl:
        AX = ref_mat_mul(A, Xr)  # X_r is a 0/1 diagonal: both sides stay reduced
        for B, dB in gl:
            if AX == ref_mat_mul(Xr, B):
                image.add(pow(dA, -1, ell) * dB % ell)
    return image


def rank_mod(A, p):
    return len(rref_mod(A, p))


def ref_rank_table(n, ell):
    """The rank of every matrix in M_n(F_ell), one RREF each, in `all_matrices_mod` order."""
    return bytes(rank_mod(M, ell) for M in all_matrices_mod(n, n, ell))


def ref_orbit(r, n, ell):
    """The GL_n x GL_n orbit of X_r by BFS with full n x n products, as first written."""
    Xr = hecke.x_r_matrix(r, n)
    gens = list(gl_generators(n, ell))
    gens += [inv_mod_matrix_q(g, ell, 1) for g in gens]

    def mmul(A, B):
        return tuple(
            tuple(sum(A[i][t] * B[t][j] for t in range(n)) % ell for j in range(n))
            for i in range(n)
        )

    orbit = {Xr}
    frontier = [Xr]
    while frontier:
        M = frontier.pop()
        for g in gens:
            for Mn in (mmul(g, M), mmul(M, g)):
                if Mn not in orbit:
                    orbit.add(Mn)
                    frontier.append(Mn)
    return orbit


# ---------------------------------------------------------------------------
# finite groups on concrete elements


class RefGroup:
    """A finite group with explicit tuple elements and multiplication."""

    def __init__(self, elements, mul, inv, identity, name=""):
        self.elements = tuple(elements)
        self.mul = mul
        self.inv = inv
        self.identity = identity
        self.name = name
        self._set = frozenset(self.elements)

    def generate(self, gens):
        seen = {self.identity}
        frontier = [self.identity]
        gens = list(gens)
        while frontier:
            x = frontier.pop()
            for g in gens:
                for y in (self.mul(x, g), self.mul(g, x)):
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
        return frozenset(seen)

    def conjugate(self, g, H):
        ginv = self.inv(g)
        return frozenset(self.mul(self.mul(g, h), ginv) for h in H)

    def left_coset_reps(self, H, within=None):
        pool = within if within is not None else self._set
        seen = set()
        reps = []
        for g in sorted(pool):
            if g in seen:
                continue
            reps.append(g)
            for h in H:
                seen.add(self.mul(g, h))
        return reps

    def double_coset_reps(self, A, B, within=None):
        pool = within if within is not None else self._set
        seen = set()
        reps = []
        for g in sorted(pool):
            if g in seen:
                continue
            reps.append(g)
            for a in A:
                ag = self.mul(a, g)
                for b in B:
                    seen.add(self.mul(ag, b))
        return reps

    def double_coset(self, A, g, B):
        return frozenset(self.mul(self.mul(a, g), b) for a in A for b in B)

    def is_subgroup(self, H):
        if self.identity not in H:
            return False
        return all(self.mul(a, self.inv(b)) in H for a in H for b in H)

    def is_normal(self, H, K):
        return all(self.conjugate(k, H) == frozenset(H) for k in K)


def _ref_perm_mul(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def _ref_perm_inv(p):
    return tuple(sorted(range(len(p)), key=lambda i: p[i]))


def ref_symmetric_group(n):
    return RefGroup(sorted(permutations(range(n))), _ref_perm_mul, _ref_perm_inv,
                    tuple(range(n)), f"S{n}")


def ref_matrix_group(generators, N, name="matgrp"):
    """Closure of generator matrices over Z/N; A^{-1} = A^(k-1), k the order of A."""
    n = len(generators[0])

    def mul(A, B):
        return tuple(tuple(sum(A[i][t] * B[t][j] for t in range(n)) % N for j in range(n))
                     for i in range(n))

    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    gens = [tuple(tuple(x % N for x in row) for row in g) for g in generators]
    G = RefGroup([ident], mul, None, ident, name)
    elements = G.generate(gens)

    def inv(A):
        powers = [A]
        while powers[-1] != ident:
            powers.append(mul(powers[-1], A))
        return powers[-2] if len(powers) > 1 else ident

    return RefGroup(sorted(elements), mul, inv, ident, name)


def ref_catalog_group(name):
    """The catalog groups of tamenorm.fingroup, rebuilt on concrete elements."""
    if name in ("S3", "S4"):
        return ref_symmetric_group(int(name[1]))
    if name == "D8":
        S4 = ref_symmetric_group(4)
        return RefGroup(sorted(S4.generate([(1, 2, 3, 0), (1, 0, 3, 2)])), _ref_perm_mul,
                        _ref_perm_inv, S4.identity, "D8")
    if name == "GL2F3":
        return ref_matrix_group([((1, 1), (0, 1)), ((2, 0), (0, 1)), ((0, 2), (1, 0))], 3)
    raise KeyError(name)


# ---------------------------------------------------------------------------
# the exhaustive searches replaced by direct constructions


def ref_character_group(cl):
    """Exponent lists of all characters of cl into <zeta_k>, k the exponent.

    Tries every assignment of exponents to the greedy generators, in
    lexicographic order, and keeps those whose closure over the group is
    consistent.
    """
    k = cl.exponent
    gens = cl.generators()
    table = cl.table
    chars = []
    for assignment in product(range(k), repeat=len(gens)):
        exps = {cl.identity: 0}
        frontier = [cl.identity]
        ok = True
        while frontier and ok:
            x = frontier.pop()
            for g, a in zip(gens, assignment):
                y = table[x][g]
                e = (exps[x] + a) % k
                if y in exps:
                    if exps[y] != e:
                        ok = False
                        break
                else:
                    exps[y] = e
                    frontier.append(y)
        if ok and len(exps) == cl.order:
            chars.append([exps[i] for i in range(cl.order)])
    return chars


def ref_characters_orthogonal(cl, k, chars):
    """Sum over the group of chi(g) conj(chi'(g)) is |cl| if chi = chi', else 0.

    Formed exactly as ExactScalar roots of unity over the base prime 2.
    """
    zeta = [ExactScalar.zeta(2, k, e) for e in range(k)]
    zeta_bar = [z.conj() for z in zeta]
    for i, chi in enumerate(chars):
        for j, chi2 in enumerate(chars):
            total = ExactScalar.zero(2, 1)
            for x in range(cl.order):
                total = total + zeta[chi[x]] * zeta_bar[chi2[x]]
            if total != (cl.order if i == j else 0):
                return False
    return True


def ref_fourier_inversion(cl, sp, ell):
    """Fourier inversion of P([Fr]) over cl, one product per (h, chi).

    For every h, sum_chi P(chi(Fr)) conj(chi(h)) / |cl|, with each
    eigenvalue evaluated by Horner at chi(Fr), must equal the coefficient of
    [h] in P([Fr]); the h^2 loop that tamenorm.lfactor replaced by summing
    each column of the character table once.
    """
    fr_idx = cl.index[classfield.frobenius_class(cl, ell)]
    k, chars = classfield.character_group(cl)
    zeta = [ExactScalar.zeta(ell, k, e) for e in range(k)]
    P = lfactor.frob_poly_from_satake(sp).p_central
    eigenvalues = [P.eval(zeta[chi[fr_idx]]) for chi in chars]
    fr_powers = [cl.identity]
    for _ in P.coeffs[1:]:
        fr_powers.append(cl.mul(fr_powers[-1], fr_idx))
    for h in range(cl.order):
        acc = ExactScalar.zero(ell)
        for chi, eig in zip(chars, eigenvalues):
            acc = acc + eig * zeta[-chi[h]]  # conj(zeta_k^e) = zeta_k^(-e)
        acc = acc * ExactScalar.from_rational(Fraction(1, cl.order), ell)
        direct = ExactScalar.zero(ell)
        for power, coeff in zip(fr_powers, P.coeffs):
            if power == h:
                direct = direct + coeff
        if acc != direct:
            return False
    return True


def ref_chain_count(j, m, ell):
    """D_{j,m} as the sum over all dimension sets 0 < d_1 < ... < d_j < m of
    prod [d_(i+1), d_i]_ell, with d_(j+1) = m."""
    if j == 0:
        return 1
    total = 0
    for dims in combinations(range(1, m), j):
        count = 1
        prev = m
        for d in reversed(dims):
            count *= q_binomial(prev, d, ell)
            prev = d
        total += count
    return total


def ideal_product_form(f, g, d_E, cond):
    """The reduced form of the ideal product I(f) I(g): the composition oracle."""
    I = form_to_ideal(f, d_E, cond)
    J = form_to_ideal(g, d_E, cond)
    gens = [_elt_mul(x, y, d_E) for x in I for y in J]
    return _ideal_to_form(gens, d_E, cond)


# ---------------------------------------------------------------------------
# the class-number table, one triple at a time


def ref_class_number_table(bound, primitive=True):
    """h(D) for every 0 > D >= -bound, one reduced triple (a, b, c) at a time;
    with primitive=False it also counts the triples with gcd(a, b, c) > 1."""
    h = {}
    a = 1
    while 3 * a * a <= bound:
        for b in range(-a + 1, a + 1):
            c = a
            while True:
                D = b * b - 4 * a * c
                if D < -bound:
                    break
                if D < 0 and not (a == c and b < 0):
                    if not primitive or gcd(gcd(a, b), c) == 1:
                        h[D] = h.get(D, 0) + 1
                c += 1
        a += 1
    return h
