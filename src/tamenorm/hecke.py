"""Coset calculus for GL_1 x GL_2n x GL_1 over Q_ell.

The operator U_m is the sum of the ell^{mn} cosets g_X K; grouping the
unipotent parameters X by rank reduces it to psi_m, whose multiplicities are
the rank counts of module `qcomb`.  The test function phi is assembled from
the b coefficients with the r-indexed integer identity behind the proof chain
checked exactly, and the orbit/stabilizer data behind the V_r indices is
enumerated over F_ell.  Both psi_m and phi are integer combinations of the
n + 1 fixed cosets (g_r, 1) K, stored as {r: coefficient} maps.

Everything is exact.  The U_m reduction decides membership in the level
subgroup K (integral entries, unit determinants) in block form: the one block
of the witness element that is not integral by construction is integral iff
an n x n congruence mod ell holds.  The test suite's oracle decides the same
membership over Q by valuations, on the whole 2n x 2n element.
"""

from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import product
from operator import itemgetter

from . import qcomb, trc
from .matrices import (
    BoundExceeded,
    Value,
    all_matrices_mod,
    gl_generators,
    gl_order,
    inv_mod_matrix_q,
    mat_det,
    smith_witness_mod,
)

ORBIT_FEASIBLE_CELLS = 25000  # ell^(n^2) cap for full matrix-space enumeration

HeckeContext = qcomb.QCombContext  # half-rank n and prime ell


# ---------------------------------------------------------------------------
# distinguished elements

def x_r_matrix(r, n):
    """X_r = diag(1,..,1,0,..,0) with r ones (X_0 = 0), n x n."""
    return tuple(tuple(int(i == j and i < r) for j in range(n)) for i in range(n))


def serialize_cosets(coeffs, ctx):
    """JSON for sum_r coeffs[r] ch((g_r, 1) K), one term per r in increasing order.

    (g_r, 1) is written as (1, g_r, 1) with g_r = [[1, ell^{-1} X_r], [0, 1]]:
    every entry is "0" or "1" except "1/ell" at (i, n + i) for i < r.
    """
    n, inv_ell = ctx.n, f"1/{ctx.ell}"
    terms = []
    for r, c in sorted(coeffs.items()):
        mat = [["1" if i == j else inv_ell if j == n + i and i < r else "0"
                for j in range(2 * n)] for i in range(2 * n)]
        terms.append({"coeff": c, "rep": {"gl1": "1", "mat": mat, "twist": "1"}})
    return terms


# ---------------------------------------------------------------------------
# reduction of U_m to psi_m

def reduce_um_to_psi(m, ctx):
    """psi_m = sum_r c_{r,m} ch((g_r, 1) K) by grouping U_m summands by rank.

    For each X, Gaussian elimination produces witnesses (A, B) with
    (t_m A t_m^{-1}) X B^{-1} = X_r mod ell, and the resulting element
    k = (g_r, 1)^{-1} h^{-1} g_X is verified to lie in K exactly, including
    the GL_1 bookkeeping (h has twist ell^{-m} det A det B^{-1}).

    Returns (psi_m, multiplicities, certificate) with psi_m the map
    {r: c_{r,m}}, or None if a witness fails.
    """
    n, ell = ctx.n, ctx.ell
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    counts = {r: 0 for r in range(m + 1)}
    for X in all_matrices_mod(m, n, ell):
        U, V, r = smith_witness_mod(X, ell)
        counts[r] += 1
        if not _verify_reduction(X, U, V, r, m, ctx):
            return None, counts, trc.check(
                "um_reduction", False, {"X": [list(row) for row in X], "rank": r},
                m=m, n=n, ell=ell)
    expected = {r: qcomb.rank_count(r, m, ctx) for r in range(m + 1)}
    cert = trc.check(
        "um_reduction", counts == expected, {"counts": counts, "expected": expected},
        m=m, n=n, ell=ell,
        multiplicities={r: counts[r] for r in sorted(counts)},
        rank_count_formula={r: expected[r] for r in sorted(expected)},
        total=sum(counts.values()))
    return dict(counts), counts, cert


def _verify_reduction(X, U, V, r, m, ctx):
    """Exact witness check that g_X lies in H (g_r, 1) K.

    g_X = [[t_m, X~], [0, 1]] with X~ the m x n matrix X padded by zero rows
    to n x n; A = diag(U, 1) and B, the integer lift of V^{-1} mod ell, give
    h^{-1} = diag(A t_m^{-1}, B).  As t_m scales exactly the first m rows by
    ell, t_m^{-1} X~ = X~ / ell, so k = (g_r,1)^{-1} h^{-1} g_X is in blocks

        k = [[A, (A X~ - X_r B) / ell], [0, B]].

    A and B are integral, so k lies in GL_2n(Z_ell) iff A X~ = X_r B mod ell
    and det k = det A det B = det U det B is an ell-unit.  det B det V = 1 mod
    ell, so det B is a unit iff V is invertible mod ell; a singular V has no B
    and is rejected.  The first m rows of A X~ are U X and the others are
    zero, so the congruence is checked on all n rows: a claimed r > m needs
    rows m..r-1 of B to vanish mod ell.  The twist of k is
    twist(g_X) ell^m det B / det A = det B / det A, a unit with them.
    """
    n, ell = ctx.n, ctx.ell
    if mat_det(U) % ell == 0 or mat_det(V) % ell == 0:
        return False
    B = inv_mod_matrix_q(V, ell, 1)
    zero = (0,) * n
    for i in range(n):
        ux = [sum(u * x for u, x in zip(U[i], col)) for col in zip(*X)] if i < m else zero
        if any((a - b) % ell for a, b in zip(ux, B[i] if i < r else zero)):
            return False
    return True


# ---------------------------------------------------------------------------
# phi assembly

def phi_identity_rows(table, b):
    """The r-indexed phi identity for a b vector, one row per 0 <= r <= n.

    `table` supplies n, ell, lambda and the rank counts c; b is table.b itself
    or a perturbed copy (the negative control).
    """
    n, ell = table.n, table.ell
    lam, c = table.lam, table.c
    rows = []
    for r in range(n + 1):
        lhs = (ell ** (n * n) if r == 0 else 0) - sum(
            ell ** (n * (n - m)) * lam[m - 1] * c[m][r] for m in range(max(r, 1), n + 1)
        )
        rhs = (ell - 1) * b[r]
        rows.append({"r": r, "lhs": lhs, "rhs": rhs, "pass": lhs == rhs})
    return rows


def assemble_phi(ctx):
    """phi = sum_r b_r ch((g_r, 1) K) as {r: b_r}, plus the r-indexed identity.

    For each 0 <= r <= n:
      ell^(n^2) [r = 0] - sum_{m >= max(r,1)} ell^(n(n-m)) lambda_m c_{r,m}
        = (ell - 1) b_r.
    """
    n, ell = ctx.n, ctx.ell
    table = qcomb.b_coefficients(ctx)
    lam, b = table.lam, table.b
    rows = phi_identity_rows(table, b)
    integral = table.certificates["all_b_integral"]
    failed_r = next((row["r"] for row in rows if not row["pass"]), None)
    cert = trc.check(
        "phi_assembly", integral and failed_r is None,
        {"all_b_integral": False} if failed_r is None else {"r": failed_r},
        n=n, ell=ell, b=list(b), b_prime=list(table.b_prime), rows=rows,
        **{"lambda": list(lam)})
    return dict(enumerate(b)), cert


# ---------------------------------------------------------------------------
# orbit / stabilizer data for V_r

class OrbitReport(Value):
    """Orbit and index data for X_r under (A, B) . X = A X B^{-1} over F_ell."""

    __slots__ = ("r", "orbit_size", "stabilizer_order", "nu_image_order", "index_K_V1r",
                 "certificate")

    def __init__(self, r, orbit_size, stabilizer_order, nu_image_order, index_K_V1r,
                 certificate):
        self._init(r, orbit_size, stabilizer_order, nu_image_order, index_K_V1r, certificate)


def _feasible(ctx):
    return ctx.ell ** (ctx.n * ctx.n) <= ORBIT_FEASIBLE_CELLS


def orbit_stabilizer(r, ctx):
    """Enumerate the GL_n x GL_n orbit of X_r and the nu-image on its stabilizer.

    The orbit is grown by BFS under one-sided generator actions and must equal
    the set of rank-r matrices (= c_{r,n} of them); the stabilizer order comes
    from the orbit-stabilizer theorem with exact divisibility checked.  The
    image of nu(A, B) = det(A)^{-1} det(B) on the stabilizer is derived from
    the block form of the stabilizer equation A X_r = X_r B.
    """
    n, ell = ctx.n, ctx.ell
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    if not _feasible(ctx):
        raise BoundExceeded(f"ell^(n^2) = {ell ** (n * n)} exceeds the orbit bound")
    orbit = _orbit(r, n, ell)

    # the orbit is the rank-r stratum iff it lies inside it and has its size
    ranks = _rank_table(n, ell)
    size = ell ** n
    orbit_matches_rank_stratum = (
        len(orbit) == ranks.count(r)
        and all(ranks[_matrix_index(M, size)] == r for M in orbit)
    )
    orbit_size = len(orbit)
    G2 = gl_order(n, ell) ** 2
    stab_exact = G2 % orbit_size == 0
    stabilizer_order = G2 // orbit_size if stab_exact else 0

    nu_image = _nu_image(r, n, ell)
    nu_order = len(nu_image)
    formula = qcomb.rank_count(r, n, ctx)
    cert = {
        "identity": "orbit_stabilizer", "r": r, "n": n, "ell": ell,
        "orbit_equals_rank_stratum": orbit_matches_rank_stratum,
        "orbit_size": orbit_size,
        "rank_count_formula": formula,
        "orbit_matches_formula": orbit_size == formula,
        "stabilizer_division_exact": stab_exact,
        "nu_image": sorted(nu_image),
        "uniform_nu_order_claim": ell - 1,
        "nu_order_matches_uniform_claim": nu_order == ell - 1,
        "pass": orbit_matches_rank_stratum and orbit_size == formula and stab_exact,
    }
    return OrbitReport(
        r=r,
        orbit_size=orbit_size,
        stabilizer_order=stabilizer_order,
        nu_image_order=nu_order,
        index_K_V1r=orbit_size * nu_order,
        certificate=cert,
    )


class _RowCodes:
    """F_ell^n with the row v coded as sum_j v_j ell^(n-1-j), its index in `vecs`.

    The n row codes of a matrix, read in base ell^n, give its position in
    `all_matrices_mod` order.  `scaled(c)[a]` codes c v_a and
    `add[a * ell^n + b]` codes v_a + v_b.  The addition table is built on
    first use, which only rows with two nonzero entries (n >= 2) make, so no
    table exceeds the ell^(n^2) matrix space.
    """

    def __init__(self, n, ell):
        self.ell = ell
        self.size = ell ** n
        self.vecs = list(product(range(ell), repeat=n))

    def code(self, v):
        c = 0
        for x in v:
            c = c * self.ell + x % self.ell
        return c

    @cached_property
    def add(self):
        return [self.code([x + y for x, y in zip(v, w)]) for v in self.vecs for w in self.vecs]

    def scaled(self, c):
        return [self.code([c * x for x in v]) for v in self.vecs]


@lru_cache(maxsize=1)
def _row_codes(n, ell):
    return _RowCodes(n, ell)


def _orbit(r, n, ell):
    """The GL_n x GL_n orbit of X_r in M_n(F_ell) as a set of row-code tuples.

    Grown by BFS under the forward generators only: in a finite group
    g^{-1} = g^(ord g - 1), so their closure is already the whole orbit.  M g
    acts row by row, so right multiplication is n lookups in a table over the
    ell^n row vectors.  Row i of g M is sum_t g_it M_t: a generator whose
    rows each pick one row of M (the cycle) acts as a tuple of picks; the
    others combine a scaling table per entry g_it not in {0, 1} with the
    addition table where a row of g has two nonzero entries.
    """
    rc = _row_codes(n, ell)
    moves = []
    for g in gl_generators(n, ell):
        right = [rc.code([sum(v[t] * g[t][j] for t in range(n)) for j in range(n)])
                 for v in rc.vecs]
        moves.append(lambda M, right=right: tuple(map(right.__getitem__, M)))
        recipe = [[(t, a) for t, a in enumerate(row) if a] for row in g]
        if all(terms == [(terms[0][0], 1)] for terms in recipe):
            moves.append(itemgetter(*(terms[0][0] for terms in recipe)))
        else:
            add = rc.add if any(len(terms) > 1 for terms in recipe) else None
            moves.append(partial(_left_action, [
                [(t, None if a == 1 else rc.scaled(a)) for t, a in terms] for terms in recipe
            ], add, rc.size))

    start = tuple(rc.code(row) for row in x_r_matrix(r, n))
    orbit = {start}
    frontier = [start]
    while frontier:
        M = frontier.pop()
        for move in moves:
            Mn = move(M)
            if Mn not in orbit:
                orbit.add(Mn)
                frontier.append(Mn)
    return orbit


def _left_action(recipe, add, size, M):
    """g M in row codes, row i summed over the (t, scaling table) terms of g's row i."""
    out = []
    for terms in recipe:
        acc = None
        for t, tab in terms:
            c = M[t] if tab is None else tab[M[t]]
            acc = c if acc is None else add[acc * size + c]
        out.append(acc)
    return tuple(out)


@lru_cache(maxsize=1)
def _rank_table(n, ell):
    """The rank of every matrix in M_n(F_ell), in `all_matrices_mod` order.

    A matrix is indexed by its row codes in base ell^n, and
    rank(rows) = rank(prefix) + [last row not in span(prefix)], so the table
    needs the span of every prefix shorter than n, each a frozenset of codes
    extended one row at a time through the addition and scaling tables.
    """
    rc = _row_codes(n, ell)
    size = rc.size
    prefixes = [(frozenset({0}), 0)]  # (span, rank) of each prefix, in index order
    for _ in range(n - 1):
        multiples = list(zip(*(rc.scaled(c) for c in range(ell))))
        prefixes = [
            (S, k) if v in S else
            (frozenset(rc.add[s * size + w] for s in S for w in multiples[v]), k + 1)
            for S, k in prefixes for v in range(size)
        ]
    return bytes(k + (v not in S) for S, k in prefixes for v in range(size))


def _matrix_index(M, size):
    """The position in `all_matrices_mod` order of the matrix with row codes M."""
    i = 0
    for c in M:
        i = i * size + c
    return i


def _nu_image(r, n, ell):
    """{det(A)^{-1} det(B) : A X_r = X_r B} as a subset of F_ell^*.

    In blocks of sizes r and n - r, A X_r = X_r B forces A_21 = 0, B_11 = A_11
    and B_12 = 0, so det A = det A_11 det A_22 and det B = det A_11 det B_22:
    nu = det(A_22)^{-1} det(B_22) with A_22, B_22 free in GL_{n-r}(F_ell).
    The determinant maps GL_k(F_ell) onto F_ell^* for k >= 1, so the image is
    all of F_ell^* for r < n and {1} at r = n.  It is returned as a range of
    residues, whose order is read without listing ell - 1 of them.
    """
    return range(1, ell if r < n else 2)


def a_coefficients(ctx):
    """a_r = (ell-1) b_r / [K_H : V_{1,r}] with the computed indices.

    Where the orbits are feasible the indices come from orbit_stabilizer
    ("enumeration"); beyond that from c_{r,n} times the order of the closed-form
    nu-image ("closed_form").  The r = n mismatch with the
    blanket index claim [V_r : V_{1,r}] = ell - 1 is reported as a documented
    discrepancy, never silently corrected.
    """
    n, ell = ctx.n, ctx.ell
    table = qcomb.b_coefficients(ctx)
    b = table.b
    lam = table.lam
    enumerate_orbits = _feasible(ctx)
    rows = []
    a = []
    ok = table.certificates["all_b_integral"]
    for r in range(n + 1):
        if enumerate_orbits:
            rep = orbit_stabilizer(r, ctx)
            index = rep.index_K_V1r
            nu_order = rep.nu_image_order
            ok = ok and rep.certificate["pass"]
        else:
            nu_order = len(_nu_image(r, n, ell))
            index = qcomb.rank_count(r, n, ctx) * nu_order
        num = (ell - 1) * b[r]
        integral = num % index == 0
        a_r = num // index if integral else Fraction(num, index)
        a.append(a_r)
        rows.append({
            "r": r, "index_K_V1r": index, "nu_image_order": nu_order,
            "uniform_nu_order_claim": ell - 1,
            "documented_discrepancy": nu_order != ell - 1,
            "a": a_r,
            "integral": integral,
        })
        ok = ok and integral
    boundary = a[n] == -lam[n - 1]
    cert = trc.check(
        "a_coefficients", ok and boundary, {"rows": rows}, n=n, ell=ell,
        index_source="enumeration" if enumerate_orbits else "closed_form",
        rows=rows, a=a, boundary_a_n_equals_minus_lambda_n=boundary)
    return a, cert
