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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import product
from operator import itemgetter

from . import qcomb, trc
from .matrices import (
    BoundExceeded,
    all_matrices_mod,
    gl_elements,
    gl_generators,
    gl_order,
    inv_mod_matrix_q,
    is_prime,
    mat_det,
    rref_mod,
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

@dataclass
class OrbitReport:
    """Orbit and index data for X_r under (A, B) . X = A X B^{-1} over F_ell."""

    r: int
    orbit_size: int
    stabilizer_order: int
    nu_image_order: int
    index_K_V1r: int
    certificate: dict


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


# ---------------------------------------------------------------------------
# the flag variety G/Q-bar over F_ell

def flag_orbit_check(ctx):
    """The H-orbit of [u] in G/Q-bar is the open cell of graph subspaces.

    Realised over F_ell on n-dimensional subspaces of F_ell^{2n} (row spans in
    canonical RREF): [u] is the diagonal subspace, H acts through diag blocks.
    Checks: every (X, X) fixes [u] and the orbit size is |GL_n(F_ell)|, so by
    orbit-stabilizer counting the stabilizer is exactly the diagonal copy
    {(X, X)}; and the identity coset gives the size-1 contrast orbit (not
    open).  The GL_1 factors act trivially throughout.
    """
    n, ell = ctx.n, ctx.ell
    if gl_order(n, ell) > 20000:
        raise BoundExceeded("flag enumeration beyond desk scale")

    def act(rows, g):  # right action on row spans by the transpose
        if not rows:
            return rows
        moved = [
            tuple(sum(row[t] * g[t][j] for t in range(2 * n)) % ell for j in range(2 * n))
            for row in rows
        ]
        return rref_mod(moved, ell)

    def block_diag(h1, h2):
        M = [[0] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            for j in range(n):
                M[i][j] = h1[i][j]
                M[n + i][n + j] = h2[i][j]
        return tuple(tuple(r) for r in M)

    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    delta = rref_mod([tuple([int(i == j) for j in range(n)] + [int(i == j) for j in range(n)])
                      for i in range(n)], ell)
    w0 = rref_mod([tuple([0] * n + [int(i == j) for j in range(n)]) for i in range(n)], ell)

    # act expects the matrix transposed relative to v -> g v on columns; for a
    # row basis R the image subspace is spanned by rows of R g^T
    def act_subspace(rows, g):
        gT = tuple(tuple(g[j][i] for j in range(2 * n)) for i in range(2 * n))
        return act(rows, gT)

    gens = gl_generators(n, ell)
    h_gens = [block_diag(g, ident) for g in gens] + [block_diag(ident, g) for g in gens]

    orbit = {delta}
    frontier = [delta]
    while frontier:
        v = frontier.pop()
        for g in h_gens:
            w = act_subspace(v, g)
            if w not in orbit:
                orbit.add(w)
                frontier.append(w)

    gl = gl_order(n, ell)
    stab_diag_ok = all(act_subspace(delta, block_diag(X, X)) == delta
                       for X in gl_elements(n, ell))
    identity_orbit = {w0}
    for g in h_gens:
        identity_orbit.add(act_subspace(w0, g))
    contrast_ok = identity_orbit == {w0}

    total_flag = qcomb.q_binomial(2 * n, n, ell)
    cert = {
        "identity": "flag_orbit", "n": n, "ell": ell,
        "orbit_size": len(orbit),
        "gl_n_order": gl,
        "orbit_equals_gl_n": len(orbit) == gl,
        "stabilizer_is_diagonal": stab_diag_ok,
        "flag_point_count": total_flag,
        "open_cell_size": ell ** (n * n),
        "identity_coset_orbit_size": len(identity_orbit),
        "identity_orbit_not_open": contrast_ok and total_flag > 1,
        "pass": stab_diag_ok and len(orbit) == gl and contrast_ok,
    }
    return cert


# ---------------------------------------------------------------------------
# Iwahori-level double cosets for GL_2 (n = 1) at truncation p^N

def _iwahori_mat_predicates(r, p, N):
    """Stepwise membership tests inside GL_2(Z/p^N), derived from definitions.

    U_r: diagonal mod p^r and tau^{-r} g tau^r integral; V_r = tau^{-r} U_r tau^r;
    primed groups intersect with one tau-conjugate; J is the Siegel parahoric.
    Entries are (a, b, c, d) for [[a, b], [c, d]] mod p^N.
    """
    q = p ** N

    def det_unit(t):
        a, b, c, d = t
        return (a * d - b * c) % p != 0

    def in_Vr(t, rr):
        # w in V_r iff tau^r w tau^{-r} lies in U_r; the conjugate has entries
        # (a, p^r b, c / p^r, d), so p^r must divide c first
        a, b, c, d = t
        pr = p ** rr
        if c % pr:
            return False
        conj = (a, (b * pr) % q, (c // pr) % (q // pr), d)
        # condition "c/p^r = 0 mod p^r" is well defined because N >= 2r
        aa, bb, cc, dd = conj
        if bb % pr or cc % pr:
            return False
        return det_unit(t)

    def tau_conj(t):
        # tau^{-1} w tau = (a, b/p, p c, d); integral iff p | b
        a, b, c, d = t
        if b % p:
            return None
        return (a, (b // p) % (q // p), (c * p) % q, d)

    def in_J(t):
        a, b, c, d = t
        return det_unit(t) and c % p == 0

    def with_tau_conj(pred):
        def out(t):
            if not pred(t):
                return False
            u = tau_conj(t)
            return u is not None and pred(u)
        return out

    return {
        "V_r": lambda t: in_Vr(t, r),
        "V_r_prime": with_tau_conj(lambda t: in_Vr(t, r)),
        "V_r1": lambda t: in_Vr(t, r + 1),
        "V_r1_prime": with_tau_conj(lambda t: in_Vr(t, r + 1)),
        "JD": in_J,
        "JD_prime": with_tau_conj(in_J),
    }


def _extract_shape(pred, p, N):
    """(beta, gamma) with pred = {p^beta | b, p^gamma | c, det unit}.

    The candidate exponents come from probing single-entry elements; the
    claimed shape is then verified across the whole valuation grid with unit
    multipliers, which is exhaustive because every condition in the stepwise
    predicates is a congruence on b or c or a det-unit test.
    """
    q = p ** N
    units = [1] + ([min(u for u in range(2, p + 2) if u % p)] if p > 2 else [q - 1])
    beta = next(v for v in range(N + 1) if pred((1, p ** v % q, 0, 1)))
    gamma = next(v for v in range(N + 1) if pred((1, 0, p ** v % q, 1)))
    for vb in range(N + 1):
        for vc in range(N + 1):
            for ub in units:
                for uc in units:
                    b = (ub * p ** vb) % q
                    c = (uc * p ** vc) % q
                    d = 1 if (b * c) % p == 0 else (b * c + 1) % q
                    want = (vb >= beta or b == 0) and (vc >= gamma or c == 0)
                    if pred((1, b, c, d)) != want:
                        raise AssertionError("predicate is not of congruence shape")
    # non-unit determinants must be rejected
    assert not pred((p % q, 0, 0, p % q))
    return beta, gamma


def _shape_order(beta, gamma, p, N):
    """|{(a,b,c,d) mod p^N : p^beta | b, p^gamma | c, ad - bc unit}|.

    At beta = gamma = 0 this is |GL_2(Z/p^N)|.  Otherwise p | bc, so the
    determinant is a unit iff a and d are: p^(N-beta) p^(N-gamma) choices of
    (b, c) times (q - q/p)^2 of (a, d).
    """
    q = p ** N
    if beta == gamma == 0:
        return (q // p) ** 4 * (p * p - 1) * (p * p - p)
    return p ** (2 * N - beta - gamma) * (q - q // p) ** 2


def iwahori_coset_check(r, p, N):
    """Parahoric-level double coset assertions for GL_2 x GL_1 at truncation p^N.

    Verifies, inside GL_2(Z/p^N) x (Z/p^N)^*:
      (a1) V'_r \\ V_r / V_{r+1} is a singleton,
      (a2) V'_r cap V_{r+1} = V'_{r+1},
      (b1) (J x D_{p^r})' \\ (J x D_{p^r}) / V_r is a singleton,
      (b2) V_r cap (J x D_{p^r})' = V'_r.
    Mode "explicit" materialises the matrix sets (small p^N); mode "counted"
    uses exact order counting over congruence shapes (validated against the
    stepwise predicates on the full valuation grid).  r = 0 reports the
    degenerate consistency V_0 = G(Z_p), D_{p^0} = all units.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if r < 0:
        raise ValueError("r must be >= 0")
    q = p ** N
    units = [t for t in range(1, q) if t % p]
    D = {s: frozenset(t for t in units if (t - 1) % (p ** min(s, N)) == 0)
         for s in (r, r + 1)}
    if r == 0:
        preds = _iwahori_mat_predicates(0, p, N)
        shape = _extract_shape(preds["V_r"], p, N)
        full_level, full_units = shape == (0, 0), D[0] == frozenset(units)
        return trc.check("iwahori_cosets", full_level and full_units, {"shape": shape},
                         r=0, p=p, N=N, mode="degenerate", V_0_is_full_level=full_level,
                         D_1_is_full_unit_group=full_units)
    if N < 2 * r + 2:
        raise ValueError("need N >= 2r + 2 for a faithful truncation")
    preds = _iwahori_mat_predicates(r, p, N)

    explicit = q ** 4 <= 200000
    if explicit:
        sets = {}
        for name, pred in preds.items():
            sets[name] = frozenset(
                t for t in product(range(q), repeat=4) if pred(t)
            )
        orders = {name: len(s) for name, s in sets.items()}

        def inter(x, y):
            return len(sets[x] & sets[y])

        def subset(x, y):
            return sets[x] <= sets[y]

        a2_mat = sets["V_r_prime"] & sets["V_r1"] == sets["V_r1_prime"]
        b2_mat = sets["V_r"] & sets["JD_prime"] == sets["V_r_prime"]
    else:
        shapes = {name: _extract_shape(pred, p, N) for name, pred in preds.items()}
        orders = {name: _shape_order(*shape, p, N) for name, shape in shapes.items()}

        def inter(x, y):
            bx, gx = shapes[x]
            by, gy = shapes[y]
            return _shape_order(max(bx, by), max(gx, gy), p, N)

        def subset(x, y):
            return shapes[x][0] >= shapes[y][0] and shapes[x][1] >= shapes[y][1]

        a2_mat = (
            inter("V_r_prime", "V_r1") == orders["V_r1_prime"]
            and subset("V_r1_prime", "V_r_prime") and subset("V_r1_prime", "V_r1")
        )
        b2_mat = (
            inter("V_r", "JD_prime") == orders["V_r_prime"]
            and subset("V_r_prime", "V_r") and subset("V_r_prime", "JD_prime")
        )

    # matrix-factor singletons (product-of-subgroups counting)
    a1_mat = (
        subset("V_r_prime", "V_r") and subset("V_r1", "V_r")
        and orders["V_r_prime"] * orders["V_r1"]
        == orders["V_r"] * inter("V_r_prime", "V_r1")
    )
    b1_mat = (
        subset("JD_prime", "JD") and subset("V_r", "JD")
        and orders["JD_prime"] * orders["V_r"]
        == orders["JD"] * inter("JD_prime", "V_r")
    )

    # GL_1 (torus) factor: every group carries D_{p^r} except V_{r+1}, V'_{r+1},
    # so the (b) assertions have the same torus factor D_{p^r} on both sides
    Dr, Dr1 = D[r], D[r + 1]
    a1_torus = len(Dr) * len(Dr1) == len(Dr) * len(Dr & Dr1)
    checks = {
        "Vr_prime_Vr_Vr1_singleton": a1_mat and a1_torus,
        "Vr_prime_cap_Vr1_is_Vr1_prime": a2_mat and Dr & Dr1 == Dr1,
        "JD_prime_JD_Vr_singleton": b1_mat,
        "Vr_cap_JD_prime_is_Vr_prime": b2_mat,
    }
    return trc.check(
        "iwahori_cosets", all(checks.values()), {k: v for k, v in checks.items() if not v},
        r=r, p=p, N=N, mode="explicit" if explicit else "counted", orders=orders,
        checks=checks,
        higher_rank="unchecked: only the GL_2 (half-rank 1) scale is enumerable at "
                    "depth p^(2r+2); larger ranks are recorded as unchecked, not sampled")
