"""Lemma checks that only the test suite runs.

No command, acceptance criterion or benchmark op reaches these, so they live
here rather than in `src/`, where every cold `tamenorm` process would compile
them.  Each certifies a lemma of the paper in tier-1, and the tests pin the
certificates by sha256:

* `flag_orbit_check`: the H-orbit of [u] in the flag variety G/Q-bar over
  F_ell is the open cell, with the diagonal stabilizer;
* `iwahori_coset_check`, with `_iwahori_mat_predicates`, `_extract_shape`
  and `_shape_order`: the parahoric double-coset assertions for GL_2 x GL_1
  at truncation p^N;
* `check_double_coset_dependence`: a Hecke correspondence [K' sigma K]
  depends only on the double coset of sigma;
* `ordinary_projector_perturbed_route`: the ordinary projector along
  A^{c k!}, the uniqueness probe for `mackey.ordinary_projector`;
* `solve_lambda_from_counts`: the lambda coefficients solved from the
  depth-1 sublattice counts, independently of `qcomb`;
* `standard_lattice`: Z^n as a `LatticeClass`.
"""

from itertools import product

from tamenorm import qcomb, trc
from tamenorm.lattice import LatticeClass, _invariant_counts
from tamenorm.mackey import PadicEndo, _stabilize, fn_equal, hecke_map
from tamenorm.matrices import (
    BoundExceeded,
    gl_elements,
    gl_generators,
    gl_order,
    is_prime,
    mat_pow_modq,
    rref_mod,
)


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

# ---------------------------------------------------------------------------
# Hecke correspondences and the ordinary projector

def check_double_coset_dependence(F, K, Kp, sigma, rng):
    """[K' sigma K] is unchanged when sigma moves to 4 random points of K' sigma K."""
    G = F.group
    base = hecke_map(F, K, Kp, sigma)
    base_vals = [base(z) for z in F.basis(K)]
    Kl, Kpl = sorted(K), sorted(Kp)
    for _ in range(4):
        σ2 = G.mul(G.mul(Kpl[rng.randrange(len(Kpl))], sigma), Kl[rng.randrange(len(Kl))])
        other = hecke_map(F, K, Kp, σ2)
        for z, want in zip(F.basis(K), base_vals):
            if not fn_equal(other(z), want):
                return False
    return True


def ordinary_projector_perturbed_route(pe: PadicEndo, multiplier=2):
    """Same limit along A^{c k!} for a fixed c >= 2; probes uniqueness of e.

    Any scaled factorial sequence converges to the same idempotent, so a
    disagreement with `ordinary_projector` would expose an iteration-order
    dependence.
    """
    c = multiplier
    if c < 1:
        raise ValueError("multiplier must be >= 1")
    q = pe.p ** pe.N
    A = pe.mat
    B, k, _certs = _stabilize(A, mat_pow_modq(A, c, q), mat_pow_modq(A, c - 1, q),
                              pe.p, pe.N)
    return B, {"stabilized_at": k, "pass": k is not None}


# ---------------------------------------------------------------------------
# lattices

def standard_lattice(n, ell):
    """Z^n as a lattice class over Z_ell."""
    return LatticeClass(ell, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def solve_lambda_from_counts(n, ell):
    """The unique lambda solving the counting identity at nu = t_1..t_n.

    Independent route to the lambda coefficients: the system is triangular
    because a sublattice of Lambda_{t_m} has index >= ell^m, so the stratum
    nu = t_j only sees m <= j.  Its counts are those of the depth-1 sweep.
    """
    total, within = _invariant_counts(n, ell, 1)
    lam = [0] * n
    for j in range(1, n + 1):
        nu = (1,) * j + (0,) * (n - j)
        count = [w.get(nu, 0) for w in within]
        rem = total[nu] - sum(lam[m] * count[m] for m in range(j - 1))
        if rem % count[j - 1]:
            raise ArithmeticError("counting system is not integrally solvable")
        lam[j - 1] = rem // count[j - 1]
    return lam
