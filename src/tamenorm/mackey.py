"""Cohomology functors over finite groups: axioms, Hecke maps, pushforwards.

The function model realises M(K) = C(X/K; Q) for a finite set X with right
G-action: pullbacks compose with the action, pushforwards sum over cosets.
One `FunctorModel` holds G, the levels Upsilon and the action table; it
interns the points of X as `FiniteGroup` interns elements, so a function is
a dict from point indices to values.  Axioms (C1)-(C3), Galois descent (G)
and the Cartesian double-coset square (M) are checked by direct evaluation
on orbit-indicator bases.

The completed pushforward is built for a subgroup H <= G acting on the same
set, with Vol(U) = |U| / |G|; in this finite model the completion M-hat
collapses to M({1}) = C(X), which is recorded in every axiom report (the
genuinely infinite direct limit is out of reach here).  It is computed at
the trivial level U = {1} unless a caller passes a U, which is then checked.
Each axiom report is a `trc.check` certificate with its case count, model
and group.

The ordinary projector lives at the end: the idempotent lim A^{k!} of a
matrix over Z/p^N, with certified idempotency, commutation, invertibility on
the image and residual topological nilpotence on the complement, reported
as the `trc.check` certificate "ordinary_projector".
"""

from fractions import Fraction

from . import trc
from .fingroup import FiniteGroup
from .matrices import Value, is_prime, mat_mul_modq, mat_pow_modq


def upsilon_closure(group: FiniteGroup, seeds):
    """Close a seed family under conjugation and twisted intersections."""
    fam = {frozenset({group.identity}), frozenset(group.elements)}
    fam.update(frozenset(K) for K in seeds)
    changed = True
    while changed:
        changed = False
        current = list(fam)
        for K in current:
            for g in group.elements:
                Kg = group.conjugate(g, K)
                if Kg not in fam:
                    fam.add(Kg)
                    changed = True
        current = list(fam)
        for K in current:
            for L in current:
                M = K & L
                if M not in fam:
                    fam.add(M)
                    changed = True
    return sorted(fam, key=lambda K: (-len(K), sorted(K)))


# ---------------------------------------------------------------------------
# the function-space model


def _fn_clean(d):
    return {x: v for x, v in d.items() if v}


def fn_equal(f, g):
    return _fn_clean(f) == _fn_clean(g)


def fn_sum(pieces):
    """The sum of the functions in `pieces`, added in one pass and cleaned once."""
    out = {}
    for f in pieces:
        for x, v in f.items():
            out[x] = out[x] + v if x in out else v
    return _fn_clean(out)


def fn_scale(f, c):
    return _fn_clean({x: c * v for x, v in f.items()})


class FunctorModel:
    """M(K) = finitely supported functions on X/K, X a right G-set, over the
    finite (G, Sigma, Upsilon) triple with Sigma = G.

    Upsilon is checked once for the closure conditions (the profinite
    asymmetry between Sigma and G only matters p-adically).  The points are
    interned as `FiniteGroup` interns elements: `points` is range(|X|),
    `labels[i]` is the concrete point behind index i, and a function is a
    dict from point indices to values.  The action is tabulated once:
    `_moves[g][i]` is the index of `labels[i] . g`, so `act` is called
    |X| |G| times, here only, and is checked to be a right action on a
    generating set of G.  Translating a function touches only its support.
    """

    def __init__(self, group: FiniteGroup, upsilon, points, act, name="fn-model"):
        self.group = G = group
        self.upsilon = tuple(frozenset(K) for K in upsilon)
        levels = frozenset(self.upsilon)
        if frozenset({G.identity}) not in levels:
            raise ValueError("Upsilon must contain the trivial subgroup "
                             "(a basis of open normal subgroups of each K)")
        for K in levels:
            if not G.is_subgroup(K):
                raise ValueError("Upsilon member is not a subgroup")
        conjugates = {K: {G.conjugate(g, K) for g in G.elements} for K in levels}
        for K in levels:
            if not conjugates[K] <= levels:
                raise ValueError("Upsilon not closed under Sigma-conjugation")
        for K in levels:
            for L in levels:
                for Lg in conjugates[L]:
                    if K & Lg not in levels:
                        raise ValueError("Upsilon not closed under twisted intersections")
        self.labels = tuple(points)
        self.points = range(len(self.labels))
        self.name = name
        index = {x: i for i, x in enumerate(self.labels)}
        moves = tuple(tuple(index[act(x, g)] for x in self.labels) for g in G.elements)
        if moves[G.identity] != tuple(self.points):
            raise ValueError("the identity must fix every point")
        for s in G.generators():
            after_s = moves[s].__getitem__
            if any(moves[G.table[g][s]] != tuple(map(after_s, moves[g])) for g in G.elements):
                raise ValueError("act is not a right action: (x g) s != x (g s)")
        self._moves = moves
        self._orbit_cache = {}

    def orbits(self, K):
        K = frozenset(K)
        if K not in self._orbit_cache:
            columns = [self._moves[k] for k in K]
            seen = set()
            orbits = []
            for i in self.points:
                if i in seen:
                    continue
                orb = frozenset(col[i] for col in columns)
                seen |= orb
                orbits.append(orb)
            self._orbit_cache[K] = tuple(orbits)
        return self._orbit_cache[K]

    def basis(self, K):
        """Orbit indicator functions spanning M(K)."""
        return [dict.fromkeys(orb, 1) for orb in self.orbits(K)]

    def is_invariant(self, f, K):
        f = _fn_clean(f)
        columns = [self._moves[k] for k in K]
        for i, v in f.items():
            if any(f.get(col[i], 0) != v for col in columns):
                return False
        return True

    # morphism realisations ---------------------------------------------------

    def _backs(self, gs):
        """For each g in gs, the table of i -> index of labels[i] . g^{-1}."""
        inverse = self.group.inverse
        return [self._moves[inverse[g]] for g in gs]

    def _spread(self, f, backs):
        """x -> sum over b in backs of f(x . g_b): each f(i) lands on i . g_b^{-1}."""
        out = {}
        for i, v in f.items():
            if v:
                for back in backs:
                    x = back[i]
                    out[x] = out[x] + v if x in out else v
        return _fn_clean(out)

    def pullback(self, g, src, dst):
        """[g]^*: M(src) -> M(dst) for the morphism dst -> src given by g."""
        G = self.group
        if not G.conjugate(G.inverse[g], dst) <= frozenset(src):
            raise ValueError("not a morphism: g^{-1} dst g must lie in src")
        backs = self._backs([g])
        return lambda f: self._spread(f, backs)

    def pushforward(self, tau, src, dst):
        """[tau]_*: M(src) -> M(dst), summing over dst / (tau^{-1} src tau)."""
        G = self.group
        tinv = G.inverse[tau]
        conj = G.conjugate(tinv, src)
        if not conj <= frozenset(dst):
            raise ValueError("not a pushforward morphism: tau^{-1} src tau must lie in dst")
        reps = G.left_coset_reps(conj, within=frozenset(dst))
        backs = self._backs(G.table[γ][tinv] for γ in reps)
        return lambda f: self._spread(f, backs)

    def pr_pull(self, L, K):
        return self.pullback(self.group.identity, K, L)

    def pr_push(self, L, K):
        return self.pushforward(self.group.identity, L, K)

    def hat_action(self, g, f):
        """Smooth action of g on M-hat = C(X): (g.f)(x) = f(x g)."""
        return self._spread(f, self._backs([g]))


# ---------------------------------------------------------------------------
# axiom certificates

def check_c_axioms(F: FunctorModel, samples, rng):
    """(C1) shared value space, (C2) [g]^* = [g^{-1}]_* on conjugates, (C3)."""
    G = F.group
    levels = F.upsilon
    checked = 0
    for _ in range(samples):
        L = levels[rng.randrange(len(levels))]
        g = G.elements[rng.randrange(len(G.elements))]
        K = G.conjugate(G.inverse[g], L)
        pull = F.pullback(g, K, L)
        push = F.pushforward(G.inverse[g], K, L)
        for zeta in F.basis(K):
            if not fn_equal(pull(zeta), push(zeta)):
                return _mcert("C2", F, False, {"g": repr(G.labels[g]), "L": len(L)}, checked)
        checked += 1
        # (C3): gamma in K acts as the identity on M(K)
        K2 = levels[rng.randrange(len(levels))]
        gamma = sorted(K2)[rng.randrange(len(K2))]
        ident = F.pushforward(gamma, K2, K2)
        for zeta in F.basis(K2):
            if not fn_equal(ident(zeta), zeta):
                return _mcert("C3", F, False, {"gamma": repr(G.labels[gamma])}, checked)
    return _mcert("C1-C3", F, True, None, checked)


def check_galois_axiom(F: FunctorModel, K, L):
    """pr_* pr^* = [K:L] on M(K); and M(K) = M(L)^{K/L} when L is normal."""
    G = F.group
    K, L = frozenset(K), frozenset(L)
    if not L <= K:
        raise ValueError("need L <= K")
    index = len(K) // len(L)
    comp_up = F.pr_pull(L, K)
    comp_down = F.pr_push(L, K)
    for zeta in F.basis(K):
        got = comp_down(comp_up(zeta))
        if not fn_equal(got, fn_scale(zeta, Fraction(index))):
            return _mcert("galois", F, False,
                          {"index": index, "K": len(K), "L": len(L)}, 0)
    fixed_ok = True
    if G.is_normal(L, K):
        # K/L acts on L-orbits; the fixed space is M(K) iff orbit counts agree
        l_orbits = F.orbits(L)
        orbit_index = [0] * len(F.points)
        for i, orb in enumerate(l_orbits):
            for x in orb:
                orbit_index[x] = i
        reps = G.left_coset_reps(L, within=K)
        seen = set()
        k_orbit_count = 0
        for i, orb in enumerate(l_orbits):
            if i in seen:
                continue
            stack = [i]
            seen.add(i)
            while stack:
                j = stack.pop()
                x = next(iter(l_orbits[j]))
                for r in reps:
                    t = orbit_index[F._moves[r][x]]
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
            k_orbit_count += 1
        fixed_ok = k_orbit_count == len(F.orbits(K))
    return _mcert("galois", F, fixed_ok, {"reason": "M(K) != M(L)^{K/L}"},
                  len(F.basis(K)), index=index)


def check_cartesian_axiom(F: FunctorModel, K, L, Lp):
    """The double-coset square over gamma in L \\ K / L'."""
    G = F.group
    K, L, Lp = frozenset(K), frozenset(L), frozenset(Lp)
    if not (L <= K and Lp <= K):
        raise ValueError("need L, L' <= K")
    gammas = G.double_coset_reps(L, Lp, within=K)
    up, down = F.pr_pull(L, K), F.pr_push(Lp, K)
    squares = []
    for γ in gammas:
        Lg = G.conjugate(γ, Lp) & L
        squares.append((F.pullback(γ, Lp, Lg), F.pr_push(Lg, L)))
    checked = 0
    for zeta in F.basis(Lp):
        if not fn_equal(up(down(zeta)), fn_sum(push(pull(zeta)) for pull, push in squares)):
            return _mcert("cartesian", F, False,
                          {"K": len(K), "L": len(L), "Lp": len(Lp),
                           "gammas": len(gammas)}, checked)
        checked += 1
    return _mcert("cartesian", F, True, None, checked, gammas=len(gammas))


# ---------------------------------------------------------------------------
# Hecke correspondences

def hecke_map(F: FunctorModel, K, Kp, sigma):
    """[K' sigma K]: M(K) -> M(K') as the composite pr_* o [sigma]^* o pr^*.

    With A = K cap sigma^{-1} K' sigma and B = sigma K sigma^{-1} cap K', the
    map is pr^*: M(K) -> M(A), then [sigma]^*: M(A) -> M(B), then
    pr_*: M(B) -> M(K'); it depends only on the double coset K' sigma K.
    """
    G = F.group
    K, Kp = frozenset(K), frozenset(Kp)
    A = K & G.conjugate(G.inverse[sigma], Kp)
    B = G.conjugate(sigma, K) & Kp
    up, move, down = F.pr_pull(A, K), F.pullback(sigma, A, B), F.pr_push(B, Kp)
    return lambda zeta: down(move(up(zeta)))


def check_coset_expansion(F: FunctorModel, K, Kp, sigma):
    """Part (a): j_{K'} [K' sigma K] = sum over alpha with K' sigma K = |_| alpha K."""
    G = F.group
    corr = hecke_map(F, K, Kp, sigma)
    alphas = G.left_coset_reps(K, within=G.double_coset(Kp, sigma, K))
    for zeta in F.basis(K):
        # corr(zeta) is already a function on X
        if not fn_equal(corr(zeta), fn_sum(F.hat_action(a, zeta) for a in alphas)):
            return False, len(alphas)
    return True, len(alphas)


def check_convolution(F: FunctorModel, K, Kp, Kpp, sigma, tau):
    """Part (b): the composite Hecke map is the convolution product acting on M-hat."""
    G = F.group
    first = hecke_map(F, K, Kp, sigma)
    second = hecke_map(F, Kp, Kpp, tau)
    dc_tau = G.double_coset(frozenset(Kpp), tau, frozenset(Kp))
    dc_sigma = G.double_coset(frozenset(Kp), sigma, frozenset(K))
    # convolution of the two double-coset indicators, as left-K-coset weights
    inv_tau = [G.table[G.inverse[h]] for h in dc_tau]
    conv = {}
    for g in G.left_coset_reps(frozenset(K)):
        count = sum(1 for row in inv_tau if row[g] in dc_sigma)
        if count:
            conv[g] = Fraction(count, len(Kp))
    checked = 0
    for zeta in F.basis(K):
        rhs = fn_sum(fn_scale(F.hat_action(g, zeta), c) for g, c in conv.items())
        if not fn_equal(second(first(zeta)), rhs):
            return _mcert("hecke_convolution", F, False,
                          {"K": len(K), "Kp": len(Kp), "Kpp": len(Kpp)}, checked)
        checked += 1
    return _mcert("hecke_convolution", F, True, None, checked, support=len(conv))


# ---------------------------------------------------------------------------
# completed pushforward (H <= G on the same point set, iota_* = pr_*)

def vol(U, G):
    return Fraction(len(U), len(G))


def completed_pushforward(F: FunctorModel, H, x, g, K, U=None):
    """iota-hat(x (x) ch(gK)) = Vol(U) j_K [g]_* iota_{U,gKg^{-1},*}(x_U).

    U may be any level below gKg^{-1} cap H fixing x; the result does not
    depend on the choice (Galois descent), which tests exercise explicitly.
    With no U the trivial level {1} is used, which fixes every x; a U the
    caller passes is checked.  By functoriality [g]_* pr_* is the single
    pushforward [g]_*: M(U) -> M(K).
    """
    G = F.group
    if U is None:
        U = frozenset({G.identity})
    else:
        U = frozenset(U)
        if not U <= G.conjugate(g, K) & frozenset(H):
            raise ValueError("U must lie in gKg^{-1} cap H")
        if not F.is_invariant(x, U):
            raise ValueError("x is not U-invariant")
    return fn_scale(F.pushforward(g, U, K)(x), vol(U, G))


def check_pushforward_well_defined(F, H, x, K, L):
    """ch(K) = sum over gamma in K/L of ch(gamma L) gives equal images, L normal in K."""
    G = F.group
    K, L = frozenset(K), frozenset(L)
    if not (L <= K and G.is_normal(L, K)):
        raise ValueError("need L normal in K")
    lhs = completed_pushforward(F, H, x, G.identity, K)
    rhs = fn_sum(completed_pushforward(F, H, x, γ, L) for γ in G.left_coset_reps(L, within=K))
    return fn_equal(lhs, rhs)


def check_pushforward_equivariance(F, H, x, g1, K, h, g2):
    """(h, g) equivariance with the twisted source action."""
    G = F.group
    lhs = F.hat_action(g2, completed_pushforward(F, H, x, g1, K))
    hx = F.hat_action(h, x)
    new_g = G.mul(h, G.mul(g1, G.inv(g2)))
    new_K = G.conjugate(g2, frozenset(K))
    rhs = completed_pushforward(F, H, hx, new_g, new_K)
    return fn_equal(lhs, rhs)


def check_finite_level_diagram(F, H, U, K, g):
    """The finite-level square: Vol(U) j_K [g]_* iota_* = iota-hat(j_U(-) (x) ch(gK))."""
    G = F.group
    U, K = frozenset(U), frozenset(K)
    cap = G.conjugate(g, K) & frozenset(H)
    if not U <= cap:
        raise ValueError("need U <= gKg^{-1} cap H")
    gKg = G.conjugate(g, K)
    for x in F.basis(U):
        direct = fn_scale(F.pushforward(g, gKg, K)(F.pr_push(U, gKg)(x)), vol(U, G))
        completed = completed_pushforward(F, H, x, g, K)
        if not fn_equal(direct, completed):
            return False
    return True


def _mcert(identity, F, ok, failure, cases, **fields):
    """A Mackey-layer `trc.check` certificate, naming the model and group."""
    return trc.check(identity, ok, failure, cases, model=F.name, group=F.group.name,
                     completion_note="finite model: M-hat collapses to M({1}) = C(X); "
                                     "the infinite direct limit is not probed",
                     **fields)


# ---------------------------------------------------------------------------
# built-in models

def catalog_model(name, which="G"):
    """A FunctorModel over a catalog group: X = G, a coset space, or both."""
    from .fingroup import catalog_group

    G, B = catalog_group(name)
    return _build_model(G, B, which, name)


def model_from_generators(generators, modulus, which="G", name="matgrp"):
    """A FunctorModel for the matrix group generated over Z/modulus."""
    from .fingroup import matrix_group_mod

    G = matrix_group_mod(generators, modulus, name)
    B = G.generate([G.elements[0] if G.elements[0] != G.identity else G.elements[-1]])
    return _build_model(G, B, which, name)


def _build_model(G, B, which, name):
    """The model `which` of G, with Upsilon closed from the subgroup B."""
    if which not in ("G", "cosets", "two"):
        raise ValueError(f"unknown model {which!r}")
    ups = upsilon_closure(G, [B])
    table = G.table
    if which == "G":
        return FunctorModel(G, ups, G.elements, G.mul, name=f"{name}/G")
    # right cosets Bg under right translation, each named by its least element
    canon = [min(table[b][g] for b in B) for g in G.elements]
    cosets = sorted(set(canon))
    if which == "cosets":
        return FunctorModel(G, ups, cosets, lambda x, g: canon[table[x][g]],
                            name=f"{name}/cosets")

    def act2(x, g):
        tag, v = x
        return (tag, table[v][g] if tag == "g" else canon[table[v][g]])

    points = [("g", g) for g in G.elements] + [("c", x) for x in cosets]
    return FunctorModel(G, ups, points, act2, name=f"{name}/two")


# ---------------------------------------------------------------------------
# ordinary projector on p-adic matrices (truncated to Z/p^N)

class PadicEndo(Value):
    """A d x d matrix over Z/p^N with exact residue entries."""

    __slots__ = ("p", "N", "mat")

    def __init__(self, p, N, mat):
        if not is_prime(p):
            raise ValueError("p must be prime")
        if N < 1:
            raise ValueError("N must be >= 1")
        if len(mat) > 12:
            raise ValueError("dimension exceeds the configured bound")
        q = p ** N
        self._init(p, N, tuple(tuple(x % q for x in row) for row in mat))

    @property
    def d(self):
        return len(self.mat)


def _exponent_iteration_bound(p, N, d):
    # k! must absorb every prime power dividing the exponent of GL_d(Z/p^N):
    # a prime power q^a | p^j - 1 (j <= d) needs k >= q * a; the unipotent
    # p-part needs k >= p * (N + d).  Below this bound a transient equality
    # A^{k!} = A^{(k+1)!} can occur without being the limit, which is why the
    # stop rule is gated on the idempotency certificates.
    bound = max(p * (N + d), N * d)
    for j in range(1, d + 1):
        m = p ** j - 1
        q = 2
        while m > 1:
            if m % q == 0:
                a = 0
                while m % q == 0:
                    m //= q
                    a += 1
                bound = max(bound, q * a)
            q += 1
    return bound


def _projector_certs(A, e, p, N, W):
    """Certificates for a claimed ordinary idempotent e = lim A^{k!}.

    W is an explicit power of A with A W e = e, exhibiting the inverse of A
    on image(e); nilpotence on the complement is checked at the residue level.
    """
    q = p ** N
    d = len(A)
    We = mat_mul_modq(W, e, q)
    certs = {
        "idempotent": mat_mul_modq(e, e, q) == e,
        "commutes": mat_mul_modq(A, e, q) == mat_mul_modq(e, A, q),
        "invertible_on_image": (
            mat_mul_modq(A, We, q) == e and mat_mul_modq(We, A, q) == e
        ),
    }
    Abar = tuple(tuple(x % p for x in row) for row in A)
    one_minus_e = tuple(
        tuple((int(i == j) - e[i][j]) % p for j in range(d)) for i in range(d)
    )
    nil_at = None
    P = one_minus_e
    for j in range(1, d + 1):
        P = mat_mul_modq(Abar, P, p)
        if all(x == 0 for row in P for x in row):
            nil_at = j
            break
    certs["nilpotent_on_complement"] = nil_at is not None
    certs["nilpotence_exponent"] = nil_at
    return certs


def _stabilize(A, B, W, p, N):
    """Iterate B -> B^(k+1), W -> W^(k+1) A^k for k = 1, 2, ... up to the bound.

    With B = A^e and W = A^(e-1) at k = 1, B stays A^(e k!) and W stays
    A^(e k! - 1), since (e k! - 1)(k + 1) + k = e (k+1)! - 1.  Returns
    (B, k, certs) at the first B = B^(k+1) whose idempotency certificates
    all hold (a transient equality that is not yet the limit fails them and
    the iteration continues), or k = None past the bound.
    """
    q = p ** N
    bound = _exponent_iteration_bound(p, N, len(A))
    for k in range(1, bound + 1):
        B_next = mat_pow_modq(B, k + 1, q)
        if B_next == B:
            certs = _projector_certs(A, B, p, N, W)
            if all(certs[key] for key in
                   ("idempotent", "commutes", "invertible_on_image",
                    "nilpotent_on_complement")):
                return B, k, certs
        B, W = B_next, mat_mul_modq(mat_pow_modq(W, k + 1, q), mat_pow_modq(A, k, q), q)
    return B, None, _projector_certs(A, B, p, N, W)


def ordinary_projector(pe: PadicEndo):
    """The idempotent e = lim_k A^{k!} over Z/p^N, with certificates.

    Stabilizes B_k = A^{k!} (see `_stabilize`), carrying W_k = A^{k!-1} along
    as the explicit inverse witness on the image.
    """
    p, N, d = pe.p, pe.N, pe.d
    identity = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    B, k, certs = _stabilize(pe.mat, pe.mat, identity, p, N)
    # k = None cannot happen by the exponent estimate; it is reported defensively
    failure = {"reason": "no certified stabilization within bound",
               "bound": _exponent_iteration_bound(p, N, d)}
    return B, trc.check("ordinary_projector", k is not None, failure,
                        stabilized_at=k, p=p, N=N, d=d, **certs)

