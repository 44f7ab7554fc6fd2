import hashlib
import json
import random

import pytest
from fractions import Fraction

from tamenorm.fingroup import CATALOG_NAMES, catalog_group
from tamenorm.mackey import (
    FunctorModel,
    PadicEndo,
    check_c_axioms,
    check_cartesian_axiom,
    check_convolution,
    check_coset_expansion,
    check_finite_level_diagram,
    check_galois_axiom,
    check_pushforward_equivariance,
    check_pushforward_well_defined,
    completed_pushforward,
    hecke_map,
    ordinary_projector,
    upsilon_closure,
    fn_equal,
)
from tamenorm import mackey
from tamenorm.matrices import mat_mul_modq

from lemma_checks import check_double_coset_dependence, ordinary_projector_perturbed_route
from oracles import ref_max_aux_level


def build_model(name, which="G"):
    G, B = catalog_group(name)
    ups = upsilon_closure(G, [B])

    # right cosets Bg with right translation; canonical rep = min element
    def canon(g):
        return min(G.mul(b, g) for b in B)

    if which == "G":
        points = G.elements
        act = G.mul
    elif which == "cosets":
        points = sorted({canon(g) for g in G.elements})

        def act(x, g):
            return canon(G.mul(x, g))
    else:  # two orbits: the group and the coset space, disjointly
        inner = build_model(name, "cosets")
        points = [("g", g) for g in G.elements] + [("c", x) for x in inner.labels]

        def act(x, g):
            tag, v = x
            if tag == "g":
                return ("g", G.mul(v, g))
            return ("c", canon(G.mul(v, g)))

    return FunctorModel(G, ups, points, act, name=f"{name}/{which}")


@pytest.fixture(scope="module")
def s3_model():
    return build_model("S3", "G")


def test_upsilon_closure_validates():
    G, B = catalog_group("S3")
    ups = upsilon_closure(G, [B])
    F = FunctorModel(G, ups, G.elements, G.mul)
    assert frozenset({G.identity}) in F.upsilon
    assert frozenset(G.elements) in F.upsilon


def test_upsilon_closure_rejects_missing_trivial():
    G, B = catalog_group("S3")
    with pytest.raises(ValueError):
        FunctorModel(G, [frozenset(G.elements)], G.elements, G.mul)


def test_upsilon_rejects_missing_conjugate():
    # <(12)> meets each of its conjugates trivially, so the twisted
    # intersections stay inside {1, <(12)>} and only the conjugation check
    # sees that <(13)> and <(23)> are missing
    G, B = catalog_group("S3")
    with pytest.raises(ValueError, match="conjugation"):
        FunctorModel(G, [frozenset({G.identity}), B], G.elements, G.mul)


def test_is_invariant(s3_model):
    G, B = catalog_group("S3")
    assert all(s3_model.is_invariant(z, B) for z in s3_model.basis(B))
    assert s3_model.is_invariant({g: Fraction(2) for g in G.elements}, B)
    assert not s3_model.is_invariant({G.identity: Fraction(1)}, B)
    assert not s3_model.is_invariant({g: Fraction(g + 1) for g in G.elements}, B)


def test_galois_axiom_s3_a3(s3_model):
    # K = S3, L = A3: index 2, composition is multiplication by 2
    G, _ = catalog_group("S3")
    A3 = G.generate([G.index[(1, 2, 0)]])
    ups = upsilon_closure(G, [A3])
    F = FunctorModel(G, ups, G.elements, G.mul, name="S3/G")
    cert = check_galois_axiom(F, frozenset(G.elements), A3)
    assert cert["pass"] and cert["index"] == 2


def test_galois_axiom_equal_levels(s3_model):
    G, B = catalog_group("S3")
    cert = check_galois_axiom(s3_model, B, B)
    assert cert["pass"] and cert["index"] == 1


def test_galois_axiom_gl2f3_borel():
    G, B = catalog_group("GL2F3")
    # L = unipotent * center inside the Borel
    U = G.generate([G.index[((1, 1), (0, 1))]])
    Z = G.generate([G.index[((2, 0), (0, 2))]])
    L = G.generate(list(U | Z))
    F = build_model("GL2F3", "G")
    assert L <= B
    cert = check_galois_axiom(F, B, L)
    assert cert["pass"]
    assert cert["index"] == len(B) // len(L)


def test_cartesian_s3_transposition_pair():
    G, _ = catalog_group("S3")
    L = G.generate([G.index[(1, 0, 2)]])   # <(12)>
    Lp = G.generate([G.index[(2, 1, 0)]])  # <(13)>
    F = build_model("S3", "G")
    cert = check_cartesian_axiom(F, frozenset(G.elements), L, Lp)
    assert cert["pass"]


def test_cartesian_collapses_at_equal_levels():
    G, B = catalog_group("S3")
    F = build_model("S3", "G")
    cert = check_cartesian_axiom(F, B, B, B)
    assert cert["pass"] and cert["gammas"] == 1


def test_cartesian_square_sums_its_pieces_in_one_pass(monkeypatch):
    # L = L' = {1} in K = G: every gamma in G is its own double coset and every
    # piece is one point, so a running sum cleaned after each piece would hand
    # |gammas|^2 / 2 entries per basis vector to _fn_clean; one pass hands O(|gammas|)
    F = mackey.catalog_model("GL2F3", "G")
    G = F.group
    e = frozenset({G.identity})
    real = mackey._fn_clean
    cleaned = []

    def counted(d):
        cleaned.append(len(d))
        return real(d)

    monkeypatch.setattr(mackey, "_fn_clean", counted)
    cert = check_cartesian_axiom(F, frozenset(G.elements), e, e)
    assert cert["pass"] and cert["gammas"] == len(G)
    assert cert["cases_checked"] == len(F.basis(e)) == len(G)
    assert sum(cleaned) <= 10 * cert["gammas"] * cert["cases_checked"]


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("which", ["G", "cosets", "two"])
def test_axiom_battery_randomized(name, which):
    F = build_model(name, which)
    G = F.group
    rng = random.Random(f"{name}:{which}")
    cert = check_c_axioms(F, 12, rng)
    assert cert["pass"], cert
    levels = list(F.upsilon)
    for _ in range(6):
        K = levels[rng.randrange(len(levels))]
        subs = [L for L in levels if L <= K]
        L = subs[rng.randrange(len(subs))]
        Lp = subs[rng.randrange(len(subs))]
        assert check_galois_axiom(F, K, L)["pass"]
        assert check_cartesian_axiom(F, K, L, Lp)["pass"]


@pytest.mark.parametrize("name, which, seed, witness", [
    ("S3", "G", 1, {"g": "(2, 0, 1)", "L": 2}),
    ("D8", "two", 4, {"g": "(2, 1, 0, 3)", "L": 8}),
    ("GL2F3", "cosets", 1, {"g": "((2, 1), (0, 1))", "L": 12}),
])
def test_c_axioms_witness_is_the_concrete_element(monkeypatch, name, which, seed, witness):
    # every comparison fails, so the first sampled (C2) case is the witness
    monkeypatch.setattr(mackey, "fn_equal", lambda f, g: False)
    cert = check_c_axioms(mackey.catalog_model(name, which), 5, random.Random(seed))
    assert not cert["pass"]
    assert cert["first_failure"] == witness


def test_certificate_never_passes_on_zero_cases():
    # no sample drawn: nothing was checked, so the battery cannot pass
    cert = check_c_axioms(mackey.catalog_model("S3", "G"), 0, random.Random(0))
    assert cert["cases_checked"] == 0
    assert cert["pass"] is False
    assert cert["first_failure"] == {"reason": "no cases checked"}
    assert check_c_axioms(mackey.catalog_model("S3", "G"), 1, random.Random(0))["pass"]


def test_hecke_identity_coset(s3_model):
    # sigma inside K with K' = K: the single-coset correspondence is the identity
    G, B = catalog_group("S3")
    sigma = sorted(B)[0]
    corr = hecke_map(s3_model, B, B, sigma)
    for zeta in s3_model.basis(B):
        assert fn_equal(corr(zeta), zeta)


def test_hecke_double_coset_dependence(s3_model):
    G, B = catalog_group("S3")
    rng = random.Random(5)
    for sigma in list(G)[:4]:
        assert check_double_coset_dependence(s3_model, B, B, sigma, rng)


def test_hecke_coset_expansion():
    F = build_model("GL2F3", "G")
    G, B = catalog_group("GL2F3")
    w = G.index[((0, 1), (1, 0))]  # Weyl representative
    ok, n_cosets = check_coset_expansion(F, B, B, w)
    assert ok
    assert n_cosets == len(G.double_coset(B, w, B)) // len(B)


def test_convolution_borel_weyl():
    F = build_model("GL2F3", "G")
    G, B = catalog_group("GL2F3")
    w = G.index[((0, 1), (1, 0))]
    cert = check_convolution(F, B, B, B, w, w)
    assert cert["pass"], cert


def test_convolution_randomized():
    rng = random.Random(11)
    for name in ("S3", "D8", "S4"):
        F = build_model(name, "G")
        G, B = catalog_group(name)
        for _ in range(8):
            sigma = G.elements[rng.randrange(len(G))]
            tau = G.elements[rng.randrange(len(G))]
            cert = check_convolution(F, B, B, B, sigma, tau)
            assert cert["pass"], (name, sigma, tau)


def test_convolution_inverse_pair(s3_model):
    G, B = catalog_group("S3")
    rng = random.Random(3)
    for _ in range(5):
        sigma = G.elements[rng.randrange(len(G))]
        cert = check_convolution(s3_model, B, B, B, G.inv(sigma), sigma)
        assert cert["pass"]


# --- completed pushforward -------------------------------------------------

def test_pushforward_well_defined():
    F = build_model("S3", "G")
    G, B = catalog_group("S3")
    A3 = G.generate([G.index[(1, 2, 0)]])
    x = {g: Fraction(1) for g in G.elements}  # constant function, fixed by all
    assert check_pushforward_well_defined(F, frozenset(G.elements), x,
                                          frozenset(G.elements), A3)


def test_pushforward_well_defined_proper_subgroup():
    F = build_model("S4", "G")
    G, B = catalog_group("S4")
    V = G.generate([G.index[(1, 0, 3, 2)], G.index[(2, 3, 0, 1)]])  # Klein four, normal in S4
    x = {g: Fraction(1) for g in G.elements}
    assert check_pushforward_well_defined(F, B, x, frozenset(G.elements), V)


def test_pushforward_u_independence_three_nested_levels():
    F = build_model("S4", "G")
    G, B = catalog_group("S4")
    H = frozenset(G.elements)
    x = {g: Fraction(1) for g in G.elements}
    g = G.index[(1, 2, 0, 3)]
    K = frozenset(G.elements)
    auto = completed_pushforward(F, H, x, g, K)
    Umax = ref_max_aux_level(F, H, x, g, K)
    middle = G.generate([G.index[(1, 0, 2, 3)]])  # order-2 subgroup strictly between
    assert frozenset({G.identity}) < middle < Umax
    for U in [Umax, middle, frozenset({G.identity})]:
        got = completed_pushforward(F, H, x, g, K, U=U)
        assert fn_equal(got, auto)


@pytest.mark.parametrize("name", ["S3", "D8", "S4"])
@pytest.mark.parametrize("which", ["G", "cosets", "two"])
def test_pushforward_u_independence_every_admissible_level(name, which):
    # x is an orbit indicator of a level V, fixed by V but not by all of G, so
    # the admissible levels below gKg^{-1} cap H form a proper family
    F = build_model(name, which)
    G = F.group
    H = frozenset(G.elements)
    rng = random.Random(29)
    nontrivial = 0
    for V in F.upsilon:
        if len(V) in (1, len(G)):
            continue
        x = next((z for z in F.basis(V)
                  if ref_max_aux_level(F, H, z, G.identity, H) != H), None)
        if x is None:
            continue
        assert V <= ref_max_aux_level(F, H, x, G.identity, H)
        for _ in range(4):
            K = F.upsilon[rng.randrange(len(F.upsilon))]
            g = G.elements[rng.randrange(len(G))]
            want = completed_pushforward(F, H, x, g, K)
            Umax = ref_max_aux_level(F, H, x, g, K)
            for U in F.upsilon:
                if U <= Umax:
                    assert fn_equal(completed_pushforward(F, H, x, g, K, U=U), want)
                    nontrivial += len(U) > 1
    assert nontrivial


def test_pushforward_rejects_a_bad_level():
    F = build_model("S3", "G")
    G, B = catalog_group("S3")
    A3 = G.generate([G.index[(1, 2, 0)]])
    H = frozenset(G.elements)
    point = {G.identity: 1}  # fixed only by {1}
    with pytest.raises(ValueError, match="not U-invariant"):
        completed_pushforward(F, H, point, G.identity, H, U=B)
    x = dict.fromkeys(G.elements, 1)  # fixed by everything
    with pytest.raises(ValueError, match="must lie in"):
        completed_pushforward(F, H, x, G.identity, B, U=A3)
    with pytest.raises(ValueError, match="must lie in"):
        completed_pushforward(F, B, x, G.identity, H, U=A3)


def test_pushforward_identity_recovers_averaging():
    # H = G, iota = id, x constant: Vol-weighted sum over K/U of translates
    F = build_model("D8", "G")
    G, B = catalog_group("D8")
    H = frozenset(G.elements)
    x = {g: Fraction(1) for g in G.elements}
    out = completed_pushforward(F, H, x, G.identity, B)
    # constant function: each value is a sum over the |K| translates at the
    # default level U = {1}, scaled by Vol({1}), so it is |K| / |G| = Vol(B)
    want = {g: Fraction(len(B), len(G)) for g in G.elements}
    assert fn_equal(out, want)


def test_pushforward_equivariance_randomized():
    rng = random.Random(17)
    for name in ("S3", "D8"):
        F = build_model(name, "G")
        G, B = catalog_group(name)
        H = frozenset(G.elements)
        levels = [L for L in F.upsilon]
        for _ in range(20):
            K = levels[rng.randrange(len(levels))]
            g1 = G.elements[rng.randrange(len(G))]
            h = G.elements[rng.randrange(len(G))]
            g2 = G.elements[rng.randrange(len(G))]
            orb = F.basis(K)[rng.randrange(len(F.basis(K)))]
            # make an H-basis vector invariant enough: use the orbit indicator
            assert check_pushforward_equivariance(F, H, orb, g1, K, h, g2)


def test_pushforward_proper_subgroup_equivariance():
    # H a proper subgroup: the pushforward still satisfies the twisted action
    F = build_model("S4", "G")
    G, B = catalog_group("S4")
    H = B  # S3 inside S4
    rng = random.Random(23)
    hs = sorted(H)
    for _ in range(10):
        K = list(F.upsilon)[rng.randrange(len(F.upsilon))]
        g1 = G.elements[rng.randrange(len(G))]
        h = hs[rng.randrange(len(hs))]
        g2 = G.elements[rng.randrange(len(G))]
        x = {g: Fraction(1) for g in G.elements}
        assert check_pushforward_equivariance(F, H, x, g1, K, h, g2)


def test_finite_level_diagram():
    F = build_model("S3", "G")
    G, B = catalog_group("S3")
    H = frozenset(G.elements)
    for g in [G.identity, G.index[(1, 2, 0)], G.index[(1, 0, 2)]]:
        K = B
        cap = G.conjugate(g, K) & H
        assert check_finite_level_diagram(F, H, cap, K, g)               # defining case
        assert check_finite_level_diagram(F, H, frozenset({G.identity}), K, g)  # smaller U


# --- ordinary projector ------------------------------------------------------

def test_ordinary_projector_diagonal():
    p, N = 3, 5
    A = ((1 + p, 0), (0, p))
    e, cert = ordinary_projector(PadicEndo(p, N, A))
    assert cert["pass"]
    assert e == ((1, 0), (0, 0))


def test_ordinary_projector_scalar_p():
    p, N = 2, 6
    A = ((p, 0), (0, p))
    e, cert = ordinary_projector(PadicEndo(p, N, A))
    assert cert["pass"]
    assert e == ((0, 0), (0, 0))


def test_ordinary_projector_conjugation_equivariance():
    rng = random.Random(41)
    p, N, d = 3, 4, 3
    q = p ** N
    base = [[0] * d for _ in range(d)]
    base[0][0] = 1 + p
    base[1][1] = p
    base[2][2] = 2  # unit
    base = tuple(map(tuple, base))
    from tamenorm.matrices import det_mod, inv_mod_matrix_q

    for _ in range(10):
        # random invertible C mod p^N
        while True:
            C = tuple(tuple(rng.randrange(q) for _ in range(d)) for _ in range(d))
            Cbar = tuple(tuple(x % p for x in row) for row in C)
            if det_mod(Cbar, p) != 0:
                break
        Ci = inv_mod_matrix_q(C, p, N)
        assert mat_mul_modq(C, Ci, q) == tuple(
            tuple(int(i == j) for j in range(d)) for i in range(d)
        )
        A = mat_mul_modq(mat_mul_modq(C, base, q), Ci, q)
        e, cert = ordinary_projector(PadicEndo(p, N, A))
        assert cert["pass"]
        ebase, _ = ordinary_projector(PadicEndo(p, N, base))
        assert e == mat_mul_modq(mat_mul_modq(C, ebase, q), Ci, q)


def test_ordinary_projector_uniqueness_via_perturbed_route():
    rng = random.Random(97)
    for _ in range(15):
        p = rng.choice([2, 3, 5])
        N = rng.randrange(2, 6)
        d = rng.randrange(1, 5)
        q = p ** N
        A = tuple(tuple(rng.randrange(q) for _ in range(d)) for _ in range(d))
        e1, c1 = ordinary_projector(PadicEndo(p, N, A))
        e2, c2 = ordinary_projector_perturbed_route(PadicEndo(p, N, A))
        assert c1["pass"] and c2["pass"]
        assert e1 == e2


def test_perturbed_route_certificates_are_pinned():
    # sha256 of json.dumps({"e": e, "cert": cert}, sort_keys=True) plus a
    # newline per matrix, computed when the route still lived in tamenorm.mackey
    rng = random.Random(97)
    h = hashlib.sha256()
    for _ in range(15):
        p = rng.choice([2, 3, 5])
        N = rng.randrange(2, 6)
        d = rng.randrange(1, 5)
        q = p ** N
        A = tuple(tuple(rng.randrange(q) for _ in range(d)) for _ in range(d))
        e, cert = ordinary_projector_perturbed_route(PadicEndo(p, N, A))
        h.update(json.dumps({"e": e, "cert": cert}, sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == "611ebe1eb82467c7c767bf16336eaa7b3ed21432e40b672b2f17833342fb682b"


# companion matrix of x^6 + x^3 + 1 (divides x^9 - 1) over F_2
ORDER_9_UNIT = (
    (0, 0, 0, 0, 0, 1),
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 1),
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 0),
)


def test_ordinary_projector_transient_equality_is_gated():
    # A companion-type unit of multiplicative order 9 over F_2 (in GL_6(F_2)
    # via F_64) exhibits A^{3!} = A^{4!} transiently; the gated stop rule must
    # push past it and land on the true idempotent (the identity here).
    p, N = 2, 1
    A = ORDER_9_UNIT
    e, cert = ordinary_projector(PadicEndo(p, N, A))
    assert cert["pass"]
    assert e == tuple(tuple(int(i == j) for j in range(6)) for i in range(6))


def test_ordinary_projector_reports_exhausted_bound(monkeypatch):
    # with the bound cut to 3 the order-9 unit above meets only its transient
    # equality A^{3!} = A^{4!}: both routes must report failure, not pass
    A = ORDER_9_UNIT
    monkeypatch.setattr(mackey, "_exponent_iteration_bound", lambda p, N, d: 3)
    e, cert = ordinary_projector(PadicEndo(2, 1, A))
    assert not cert["pass"] and cert["stabilized_at"] is None
    assert cert["first_failure"] == {"reason": "no certified stabilization within bound",
                                     "bound": 3}
    assert not cert["idempotent"]
    e2, cert2 = ordinary_projector_perturbed_route(PadicEndo(2, 1, A), multiplier=1)
    assert cert2 == {"stabilized_at": None, "pass": False}


def test_ordinary_projector_seeded_battery():
    rng = random.Random(2024)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        N = rng.randrange(1, 9)
        d = rng.randrange(1, 7)
        q = p ** N
        A = tuple(tuple(rng.randrange(q) for _ in range(d)) for _ in range(d))
        e, cert = ordinary_projector(PadicEndo(p, N, A))
        assert cert["pass"], (p, N, A)
        assert mat_mul_modq(e, e, q) == e
        assert mat_mul_modq(A, e, q) == mat_mul_modq(e, A, q)
