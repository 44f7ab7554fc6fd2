import hashlib
import json

import pytest
from fractions import Fraction
from itertools import product

import lemma_checks
from lemma_checks import flag_orbit_check, iwahori_coset_check
from oracles import (
    rank_mod,
    ref_det,
    ref_elt,
    ref_g_r,
    ref_in_level,
    ref_nu_image,
    ref_orbit,
    ref_rank_table,
    ref_reduction_element,
    ref_same_coset,
    ref_serialize,
    ref_um_cosets,
    ref_verify_reduction,
)
from tamenorm import hecke, matrices, qcomb
from tamenorm.hecke import (
    BoundExceeded,
    HeckeContext,
    a_coefficients,
    assemble_phi,
    orbit_stabilizer,
    reduce_um_to_psi,
    serialize_cosets,
)
from tamenorm.matrices import (
    all_matrices_mod,
    gl_generators,
    gl_order,
    mat_det,
    mat_mul_modq,
    smith_witness_mod,
)
from tamenorm.qcomb import QCombContext, lambda_coefficients, rank_count

# (n, ell, m) with ell^(mn) <= 81: every U_m summand is checked against the
# Fraction oracle
COSET_CELLS = [(n, ell, m) for n in (1, 2, 3) for ell in (2, 3, 5, 7)
               for m in range(1, n + 1) if ell ** (m * n) <= 81]


def test_um_coset_counts():
    assert len(ref_um_cosets(1, HeckeContext(2, 2))) == 4     # 2^(1*2)
    assert len(ref_um_cosets(1, HeckeContext(1, 3))) == 3
    assert len(ref_um_cosets(2, HeckeContext(2, 2))) == 16    # 2^(2*2)


def test_group_elt_level_membership():
    ctx = HeckeContext(1, 5)
    assert ref_in_level(ref_elt(1, [[1, 0], [0, 1]], 1, 5), 5)
    assert not ref_in_level(ref_g_r(1, ctx), 5)  # has a 1/5 entry
    assert ref_in_level(ref_g_r(0, ctx), 5)      # X_0 = 0 gives the identity


def test_same_coset_distinguishes_x_mod_ell():
    # the ell^(mn) U_m summands lie in ell^(mn) distinct cosets
    for n, ell, m in [(1, 3, 1), (1, 5, 1), (2, 2, 1), (2, 2, 2)]:
        reps = ref_um_cosets(m, HeckeContext(n, ell))
        assert len(reps) == ell ** (m * n)
        for i, g in enumerate(reps):
            for j, h in enumerate(reps):
                assert ref_same_coset(g, h, ell) == (i == j), (n, ell, m, i, j)


def test_reduce_um_examples():
    # n=2, m=1, ell=2: ch(K) + 3 ch((g_1,1)K)
    ctx = HeckeContext(2, 2)
    psi, counts, cert = reduce_um_to_psi(1, ctx)
    assert cert["pass"], cert
    assert counts == {0: 1, 1: 3}
    assert psi == {0: 1, 1: 3}
    # n=1, m=1, ell=3: ch(K) + 2 ch((g_1,1)K)
    ctx = HeckeContext(1, 3)
    psi, counts, cert = reduce_um_to_psi(1, ctx)
    assert cert["pass"]
    assert counts == {0: 1, 1: 2}


@pytest.mark.parametrize("ell", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_reduce_um_multiplicities_match_rank_counts(n, ell):
    ctx = HeckeContext(n, ell)
    qctx = QCombContext(n, ell)
    for m in range(1, n + 1):
        psi, counts, cert = reduce_um_to_psi(m, ctx)
        assert cert["pass"], cert
        assert sum(counts.values()) == ell ** (m * n)
        for r in range(m + 1):
            assert counts[r] == rank_count(r, m, qctx)
        assert counts[0] == 1


# every (n, ell, m) with n <= 3, ell <= 7 and ell^(mn) <= 729
REDUCE_CELLS = [(n, ell, m) for n in (1, 2, 3) for ell in (2, 3, 5, 7)
                for m in range(1, n + 1) if ell ** (m * n) <= 729]


def test_reduce_um_certificates_are_pinned():
    # sha256 of json.dumps(certificate, sort_keys=True) plus a newline per
    # cell, computed when each witness was checked by two 2n x 2n integer
    # products
    assert len(REDUCE_CELLS) == 18
    h = hashlib.sha256()
    for n, ell, m in REDUCE_CELLS:
        _psi, _counts, cert = reduce_um_to_psi(m, HeckeContext(n, ell))
        assert cert["pass"], (n, ell, m)
        h.update(json.dumps(cert, sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == "a285796f22300c718fe8bfadc6f4a989f7da20a6f92976d6290c7d19263197b7"


def test_assemble_phi_n1():
    ctx = HeckeContext(1, 5)
    phi, cert = assemble_phi(ctx)
    assert cert["pass"]
    assert phi == {0: 1, 1: -1}


def test_assemble_phi_n2_ell2():
    phi, cert = assemble_phi(HeckeContext(2, 2))
    assert cert["pass"]
    assert cert["b"] == [6, -18, 12]
    assert cert["rows"][0]["lhs"] == cert["rows"][0]["rhs"]  # r = 0 restates b_0


def test_assemble_phi_names_a_non_integral_b(monkeypatch):
    # a table whose b is flagged non-integral while every phi row still holds:
    # the failure must be named, not left null
    real = qcomb.b_coefficients

    def fake(ctx):
        table = real(ctx)  # a fresh table: its certificates dict is this call's own
        table.certificates["all_b_integral"] = False
        return table

    monkeypatch.setattr(qcomb, "b_coefficients", fake)
    _, cert = assemble_phi(HeckeContext(2, 3))
    assert all(row["pass"] for row in cert["rows"])
    assert cert["pass"] is False
    assert cert["first_failure"] == {"all_b_integral": False}


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_assemble_phi_identity_sweep(n, ell):
    _, cert = assemble_phi(HeckeContext(n, ell))
    assert cert["pass"], cert


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_phi_serialization_matches_frozen_reference(n, ell):
    # the "phi" certificate bytes: one term per r = 0..n, zero b_r included
    ctx = HeckeContext(n, ell)
    phi, cert = assemble_phi(ctx)
    assert phi == dict(enumerate(cert["b"]))
    want = [{"coeff": b, "rep": ref_serialize(ref_g_r(r, ctx))} for r, b in enumerate(cert["b"])]
    assert serialize_cosets(phi, ctx) == want
    assert serialize_cosets({0: 0, 1: 5}, ctx)[0]["coeff"] == 0


def test_orbit_stabilizer_r0():
    rep = orbit_stabilizer(0, HeckeContext(2, 3))
    assert rep.orbit_size == 1
    assert rep.nu_image_order == 2          # nu is surjective onto F_3^*
    assert rep.index_K_V1r == 2
    assert rep.certificate["pass"]


def test_orbit_stabilizer_r1_n2_ell2():
    rep = orbit_stabilizer(1, HeckeContext(2, 2))
    assert rep.orbit_size == 9
    assert rep.certificate["pass"]


def test_orbit_stabilizer_boundary_anomaly():
    # at r = n the stabilizer is the diagonal {(A, A)} and nu is trivial,
    # contradicting the blanket ell - 1 claim; reported, not corrected
    for n, ell in [(1, 3), (2, 2), (2, 3)]:
        rep = orbit_stabilizer(n, HeckeContext(n, ell))
        assert rep.nu_image_order == 1
        assert rep.certificate["nu_order_matches_uniform_claim"] == (ell == 2)
        assert rep.certificate["pass"]


@pytest.mark.parametrize("ell", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_orbit_sizes_match_rank_counts(n, ell):
    ctx = HeckeContext(n, ell)
    qctx = QCombContext(n, ell)
    for r in range(n + 1):
        rep = orbit_stabilizer(r, ctx)
        assert rep.certificate["pass"]
        assert rep.orbit_size == rank_count(r, n, qctx)
        assert rep.orbit_size * rep.stabilizer_order == gl_order(n, ell) ** 2


def _as_row_codes(M, ell):
    """M as the tuple of its row codes, each row's index in product order."""
    vecs = list(product(range(ell), repeat=len(M)))
    return tuple(vecs.index(row) for row in M)


def test_orbit_certificate_rejects_matrix_of_other_rank(monkeypatch):
    # an orbit of the right size with one rank-2 matrix in it fails the rank table
    orbit = set(hecke._orbit(1, 2, 3))
    orbit.remove(_as_row_codes(((1, 0), (0, 0)), 3))
    orbit.add(_as_row_codes(((1, 0), (0, 1)), 3))
    monkeypatch.setattr(hecke, "_orbit", lambda r, n, ell: orbit)
    cert = orbit_stabilizer(1, HeckeContext(2, 3)).certificate
    assert cert["orbit_matches_formula"]
    assert not cert["orbit_equals_rank_stratum"]
    assert cert["pass"] is False


def test_orbit_stabilizer_infeasible():
    with pytest.raises(BoundExceeded):
        orbit_stabilizer(0, HeckeContext(4, 7))


def test_index_rule_certificate():
    # the rule a_coefficients uses beyond enumeration: nu-order ell - 1 for
    # r < n and 1 at r = n
    for n in (1, 2):
        for ell in (2, 3):
            for r in range(n + 1):
                rep = orbit_stabilizer(r, HeckeContext(n, ell))
                assert rep.nu_image_order == (ell - 1 if r < n else 1), (n, ell, r)
                assert rep.certificate["pass"], (n, ell, r)


# (n, ell) with ell^(n^2) <= 2401: the row-code BFS against full products
ORBIT_CELLS = [(n, ell) for n in (1, 2, 3) for ell in (2, 3, 5, 7) if ell ** (n * n) <= 2401]


@pytest.mark.parametrize("n,ell", ORBIT_CELLS)
def test_orbit_matches_matrix_product_oracle(n, ell):
    vecs = list(product(range(ell), repeat=n))
    for r in range(n + 1):
        orbit = {tuple(vecs[c] for c in M) for M in hecke._orbit(r, n, ell)}
        assert orbit == ref_orbit(r, n, ell), r


@pytest.mark.parametrize("n,ell", ORBIT_CELLS + [(3, 3), (2, 11)])
def test_rank_table_matches_rref_oracle(n, ell):
    assert hecke._rank_table(n, ell) == ref_rank_table(n, ell)


@pytest.mark.parametrize("n,ell", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
def test_gl_generators_generate_without_identity(n, ell):
    # the forward generators alone close up to GL_n(F_ell); at ell = 2 the
    # torus generator would be the identity and is left out
    gens = gl_generators(n, ell)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert ident not in gens
    assert len(gens) == (2 if n > 1 else 0) + (ell > 2)
    group = {ident}
    frontier = [ident]
    while frontier:
        g = frontier.pop()
        for h in gens:
            gh = mat_mul_modq(g, h, ell)
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    assert len(group) == gl_order(n, ell)


def test_a_coefficients_makes_no_rref(monkeypatch):
    # the (3, 3) rank table comes from prefix spans, not one RREF per matrix
    calls = []
    real = matrices.rref_mod

    def counted(rows, p):
        calls.append(1)
        return real(rows, p)

    monkeypatch.setattr(hecke, "rref_mod", counted, raising=False)
    monkeypatch.setattr(hecke, "rank_mod", counted, raising=False)
    monkeypatch.setattr(matrices, "rref_mod", counted)
    hecke._rank_table.cache_clear()
    hecke._row_codes.cache_clear()
    _a, cert = a_coefficients(HeckeContext(3, 3))
    assert cert["pass"] and cert["index_source"] == "enumeration"
    assert calls == []


def test_a_coefficients_n1():
    a, cert = a_coefficients(HeckeContext(1, 3))
    assert cert["pass"], cert
    assert a == [1, -1]


def test_a_boundary_equals_minus_lambda():
    for n, ell in [(1, 3), (2, 2), (2, 3), (3, 2)]:
        a, cert = a_coefficients(HeckeContext(n, ell))
        assert cert["pass"], cert
        lam = lambda_coefficients(QCombContext(n, ell))
        assert a[n] == -lam[n - 1]
        assert cert["rows"][n]["documented_discrepancy"] == (ell != 2)


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_integrality_sweep(n, ell):
    a, cert = a_coefficients(HeckeContext(n, ell))
    assert cert["pass"], cert
    assert all(not isinstance(x, Fraction) for x in a)


def test_closed_form_indices_match_enumeration(monkeypatch):
    cases = [(1, 3), (2, 2), (2, 3)]
    enumerated = [a_coefficients(HeckeContext(n, ell)) for n, ell in cases]
    monkeypatch.setattr(hecke, "_feasible", lambda ctx: False)
    for (n, ell), (a1, c1) in zip(cases, enumerated):
        a2, c2 = a_coefficients(HeckeContext(n, ell))
        assert (c1["index_source"], c2["index_source"]) == ("enumeration", "closed_form")
        assert a1 == a2
        assert [r["index_K_V1r"] for r in c1["rows"]] == [r["index_K_V1r"] for r in c2["rows"]]


# (n, ell) with ell^(n^2) <= 81: the derived nu-image against brute force
NU_CELLS = [(n, ell) for n in (1, 2, 3) for ell in (2, 3, 5, 7) if ell ** (n * n) <= 81]


@pytest.mark.parametrize("n,ell", NU_CELLS)
def test_nu_image_matches_bruteforce_stabilizer(n, ell):
    ctx = HeckeContext(n, ell)
    for r in range(n + 1):
        want = ref_nu_image(r, n, ell)
        assert set(hecke._nu_image(r, n, ell)) == want, r
        assert orbit_stabilizer(r, ctx).certificate["nu_image"] == sorted(want)


def test_flag_orbit_n1_ell3():
    cert = flag_orbit_check(HeckeContext(1, 3))
    assert cert["pass"], cert
    assert cert["orbit_size"] == 2              # |GL_1(F_3)|
    assert cert["identity_coset_orbit_size"] == 1
    assert cert["flag_point_count"] == 4        # P^1(F_3)


@pytest.mark.parametrize("n,ell", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
def test_flag_orbit_grid(n, ell):
    cert = flag_orbit_check(HeckeContext(n, ell))
    assert cert["pass"], cert
    assert cert["orbit_equals_gl_n"]
    assert cert["stabilizer_is_diagonal"]


def test_flag_orbit_rejects_short_orbit(monkeypatch):
    # without generators the orbit of [u] is the point itself, not |GL_1(F_3)| = 2
    monkeypatch.setattr(lemma_checks, "gl_generators", lambda n, ell: [])
    cert = flag_orbit_check(HeckeContext(1, 3))
    assert cert["stabilizer_is_diagonal"]
    assert cert["orbit_size"] == 1 and not cert["orbit_equals_gl_n"]
    assert cert["pass"] is False


def test_iwahori_r1_p2():
    cert = iwahori_coset_check(1, 2, 4)
    assert cert["mode"] == "explicit"
    assert cert["pass"], cert
    assert all(cert["checks"].values())


def test_iwahori_r0_degenerate():
    cert = iwahori_coset_check(0, 2, 3)
    assert cert["pass"]
    assert cert["V_0_is_full_level"]
    assert cert["D_1_is_full_unit_group"]


def test_iwahori_r1_p3_counted():
    cert = iwahori_coset_check(1, 3, 4)
    assert cert["mode"] == "counted"
    assert cert["pass"], cert


def test_iwahori_modes_agree_at_p2():
    # the counted machinery must reproduce the explicit orders at p = 2
    explicit = iwahori_coset_check(1, 2, 4)
    preds = lemma_checks._iwahori_mat_predicates(1, 2, 4)
    for name, pred in preds.items():
        shape = lemma_checks._extract_shape(pred, 2, 4)
        assert lemma_checks._shape_order(*shape, 2, 4) == explicit["orders"][name], name


@pytest.mark.parametrize("p, N", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_shape_order_counts_every_matrix(p, N):
    # the closed form against a count of every (a, b, c, d) mod p^N
    q = p ** N
    for beta in range(N + 1):
        for gamma in range(N + 1):
            want = sum(1 for a, b, c, d in product(range(q), repeat=4)
                       if b % p ** beta == 0 and c % p ** gamma == 0 and (a * d - b * c) % p)
            assert lemma_checks._shape_order(beta, gamma, p, N) == want, (beta, gamma)


# sha256 of json.dumps(certificate, sort_keys=True) plus a newline per
# configuration, computed when these checks still lived in tamenorm.hecke
IWAHORI_CELLS = [(0, 2, 3), (1, 2, 4), (1, 3, 4), (2, 2, 6)]
FLAG_CELLS = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]


def _digest(certs):
    h = hashlib.sha256()
    for cert in certs:
        h.update(json.dumps(cert, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def test_iwahori_certificates_are_pinned():
    assert _digest(iwahori_coset_check(*cell) for cell in IWAHORI_CELLS) == (
        "e18508a2267c883d233c23c0e5dc1799d0a3a01939770a01615392885da3a0d2")


def test_flag_orbit_certificates_are_pinned():
    assert _digest(flag_orbit_check(HeckeContext(*cell)) for cell in FLAG_CELLS) == (
        "ae567196800c2c4ac0a8cb919fad01401c76e48ac4b7b7bff70e9bb1f715082f")


def test_iwahori_needs_depth():
    with pytest.raises(ValueError):
        iwahori_coset_check(1, 2, 3)


def test_psi_total_mass():
    # sum of multiplicities is ell^{mn} for all m <= n <= 3
    for n, ell in [(2, 2), (3, 2), (2, 3)]:
        ctx = HeckeContext(n, ell)
        for m in range(1, n + 1):
            _, counts, cert = reduce_um_to_psi(m, ctx)
            assert cert["pass"]
            assert sum(counts.values()) == ell ** (m * n)


def test_bracket_ratio_identity():
    # [n m] c_{r,m} / c_{r,n} = [n-r, n-m] exactly, r <= m <= n <= 5
    from tamenorm.qcomb import q_binomial

    for ell in (2, 3, 5, 7):
        for n in range(1, 6):
            qctx = QCombContext(n, ell)
            for m in range(1, n + 1):
                for r in range(0, m + 1):
                    lhs = q_binomial(n, m, ell) * rank_count(r, m, qctx)
                    rhs = q_binomial(n - r, n - m, ell) * rank_count(r, n, qctx)
                    assert lhs == rhs, (n, m, r, ell)


def test_iwahori_deeper_level_counted():
    cert = iwahori_coset_check(2, 2, 6)
    assert cert["mode"] == "counted"
    assert cert["pass"], cert


def test_smith_witness_property():
    from itertools import product as iproduct

    from tamenorm.matrices import all_matrices_mod, det_mod, smith_witness_mod

    for p in (2, 3):
        for m, n in ((2, 2), (2, 3), (3, 2)):
            for X in all_matrices_mod(m, n, p):
                U, V, r = smith_witness_mod(X, p)
                assert det_mod(U, p) != 0 and det_mod(V, p) != 0
                prod = tuple(
                    tuple(
                        sum(U[i][a] * X[a][b] * V[b][j] for a in range(m) for b in range(n)) % p
                        for j in range(n)
                    )
                    for i in range(m)
                )
                want = tuple(
                    tuple(int(i == j and i < r) for j in range(n)) for i in range(m)
                )
                assert prod == want, (X, U, V, r)


def _witnesses(n, ell, m):
    return [(X, *smith_witness_mod(X, ell)) for X in all_matrices_mod(m, n, ell)]


def _is_witness(X, U, V, r, ell):
    """U X V = E_r over F_ell, computed directly."""
    m, n = len(X), len(X[0])
    return all(
        sum(U[i][a] * X[a][b] * V[b][j] for a in range(m) for b in range(n)) % ell
        == int(i == j and i < r)
        for i in range(m) for j in range(n)
    )


@pytest.mark.parametrize("n,ell,m", COSET_CELLS)
def test_coset_check_matches_fraction_oracle(n, ell, m):
    ctx = HeckeContext(n, ell)
    for X, U, V, r in _witnesses(n, ell, m):
        assert hecke._verify_reduction(X, U, V, r, m, ctx)
        assert ref_verify_reduction(X, U, V, r, m, ctx), X


@pytest.mark.parametrize("n,ell,m", COSET_CELLS)
def test_coset_witness_determinant_identity(n, ell, m):
    # det k = det A det B: g_r is unipotent, det h^{-1} = det A ell^{-m} det B
    # and det g_X = ell^m, so the coset check needs only det A and det B
    ctx = HeckeContext(n, ell)
    for X, U, V, r in _witnesses(n, ell, m):
        k_mat, A, B, _gX = ref_reduction_element(X, U, V, r, m, ctx)
        assert ref_det(k_mat) == mat_det(A) * mat_det(B), X


@pytest.mark.parametrize("n,ell,m", COSET_CELLS)
def test_coset_check_rejects_singular_witness(n, ell, m):
    # with U = 0 the element k is still integral at X = 0, but det A = 0;
    # with V = 0 there is no B = V^{-1} mod ell at all
    ctx = HeckeContext(n, ell)
    U0 = [[0] * m for _ in range(m)]
    V0 = [[0] * n for _ in range(n)]
    for X, U, V, r in _witnesses(n, ell, m):
        for U1, V1 in ((U0, V), (U, V0)):
            assert not hecke._verify_reduction(X, U1, V1, r, m, ctx), (X, U1, V1)
            assert not ref_verify_reduction(X, U1, V1, r, m, ctx), (X, U1, V1)


@pytest.mark.parametrize("n,ell,m", COSET_CELLS)
def test_coset_check_rejects_corrupt_witnesses(n, ell, m):
    ctx = HeckeContext(n, ell)
    wit = _witnesses(n, ell, m)
    corrupt = []
    for i, (X, U, V, r) in enumerate(wit):
        _Y, U2, V2, _r2 = wit[(i + 1) % len(wit)]
        if not _is_witness(X, U2, V, r, ell):
            corrupt.append((X, U2, V, r))
        if not _is_witness(X, U, V2, r, ell):
            corrupt.append((X, U, V2, r))
        for r2 in (r - 1, r + 1):
            if 0 <= r2 <= n:
                corrupt.append((X, U, V, r2))
    assert len(corrupt) >= len(wit)
    for X, U, V, r in corrupt:
        assert not hecke._verify_reduction(X, U, V, r, m, ctx), (X, U, V, r)
        assert not ref_verify_reduction(X, U, V, r, m, ctx), (X, U, V, r)


def test_rank_table_follows_enumeration_order():
    ranks = hecke._rank_table(2, 3)
    assert [ranks.count(r) for r in range(3)] == [rank_count(r, 2, QCombContext(2, 3))
                                                   for r in range(3)]
    for i, M in enumerate(all_matrices_mod(2, 2, 3)):
        assert hecke._matrix_index(_as_row_codes(M, 3), 3 ** 2) == i
        assert ranks[i] == rank_mod(M, 3)
