import hashlib
import json
import random
from itertools import combinations
from math import gcd

import pytest

from oracles import (
    join,
    ref_contains,
    ref_det,
    ref_enumerate_X_ge1,
    ref_hnf_candidates,
    ref_join,
    ref_mat_inv,
    ref_mat_mul,
    ref_smith_ell_exponents,
    ref_sublattices_up_to_depth,
    ref_verify_inclusion_exclusion,
    smith_ell_exponents,
)
from lemma_checks import solve_lambda_from_counts, standard_lattice
from tamenorm import lattice, trc
from tamenorm.lattice import (
    BoundExceeded,
    LatticeClass,
    contains,
    enumerate_X_ge1,
    relative_position,
    sublattices_up_to_depth,
    verify_inclusion_exclusion,
    verify_measure_identity,
)
from tamenorm.matrices import ell_normalize, hnf_rows, mat_det
from tamenorm.qcomb import QCombContext, lambda_coefficients, q_binomial

ORACLE_CELLS = [(n, ell) for n in (1, 2, 3) for ell in (2, 3)] + [(2, 5)]
# the acceptance grid of criteria 2 and 3
LATTICE_GRID = [(n, ell, 2) for n in (1, 2, 3) for ell in (2, 3, 5)] + [(4, 2, 1)]


def diag_lattice(exps, ell):
    return LatticeClass.from_diag_exponents(exps, ell)


def test_standard_lattice_is_identity():
    L = standard_lattice(3, 5)
    assert L.basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_relative_position_trivial():
    assert relative_position(diag_lattice([1, 0], 3)) == (1, 0)
    assert relative_position(diag_lattice([1, 1], 3)) == (1, 1)


def test_relative_position_derived():
    # [[4, 2], [0, 1]] over ell=2 has Smith exponents (2, 0)
    L = LatticeClass.from_rows([[4, 2], [0, 1]], 2)
    assert relative_position(L) == (2, 0)


def test_prime_to_ell_structure_is_trivialized():
    # over Z_2, 3 is a unit: diag(3,1) spans Z^2; diag(6,1) spans diag(2,1)
    assert LatticeClass.from_rows([[3, 0], [0, 1]], 2) == standard_lattice(2, 2)
    assert LatticeClass.from_rows([[6, 0], [0, 1]], 2) == diag_lattice([1, 0], 2)


def test_normal_form_canonical_under_unit_row_ops():
    rng = random.Random(4096)
    for ell in (2, 3, 5):
        for _ in range(25):
            n = rng.choice([2, 3])
            exps = sorted([rng.randint(0, 2) for _ in range(n)], reverse=True)
            rows = [[ell ** exps[i] if i == j else 0 for j in range(n)] for i in range(n)]
            L0 = LatticeClass.from_rows(rows, ell)
            # random ell-unit row operations: integer shears and unit scalings
            work = [r[:] for r in rows]
            for _ in range(12):
                op = rng.randrange(3)
                i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
                if op == 0 and i != j:
                    c = rng.randint(-4, 4)
                    work[i] = [x + c * y for x, y in zip(work[i], work[j])]
                elif op == 1:
                    u = rng.choice([u for u in (1, 2, 3, 5, 7) if u % ell != 0])
                    work[i] = [u * x for x in work[i]]
                else:
                    work[i], work[j] = work[j], work[i]
            assert LatticeClass.from_rows(work, ell) == L0


def _spans_same_lattice(H, rows):
    """Fraction oracle: every row is an integer combination of H's rows, and
    det H is the gcd of the maximal minors of the rows, the index of their
    span in Z^n."""
    n = len(H)
    coeffs = ref_mat_mul(rows, ref_mat_inv(H))
    if any(x.denominator != 1 for row in coeffs for x in row):
        return False
    index = 0
    for sub in combinations(rows, n):
        index = gcd(index, int(ref_det(sub)))
    return ref_det(H) == index


@pytest.mark.parametrize("duplicate", [False, True])
def test_hnf_rows_is_canonical_and_spans_its_input(duplicate):
    rng = random.Random(1729 + duplicate)
    checked = 0
    for _ in range(400):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n + rng.randint(0, 2))]
        if duplicate:
            rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
        try:
            H = hnf_rows(rows)
        except ValueError:
            assert all(ref_det(sub) == 0 for sub in combinations(rows, n))
            continue
        # a positive diagonal and every entry above a pivot in [0, pivot)
        assert all(H[i][i] > 0 for i in range(n))
        assert all(H[i][j] == 0 for i in range(n) for j in range(i))
        assert all(0 <= H[j][i] < H[i][i] for i in range(n) for j in range(i)), (rows, H)
        assert _spans_same_lattice(H, rows), (rows, H)
        assert hnf_rows(H) == H
        checked += 1
    assert checked > 300


def test_from_rows_basis_is_canonical_example():
    # every entry above the last pivot, 81, must lie in [0, 81) after the
    # columns before it are reduced
    rows = [[-4, 8, -9, 9], [-5, -2, -4, 7], [4, -4, -7, -9], [-1, 2, 9, -9], [-1, 2, 9, -9]]
    L = LatticeClass.from_rows(rows, 3)
    assert L.basis == ((1, 0, 0, 55), (0, 1, 0, 68), (0, 0, 1, 17), (0, 0, 0, 81))
    assert lattice._is_canonical_hnf(L.basis, 3)
    assert LatticeClass.from_rows(L.basis, 3) == L


def test_ell_normalize_is_canonical_on_random_rows():
    # rank 4 with ell-power entries, where reducing the columns above the
    # pivots in the wrong order leaves entries outside [0, pivot)
    rng = random.Random(31)
    for ell in (2, 3, 5):
        pool = [0, 1, -1, ell, -ell, ell * ell, ell ** 3]
        for _ in range(100):
            rows = [[rng.choice(pool + [rng.randint(-9, 9)]) for _ in range(4)]
                    for _ in range(5)]
            if all(ref_det(sub) == 0 for sub in combinations(rows, 4)):
                continue
            L = LatticeClass.from_rows(rows, ell)
            assert lattice._is_canonical_hnf(L.basis, ell), (rows, L)
            assert LatticeClass.from_rows(L.basis, ell) == L


def test_contains_trivial_cases():
    Z2 = standard_lattice(2, 3)
    L1 = diag_lattice([1, 0], 3)
    S = diag_lattice([1, 1], 3)
    assert contains(Z2, L1) and contains(Z2, S)
    assert not contains(S, L1)          # index comparison
    assert contains(L1, S)


def test_join_examples():
    ell = 3
    Z2 = standard_lattice(2, ell)
    L = LatticeClass.from_rows([[1, 2], [0, 3]], ell)  # kernel of x + y mod 3
    assert join(L, Z2) == L
    assert join(L, L) == L
    # two distinct index-ell sublattices of Z^2 meet in ell Z^2
    L2 = diag_lattice([1, 0], ell)
    assert L != L2
    assert join(L, L2) == diag_lattice([1, 1], ell)
    assert relative_position(join(L, L2)) == (1, 1)


def test_join_properties_randomized():
    rng = random.Random(777)
    for ell in (2, 3):
        pool = enumerate_X_ge1(3, ell)
        deeper = [join(a, b) for a, b in zip(pool[::2], pool[1::2])]
        pool = pool + deeper
        for _ in range(60):
            a, b, c = (pool[rng.randrange(len(pool))] for _ in range(3))
            assert join(a, b) == join(b, a)
            assert join(a, a) == a
            assert join(join(a, b), c) == join(a, join(b, c))
            # universal property against a random small lattice
            probe = pool[rng.randrange(len(pool))]
            assert contains(join(a, b), probe) == (contains(a, probe) and contains(b, probe))


def test_join_dominance():
    # inv(join) dominates both inv's coordinatewise after sorting
    for ell in (2, 3):
        pool = enumerate_X_ge1(2, ell) + enumerate_X_ge1(3, ell)
        for a in pool[:12]:
            for b in pool[:12]:
                if a.n != b.n:
                    continue
                ja = relative_position(join(a, b))
                for L in (a, b):
                    inv = relative_position(L)
                    # dominance of partial sums (Bruhat order on cocharacters)
                    for t in range(1, len(inv) + 1):
                        assert sum(ja[:t]) >= sum(inv[:t])


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_enumerate_X_ge1_counts(ell):
    assert len(enumerate_X_ge1(1, ell)) == 1
    got = enumerate_X_ge1(2, ell)
    assert len(got) == ell + 2
    invs = sorted(relative_position(L) for L in got)
    assert invs.count((1, 0)) == ell + 1
    assert invs.count((1, 1)) == 1


def test_enumerate_X_ge1_bound():
    with pytest.raises(BoundExceeded):
        enumerate_X_ge1(5, 2)
    with pytest.raises(BoundExceeded):
        enumerate_X_ge1(2, 11)
    for ell in (0, 1, 4):    # at ell = 1 the normal form would never return
        with pytest.raises(ValueError, match="ell must be prime"):
            enumerate_X_ge1(2, ell)


@pytest.mark.parametrize("build", [
    lambda: ell_normalize([[1, 0], [0, 1]], 1),
    lambda: LatticeClass.from_rows([[1, 0], [0, 1]], 1),
    lambda: LatticeClass.from_diag_exponents([1, 0], 1),
    lambda: LatticeClass.minimal_vector_lattice(1, 2, 1),
], ids=["ell_normalize", "from_rows", "from_diag_exponents", "minimal_vector_lattice"])
def test_normal_form_refuses_ell_one(build):
    # the valuation v_ell(det, 1) would divide by 1 forever
    with pytest.raises(ValueError, match="ell >= 2"):
        build()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_enumerate_X_ge1_matches_subspace_oracle(n, ell):
    # the depth-1 sweep, sorted, lists the members basis for basis in the
    # order of the row-reduced subspaces, on which every failing witness of
    # inclusion-exclusion depends
    got = [L.basis for L in enumerate_X_ge1(n, ell)]
    assert got == [L.basis for L in ref_enumerate_X_ge1(n, ell)]


def test_invariant_counts_examples():
    # Z^2 holds ell + 1 lattices of type (1, 0) and one, ell Z^2, of type
    # (1, 1); of the first, Lambda_{t_1} = diag(ell, 1) holds only itself
    for ell in (2, 3):
        total, within = lattice._invariant_counts(2, ell, 1)
        assert total == {(0, 0): 1, (1, 0): ell + 1, (1, 1): 1}
        assert within[0] == {(1, 0): 1, (1, 1): 1}
        assert within[1] == {(1, 1): 1}


def test_chain_structure_matches_worked_example():
    # n=2: ell+2 length-0 chains and ell+1 chains S < L_i
    for ell in (2, 3, 5):
        cert = verify_inclusion_exclusion(2, ell, 2)
        assert cert["pass"]
        assert cert["members"] == ell + 2
        assert cert["chains"] == (ell + 2) + (ell + 1)


@pytest.mark.parametrize("n,ell,depth", [
    (1, 2, 3), (1, 5, 3),
    (2, 2, 2), (2, 3, 2),
    (3, 2, 2),
])
def test_inclusion_exclusion_passes(n, ell, depth):
    cert = verify_inclusion_exclusion(n, ell, depth)
    assert cert["pass"], cert
    assert cert["cases_checked"] > 0


@pytest.mark.parametrize("n,ell,depth",
                         LATTICE_GRID + [(3, 7, 2), (2, 7, 3), (3, 2, 4), (1, 5, 4), (4, 3, 1)])
def test_inclusion_exclusion_matches_lattice_by_lattice_oracle(n, ell, depth):
    assert verify_inclusion_exclusion(n, ell, depth) == ref_verify_inclusion_exclusion(n, ell, depth)


def test_inclusion_exclusion_certificate_bytes_are_pinned():
    cert = verify_inclusion_exclusion(3, 7, 2)
    assert (cert["cases_checked"], cert["members"], cert["chains"]) == (9009, 115, 1141)
    blob = json.dumps(cert, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "4bfd2a14b773897e62dacbb9c1cecf7b7f3867de99c99ce0c3c9abaa942a6fcc")


def test_inclusion_exclusion_rank_4_certificate_bytes_are_pinned():
    # digest of the certificate made by the HNF joins, before the bitset tables
    cert = verify_inclusion_exclusion(4, 5, 1)
    assert (cert["cases_checked"], cert["members"], cert["chains"]) == (1120, 1119, 89285)
    blob = json.dumps(cert, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "3f2be48048b303057a8d5e14206418a0247c05e9eecda10a80fec5760ff76342")


@pytest.mark.parametrize("n,ell", [(2, 3), (3, 2), (3, 3), (3, 5), (4, 2), (3, 7), (4, 3)])
def test_member_bitset_tables_match_contains_and_hnf_join(monkeypatch, n, ell):
    # the containment matrix and join table the sweep reads off the subspace
    # bitsets, against real containments and the HNF join on every member pair
    seen = {}
    real_weights, real_table = lattice._chain_weights, lattice._join_table

    def weights(members, above):
        seen["members"], seen["above"] = members, above
        return real_weights(members, above)

    def table(masks):
        seen["join"], missing = real_table(masks)
        return seen["join"], missing

    monkeypatch.setattr(lattice, "_chain_weights", weights)
    monkeypatch.setattr(lattice, "_join_table", table)
    assert verify_inclusion_exclusion(n, ell, 1)["pass"]
    members, above, join_idx = seen["members"], seen["above"], seen["join"]
    assert len(members) <= 211
    for i, a in enumerate(members):
        for j, b in enumerate(members):
            assert above[i][j] == contains(a, b), (a, b)
            assert members[join_idx[i][j]] == join(a, b), (a, b)


def test_inclusion_exclusion_containments_scale_with_members(monkeypatch):
    # the premise (M) and one set S per image mod ell (at most M + 1 images,
    # M containments each), however many of the 2,607 lattices share an
    # image; the member containment matrix comes from the subspace bitsets
    calls = []
    real = lattice.contains

    def counted(big, small):
        calls.append(1)
        return real(big, small)

    monkeypatch.setattr(lattice, "contains", counted)
    cert = verify_inclusion_exclusion(3, 5, 2)
    M = cert["members"]
    assert (M, cert["cases_checked"]) == (63, 2607)
    assert len(calls) <= M * (M + 1) + M


@pytest.mark.parametrize("n,ell,depth", [
    (1, 3, 3), (2, 2, 2), (2, 3, 2), (2, 5, 2), (3, 2, 2),
])
def test_measure_identity_passes(n, ell, depth):
    cert = verify_measure_identity(n, ell, depth)
    assert cert["pass"], cert


@pytest.mark.parametrize("n,ell", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_lambda_matches_counting_solution(n, ell):
    # Corollary-grade ground truth: the combinatorial lambda equals the unique
    # solution of the per-invariant counting system
    assert lambda_coefficients(QCombContext(n, ell)) == solve_lambda_from_counts(n, ell)


@pytest.mark.parametrize("n,ell", ORACLE_CELLS)
def test_relative_position_matches_minor_oracle(n, ell):
    # the sweeps' path: k = v_ell(det) read off the HNF diagonal
    for L in ref_hnf_candidates(n, ell, 2):
        want = tuple(sorted(ref_smith_ell_exponents(L.basis, ell), reverse=True))
        assert relative_position(L) == want, L


def test_smith_exponents_match_minor_oracle_on_random_matrices():
    rng = random.Random(2718)
    checked = 0
    for ell in (2, 3, 5):
        for _ in range(150):
            n = rng.randint(1, 4)
            M = [[rng.choice((0, ell, -ell, ell * ell, ell ** 3, rng.randint(-30, 30)))
                  for _ in range(n)] for _ in range(n)]
            if mat_det(M) == 0:
                for kernel in (smith_ell_exponents, ref_smith_ell_exponents):
                    with pytest.raises(ValueError):
                        kernel(M, ell)
                continue
            assert smith_ell_exponents(M, ell) == ref_smith_ell_exponents(M, ell), M
            checked += 1
    assert checked > 300


@pytest.mark.parametrize("n,ell", ORACLE_CELLS)
def test_contains_matches_fraction_oracle(n, ell):
    shallow = list(ref_hnf_candidates(n, ell, 1))
    for a in shallow:
        for b in shallow:
            assert contains(a, b) == ref_contains(a, b), (a, b)
    deep = list(ref_hnf_candidates(n, ell, 2))
    rng = random.Random(n * 100 + ell)
    for _ in range(300):
        a, b = rng.choice(deep), rng.choice(deep)
        assert contains(a, b) == ref_contains(a, b), (a, b)


@pytest.mark.parametrize("n,ell", [(2, 3), (3, 2), (2, 5)])
def test_join_matches_fraction_oracle(n, ell):
    members = enumerate_X_ge1(n, ell)
    for a in members:
        for b in members:
            assert join(a, b) == ref_join(a, b), (a, b)
    deep = list(ref_hnf_candidates(n, ell, 2))
    rng = random.Random(n * 1000 + ell)
    for _ in range(200):
        a, b = rng.choice(deep), rng.choice(deep)
        assert join(a, b) == ref_join(a, b), (a, b)


@pytest.mark.parametrize("verify", [verify_inclusion_exclusion, verify_measure_identity])
@pytest.mark.parametrize("depth", [0, -1])
def test_verifiers_reject_depth_below_one(verify, depth):
    with pytest.raises(ValueError):
        verify(2, 3, depth)


@pytest.mark.parametrize("n,ell,depth",
                         LATTICE_GRID + [(3, 7, 1), (4, 3, 1), (2, 7, 3), (1, 5, 4)])
def test_sublattices_match_candidate_oracle(n, ell, depth):
    # same lattices in the same order as filtering every HNF candidate by its
    # Smith exponents, which fixes the sweeps' first failing witness
    lattices = sublattices_up_to_depth(n, ell, depth)
    got, want = list(lattices), ref_sublattices_up_to_depth(n, ell, depth)
    assert [L.basis for L in got] == [L.basis for L in want]
    assert len(lattices) == len(want)
    for L in got:
        assert lattice._is_canonical_hnf(L.basis, ell)
        assert max(relative_position(L)) <= depth


@pytest.mark.parametrize("n,ell,depth", [(1, 2, 3), (2, 3, 2), (3, 2, 2), (3, 5, 2), (4, 2, 1)])
def test_candidate_count_is_closed_form(n, ell, depth):
    # the cap's count prod_j sum_{e <= depth} ell^(j e) is that of every HNF
    # candidate; len() is Birkhoff's count of the lattices actually swept
    assert lattice._candidate_count(n, ell, depth) == sum(1 for _ in ref_hnf_candidates(n, ell, depth))
    lattices = sublattices_up_to_depth(n, ell, depth)
    assert len(lattices) == sum(1 for _ in lattices)


@pytest.mark.parametrize("verify", [verify_inclusion_exclusion, verify_measure_identity])
@pytest.mark.parametrize("n,ell,depth", [(4, 3, 2), (4, 7, 2), (3, 7, 4), (2, 2, 7), (1, 2, 10 ** 9)])
def test_verifiers_refuse_beyond_bounds(verify, n, ell, depth):
    with pytest.raises(BoundExceeded):
        verify(n, ell, depth)


def test_candidate_cap_admits_documented_cells():
    # rank 4 at depth 1 and rank 3 at depth 2, up to ell = 7, and every grid;
    # the cap counts HNF candidates, of which the sweep builds only the lattices
    counts = {(4, 7, 1): (275200, 3652), (3, 7, 2): (419121, 9009), (3, 5, 2): (60543, 2607)}
    for (n, ell, depth), (candidates, lattices) in counts.items():
        assert lattice._candidate_count(n, ell, depth) == candidates
        assert len(sublattices_up_to_depth(n, ell, depth)) == lattices
        lattice._check_request(n, ell, depth)


@pytest.mark.parametrize("n,ell", [(2, 5), (3, 3), (4, 2), (4, 5)])
def test_member_count_is_closed_form(n, ell):
    # the join cap counts X_n^{>=1} as sum_{d<n} [n, d]_ell without enumerating
    assert len(enumerate_X_ge1(n, ell)) == sum(q_binomial(n, d, ell) for d in range(n))


def test_join_cap_refuses_rank_4_at_ell_7(monkeypatch):
    class Enumerated(Exception):
        pass

    def enumerated(n, ell):
        raise Enumerated

    monkeypatch.setattr(lattice, "enumerate_X_ge1", enumerated)
    with pytest.raises(Enumerated):        # 1,119 members, 626,640 joins
        verify_inclusion_exclusion(4, 5, 1)
    with pytest.raises(BoundExceeded, match="joins"):   # 3,651 members, 6.7e6 joins
        verify_inclusion_exclusion(4, 7, 1)


@pytest.mark.parametrize("verify", [verify_inclusion_exclusion, verify_measure_identity])
@pytest.mark.parametrize("n,ell,message", [(0, 3, "n must be >= 1"), (-1, 3, "n must be >= 1"),
                                           (2, 1, "ell must be prime")])
def test_verifiers_reject_degenerate_rank_and_prime(verify, n, ell, message):
    with pytest.raises(ValueError, match=message):
        verify(n, ell, 1)


def test_certificate_never_passes_on_zero_cases():
    cert = trc.check("measure_identity", True, cases=0, n=2, ell=3, depth=1)
    assert cert["pass"] is False
    assert cert["first_failure"] == {"reason": "no cases checked"}
    assert trc.check("measure_identity", True, cases=1, n=2, ell=3, depth=1)["pass"] is True
