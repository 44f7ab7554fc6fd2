"""Every CLI command must FAIL (exit 1) when its underlying data is perturbed.

The perturbations are injected by monkeypatching one exact value per command;
a certificate that still passed would mean the checks are not actually wired
to the computation.
"""

import hashlib
import json
from pathlib import Path

import pytest

from tamenorm import classfield, cli, hecke, lattice, lfactor, mackey, qcomb
from tamenorm.exactnum import Poly

import oracles
from oracles import ref_class_number_table, ref_fourier_inversion, ref_verify_inclusion_exclusion


def run(args, tmp_path):
    out = tmp_path / "cert.json"
    code = cli.main([*args, "--out", str(out)])
    return code, json.loads(out.read_text())


def test_coeffs_fails_on_perturbed_lambda(tmp_path, monkeypatch):
    real = qcomb.lambda_coefficients

    def fake(ctx):
        lam = real(ctx)
        lam[0] += 1
        return lam

    monkeypatch.setattr(qcomb, "lambda_coefficients", fake)
    code, cert = run(["coeffs", "--n", "2", "--ell", "3"], tmp_path)
    assert code == 1 and not cert["pass"]
    # b and the phi coefficients are Fractions here; pin how they are written
    assert cert["results"]["phi_assembly"]["first_failure"] == {"all_b_integral": False}
    digest = hashlib.sha256((tmp_path / "cert.json").read_bytes()).hexdigest()
    assert digest == "846e2e2526794ba24b05d219d7080270a9fa15ec3014fdc964280d737292fa92"


def test_verify_incl_excl_fails_on_perturbed_lambda(tmp_path, monkeypatch):
    real = qcomb.lambda_coefficients

    def fake(ctx):
        lam = real(ctx)
        lam[-1] -= 1
        return lam

    monkeypatch.setattr(qcomb, "lambda_coefficients", fake)
    code, cert = run(["verify-incl-excl", "--n", "2", "--ell", "2"], tmp_path)
    assert code == 1
    assert not cert["results"]["measure_identity"]["pass"]


def test_mackey_fails_on_perturbed_volume(tmp_path, monkeypatch):
    from fractions import Fraction

    monkeypatch.setattr(mackey, "vol", lambda U, G: Fraction(len(U) + 1, len(G)))
    calls = []
    for name in ("check_pushforward_well_defined", "check_pushforward_equivariance",
                 "check_finite_level_diagram"):
        def counted(*args, _real=getattr(mackey, name)):
            calls.append(None)
            return _real(*args)

        monkeypatch.setattr(mackey, name, counted)
    code, cert = run(["mackey-test", "--group", "S3", "--samples", "10"], tmp_path)
    assert code == 1
    push = cert["results"]["completed_pushforward"]
    assert not push["pass"]
    # every drawn case is checked, also after the first failure
    assert len(calls) == push["cases_checked"] == 21


def test_lfactor_fails_on_perturbed_polynomial(tmp_path, monkeypatch):
    real = lfactor.frob_poly_from_satake

    def fake(sp):
        fp = real(sp)
        from tamenorm.exactnum import ExactScalar, Poly

        bumped = list(fp.p_central.coeffs)
        bumped[1] = bumped[1] + ExactScalar.one(sp.ell)
        object.__setattr__(fp, "p_central", Poly(bumped))
        return fp

    monkeypatch.setattr(lfactor, "frob_poly_from_satake", fake)
    code, cert = run(
        ["lfactor", "--n", "1", "--ell", "5", "--alpha", "0:1", "0:1"], tmp_path
    )
    assert code == 1
    assert not cert["results"]["central_value"]["pass"]


def test_classgroup_fails_on_perturbed_class_number(tmp_path, monkeypatch):
    real = classfield.FormClassGroup.class_number_formula_certificate

    def fake(self):
        cert = real(self)
        cert["pass"] = cert["enumerated"] == cert["formula"] + 1
        return cert

    monkeypatch.setattr(classfield.FormClassGroup, "class_number_formula_certificate", fake)
    code, cert = run(["classgroup", "--disc", "-4", "--conductor", "5"], tmp_path)
    assert code == 1


def test_tower_fails_on_perturbed_kernel(tmp_path, monkeypatch):
    real = classfield.norm_map

    def fake(big, small):
        mapping, cert = real(big, small)
        cert["kernel_order"] += 1
        cert["pass"] = cert["kernel_order"] == cert["degree"]
        return mapping, cert

    monkeypatch.setattr(classfield, "norm_map", fake)
    code, cert = run(["tower", "--disc", "-4", "--m", "1", "--ell", "5"], tmp_path)
    assert code == 1


def test_tower_fails_on_a_norm_map_that_is_not_a_homomorphism(tmp_path, monkeypatch):
    # the first class outside the kernel is sent to the principal form instead
    real = classfield.ideal_extension_form
    moved = []

    def fake(f, d_E, cond_big, cond_small):
        img = real(f, d_E, cond_big, cond_small)
        principal = classfield.principal_form(d_E * cond_small * cond_small)
        if not moved and img != principal:
            moved.append(f)
            return principal
        return img

    monkeypatch.setattr(classfield, "ideal_extension_form", fake)
    code, cert = run(["tower", "--disc", "-23", "--m", "1", "--ell", "3"], tmp_path)
    assert moved and code == 1
    assert cert["results"]["h_small"] == 3
    assert cert["results"]["norm_map"]["homomorphism"] is False


def test_norm_relation_fails_on_perturbed_l_value(tmp_path, monkeypatch):
    # step 5 at both levels compares P at chi(Fr) with the product formula
    real = lfactor.local_l_inverse
    monkeypatch.setattr(lfactor, "local_l_inverse", lambda sp, x: real(sp, x) + 1)
    code, cert = run(["norm-relation", "--n", "1", "--ell", "5", "--disc", "-71",
                      "--alpha", "1:3", "2:3"], tmp_path)
    assert code == 1
    assert cert["first_failure"] == {"stage": "step5_lfactor"}
    step5 = cert["results"]["step5_lfactor"]
    assert not step5["level_m_group_algebra"]["pass"]
    assert not step5["level_ellm_chi_decomposition"]["pass"]


def test_step5_fails_on_one_perturbed_eigenvalue(tmp_path, monkeypatch):
    # the Horner value P(1), the eigenvalue of every character with
    # chi(Fr) = 1 (exponent 0), is off by one; the per-chi comparison with the
    # product formula catches it at both levels, while the Fourier inversion
    # reads the coefficients of P, not the Horner values, and still holds
    real = Poly.eval
    monkeypatch.setattr(Poly, "eval", lambda P, x: real(P, x) + (1 if x == 1 else 0))
    cl = classfield.FormClassGroup(-39, 2)  # Z/4
    sp = lfactor.SatakeParams.from_root_exponents(1, 5, [(1, 4), (3, 4)])
    cert = lfactor.tame_group_algebra_check(cl, sp)
    assert cert["pass"] is False and cert["fourier_inversion"] is True
    failed = cert["first_failure"]["per_chi"]
    assert failed and all(row["chi_at_frobenius"] == "1" for row in failed)
    assert len(failed) < len(cert["per_chi"])

    code, cert = run(["norm-relation", "--n", "1", "--ell", "5", "--disc", "-71",
                      "--alpha", "1:3", "2:3"], tmp_path)
    assert code == 1
    assert cert["first_failure"] == {"stage": "step5_lfactor"}
    step5 = cert["results"]["step5_lfactor"]
    level_m = step5["level_m_group_algebra"]
    assert level_m["pass"] is False and level_m["fourier_inversion"] is True
    level_ellm = step5["level_ellm_chi_decomposition"]
    assert level_ellm["pass"] is False
    assert {row["value"] for row in level_ellm["rows"] if not row["pass"]} == {"1"}


def test_fourier_inversion_fails_on_duplicated_character(monkeypatch):
    # the last character replaced by a copy of the first: every per-chi
    # eigenvalue still matches, but the table is not the dual group
    real = classfield.character_group

    def fake(cl):
        k, chars = real(cl)
        return k, chars[:-1] + chars[:1]

    monkeypatch.setattr(classfield, "character_group", fake)
    cl = classfield.FormClassGroup(-39, 2)  # Z/4
    sp = lfactor.SatakeParams.from_root_exponents(1, 5, [(1, 4), (3, 4)])
    cert = lfactor.tame_group_algebra_check(cl, sp)
    assert all(row["pass"] for row in cert["per_chi"])
    assert cert["fourier_inversion"] is False
    assert cert["pass"] is False
    assert ref_fourier_inversion(cl, sp, 5) is False  # the h^2 loop agrees


def test_measure_identity_fails_on_a_dropped_lattice(monkeypatch):
    # Z + 3Z lies in no Lambda_{t_m} (its first row is e_1), so dropping it
    # from the sweep lowers the left side of the count at inv (1, 0) only
    real = lattice._lattice_bases
    dropped = ((1, 0), (0, 3))
    assert dropped in set(real(2, 3, 2))

    def fake(n, ell, depth):
        return (basis for basis in real(n, ell, depth) if basis != dropped)

    monkeypatch.setattr(lattice, "_lattice_bases", fake)
    cert = lattice.verify_measure_identity(2, 3, 2)
    assert cert["pass"] is False
    assert cert["first_failure"]["invariant"] == [1, 0]
    lattices = lattice.sublattices_up_to_depth(2, 3, 2)
    assert len(lattices) != sum(1 for _ in lattices)


def _both_routes(n, ell, depth):
    """The inclusion-exclusion certificate by the per-image sweep and by the
    lattice-by-lattice oracle, which must agree on the first failure too."""
    cert = lattice.verify_inclusion_exclusion(n, ell, depth)
    assert cert == ref_verify_inclusion_exclusion(n, ell, depth)
    assert cert["pass"] is False
    return cert


def test_inclusion_exclusion_fails_on_a_perturbed_chain_weight(monkeypatch):
    # the last member of X_2^{>=1} at ell = 3 is a line; a lattice below it
    # now sees rhs = lhs + 1
    def perturbed(real):
        def fake(*args):
            w, chains = real(*args)
            w[-1] += 1
            return w, chains
        return fake

    monkeypatch.setattr(lattice, "_chain_weights", perturbed(lattice._chain_weights))
    monkeypatch.setattr(oracles, "_ref_chain_weights", perturbed(oracles._ref_chain_weights))
    failure = _both_routes(2, 3, 2)["first_failure"]
    assert failure["rhs"] == failure["lhs"] + 1 == 2
    L = lattice.LatticeClass(3, 2, failure["lattice"])
    assert lattice.contains(lattice.enumerate_X_ge1(2, 3)[-1], L)


def test_inclusion_exclusion_fails_on_a_wrong_join(monkeypatch):
    # two distinct lines of X_2^{>=1} meet in ell Z^2; pointing their join at
    # the first line, in the bitset join table and in the oracle's HNF join,
    # breaks the compatibility check below that line
    members = lattice.enumerate_X_ge1(2, 3)
    a, b = members[1], members[2]
    assert not lattice.contains(a, b) and not lattice.contains(b, a)
    real_table = lattice._join_table

    def wrong_table(masks):
        table, missing = real_table(masks)
        table[1][2] = table[2][1] = 1
        return table, missing

    real_join = oracles.join
    monkeypatch.setattr(lattice, "_join_table", wrong_table)
    monkeypatch.setattr(oracles, "join",
                        lambda L1, L2: L1 if (L1, L2) == (a, b) else real_join(L1, L2))
    cert = _both_routes(2, 3, 2)
    failure = cert["first_failure"]
    assert failure["reason"] == "containment in join without both factors"
    assert failure["pair"] in ([1, 2], [2, 1])
    L = lattice.LatticeClass(3, 2, failure["lattice"])
    assert lattice.contains(a, L) and not lattice.contains(b, L)


def test_inclusion_exclusion_fails_on_a_member_bitset_missing_a_vector(monkeypatch):
    # drop the nonzero vector (1, 1, 0) from the bitset of the plane x3 = 0 of
    # F_2^3: the line it spans no longer reads as below that plane, so the
    # chain weights are wrong where the real containments see both
    real = lattice._subspace_mask
    plane = lattice.LatticeClass.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 2]], 2)
    dropped = 1 << (1 + 1 * 2)    # base-2 code of (1, 1, 0)

    def fake(basis, ell):
        mask = real(basis, ell)
        return mask & ~dropped if basis == plane.basis else mask

    monkeypatch.setattr(lattice, "_subspace_mask", fake)
    assert real(plane.basis, 2) & dropped
    cert = lattice.verify_inclusion_exclusion(3, 2, 2)
    assert cert["pass"] is False and cert["cases_checked"] > 0
    failure = cert["first_failure"]
    assert failure["rhs"] == failure["lhs"] + 1 == 2
    assert failure["lattice"] == ((1, 1, 0), (0, 2, 0), (0, 0, 2))
    assert lattice.contains(plane, lattice.LatticeClass(2, 3, failure["lattice"]))


def test_inclusion_exclusion_fails_on_a_member_without_ell_zn(monkeypatch):
    # diag(9, 1) has index 9 and does not contain 3 Z^2: the sweep's premise
    real = lattice.enumerate_X_ge1
    bad = lattice.LatticeClass.from_diag_exponents([2, 0], 3)

    def fake(n, ell):
        members = real(n, ell)
        members[1] = bad
        return members

    monkeypatch.setattr(lattice, "enumerate_X_ge1", fake)
    cert = lattice.verify_inclusion_exclusion(2, 3, 2)
    assert cert["pass"] is False and cert["cases_checked"] == 0
    assert cert["first_failure"] == {"reason": "member does not contain ell Z^n",
                                     "lattice": bad.basis}


def test_class_number_sweep_fails_on_a_dropped_class(monkeypatch):
    # D = -207 = -23 * 3^2 is no other d_E m^2, so only (d_E, m) = (-23, 3) fails
    real = classfield.class_number_table

    def fake(bound):
        table = real(bound)
        table[-207] -= 1
        return table

    monkeypatch.setattr(classfield, "class_number_table", fake)
    cert = classfield.class_number_formula_sweep(2000)
    assert cert["pass"] is False
    failure = cert["first_failure"]
    assert (failure["d_E"], failure["m"]) == (-23, 3)
    assert failure["enumerated"] == real(2000)[-207] - 1


def test_class_number_sweep_fails_on_non_primitive_forms(monkeypatch):
    # without the gcd(a, b, c) = 1 filter the table counts (2, 2, 2) at D = -12
    monkeypatch.setattr(classfield, "class_number_table",
                        lambda bound: ref_class_number_table(bound, primitive=False))
    cert = classfield.class_number_formula_sweep(2000)
    assert cert["pass"] is False
    assert cert["first_failure"] == {"d_E": -3, "m": 2, "enumerated": 2, "formula": "6/6"}


def _failed(real):
    """`real`, with the `pass` of the certificate it returns set to False."""
    def fake(*args):
        out = real(*args)
        cert = out[1] if isinstance(out, tuple) else out
        cert["pass"] = False
        return out
    return fake


@pytest.mark.parametrize("args,targets,stage", [
    (["coeffs", "--n", "1", "--ell", "3"], [(hecke, "a_coefficients")], "coeffs"),
    (["verify-incl-excl", "--n", "2", "--ell", "2"],
     [(lattice, "verify_inclusion_exclusion")], "lattice"),
    (["mackey-test", "--group", "S3", "--samples", "4"],
     [(mackey, "check_galois_axiom")], "mackey"),
    (["lfactor", "--n", "1", "--ell", "5", "--alpha", "0:1", "0:1"],
     [(lfactor, "weil_weight_check")], "lfactor"),
    (["classgroup", "--disc", "-4", "--conductor", "5"],
     [(classfield.FormClassGroup, "class_number_formula_certificate")], "classgroup"),
    (["tower", "--disc", "-4", "--m", "1", "--ell", "5"],
     [(classfield, "norm_map")], "tower"),
    # steps 2 and 4 both fail: the first failing stage is named
    (["norm-relation", "--n", "1", "--ell", "5", "--disc", "-4", "--alpha", "0:1", "0:1"],
     [(lattice, "verify_measure_identity"), (classfield, "norm_map")],
     "step2_measure_identity"),
])
def test_failing_check_names_its_stage(tmp_path, monkeypatch, args, targets, stage):
    for owner, name in targets:
        monkeypatch.setattr(owner, name, _failed(getattr(owner, name)))
    code, cert = run(args, tmp_path)
    assert code == 1
    assert cert["pass"] is False
    assert cert["first_failure"] == {"stage": stage}
    if args[0] == "norm-relation":
        assert not cert["results"]["step4_class_groups"]["pass"]


def test_norm_relation_builtin_control(tmp_path):
    code, cert = run(
        ["norm-relation", "--n", "1", "--ell", "13", "--disc", "-4",
         "--conductor", "1", "--alpha", "0:1", "1:2", "--perturb-b1"],
        tmp_path,
    )
    assert code == 1
    assert cert["first_failure"]["stage"] == "step3_phi"


def _dicts(node):
    """Every dict in a certificate, the certificate itself included."""
    if isinstance(node, dict):
        yield node
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from _dicts(child)


def _check_trc_rules(cert):
    """Assert the two trc-1 rules on every dict of `cert`: `first_failure` is
    null exactly when `pass` is true, and no dict passes on zero cases.
    Returns the number of dicts that carry both `pass` and `first_failure`."""
    both = 0
    for d in _dicts(cert):
        if "pass" in d and "first_failure" in d:
            assert (d["first_failure"] is None) == (d["pass"] is True), d
            both += 1
        if d.get("pass") is True and "cases_checked" in d:
            assert d["cases_checked"] >= 1, d
    return both


def test_golden_certificates_keep_the_trc_rules():
    goldens = sorted((Path(__file__).parent / "golden").glob("*.json"))
    both = sum(_check_trc_rules(json.loads(p.read_text())) for p in goldens)
    assert both >= 48  # the count when the goldens were first walked


def _bump_first_lambda(ctx, real=qcomb.lambda_coefficients):
    lam = real(ctx)
    lam[0] += 1
    return lam


def _lower_last_lambda(ctx, real=qcomb.lambda_coefficients):
    lam = real(ctx)
    lam[-1] -= 1
    return lam


@pytest.mark.parametrize("args, fake_lambda", [
    (["norm-relation", "--n", "1", "--ell", "5", "--disc", "-71",
      "--alpha", "1:3", "2:3", "--perturb-b1"], None),
    (["coeffs", "--n", "2", "--ell", "3"], _bump_first_lambda),
    (["verify-incl-excl", "--n", "2", "--ell", "2"], _lower_last_lambda),
    (["norm-relation", "--n", "1", "--ell", "5", "--disc", "-71",
      "--alpha", "1:3", "2:3"], _bump_first_lambda),
])
def test_failing_controls_keep_the_trc_rules(tmp_path, monkeypatch, args, fake_lambda):
    if fake_lambda:
        monkeypatch.setattr(qcomb, "lambda_coefficients", fake_lambda)
    code, cert = run(args, tmp_path)
    assert code == 1 and cert["pass"] is False
    assert _check_trc_rules(cert) >= 2
