import hashlib

import pytest
from fractions import Fraction
from itertools import combinations_with_replacement
from math import isqrt

from tamenorm.classfield import FormClassGroup, fundamental_discriminants, kronecker
from tamenorm.exactnum import ExactScalar, Poly
from tamenorm.lfactor import (
    CharacterValue,
    SatakeParams,
    check_central_value,
    frob_poly_from_satake,
    local_l_inverse,
    tame_factor,
    tame_group_algebra_check,
    weil_weight_check,
)
from tamenorm.matrices import is_prime

from oracles import ref_fourier_inversion, ref_frob_poly, ref_poly_mul


def rat(q, ell):
    return ExactScalar.from_rational(q, ell)


def sp_ones(n, ell):
    return SatakeParams.from_root_exponents(n, ell, [(0, 1)] * (2 * n))


def test_frob_poly_all_ones():
    # n=1, ell=5, alpha = (1,1): P_lambda = (1 - sX)^2
    sp = sp_ones(1, 5)
    fp = frob_poly_from_satake(sp)
    s = ExactScalar.sqrt_ell(5)
    one = rat(1, 5)
    want = ref_poly_mul(Poly([one, -s]), Poly([one, -s]))
    assert fp.p_lambda == want
    assert fp.p_lambda.coeffs[0] == 1
    assert fp.p_lambda.eval(rat(0, 5)) == 1


def test_frob_poly_plus_minus():
    # alpha = (1, -1): P_lambda = 1 - 5 X^2 over ell = 5
    sp = SatakeParams.from_root_exponents(1, 5, [(0, 1), (1, 2)])
    fp = frob_poly_from_satake(sp)
    one = rat(1, 5)
    want = Poly([one, rat(0, 5), rat(-5, 5)])
    assert fp.p_lambda == want


def test_p_central_is_twist():
    # P(X) = P_lambda(ell^{-n} X): P from the recurrence against P_lambda as
    # its own product of binomials, on sample points
    for n, ell in [(1, 5), (2, 3)]:
        sp = sp_ones(n, ell)
        p_central = frob_poly_from_satake(sp).p_central
        p_lambda = ref_frob_poly(sp).p_lambda
        for e, k in [(0, 1), (1, 4), (1, 3)]:
            x = ExactScalar.zeta(ell, k, e)
            lhs = p_central.eval(x)
            rhs = p_lambda.eval(x * rat(Fraction(1, ell ** n), ell))
            assert lhs == rhs


def test_central_value_trivial_chi():
    # chi trivial, n=1, ell=5, alpha=(1,1): both sides (6-2s)/5
    sp = sp_ones(1, 5)
    cert = check_central_value(sp, CharacterValue.trivial(5))
    assert cert["pass"]
    s = ExactScalar.sqrt_ell(5)
    want = (rat(6, 5) - rat(2, 5) * s) / rat(5, 5)
    assert frob_poly_from_satake(sp).p_central.eval(rat(1, 5)) == want


def test_central_value_order_two_chi():
    sp = sp_ones(1, 5)
    chi = CharacterValue(rat(-1, 5), 2)
    cert = check_central_value(sp, chi)
    assert cert["pass"]
    # both sides prod (1 + alpha_i / s)
    s = ExactScalar.sqrt_ell(5)
    want = (rat(1, 5) + s / 5) ** 2
    assert local_l_inverse(sp, rat(-1, 5)) == want


def test_central_value_symmetric_case():
    # alpha all 1, chi trivial: both sides (1 - 1/s)^{2n}
    for n, ell in [(1, 3), (2, 5), (3, 2)]:
        sp = sp_ones(n, ell)
        s = ExactScalar.sqrt_ell(ell)
        want = (rat(1, ell) - s.inverse()) ** (2 * n)
        assert local_l_inverse(sp, rat(1, ell)) == want
        assert check_central_value(sp, CharacterValue.trivial(ell))["pass"]


PALETTE = [(0, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 6), (5, 6)]


def _palette_grid(ns):
    """SatakeParams for every palette combination of criterion 8."""
    for n in ns:
        for ell in (2, 3, 5, 7):
            for combo in combinations_with_replacement(PALETTE, 2 * n):
                yield SatakeParams.from_root_exponents(n, ell, list(combo))


def test_frob_poly_matches_two_products_on_the_palette_grid():
    # each coefficient's value, order and text, against the two products
    for sp in _palette_grid((1, 2, 3)):
        fp, ref = frob_poly_from_satake(sp), ref_frob_poly(sp)
        for got, want in ((fp.p_central, ref.p_central), (fp.p_lambda, ref.p_lambda)):
            assert len(got.coeffs) == len(want.coeffs) == 2 * sp.n + 1
            for a, b in zip(got.coeffs, want.coeffs):
                assert (a.k, a.num, a.den) == (b.k, b.num, b.den)
                assert a.serialize() == b.serialize()


def test_palette_serializations_are_pinned():
    # P_lambda, P, P(chi(ell)) and the tame factor at chi of order 1..6 over
    # the criterion-8 grid at n <= 2; the sha256 was computed before
    # frob_poly_from_satake derived P_lambda from P and before the monomial
    # product path in ExactScalar existed
    h = hashlib.sha256()
    for sp in _palette_grid((1, 2)):
        fp = frob_poly_from_satake(sp)
        h.update(fp.p_lambda.serialize().encode() + b"\n")
        h.update(fp.p_central.serialize().encode() + b"\n")
        for k in range(1, 7):
            chi = CharacterValue.primitive(sp.ell, k)
            h.update(fp.p_central.eval(chi.chi_ell).serialize().encode() + b"\n")
            h.update(tame_factor(sp, chi).serialize().encode() + b"\n")
    assert h.hexdigest() == "3ce1f431d805400cba819c9bb89b28c33447281629eb6759ac3c60f194bb21a0"


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_central_value_palette_n1(ell):
    for pair in combinations_with_replacement(PALETTE, 2):
        sp = SatakeParams.from_root_exponents(1, ell, list(pair))
        for k in range(1, 7):
            chi = CharacterValue.primitive(ell, k)
            assert check_central_value(sp, chi)["pass"], (pair, k)


def test_central_value_random_higher_rank():
    import random

    rng = random.Random(1234)
    for _ in range(25):
        n = rng.choice([2, 3])
        ell = rng.choice([2, 3, 5, 7])
        pairs = [PALETTE[rng.randrange(len(PALETTE))] for _ in range(2 * n)]
        sp = SatakeParams.from_root_exponents(n, ell, pairs)
        k = rng.randrange(1, 7)
        assert check_central_value(sp, CharacterValue.primitive(ell, k))["pass"]


def test_satake_rejects_non_unitary():
    with pytest.raises(ValueError):
        SatakeParams(1, 5, (rat(2, 5), rat(1, 5)))


def test_weil_weight_examples():
    ell, n = 3, 2
    s = ExactScalar.sqrt_ell(ell)
    ok = weil_weight_check([s ** (2 * n - 1), -(s ** (2 * n - 1))] * 2, n, ell)
    assert ok["pass"]
    bad = weil_weight_check([s ** (2 * n - 1)] * 3 + [s ** (2 * n - 3)], n, ell)
    assert not bad["pass"]
    assert [r["status"] for r in bad["rows"]] == ["pass"] * 3 + ["fail"]
    assert [r["excludes_p_inverse_eigenvalue"] for r in bad["rows"]] == [True] * 3 + [False]
    # beta = ell^n, the eigenvalue the field rules out, has norm ell^(2n)
    at_ell_n = weil_weight_check([rat(ell ** n, ell)] + [s ** (2 * n - 1)] * 3, n, ell)
    assert at_ell_n["rows"][0]["status"] == "fail"
    assert at_ell_n["rows"][0]["excludes_p_inverse_eigenvalue"] is False


def test_weil_weight_unchecked_shape():
    # 1 + z is not a root of unity times a power of s: norm is irrational
    ell = 5
    z = ExactScalar.zeta(ell, 5)
    rep = weil_weight_check([rat(1, ell) + z, ExactScalar.sqrt_ell(ell)], 1, ell)
    assert not rep["pass"]
    assert [r["status"] for r in rep["rows"]] == ["unchecked", "pass"]


@pytest.mark.parametrize("count", [0, 1, 3])
def test_weil_weight_needs_2n_eigenvalues(count):
    # a certificate about fewer or more than 2n eigenvalues is refused,
    # so zero rows can never pass
    s = ExactScalar.sqrt_ell(5)
    with pytest.raises(ValueError):
        weil_weight_check([s] * count, 1, 5)


def test_tame_factor_examples():
    # n=1, ell=5, alpha=(1,1), chi trivial: (5/4) (6-2s)/5 = (6-2s)/4
    sp = sp_ones(1, 5)
    got = tame_factor(sp, CharacterValue.trivial(5))
    s = ExactScalar.sqrt_ell(5)
    assert got == (rat(6, 5) - rat(2, 5) * s) / rat(4, 5)
    # alpha = (1,-1): L^{-1} = 1 - 1/5 = 4/5, so the factor is exactly 1
    sp2 = SatakeParams.from_root_exponents(1, 5, [(0, 1), (1, 2)])
    assert tame_factor(sp2, CharacterValue.trivial(5)) == rat(1, 5)


def test_tame_group_algebra_trivial_group():
    # |cl| = 1 reduces to the central-value identity with trivial chi
    cl = FormClassGroup(-4, 1)
    sp = sp_ones(1, 5)
    cert = tame_group_algebra_check(cl, sp)
    assert cert["pass"], cert
    assert len(cert["per_chi"]) == 1


def test_tame_group_algebra_order_two():
    # disc -100: two characters; eigenvalues P(+-1) at a split prime with
    # nontrivial Frobenius (ell = 13)
    cl = FormClassGroup(-4, 5)
    sp = sp_ones(1, 13)
    cert = tame_group_algebra_check(cl, sp)
    assert cert["pass"], cert
    vals = {row["chi_at_frobenius"] for row in cert["per_chi"]}
    assert vals == {"1", "-1"}


def test_tame_group_algebra_trivial_frobenius():
    # ell = 29 is principal for disc -100: both eigenvalues are P(1)
    cl = FormClassGroup(-4, 5)
    sp = sp_ones(1, 29)
    cert = tame_group_algebra_check(cl, sp)
    assert cert["pass"]
    eigs = {row["eigenvalue"] for row in cert["per_chi"]}
    assert len(eigs) == 1


def test_tame_group_algebra_bigger_group():
    # Z/4 class group at disc -156; Fourier inversion over 4 characters
    cl = FormClassGroup(-39, 2)
    sp = SatakeParams.from_root_exponents(1, 5, [(1, 4), (3, 4)])
    cert = tame_group_algebra_check(cl, sp)
    assert cert["pass"], cert
    assert cert["fourier_inversion"]


def test_tame_group_algebra_order_36():
    # exercises the Fourier-inversion bound on a group of order 36; the
    # split prime 2 has (-23 | 2) = 1
    cl = FormClassGroup(-23, 13)
    assert cl.order == 36
    sp = SatakeParams.from_root_exponents(1, 2, [(1, 6), (5, 6)])
    cert = tame_group_algebra_check(cl, sp)
    assert cert["pass"], cert
    assert len(cert["per_chi"]) == 36
    assert cert["fourier_inversion"]


def _split_prime(cl):
    """The least prime split in E and prime to the conductor."""
    return next(ell for ell in range(2, 10 ** 4) if is_prime(ell)
                and kronecker(cl.d_E, ell) == 1 and cl.conductor % ell)


def test_fourier_inversion_matches_the_per_character_loop():
    # every class group with |D| <= 1000, against the h^2 loop over (h, chi)
    shapes = [[(0, 1), (0, 1)], [(1, 3), (2, 3)], [(1, 4), (1, 2)]]
    groups = [FormClassGroup(d_E, m) for d_E in fundamental_discriminants(1000)
              for m in range(1, isqrt(1000 // -d_E) + 1)]
    assert len(groups) == 500 and max(cl.order for cl in groups) == 36
    for i, cl in enumerate(groups):
        ell = _split_prime(cl)
        sp = SatakeParams.from_root_exponents(1, ell, shapes[i % len(shapes)])
        cert = tame_group_algebra_check(cl, sp)
        assert cert["pass"], (cl.discriminant, ell)
        assert cert["fourier_inversion"] is ref_fourier_inversion(cl, sp, ell) is True
