import hashlib
import json
import random
from functools import lru_cache
from itertools import permutations
from math import gcd, isqrt, prod

import pytest

from tamenorm import classfield
from tamenorm.classfield import (
    FormClassGroup,
    QuadForm,
    TowerStep,
    character_group,
    class_number_formula_sweep,
    class_number_table,
    compose,
    frobenius_class,
    fundamental_discriminants,
    ideal_extension_form,
    is_fundamental_discriminant,
    kronecker,
    norm_map,
    principal_form,
    reduce_form,
    reduced_forms,
)
from tamenorm.exactnum import ExactScalar
from tamenorm.fingroup import FiniteGroup
from tamenorm.matrices import BoundExceeded

from oracles import (
    ideal_product_form,
    ref_character_group,
    ref_characters_orthogonal,
    ref_class_number_table,
)


def test_kronecker_basics():
    assert kronecker(-4, 5) == 1      # 5 splits in Q(i)
    assert kronecker(-4, 3) == -1
    assert kronecker(-4, 2) == 0
    assert kronecker(-3, 7) == 1
    assert kronecker(-100, 13) == 1


def test_fundamental_discriminants():
    assert is_fundamental_discriminant(-3)
    assert is_fundamental_discriminant(-4)
    assert is_fundamental_discriminant(-7)
    assert is_fundamental_discriminant(-8)
    assert not is_fundamental_discriminant(-12)   # = -3 * 4
    assert not is_fundamental_discriminant(-100)
    assert not is_fundamental_discriminant(5)


def test_principal_form_identity():
    f = principal_form(-4)
    assert f == QuadForm(1, 0, 1)
    assert compose(f, f) == f


def test_compose_order_two_class():
    # D = -100: (2,2,13) squares to the principal form
    f = QuadForm(2, 2, 13)
    assert compose(f, f) == QuadForm(1, 0, 25)


def test_reduce_swaps_when_a_exceeds_c():
    # (5, 4, 1) has discriminant -4; the standard swap/translate steps land on
    # the principal form
    assert reduce_form(QuadForm(5, 4, 1)) == QuadForm(1, 0, 1)


def test_reduce_lands_in_enumerated_set():
    rng = random.Random(31)
    for D in (-4, -20, -23, -100, -47, -84):
        reduced = set(reduced_forms(D))
        for f in list(reduced):
            # random SL_2(Z) transforms preserve the class
            a, b, c = f.as_tuple()
            for _ in range(8):
                # (a, b, c) -> translation and flip generators
                t = rng.randint(-3, 3)
                a2, b2, c2 = a, b + 2 * a * t, a * t * t + b * t + c
                if rng.random() < 0.5 and a2 != 0 and c2 != 0:
                    a2, b2, c2 = c2, -b2, a2
                g = reduce_form(QuadForm(a2, b2, c2))
                assert g in reduced
                assert g == reduce_form(f)
                a, b, c = a2, b2, c2


@pytest.mark.parametrize("D", [-4, -15, -20, -23, -47, -71, -84, -100, -39 * 4])
def test_group_axioms_and_ideal_oracle(D):
    forms = reduced_forms(D)
    e = principal_form(D)
    # discriminant factorisation D = d_E m^2
    m = 1
    while True:
        m += 1
        if m * m > -D:
            m = 1
            break
        if D % (m * m) == 0 and is_fundamental_discriminant(D // (m * m)):
            # take the largest conductor: keep scanning
            pass
    best = 1
    mm = 1
    while mm * mm <= -D:
        if D % (mm * mm) == 0 and is_fundamental_discriminant(D // (mm * mm)):
            best = mm
        mm += 1
    d_E = D // (best * best)
    for f in forms:
        assert compose(e, f) == f
        assert compose(f, f.inverse()) == e
        for g in forms:
            got = compose(f, g)
            assert got == compose(g, f)
            assert got in forms
            # independent oracle: ideal multiplication in the maximal order
            assert got == ideal_product_form(f, g, d_E, best), (f, g, D)
    for f in forms:
        for g in forms:
            for h in forms:
                assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_ring_class_group_examples():
    assert FormClassGroup(-4, 1).order == 1
    cl = FormClassGroup(-4, 5)
    assert cl.order == 2
    assert {f.as_tuple() for f in cl.labels} == {(1, 0, 25), (2, 2, 13)}
    assert cl.class_number_formula_certificate()["pass"]
    assert FormClassGroup(-3, 2).order == 1


def test_ring_class_group_validation():
    with pytest.raises(ValueError):
        FormClassGroup(-12, 1)      # not fundamental
    with pytest.raises(ValueError):
        FormClassGroup(-4, 0)
    with pytest.raises(ValueError):
        FormClassGroup(-4, 10 ** 4)   # exceeds default bound


@pytest.mark.parametrize("d_E,m", [(-4, 3), (-3, 5), (-7, 2), (-8, 3), (-20, 1), (-23, 2)])
def test_class_number_formula(d_E, m):
    cl = FormClassGroup(d_E, m)
    assert cl.class_number_formula_certificate()["pass"]


def test_frobenius_classes_disc_100():
    cl = FormClassGroup(-4, 5)
    f13 = frobenius_class(cl, 13)
    assert f13 == QuadForm(2, 2, 13)       # 13 represented by the nontrivial class
    f29 = frobenius_class(cl, 29)
    assert f29 == principal_form(-100)     # 29 = 4 + 25 is principal


def test_frobenius_well_defined_under_b_shift():
    cl = FormClassGroup(-4, 5)
    for ell in (13, 29, 37, 41):
        D = cl.discriminant
        sols = [b for b in range(4 * ell) if (b * b - D) % (4 * ell) == 0]
        classes = {reduce_form(QuadForm(ell, b, (b * b - D) // (4 * ell))) for b in sols}
        # all b choices give the class or its inverse (conjugate ideal);
        # the implementation picks the smallest b, which is well defined
        assert frobenius_class(cl, ell) in classes


def test_frobenius_rejects_bad_primes():
    cl = FormClassGroup(-4, 5)
    with pytest.raises(ValueError):
        frobenius_class(cl, 3)    # inert
    with pytest.raises(ValueError):
        frobenius_class(cl, 5)    # divides the conductor


def test_frobenius_order_matches_splitting():
    # order of Frob_ell in Pic(O_m) = least f with ell^f represented principally
    cl = FormClassGroup(-4, 5)
    for ell in (13, 29, 37, 61):
        f = frobenius_class(cl, ell)
        idx = cl.index[f]
        order = cl.element_order(idx)
        # minimal f with ell^f represented by the principal form x^2 + 25 y^2
        def principally_represented(n):
            x = 0
            while x * x <= n:
                rest = n - x * x
                if rest % 25 == 0:
                    y2 = rest // 25
                    y = int(y2 ** 0.5)
                    for yy in (y - 1, y, y + 1):
                        if yy >= 0 and yy * yy == y2:
                            return True
                x += 1
            return False

        least = next(f0 for f0 in range(1, order + 1) if principally_represented(ell ** f0))
        assert least == order


def test_norm_map_examples():
    big = FormClassGroup(-4, 5)
    small = FormClassGroup(-4, 1)
    mapping, cert = norm_map(big, small)
    assert cert["pass"], cert
    assert cert["kernel_order"] == 2 == cert["degree"]


def test_norm_map_sampled_towers():
    towers = [(-4, 1, 5), (-4, 1, 13), (-3, 1, 7), (-7, 1, 2), (-8, 1, 3),
              (-4, 3, 5), (-3, 2, 5), (-20, 1, 3), (-23, 1, 2), (-7, 2, 11)]
    for d_E, m, ell in towers:
        if kronecker(d_E, ell) != 1:
            continue
        step, small, big = TowerStep.build(d_E, m, ell)
        mapping, cert = norm_map(big, small)
        assert cert["pass"], (d_E, m, ell, cert)
        assert cert["kernel_order"] == step.degree


def test_norm_map_composes_over_two_steps():
    # norm maps commute along a two-prime tower (-4): 65 = 5 * 13
    top = FormClassGroup(-4, 65)
    mid5 = FormClassGroup(-4, 13)
    mid13 = FormClassGroup(-4, 5)
    bot = FormClassGroup(-4, 1)
    m_a, c_a = norm_map(top, mid5)     # divide by 5
    m_b, c_b = norm_map(mid5, bot)     # divide by 13
    m_c, c_c = norm_map(top, mid13)    # divide by 13
    m_d, c_d = norm_map(mid13, bot)    # divide by 5
    assert all(c["pass"] for c in (c_a, c_b, c_c, c_d))
    for i in range(top.order):
        assert m_b[m_a[i]] == m_d[m_c[i]]


def test_frobenius_functorial_under_norm():
    # the norm map carries Frob_q at conductor 5m to Frob_q at conductor m
    big = FormClassGroup(-4, 5)
    small = FormClassGroup(-4, 1)
    mapping, cert = norm_map(big, small)
    for q in (13, 29, 37):
        fb = frobenius_class(big, q)
        fs = frobenius_class(small, q)
        assert small.labels[mapping[big.index[fb]]] == fs


def test_character_group_trivial():
    cl = FormClassGroup(-4, 1)
    k, chars = character_group(cl)
    assert k == 1 and chars == [(0,)]


def test_character_group_z2():
    cl = FormClassGroup(-4, 5)
    k, chars = character_group(cl)
    assert k == 2 and len(chars) == 2
    vals = sorted(chi[1 - cl.identity] for chi in chars)
    assert vals == [0, 1]  # values +-1 as exponents of zeta_2
    for chi in chars:
        v = ExactScalar.zeta(3, k, chi[1])
        assert v == 1 or v == ExactScalar.from_rational(-1, 3)


def test_character_group_z4():
    # D = -156 = -39 * 2^2 has class group Z/4
    forms = reduced_forms(-156)
    assert len(forms) == 4
    cl = FormClassGroup(-39, 2)
    assert cl.order == 4
    assert cl.exponent == 4
    k, chars = character_group(cl)
    assert k == 4 and len(chars) == 4


@lru_cache(maxsize=None)
def _ring_class_groups(bound):
    """Every ring class group with |D| = |d_E| m^2 <= bound."""
    return tuple(
        FormClassGroup(d_E, m)
        for d_E in range(-3, -bound - 1, -1) if is_fundamental_discriminant(d_E)
        for m in range(1, isqrt(bound // -d_E) + 1)
    )


def test_class_group_table_matches_composition():
    # the table built from the generator columns against Gauss composition on
    # every pair, and the build's generators against the greedy definition
    groups = 0
    for cl in _ring_class_groups(2000):
        if -cl.discriminant > 1500:
            continue
        lab, index = cl.labels, cl.index
        for i, f in enumerate(lab):
            assert cl.inverse[i] == index[f.inverse()], cl.name
            assert cl.table[i] == tuple(index[compose(f, g)] for g in lab), cl.name
        gens, H = [], {cl.identity}
        while len(H) < cl.order:
            gens.append(min(set(cl.elements) - H))
            H = cl.generate(gens)
        assert cl.generators() == gens, cl.name
        groups += 1
    assert groups == 750


def test_character_group_matches_search():
    # same characters in the same order as the exhaustive exponent search
    groups = 0
    for cl in _ring_class_groups(2000):
        k, chars = character_group(cl)
        assert k == cl.exponent
        assert all(0 <= e < k for chi in chars for e in chi)
        assert [list(chi) for chi in chars] == ref_character_group(cl), cl.name
        groups += 1
    assert groups == 1000


def test_character_group_orthogonal_in_scalars():
    checked = 0
    for cl in _ring_class_groups(2000):
        if cl.order <= 12:
            k, chars = character_group(cl)
            assert ref_characters_orthogonal(cl, k, chars), cl.name
            checked += 1
    assert checked > 500


def test_character_group_refuses_non_abelian_table():
    # Z/2 x S3 on five points: the cosets of <z>, then <z, c>, cover the group,
    # but the exponent lists built on them are not homomorphisms; z is central,
    # so only the check along the second generator c sees it
    elements = [p + q for p in permutations(range(3)) for q in ((3, 4), (4, 3))]
    G = FiniteGroup(elements, lambda p, q: tuple(p[i] for i in q), None, tuple(range(5)))
    z, c, t = (0, 1, 2, 4, 3), (1, 2, 0, 3, 4), (1, 0, 2, 3, 4)
    G.exponent, G.order = 6, len(G)
    G.generators = lambda: [G.index[z], G.index[c], G.index[t]]
    with pytest.raises(ArithmeticError, match="homomorphisms"):
        character_group(G)


def test_character_group_refuses_non_generating_set():
    cl = FormClassGroup(-39, 2)  # Z/4
    half = next(x for x in cl.elements if cl.element_order(x) == 2)
    cl.generators = lambda: [half]
    with pytest.raises(ArithmeticError, match="generate"):
        character_group(cl)


def test_class_number_sweep_small():
    rep = class_number_formula_sweep(2000)
    assert rep["pass"], rep
    assert rep["cases_checked"] == 1000


def test_class_number_table_matches_triple_loop_small():
    for bound in range(3, 301):
        assert class_number_table(bound) == ref_class_number_table(bound), bound


@pytest.mark.parametrize("bound", [2000, 10 ** 4, 10200])
def test_class_number_table_matches_triple_loop(bound):
    assert class_number_table(bound) == ref_class_number_table(bound)


def test_class_number_table_matches_triple_loop_at_random_bounds():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(3, 5000))
    def check(bound):
        assert class_number_table(bound) == ref_class_number_table(bound)

    check()


def test_fundamental_discriminants_match_the_single_test():
    bound = 10 ** 4
    want = [d for d in range(-3, -bound - 1, -1) if is_fundamental_discriminant(d)]
    assert fundamental_discriminants(bound) == want


# sha256 of json.dumps(certificate, sort_keys=True), written by the
# triple-by-triple table and the per-d fundamental test
SWEEP_DIGESTS = {
    2000: (1000, "b269a9a9764aebd0535b4a1e38bd034b6d0601e092dcf0c0c3c30c1ab9cc8b6a"),
    10 ** 4: (5000, "36608aa6d854b72fdad246dd34c63a73349a6eefb8ad757597c9bb3e0adc2ad8"),
    10 ** 5: (50000, "af5b0453147fbf8b8e8241db6f39d1fc71dd76c74498e5b234db76a2a1c26dfe"),
}


@pytest.mark.parametrize("bound", sorted(SWEEP_DIGESTS))
def test_class_number_sweep_certificate_digest(bound):
    rep = class_number_formula_sweep(bound)
    cases, digest = SWEEP_DIGESTS[bound]
    assert rep["pass"] and rep["cases_checked"] == cases
    assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() == digest


@pytest.mark.parametrize("bound", [2, 0, -5])
def test_class_number_sweep_refuses_empty_range(bound):
    # d_E = -3 is the first case, so a bound below 3 would pass on zero cases
    with pytest.raises(ValueError):
        class_number_formula_sweep(bound)


def test_class_number_sweep_refuses_beyond_cap(monkeypatch):
    # 10^6 ran for about 40 s; it is refused before the sieve is built
    def unreachable(bound):
        raise AssertionError("the sieve ran past the cap")

    monkeypatch.setattr(classfield, "class_number_table", unreachable)
    with pytest.raises(BoundExceeded, match="exceeds 100000"):
        class_number_formula_sweep(10 ** 5 + 1)
    with pytest.raises(BoundExceeded):
        class_number_formula_sweep(10 ** 6)


def test_class_number_sweep_smallest_bound():
    rep = class_number_formula_sweep(3)
    assert rep["pass"] and rep["cases_checked"] == 1


def test_structure_and_json():
    cl = FormClassGroup(-4, 5)
    d = cl.to_json_dict()
    assert d["order"] == 2
    assert d["structure"] == [2]
    assert "geometric Frobenius" in d["frobenius_orientation"]


def _oracle_orders(cl):
    """Order of every class, from powers taken by ideal multiplication.

    Walking the powers f, f^2, ..., f^o = 1 of one form also gives the order
    o / gcd(j, o) of each power f^j, so each cyclic subgroup is walked once.
    """
    e = principal_form(cl.discriminant)
    orders = {}
    for f in cl.labels:
        if f in orders:
            continue
        powers = [f]
        while powers[-1] != e:
            powers.append(ideal_product_form(powers[-1], f, cl.d_E, cl.conductor))
        o = len(powers)
        for j, g in enumerate(powers, 1):
            orders[g] = o // gcd(j, o)
    return [orders[f] for f in cl.labels]


def test_structure_counts_match_ideal_oracle():
    # #{x : x^k = 1} = prod gcd(k, d_i) for every k | h pins the invariant
    # factors d_i down; checked on every ring class group with |D| <= 5000
    groups = 0
    for d_E in range(-3, -5001, -1):
        if not is_fundamental_discriminant(d_E):
            continue
        m = 1
        while -d_E * m * m <= 5000:
            cl = FormClassGroup(d_E, m)
            structure = cl.structure()
            h = cl.order
            assert all(d > 1 for d in structure)
            assert all(a % b == 0 for a, b in zip(structure, structure[1:]))
            assert prod(structure) == h
            orders = _oracle_orders(cl)
            for k in range(1, h + 1):
                if h % k == 0:
                    count = sum(1 for o in orders if k % o == 0)
                    assert count == prod(gcd(k, d) for d in structure), (d_E, m, k)
            groups += 1
            m += 1
    assert groups > 1500
