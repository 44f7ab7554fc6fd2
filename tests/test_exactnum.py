import random

import pytest
from fractions import Fraction

from tamenorm import exactnum
from tamenorm.exactnum import (
    MAX_ORDER,
    ExactScalar,
    NotInvertibleError,
    Poly,
    cyclotomic_poly,
)

from oracles import RefScalar, ref_poly_add, ref_poly_mul


def rat(q, ell=5, k=1):
    return ExactScalar.from_rational(q, ell, k)


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_defining_relation_s():
    s = ExactScalar.sqrt_ell(5)
    assert s * s == 5


def test_zeta4_relations():
    # z * z^3 = z^4 = 1, and z^3 reduces to -z since Phi_4 = z^2 + 1
    z = ExactScalar.zeta(2, 4)
    z3 = z ** 3
    assert z3 == -z
    assert z * z3 == 1


def test_derived_inverse_square_identity():
    # hand expansion: (1 - 1/s)^2 = 1 - 2/s + 1/5 = (6 - 2s)/5 over ell = 5
    s = ExactScalar.sqrt_ell(5)
    lhs = (rat(1) - s.inverse()) ** 2
    rhs = (rat(6) - rat(2) * s) * rat(Fraction(1, 5))
    assert lhs == rhs
    assert lhs.serialize() == "6/5 - 2/5*s"


def test_conj_is_inverse_on_roots_of_unity():
    z = ExactScalar.zeta(2, 4)
    assert z.conj() == -z          # zeta_4^{-1} = zeta_4^3 = -zeta_4
    s = ExactScalar.sqrt_ell(7)
    assert s.conj() == s           # s is fixed


def test_conj_norm_phi3():
    # (1 + z) conj(1 + z) = 2 + z + z^2 = 1 because z + z^2 = -1 for Phi_3
    z = ExactScalar.zeta(3, 3)
    a = rat(1, ell=3, k=3) + z
    assert a * a.conj() == 1


def test_cross_order_lift():
    # zeta_6^3 = -1 agrees with the rational -1 viewed at order 1
    z6 = ExactScalar.zeta(5, 6)
    assert z6 ** 3 == rat(-1)
    # zeta_6^2 = zeta_3
    assert z6 ** 2 == ExactScalar.zeta(5, 3)


def test_mixed_order_arithmetic_lifts_to_lcm():
    z3 = ExactScalar.zeta(5, 3)
    z4 = ExactScalar.zeta(5, 4)
    w = z3 * z4
    assert w.k == 12
    assert w == ExactScalar.zeta(5, 12, 7)  # zeta_3 zeta_4 = zeta_12^{4+3}


def test_non_unit_inversion_reported():
    # In Q(zeta_5) with ell = 5, s - ... can be a zero divisor; build one:
    # z + z^2 + z^3 + z^4 = -1, so 1 + z + z^2 + z^3 + z^4 = 0 exhibits
    # a vanishing sum; any nonzero zero-divisor must refuse inversion.
    # (sqrt 5 lies in Q(zeta_5): (2(z+z^4)+1)^2 = 5.)
    z = ExactScalar.zeta(5, 5)
    u = rat(2, k=5) * (z + z ** 4) + rat(1, k=5)
    s = ExactScalar.sqrt_ell(5)
    assert u * u == 5
    zero_divisor = u - s
    assert not zero_divisor.is_zero()
    assert (zero_divisor * (u + s)).is_zero()
    with pytest.raises(NotInvertibleError):
        zero_divisor.inverse()


def test_zero_inversion_reported():
    with pytest.raises(NotInvertibleError):
        rat(0).inverse()


@pytest.mark.parametrize("ell,k", [(2, 1), (3, 4), (5, 3), (7, 6), (2, 12)])
def test_ring_axioms_randomized(ell, k):
    rng = random.Random(20240 + ell * 17 + k)
    d = len(cyclotomic_poly(k)) - 1

    def rand_scalar():
        num = [rng.randint(-6, 6) for _ in range(2 * d)]
        return ExactScalar(ell, k, num, rng.randint(1, 5))

    for _ in range(40):
        a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


@pytest.mark.parametrize("ell,k", [(2, 3), (5, 4), (7, 6)])
def test_units_invert_exactly(ell, k):
    rng = random.Random(7 + ell + k)
    d = len(cyclotomic_poly(k)) - 1
    found = 0
    while found < 15:
        num = [rng.randint(-4, 4) for _ in range(2 * d)]
        a = ExactScalar(ell, k, num, rng.randint(1, 3))
        if a.is_zero():
            continue
        try:
            inv = a.inverse()
        except NotInvertibleError:
            continue
        assert a * inv == 1
        found += 1


@pytest.mark.parametrize("ell,k", [(2, 4), (3, 3), (5, 6), (5, 12)])
def test_conj_is_ring_involution(ell, k):
    rng = random.Random(91 + ell * k)
    d = len(cyclotomic_poly(k)) - 1

    def rand_scalar():
        return ExactScalar(ell, k, [rng.randint(-5, 5) for _ in range(2 * d)], rng.randint(1, 4))

    for _ in range(30):
        a, b = rand_scalar(), rand_scalar()
        assert a.conj().conj() == a
        assert (a + b).conj() == a.conj() + b.conj()
        assert (a * b).conj() == a.conj() * b.conj()


def test_serialization_is_canonical():
    s = ExactScalar.sqrt_ell(5)
    z = ExactScalar.zeta(5, 4)
    val = rat(Fraction(1, 2), k=4) + s * z
    assert val.serialize() == "1/2 + 1*s*z"
    assert rat(0).serialize() == "0"


def test_poly_eval_trivial_and_derived():
    ell = 5
    one = rat(1)
    s = ExactScalar.sqrt_ell(ell)
    # P(X) = 1 - X at 1 -> 0
    P = Poly([one, -one])
    assert P.eval(one).is_zero()
    # P(X) = (1 - sX)^2 at X = 1/5 -> (6 - 2s)/5, same expansion as above
    Q = ref_poly_mul(Poly([one, -s]), Poly([one, -s]))
    val = Q.eval(rat(Fraction(1, 5)))
    assert val == (rat(6) - rat(2) * s) / rat(5)
    # any P at 0 -> constant term
    assert Q.eval(rat(0)) == Q.coeffs[0]
    # evaluation is additive
    x = ExactScalar.zeta(ell, 6)
    assert ref_poly_add(P, Q).eval(x) == P.eval(x) + Q.eval(x)


def test_poly_degree_trimming():
    z = rat(0)
    P = Poly([rat(3), rat(1), z])
    assert P.degree == 1
    assert Poly([z]).degree == -1


def test_public_constructor_rejects_zero_denominator():
    with pytest.raises(ValueError):
        ExactScalar(5, 1, (3, 0), 0)


def test_public_constructor_rejects_non_integers():
    with pytest.raises(ValueError):
        ExactScalar(5, 1, (1.5, 0))
    with pytest.raises(ValueError):
        ExactScalar(5, 1, (1, 0), 2.0)


@pytest.mark.parametrize("bad", [0.1, 1.0, "1/3", None, 1j])
def test_operands_other_than_rationals_are_refused(bad):
    one = rat(1)
    for op in (lambda: one * bad, lambda: bad * one, lambda: one + bad,
               lambda: bad + one, lambda: one - bad, lambda: bad - one,
               lambda: one / bad, lambda: bad / one):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(TypeError):
        ExactScalar.from_rational(bad, 5)


@pytest.mark.parametrize("bad", [0.1, 1.0, 1j, float("nan")])
def test_comparison_with_a_non_rational_number_is_refused(bad):
    # as in arithmetic: 1 == 1.0 would otherwise be silently False
    one = rat(1, k=3)
    for op in (lambda: one == bad, lambda: one != bad, lambda: bad == one,
               lambda: bad != one):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("other", ["1", None, (1,), object()])
def test_comparison_with_a_non_number_is_false(other):
    one = rat(1)
    assert not one == other and one != other
    assert not other == one and other != one
    assert one == 1 and one == Fraction(2, 2) and one == rat(1, k=4)


def test_int_bool_and_fraction_operands_are_exact():
    one = rat(1)
    assert (one * Fraction(1, 3)).serialize() == "1/3"
    assert (Fraction(1, 3) + one).serialize() == "4/3"
    assert (2 / ExactScalar.sqrt_ell(5)).serialize() == "2/5*s"
    assert (one + True).serialize() == "2"
    assert ExactScalar.from_rational(Fraction(-2, 6), 5).serialize() == "-1/3"


@pytest.mark.parametrize("k", [0, -3])
def test_zeta_rejects_orders_below_one(k):
    with pytest.raises(ValueError):
        ExactScalar.zeta(5, k, 1)


def test_orders_above_the_bound_are_refused():
    with pytest.raises(ValueError):
        ExactScalar.zeta(5, MAX_ORDER + 1, 1)
    with pytest.raises(ValueError):
        ExactScalar.zeta(5, 100000, 1)
    # the common order of two operands is bounded too: lcm(500, 3) > MAX_ORDER
    with pytest.raises(ValueError):
        ExactScalar.zeta(5, 500) * ExactScalar.zeta(5, 3)


# -- cross-checks against independent references ------------------------------

ORDERS = (1, 2, 3, 4, 6, 12)


def _random_num(rng, d):
    """A coefficient vector: zero, rational, in Q(s), or general, with zeros
    and negative entries."""
    shape = rng.choice(("zero", "rational", "sqrt", "general", "general"))
    num = [0] * (2 * d)
    if shape == "general":
        num = [rng.choice((0, rng.randint(-9, 9))) for _ in range(2 * d)]
    elif shape != "zero":
        num[0] = rng.randint(-9, 9)
        if shape == "sqrt":
            num[d] = rng.choice((-1, 1)) * rng.randint(1, 9)
    return num


def _pair(rng, ell, k):
    """The same random value as (ExactScalar, RefScalar)."""
    num = _random_num(rng, len(cyclotomic_poly(k)) - 1)
    den = rng.choice((1, 1, rng.randint(2, 12)))
    return ExactScalar(ell, k, num, den), RefScalar(ell, k, num, den)


def _same(x, r):
    """Same order and the same canonical representation and text."""
    assert isinstance(x, ExactScalar)
    assert (x.k, x.num, x.den) == (r.k, r.num, r.den)
    assert x.serialize() == r.serialize()


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_kernel_matches_reference_arithmetic(ell):
    rng = random.Random(4100 + ell)
    for ka in ORDERS:
        for kb in ORDERS:  # every ordered pair: order-1 operands on either side
            for _ in range(2):
                (a, ra), (b, rb) = _pair(rng, ell, ka), _pair(rng, ell, kb)
                _same(a + b, ra + rb)
                _same(a - b, ra - rb)
                _same(b - a, rb - ra)
                _same(a * b, ra * rb)
                _same(b * a, rb * ra)
                _same(-a, -ra)
                _same(a.conj(), ra.conj())
                assert (a == b) == (ra == rb)
                assert a == a.lift(12) and a.lift(12) == a
                _same(a.lift(12), ra.lift(12))
                try:
                    want = ra / rb
                except ZeroDivisionError:
                    with pytest.raises(NotInvertibleError):
                        a / b
                else:
                    _same(a / b, want)
                    _same(b.inverse(), rb.inverse())
                    _same(b ** -2, rb ** -2)
                _same(a ** 3, ra ** 3)
                _same(a ** 0, ra ** 0)
                q = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                _same(a + q, ra + q)
                _same(q + a, q + ra)
                _same(a - q, ra - q)
                _same(q - a, q - ra)
                _same(a * q, ra * q)
                _same(q * a, q * ra)
                assert (a == q) == (ra == q)
                if q:
                    _same(a / q, ra / q)


def test_kernel_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(314)

    def to_sympy(a):
        d = a.d
        z = sympy.cos(2 * sympy.pi / a.k) + sympy.I * sympy.sin(2 * sympy.pi / a.k)
        s = sympy.sqrt(a.ell)
        return sum(sympy.Rational(a.num[i * d + j], a.den) * s ** i * z ** j
                   for i in (0, 1) for j in range(d))

    def is_zero(e):
        e = sympy.expand(e)
        return e == 0 or sympy.minimal_polynomial(e, x) == x

    def element(ell, k):
        while True:
            a, _ = _pair(rng, ell, k)
            if not a.is_zero():
                return a

    for _ in range(15):  # 30 random elements
        ell = rng.choice((2, 3, 5, 7))
        a, b = element(ell, rng.choice(ORDERS)), element(ell, rng.choice(ORDERS))
        sa, sb = to_sympy(a), to_sympy(b)
        assert is_zero(to_sympy(a * b) - sa * sb)
        assert is_zero(to_sympy(a + b) - (sa + sb))
        try:
            inv = a.inverse()
        except NotInvertibleError:
            continue
        assert is_zero(to_sympy(inv) * sa - 1)


MONOMIAL_ORDERS = (3, 4, 5, 6, 8, 10, 12)


def _monomials(rng, ell, k):
    """c s^i z^j / den for every j < deg Phi_k and i in {0, 1}, with negative
    c and den > 1 among them, as (ExactScalar, RefScalar) pairs."""
    d = len(cyclotomic_poly(k)) - 1
    for i in (0, 1):
        for j in range(d):
            num = [0] * (2 * d)
            num[i * d + j] = (-1) ** j * rng.randint(1, 9)
            den = rng.randint(2, 12) if (i + j) % 2 else 1
            yield ExactScalar(ell, k, num, den), RefScalar(ell, k, num, den)


@pytest.fixture
def monomial_calls(monkeypatch):
    """The orders of the monomials that took the monomial product path."""
    calls = []
    real = exactnum._mul_monomial
    monkeypatch.setattr(exactnum, "_mul_monomial",
                        lambda a, m: calls.append(m.k) or real(a, m))
    return calls


def test_monomial_products_match_reference(monomial_calls):
    # a monomial of order k times operands at every multiple order K <= 60,
    # on both sides; the spy shows the monomial path ran
    rng = random.Random(1717)
    for k in MONOMIAL_ORDERS:
        ell = rng.choice((2, 3, 5, 7))
        monomials = list(_monomials(rng, ell, k))
        for K in range(k, 61, k):
            d = len(cyclotomic_poly(K)) - 1
            num, den = [rng.randint(-9, 9) for _ in range(2 * d)], rng.randint(1, 6)
            a, ra = ExactScalar(ell, K, num, den), RefScalar(ell, K, num, den)
            zero, rzero = ExactScalar.zero(ell, K), RefScalar.from_rational(0, ell, K)
            for m, rm in monomials:
                for x, rx in ((a, ra), (zero, rzero)):
                    before = len(monomial_calls)
                    _same(x * m, rx * rm)
                    _same(m * x, rm * rx)
                    assert len(monomial_calls) == before + 2


def test_multi_term_roots_take_the_generic_product(monomial_calls):
    # zeta_k^e with e >= deg Phi_k times an operand with no zero coefficient:
    # the monomial path only when the residue is one term (zeta_4^2 = -1),
    # otherwise (zeta_3^2 = -1 - z) the generic product
    rng = random.Random(1718)
    generic = 0
    for k in MONOMIAL_ORDERS:
        ell = rng.choice((2, 3, 5, 7))
        d = len(cyclotomic_poly(k)) - 1
        for e in range(d, k):
            z = ExactScalar.zeta(ell, k, e)
            rz = RefScalar(ell, k, z.num, z.den)
            one_term = sum(1 for c in z.num if c) == 1
            generic += not one_term
            for K in (k, 2 * k, 5 * k):
                dK = len(cyclotomic_poly(K)) - 1
                num = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(2 * dK)]
                den = rng.randint(1, 6)
                a, ra = ExactScalar(ell, K, num, den), RefScalar(ell, K, num, den)
                before = len(monomial_calls)
                _same(a * z, ra * rz)
                _same(z * a, rz * ra)
                assert len(monomial_calls) - before == (2 if one_term else 0)
    assert generic > 0


@pytest.mark.parametrize("k", [5, 7, 97])
def test_prime_orders_match_reference(k, monomial_calls):
    # at a prime order 2 deg Phi_k - 1 > k, so roots of unity, conjugation,
    # lifts to 3k and both products read the table rows at and above k
    rng = random.Random(2100 + k)
    ell = rng.choice((2, 3, 5, 7))
    d, K = k - 1, 3 * k
    assert K <= MAX_ORDER
    rz = RefScalar(ell, k, [0, 1] + [0] * (2 * d - 2))
    a, ra = _pair(rng, ell, k)
    num = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(2 * d)]
    dense, rdense = ExactScalar(ell, k, num, 7), RefScalar(ell, k, num, 7)
    b, rb = _pair(rng, ell, K)
    rpow = RefScalar.from_rational(1, ell, k)
    for e in range(k):
        z = ExactScalar.zeta(ell, k, e)
        _same(z, rpow)
        _same(ExactScalar.zeta(ell, k, e + k), rpow)
        _same(ExactScalar.zeta(ell, k, -e), rpow.conj())
        _same(z.conj(), rpow.conj())
        before = len(monomial_calls)
        _same(dense * z, rdense * rpow)  # the monomial path for e < d
        assert len(monomial_calls) - before == (e < d)
        if e % max(1, k // 8) == 0:
            _same(z.lift(K), rpow.lift(K))
            _same(b * z, rb * rpow)
        rpow = rpow * rz
    for x, rx in ((a, ra), (dense, rdense)):
        _same(x.conj(), rx.conj())
        _same(x.lift(K), rx.lift(K))
        _same(x * dense, rx * rdense)
        _same(x * b, rx * rb)


def test_products_by_every_root_build_one_table_per_order():
    # step 5 of the norm relation at h = 311 multiplies by every zeta_311^e:
    # the cached tables must not grow with the number of exponents
    def cached():
        return sum(f.cache_info().currsize for f in vars(exactnum).values()
                   if hasattr(f, "cache_info"))

    before = cached()
    k = 311
    num = [0] * (2 * (k - 1))
    num[0], num[5], num[k + 6] = 3, -2, 1  # 3 - 2 z^5 + s z^7
    a = ExactScalar(2, k, num)
    for e in range(k):
        a * ExactScalar.zeta(2, k, e)
    assert cached() - before <= 8


def test_monomial_product_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    ell, k, K = 3, 4, 12
    m = ExactScalar(ell, k, [0, 0, 0, -5], 3)  # -5/3 s z
    a = ExactScalar(ell, K, [1, -2, 0, 3, 4, 0, -1, 2], 5)

    def to_sympy(v):
        z = sympy.exp(2 * sympy.pi * sympy.I / v.k)
        return sum(sympy.Rational(v.num[i * v.d + j], v.den) * sympy.sqrt(ell) ** i * z ** j
                   for i in (0, 1) for j in range(v.d))

    diff = sympy.expand(to_sympy(a * m) - to_sympy(a) * to_sympy(m))
    assert diff == 0 or sympy.minimal_polynomial(diff, x) == x
