"""Ring class groups of imaginary quadratic orders via binary quadratic forms.

Classes of primitive reduced forms of discriminant d_E m^2 realise
Pic(O_m) = Gal(E[m]/E).  The group law is Gauss composition; the tests
cross-check it against composition by ideal multiplication, an oracle of
their own.  The norm map between conductors extends ideals
(`ideal_extension_form`): the ideal of a form, as a 2 x 2 HNF in the maximal
order's coordinates (1, omega_E), times the smaller order, read back as a
reduced form.

Orientation: the prime form at a split prime ell represents Art_0(ell), the
GEOMETRIC Frobenius; arithmetic Frobenius is its inverse class.  Every
certificate names the orientation explicitly.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import gcd, isqrt, lcm

from . import trc
from .fingroup import FiniteGroup
from .matrices import BoundExceeded, hnf_rows, is_prime

MAX_DISC = 10 ** 6  # largest |D| = |d_E| m^2 of a ring class group
MAX_SWEEP = 10 ** 5  # largest bound of the class-number formula sweep


def kronecker(d, p):
    """Kronecker symbol (d | p) for prime p."""
    if p == 2:
        if d % 2 == 0:
            return 0
        return 1 if d % 8 in (1, 7) else -1
    d %= p
    if d == 0:
        return 0
    return 1 if pow(d, (p - 1) // 2, p) == 1 else -1


def _fundamental_radicand(d):
    """The n > 0 with d < 0 fundamental iff n is squarefree, else 0: n = -d
    for d = 1 (mod 4), n = -d/4 for d = 4k with k = 2, 3 (mod 4)."""
    if d >= 0:
        return 0
    if d % 4 == 1:
        return -d
    if d % 16 in (8, 12):
        return -d // 4
    return 0


def is_fundamental_discriminant(d):
    n = _fundamental_radicand(d)
    return n > 0 and _squarefree(n)


def _squarefree(n):
    i = 2
    while i * i <= n:
        if n % (i * i) == 0:
            return False
        i += 1
    return True


@dataclass(frozen=True, order=True)
class QuadForm:
    """A primitive positive definite binary quadratic form a x^2 + b xy + c y^2."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.discriminant() >= 0:
            raise ValueError("discriminant must be negative")
        if self.a <= 0:
            raise ValueError("need a > 0")
        if gcd(gcd(self.a, self.b), self.c) != 1:
            raise ValueError("form must be primitive")

    def discriminant(self):
        return self.b * self.b - 4 * self.a * self.c

    def inverse(self):
        return reduce_form(QuadForm(self.a, -self.b, self.c))

    def as_tuple(self):
        return (self.a, self.b, self.c)


def principal_form(D):
    k = D % 2
    return QuadForm(1, k, (k * k - D) // 4)


def reduce_form(f):
    """The canonical reduced representative of the class of f."""
    a, b, c = f.a, f.b, f.c
    D = f.discriminant()
    while True:
        # normalise b into (-a, a]
        r = b % (2 * a)
        if r > a:
            r -= 2 * a
        if r != b:
            b = r
            c = (b * b - D) // (4 * a)
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        break
    return QuadForm(a, b, c)


def _solve_linear_mod(a, b, m):
    """Smallest x >= 0 with a x = b (mod m); requires gcd(a, m) | b."""
    g = gcd(a, m)
    if b % g:
        raise ValueError("congruence has no solution")
    mg = m // g
    x = (b // g) * pow((a // g) % mg, -1, mg) % mg if mg > 1 else 0
    return x, mg


def compose(f, g):
    """Gauss composition of two forms of the same discriminant (reduced output)."""
    if f.discriminant() != g.discriminant():
        raise ValueError("forms must share a discriminant")
    a1, b1, c1 = f.as_tuple()
    a2, b2, c2 = g.as_tuple()
    s = (b1 + b2) // 2
    h = (b2 - b1) // 2
    w = gcd(gcd(a1, a2), s)
    j = w
    sA = a1 // w
    t = a2 // w
    u = s // w
    # mu solves t u mu = h u + sA c1 (mod sA t); then lift along the modulus
    mu, mod1 = _solve_linear_mod(t * u, h * u + sA * c1, sA * t)
    if sA > 1:
        lam, _ = _solve_linear_mod((t * mod1) % sA, (h - t * mu) % sA, sA)
    else:
        lam = 0
    k = mu + mod1 * lam
    l = (k * t - h) // sA
    m_ = (t * u * k - h * u - c1 * sA) // (sA * t)
    A = sA * t
    B = j * u - (k * t + l * sA)
    C = k * l - j * m_
    return reduce_form(QuadForm(A, B, C))


def reduced_forms(D):
    """All primitive reduced forms of discriminant D < 0."""
    out = []
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            out.append(QuadForm(a, b, c))
        a += 1
    return sorted(out)


# ---------------------------------------------------------------------------
# ideal arithmetic in the coordinates of the maximal order

def _omega_mult_table(d_E):
    """omega^2 = t1 omega + t2 for omega = (sigma + sqrt d_E)/2, sigma = d_E mod 2."""
    if d_E % 4 == 1:
        return 1, (d_E - 1) // 4
    assert d_E % 4 == 0
    return 0, d_E // 4


def _elt_mul(x, y, d_E):
    """(x0 + x1 w)(y0 + y1 w) in basis (1, w)."""
    t1, t2 = _omega_mult_table(d_E)
    a0, a1 = x
    b0, b1 = y
    return (a0 * b0 + t2 * a1 * b1, a0 * b1 + a1 * b0 + t1 * a1 * b1)


def form_to_ideal(f, d_E, cond):
    """Z-basis of the O_cond-ideal of f in the (1, omega_E) coordinates.

    The ideal is a Z + ((-b - cond sigma)/2 + cond omega_E) Z for a form
    (a, b, c) of discriminant d_E cond^2.
    """
    sigma = abs(d_E) % 2
    e = (-f.b - cond * sigma) // 2
    return [(f.a, 0), (e, cond)]


def _ideal_hnf(gens):
    """Canonical rows [[x, 0], [e, d]] with columns ordered (1-part, omega-part)."""
    rows = [(g[1], g[0]) for g in gens]  # put the omega column first for HNF
    H = hnf_rows(rows)
    # H = [[d, e], [0, x]] in (omega, 1) columns
    d, e = H[0][0], H[0][1]
    x = H[1][1]
    e %= x
    return x, e, d


def _ideal_to_form(gens, d_E, cond):
    x, e, d = _ideal_hnf(gens)
    # a proper O_cond-module has omega-content d divisible by the integer
    # content g; dividing by g leaves omega-part exactly cond
    gcont = d // cond
    if gcont * cond != d or x % gcont or e % gcont:
        raise ArithmeticError("ideal is not projective over the order")
    x //= gcont
    e //= gcont
    sigma = abs(d_E) % 2
    b = -(2 * e + cond * sigma)
    D = d_E * cond * cond
    b %= 2 * x
    c4 = b * b - D
    assert c4 % (4 * x) == 0
    return reduce_form(QuadForm(x, b, c4 // (4 * x)))


def ideal_extension_form(f, d_E, cond_big, cond_small):
    """The class of I(f) O_small in Pic(O_small): the conductor-lowering map."""
    I = form_to_ideal(f, d_E, cond_big)
    # O_small = Z + cond_small omega Z
    omega_s = [(0, cond_small), (1, 0)]
    gens = [_elt_mul(x, y, d_E) for x in I for y in omega_s]
    return _ideal_to_form(gens, d_E, cond_small)


# ---------------------------------------------------------------------------
# the class group object

class FormClassGroup(FiniteGroup):
    """Pic(O_m) for an imaginary quadratic order, on its reduced forms.

    The classes are the reduced forms in (a, b, c) order: `labels[i]` is the
    form of class i, `index` maps a reduced form to its class, and the group
    law is a lookup in the Cayley table of Gauss composition.
    """

    def __init__(self, d_E, conductor):
        if not is_fundamental_discriminant(d_E):
            raise ValueError(f"{d_E} is not a fundamental discriminant < 0")
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        D = d_E * conductor * conductor
        if -D > MAX_DISC:
            raise ValueError(f"|D| = {-D} exceeds the bound {MAX_DISC}")
        self.d_E = d_E
        self.conductor = conductor
        self.discriminant = D
        super().__init__(reduced_forms(D), compose, QuadForm.inverse, principal_form(D),
                         f"Pic(D={D})")

    @property
    def order(self):
        return len(self)

    def element_order(self, i):
        k = 1
        cur = i
        while cur != self.identity:
            cur = self.table[cur][i]
            k += 1
        return k

    @cached_property
    def element_orders(self):
        """The order of every class in index order, walked once per group."""
        return [self.element_order(i) for i in self.elements]

    @property
    def exponent(self):
        return lcm(*self.element_orders)

    def class_number_formula_certificate(self):
        """h(O_m) = h(d_E) m prod_{p | m} (1 - (d_E|p)/p) / [O_E^* : O_m^*]."""
        num, den = _class_number_formula(self.d_E, self.conductor,
                                         len(reduced_forms(self.d_E)))
        expected, rem = divmod(num, den)
        return {
            "identity": "class_number_formula",
            "d_E": self.d_E, "conductor": self.conductor,
            "discriminant": self.discriminant,
            "enumerated": self.order, "formula": expected if rem == 0 else f"{num}/{den}",
            "pass": rem == 0 and expected == self.order,
        }

    def structure(self):
        """The invariant factors d_1, d_2, ... with d_(i+1) | d_i ([] if trivial).

        For each prime p | h the counts n_j = #{x : x^(p^j) = 1} give the
        number of cyclic p-factors of order >= p^j as log_p(n_j / n_(j-1)).
        """
        orders = self.element_orders
        factors = []
        for p in _prime_divisors(self.order):
            ranks = []  # ranks[j - 1] = number of cyclic p-factors of order >= p^j
            below, q = 1, p
            while True:
                n = sum(1 for o in orders if q % o == 0)
                if n == below:
                    break
                r, ratio = 0, n // below
                while ratio > 1:
                    ratio //= p
                    r += 1
                ranks.append(r)
                below, q = n, q * p
            factors += [1] * (ranks[0] - len(factors))
            for i in range(ranks[0]):
                factors[i] *= p ** sum(1 for r in ranks if r > i)
        return factors

    def to_json_dict(self):
        return {
            "d_E": self.d_E,
            "conductor": self.conductor,
            "discriminant": self.discriminant,
            "order": self.order,
            "forms": [list(f.as_tuple()) for f in self.labels],
            "structure": self.structure(),
            "class_number_certificate": self.class_number_formula_certificate(),
            "frobenius_orientation": "prime form = Art0(ell) = geometric Frobenius",
        }


def _prime_divisors(n):
    out, p = [], 2
    while n > 1:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out


def _class_number_formula(d_E, m, h_fund):
    """(num, den) with h(d_E m^2) = num / den by the class-number formula."""
    num, den = h_fund * m, 1
    for p in _prime_divisors(m):
        num *= p - kronecker(d_E, p)
        den *= p
    if m > 1:
        den *= 3 if d_E == -3 else (2 if d_E == -4 else 1)
    return num, den


def frobenius_class(cl, ell):
    """The prime-form class at a split prime: the GEOMETRIC Frobenius Art0(ell).

    The arithmetic Frobenius is the inverse class.  Requires ell split in E
    (Kronecker (d_E | ell) = 1) and coprime to the conductor.
    """
    if not is_prime(ell):
        raise ValueError("ell must be prime")
    if kronecker(cl.d_E, ell) != 1:
        raise ValueError(f"{ell} is not split in the field of discriminant {cl.d_E}")
    if cl.conductor % ell == 0:
        raise ValueError("ell must not divide the conductor")
    D = cl.discriminant
    for b in range(2 * ell):
        if (b * b - D) % (4 * ell) == 0:
            f = reduce_form(QuadForm(ell, b, (b * b - D) // (4 * ell)))
            return f
    raise ArithmeticError("no prime form found (ell should be split)")


def norm_map(cl_big, cl_small):
    """The surjection Pic(O_{ell m}) -> Pic(O_m) by ideal extension, certified.

    Returns (mapping by indices, certificate with surjectivity, homomorphism
    and kernel-order checks; kernel order must equal h_big / h_small).
    """
    if cl_big.d_E != cl_small.d_E:
        raise ValueError("class groups must share the fundamental discriminant")
    ratio = cl_big.conductor // cl_small.conductor
    if (
        cl_small.conductor * ratio != cl_big.conductor
        or not is_prime(ratio)
    ):
        raise ValueError("conductors must differ by one prime")
    mapping = []
    for f in cl_big.labels:
        img = ideal_extension_form(f, cl_big.d_E, cl_big.conductor, cl_small.conductor)
        mapping.append(cl_small.index[img])
    # phi(1) = 1 and phi(x g) = phi(x) phi(g) for the generators g give
    # phi(x y) = phi(x) phi(y) by induction on the word length of y
    big, small, gens = cl_big.table, cl_small.table, cl_big.generators()
    hom = mapping[cl_big.identity] == cl_small.identity and all(
        mapping[big[i][g]] == small[mapping[i]][mapping[g]]
        for i in cl_big.elements
        for g in gens
    )
    surjective = set(mapping) == set(range(cl_small.order))
    kernel = [i for i in range(cl_big.order) if mapping[i] == cl_small.identity]
    deg_ok = cl_big.order % cl_small.order == 0
    degree = cl_big.order // cl_small.order if deg_ok else None
    ok = hom and surjective and deg_ok and len(kernel) == degree
    cert = {
        "identity": "norm_map",
        "d_E": cl_big.d_E,
        "conductors": [cl_big.conductor, cl_small.conductor],
        "homomorphism": hom,
        "surjective": surjective,
        "kernel_order": len(kernel),
        "degree": degree,
        "pass": ok,
    }
    return mapping, cert


@dataclass(frozen=True)
class TowerStep:
    """One split-prime step of the ring class tower, with the exact degree."""

    d_E: int
    m: int
    ell: int
    degree: int

    @staticmethod
    def build(d_E, m, ell):
        if m < 1:
            raise ValueError(f"conductor must be >= 1, got {m}")
        if not is_prime(ell):
            raise ValueError(f"ell must be prime, got {ell}")
        if kronecker(d_E, ell) != 1 or m % ell == 0:
            raise ValueError("ell must be split and coprime to the conductor")
        small = FormClassGroup(d_E, m)
        big = FormClassGroup(d_E, m * ell)
        if big.order % small.order:
            raise ArithmeticError("class numbers do not divide")
        return TowerStep(d_E, m, ell, big.order // small.order), small, big

    def to_json_dict(self):
        return {"d_E": self.d_E, "m": self.m, "ell": self.ell, "degree": self.degree}


# ---------------------------------------------------------------------------
# characters

def character_group(cl):
    """(k, rows): every character of cl valued in <zeta_k>, k the group
    exponent, as its tuple of exponents mod k in index order.

    Built along the greedy generators g_1, g_2, ... (Cohen, GTM 138, 2.4):
    with H = <g_1, ..., g_(i-1)> and d least with g^d in H for g = g_i, a
    character chi of H extends to <H, g> once for each a mod k with
    d a = chi(g^d), by chi(h g^j) = chi(h) + j a.  Extending every chi in
    increasing a orders the characters lexicographically by their values
    on (g_1, g_2, ...).  The result is checked exactly, in integers: the h
    exponent vectors are pairwise distinct and each satisfies
    e[x g] = e[x] + e[g] for every x and every generator g, so they are the
    whole dual group and orthogonality follows.
    """
    k = cl.exponent
    table = cl.table
    gens = cl.generators()
    chars = [{cl.identity: 0}]        # exponents on H, identity first
    for g in gens:
        layers = [list(chars[0])]     # H, Hg, ..., Hg^(d-1)
        while table[layers[-1][0]][g] not in chars[0]:
            layers.append([table[x][g] for x in layers[-1]])
        d, power = len(layers), table[layers[-1][0]][g]
        step = k // d
        chars = [
            {x: (chi[h] + j * a) % k
             for j, layer in enumerate(layers) for h, x in zip(layers[0], layer)}
            for chi in chars for a in range(chi[power] // d % step, k, step)
        ]
    if len(chars[0]) != cl.order:
        raise ArithmeticError("the generators do not generate the group")
    chars = [tuple(chi[x] for x in cl.elements) for chi in chars]
    if len(set(chars)) != cl.order or any(
        chi[table[x][g]] != (chi[x] + chi[g]) % k
        for chi in chars for g in gens for x in cl.elements
    ):
        raise ArithmeticError("characters are not distinct homomorphisms")
    return k, chars


# ---------------------------------------------------------------------------
# the batched class-number sweep (for the acceptance criterion)

def class_number_table(bound):
    """h(D) for every discriminant 0 > D >= -bound, counting the primitive
    reduced triples (a, b, c).

    For fixed (a, b) the reduced triples have a + (b < 0) <= c <= cmax with
    b^2 - 4 a cmax >= -bound, and gcd(a, b, c) = gcd(g, c) for g = gcd(a, b).
    So the discriminants of the primitive ones are one arithmetic progression
    of step 4 a g for each residue r mod g prime to g, and `Counter` counts
    each progression, a `range`, in C."""
    def progressions():
        a = 1
        while 3 * a * a <= bound:
            for b in range(-a + 1, a + 1):
                g = gcd(a, b)
                c0 = a + (b < 0)
                stop = b * b - 4 * a * ((b * b + bound) // (4 * a)) - 1
                for r in range(g):
                    if gcd(r, g) == 1:
                        c = c0 + (r - c0) % g
                        yield range(b * b - 4 * a * c, stop, -4 * a * g)
            a += 1

    return Counter(chain.from_iterable(progressions()))


def fundamental_discriminants(bound):
    """Every fundamental discriminant 0 > d >= -bound, in decreasing order,
    read off one squarefree sieve up to bound."""
    squarefree = bytearray([0]) + bytearray([1]) * bound  # 0: d of no fundamental shape
    for i in range(2, isqrt(bound) + 1):
        squarefree[i * i::i * i] = bytes(bound // (i * i))
    return [d for d in range(-3, -bound - 1, -1)
            if squarefree[_fundamental_radicand(d)]]


def class_number_formula_sweep(bound):
    """Check enumerated h(d_E m^2) against the class-number formula for all
    fundamental d_E and conductors m with |d_E| m^2 <= bound.

    The smallest case is d_E = -3, so a bound below 3 checks nothing and is
    refused, as is a bound above MAX_SWEEP, before the sieve."""
    if bound < 3:
        raise ValueError(f"bound must be >= 3, got {bound}")
    if bound > MAX_SWEEP:
        raise BoundExceeded(f"sweep bound {bound} exceeds {MAX_SWEEP}")
    table = class_number_table(bound)
    checked = 0
    failure = None
    for d in fundamental_discriminants(bound):
        h_fund = table.get(d, 0)
        m = 1
        while -d * m * m <= bound:
            num, den = _class_number_formula(d, m, h_fund)
            expected, rem = divmod(num, den)
            got = table.get(d * m * m, 0)
            if failure is None and (rem != 0 or expected != got):
                failure = {"d_E": d, "m": m, "enumerated": got, "formula": f"{num}/{den}"}
            checked += 1
            m += 1
    return trc.check("class_number_formula_sweep", failure is None, failure,
                     cases=checked, bound=bound)
