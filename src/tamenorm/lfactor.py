"""Exact local L-factor and Frobenius-polynomial bookkeeping.

Satake parameters are roots of unity (the desk-scale tempered shape), so
every identity lives in Q(sqrt(ell), zeta_k) and is decided exactly.  The
normalisation dictionary is fixed once: the Frobenius reciprocal roots are
beta_i = alpha_i ell^{(2n-1)/2}, so

    P_lambda(X) = prod (1 - alpha_i s^{2n-1} X),      s = sqrt(ell),
    P(X)        = P_lambda(ell^{-n} X) = prod (1 - alpha_i s^{-1} X),

and P(chi(ell)) is the inverse local L-value at the centre.  The group
algebra form of the tame relation decomposes P at a Frobenius class along
the characters of a ring class group with exact Fourier inversion; one level
up, along Gal(E[ell m]/E), each character is evaluated at the level-m
Frobenius or, when it is level-raising, at a generator of the norm kernel.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import classfield, trc
from .exactnum import ExactScalar, Poly
from .matrices import is_prime


@dataclass(frozen=True)
class SatakeParams:
    """Unitary-normalised Satake parameters: 2n roots of unity over prime ell."""

    n: int
    ell: int
    alpha: tuple

    def __post_init__(self):
        if self.n < 1 or not is_prime(self.ell):
            raise ValueError("need n >= 1 and ell prime")
        alpha = tuple(self.alpha)
        if len(alpha) != 2 * self.n:
            raise ValueError("need exactly 2n Satake parameters")
        for a in alpha:
            if a.ell != self.ell:
                raise ValueError("parameters must live over the context prime")
            if a * a.conj() != 1:
                raise ValueError("parameters must be unitary (alpha conj(alpha) = 1)")
        object.__setattr__(self, "alpha", alpha)

    @staticmethod
    def from_root_exponents(n, ell, pairs):
        """Parameters zeta_k^e from (e, k) pairs."""
        alpha = tuple(ExactScalar.zeta(ell, k, e) for e, k in pairs)
        return SatakeParams(n, ell, alpha)


@dataclass(frozen=True)
class FrobPoly:
    """P_lambda and its central twist P(X) = P_lambda(ell^{-n} X)."""

    n: int
    ell: int
    p_lambda: Poly
    p_central: Poly

    def __post_init__(self):
        for P in (self.p_lambda, self.p_central):
            if P.degree != 2 * self.n:
                raise ValueError("Frobenius polynomial must have degree exactly 2n")
            if P.coeffs[0] != 1:
                raise ValueError("Frobenius polynomial must have constant term 1")


@dataclass(frozen=True)
class CharacterValue:
    """chi(ell) for a finite-order unramified character: a k-th root of unity."""

    chi_ell: ExactScalar
    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.chi_ell ** self.order != 1:
            raise ValueError("chi(ell)^order must equal 1 exactly")

    @staticmethod
    def primitive(ell, k):
        return CharacterValue(ExactScalar.zeta(ell, k, 1), k)

    @staticmethod
    def trivial(ell):
        return CharacterValue(ExactScalar.one(ell), 1)


def frob_poly_from_satake(sp):
    """P(X) = prod (1 - alpha_i s^{-1} X) and P_lambda(X) = P(ell^n X).

    P is expanded one linear factor at a time, p_j <- p_j - c_i p_{j-1}.  As
    in the schoolbook product of the factors, a zero-valued coefficient
    contributes no term, so each coefficient's order is the lcm of the orders
    of its nonzero contributions only.
    """
    n, ell = sp.n, sp.ell
    zero, one = ExactScalar.zero(ell), ExactScalar.one(ell)
    s_inv = ExactScalar.sqrt_ell(ell) / ell  # s^{-1} = s / ell exactly
    coeffs = [one]
    for a in sp.alpha:
        c = a * s_inv
        padded = [p if p else zero for p in coeffs[1:]] + [zero]  # zeros drop out
        coeffs = [one] + [p - c * q if q else p for p, q in zip(padded, coeffs)]
    P_lam = Poly([p * ell ** (n * j) for j, p in enumerate(coeffs)])
    return FrobPoly(n, ell, P_lam, Poly(coeffs))


def local_l_inverse(sp, chi_ell):
    """L(sigma tensor chi, 1/2)^{-1} = prod (1 - alpha_i chi(ell) / s), directly."""
    ell = sp.ell
    one = ExactScalar.one(ell)
    c = chi_ell * ExactScalar.sqrt_ell(ell) / ell
    out = one
    for a in sp.alpha:
        out = out * (one - a * c)
    return out


def check_central_value(sp, chi):
    """P(chi(ell)) by Horner must equal the independently-formed product."""
    fp = frob_poly_from_satake(sp)
    lhs = fp.p_central.eval(chi.chi_ell)
    rhs = local_l_inverse(sp, chi.chi_ell)
    ok = lhs == rhs
    return {
        "identity": "central_value",
        "n": sp.n, "ell": sp.ell, "chi_order": chi.order,
        "poly_route": lhs.serialize(),
        "product_route": rhs.serialize(),
        "pass": ok,
    }


def weil_weight_check(betas, n, ell):
    """beta_i conj(beta_i) = ell^{2n-1} for Frobenius eigenvalues of weight 2n-1.

    Consequently no eigenvalue p^{n-1} beta_i^{-1} can equal p^{-1} (that
    would force beta_i = ell^n, of weight 2n), so a row excludes it exactly
    when its norm check passes.  Shapes whose archimedean size is not
    decidable in this ring are reported "unchecked", never guessed.
    """
    if len(betas) != 2 * n:
        raise ValueError("need exactly 2n Frobenius eigenvalues")
    target = ExactScalar.from_rational(ell ** (2 * n - 1), ell)
    rows = []
    all_pass = True
    for i, b in enumerate(betas):
        norm = b * b.conj()
        if not norm.is_rational():
            rows.append({"i": i, "status": "unchecked",
                         "reason": "norm is not rational in Q(sqrt ell, zeta)"})
            all_pass = False
            continue
        ok = norm == target
        rows.append({
            "i": i,
            "status": "pass" if ok else "fail",
            "norm": norm.serialize(),
            "target": target.serialize(),
            "excludes_p_inverse_eigenvalue": ok,
        })
        all_pass = all_pass and ok
    return {
        "identity": "weil_weight",
        "n": n, "ell": ell,
        "rows": rows,
        "pass": all_pass,
    }


def tame_factor(sp, chi):
    """ell^{n^2} / (ell - 1) times the inverse central L-value, exactly."""
    scale = ExactScalar.from_rational(
        Fraction(sp.ell ** (sp.n * sp.n), sp.ell - 1), sp.ell
    )
    return scale * local_l_inverse(sp, chi.chi_ell)


def _eigenvalue_table(sp, k, exponents):
    """P, and for each distinct e in `exponents` the serialized zeta_k^e, the
    eigenvalue P(zeta_k^e) by Horner, the independent product
    L(sigma tensor chi, 1/2)^{-1} at chi(Fr) = zeta_k^e, and whether they agree.
    """
    P = frob_poly_from_satake(sp).p_central
    table = {}
    for e in set(exponents):
        val = ExactScalar.zeta(sp.ell, k, e)
        eig = P.eval(val)
        ind = local_l_inverse(sp, val)
        table[e] = (val.serialize(), eig.serialize(), ind.serialize(), eig == ind)
    return P, table


def tame_group_algebra_check(cl, sp):
    """The group-algebra form of the tame relation over Pic(O_m).

    Builds P(Fr) in Q(sqrt ell, zeta)[cl] at the GEOMETRIC Frobenius class
    Fr = Art_0(ell) (the prime form; equivalently P at the inverse of the
    arithmetic Frobenius), decomposes it along every character chi of cl, and
    verifies per chi that the eigenvalue P(chi(Fr)) equals the independent
    product L(sigma tensor chi_ell, 1/2)^{-1} with chi_ell(ell) = chi(Fr).
    Fourier inversion over cl reconstructs the element exactly.
    """
    ell = sp.ell
    fr = classfield.frobenius_class(cl, ell)  # geometric orientation
    fr_idx = cl.index[fr]
    k, chars = classfield.character_group(cl)
    P, table = _eigenvalue_table(sp, k, [chi[fr_idx] for chi in chars])
    keys = ("chi_at_frobenius", "eigenvalue", "l_value_inverse", "pass")
    per_chi = [{"chi_exponents": list(chi), **dict(zip(keys, table[chi[fr_idx]]))}
               for chi in chars]
    ok = all(match for *_, match in table.values())

    # Fourier inversion: sum_chi P(chi(Fr)) conj(chi(h)) must be |cl| times the
    # coefficient of [h] in P([Fr]).  By linearity the sum is
    # sum_j p_j S(Fr^j h^{-1}) with S(x) = sum_chi chi(x), summed exactly from
    # the counts of the exponents in column x of the character table (once
    # for each distinct set of counts).
    zeta = [ExactScalar.zeta(ell, k, e) for e in range(k)]  # chi(x) = zeta[chi[x]]

    @cache
    def column_sum(counts):
        return sum(c * zeta[e] for e, c in counts)

    S = [column_sum(frozenset(Counter(col).items())) for col in zip(*chars)]
    fr_powers = [cl.identity]
    for _ in range(P.degree):
        fr_powers.append(cl.mul(fr_powers[-1], fr_idx))
    terms = list(zip(fr_powers, P.coeffs))
    recon_ok = all(
        sum(p * S[cl.mul(x, cl.inv(h))] for x, p in terms)
        == cl.order * sum(p for x, p in terms if x == h)
        for h in range(cl.order)
    )

    return trc.check(
        "tame_group_algebra", ok and recon_ok,
        {"per_chi": [c for c in per_chi if not c["pass"]], "fourier_inversion": recon_ok},
        d_E=cl.d_E, conductor=cl.conductor, ell=ell, n=sp.n,
        frobenius_orientation="prime form = geometric Frobenius = Art0(ell)",
        frobenius_class=list(fr.as_tuple()), per_chi=per_chi, fourier_inversion=recon_ok)


def big_level_chi_decomposition(cl_big, cl_small, mapping, sp):
    """Eigenvalues of the tame factor along characters of Gal(E[ell m]/E).

    Characters factoring through the norm map see P at the level-m Frobenius;
    level-raising characters (nontrivial on the norm-map kernel) are recorded
    at a kernel generator.  Every eigenvalue is cross-checked against the
    independent product formula.
    """
    fr_small_idx = cl_small.index[classfield.frobenius_class(cl_small, sp.ell)]
    kernel = [i for i in range(cl_big.order) if mapping[i] == cl_small.identity]
    k_gen = max(kernel, key=cl_big.element_order)
    # chi = chibar o norm: chibar at the level-m Frobenius is chi at any preimage
    pre = mapping.index(fr_small_idx)
    k, chars = classfield.character_group(cl_big)
    picks = [(chi[pre], "factors_through_norm") if all(chi[i] == 0 for i in kernel)
             else (chi[k_gen], "level_raising_at_kernel_generator") for chi in chars]
    _, table = _eigenvalue_table(sp, k, [e for e, _ in picks])
    keys = ("value", "eigenvalue", "independent_product", "pass")
    rows = [{"chi_exponents": list(chi), "kind": kind, **dict(zip(keys, table[e]))}
            for chi, (e, kind) in zip(chars, picks)]
    return {
        "identity": "big_level_chi_decomposition",
        "kernel_order": len(kernel),
        "rows": rows,
        "eigenvalue_set": sorted({eig for _, eig, _, _ in table.values()}),
        "pass": all(match for *_, match in table.values()),
    }
