"""The poset of full-rank lattices in Q_ell^n up to GL_n(Z_ell).

A lattice class is stored as the unique Hermite-normal-form basis whose
determinant is a power of ell (rows span the lattice; prime-to-ell structure
is trivialised by the normal form, so no genuine Z_ell arithmetic is ever
needed).  The order is L1 <= L2 iff L2 is contained in L1; the join is the
intersection.  Volume normalisation: each coset of GL_n(Z_ell) has volume 1,
so all measures here are lattice counts.

The two verification routines check, over every sublattice of Z^n at a given
depth, the chain-wise inclusion-exclusion identity and the per-invariant
measure identity that pins down the lambda coefficients of module `qcomb`,
each reported as a `trc.check` certificate with n, ell, depth and its case
count.
The members of X_n^{>=1} are the depth-1 sweep without Z^n; they all contain
ell Z^n, so inclusion-exclusion reads their containments and joins off their
subspaces of F_ell^n, as bitsets compared and intersected by AND (the HNF
join by duality that this replaced is the test oracle `join` in
tests/oracles.py).  The measure identity and the independent solve for the
lambda coefficients share one count of the sweep per invariant.
"""

from itertools import combinations_with_replacement, product
from math import prod

from . import qcomb, trc
from .matrices import (
    BoundExceeded,
    ell_normalize,
    is_prime,
    rref_mod,
    smith_ell_exponents_k,
    v_ell,
)

MAX_N = 4                   # largest rank enumerate_X_ge1 visits
MAX_ELL = 7                 # largest prime enumerate_X_ge1 visits
MAX_DEPTH = 6               # largest invariant exponent an enumeration visits
MAX_CANDIDATES = 10 ** 6    # HNF candidates a verification may enumerate
MAX_JOINS = 10 ** 6         # member pairs inclusion-exclusion may join


class LatticeClass:
    """A sublattice of Z^n over Z_ell in canonical Hermite normal form."""

    __slots__ = ("ell", "n", "basis")

    def __init__(self, ell, n, basis):
        if not is_prime(ell):
            raise ValueError(f"ell must be prime, got {ell}")
        self.ell = ell
        self.n = n
        self.basis = basis  # trusted canonical form; use the constructors

    @staticmethod
    def standard(n, ell):
        return LatticeClass(ell, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def from_rows(rows, ell):
        """Lattice spanned over Z_ell by integer rows (full rank required)."""
        rows = [tuple(int(x) for x in r) for r in rows]
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return LatticeClass(ell, n, ell_normalize(rows, ell))

    @staticmethod
    def from_diag_exponents(exps, ell):
        n = len(exps)
        return LatticeClass.from_rows(
            [[ell ** exps[i] if i == j else 0 for j in range(n)] for i in range(n)], ell
        )

    @staticmethod
    def minimal_vector_lattice(m, n, ell):
        """The lattice Lambda_{t_m} with basis diag(ell,..,ell,1,..,1), m ells."""
        return LatticeClass.from_diag_exponents([1] * m + [0] * (n - m), ell)

    def index_valuation(self):
        """v_ell [Z^n : L], the valuation of the triangular basis's diagonal product."""
        return v_ell(prod(self.basis[i][i] for i in range(self.n)), self.ell)

    def __eq__(self, other):
        return (
            isinstance(other, LatticeClass)
            and self.ell == other.ell
            and self.n == other.n
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ell, self.n, self.basis))

    def __repr__(self):
        return f"LatticeClass(ell={self.ell}, basis={self.basis})"


def relative_position(L):
    """inv(L): the tuple of ell-adic elementary divisor exponents, largest first.

    The basis is triangular, so v_ell(det) is the index valuation read off
    its diagonal.
    """
    exps = smith_ell_exponents_k(L.basis, L.ell, L.index_valuation())
    return tuple(sorted(exps, reverse=True))


def contains(L_big, L_small):
    """True iff L_small is a sublattice of L_big over Z_ell.

    Reduces each row of L_small against the upper-triangular basis of L_big,
    whose diagonal entries are powers of ell: a row lies in L_big iff every
    pivot divides what is left in its column, column by column.
    """
    _check_compatible(L_big, L_small)
    H = L_big.basis
    n = L_big.n
    for b in L_small.basis:
        b = list(b)
        for j in range(n):
            d = H[j][j]
            if b[j] % d:
                return False
            c = b[j] // d
            if c:
                Hj = H[j]
                for i in range(j + 1, n):
                    b[i] -= c * Hj[i]
    return True


def _check_compatible(L1, L2):
    if L1.ell != L2.ell or L1.n != L2.n:
        raise ValueError("lattices live in different spaces")


# ---------------------------------------------------------------------------
# enumeration

def enumerate_X_ge1(n, ell):
    """All lattices L with ell Z^n <= L < Z^n: the depth-1 sweep without Z^n.

    A lattice of relative position t_m corresponds to the (n-m)-dimensional
    subspace L / ell Z^n.  The rows of its basis with diagonal 1 are the
    row-reduced basis of that subspace, and the others are the ell e_i of the
    remaining columns, so the lattices are listed in the row-reduced order:
    by dimension, then pivot columns, then free entries row-major.  Z^n, the
    one subspace of dimension n, sorts last.
    """
    if n > MAX_N or ell > MAX_ELL:
        raise BoundExceeded(f"enumeration bound exceeded: n={n}, ell={ell}")
    if not is_prime(ell):
        raise ValueError(f"ell must be prime, got {ell}")
    bases = sorted(_lattice_bases(n, ell, 1), key=_subspace_order)
    return [LatticeClass(ell, n, basis) for basis in bases[:-1]]


def _subspace_order(basis):
    # the pivots fix every row ell e_i, so the bases compare as their free entries
    pivots = tuple(i for i, row in enumerate(basis) if row[i] == 1)
    return len(pivots), pivots, basis


def _row_tails(lower, i, n, q):
    """Off-diagonal parts x of HNF row i, increasing, with q (0,..,0,x) in the
    span of `lower`, the rows below it: the column reduction of `contains`
    solved for x.  At column j, q x_j plus what the rows subtracted so far
    left there, r_j, must be divisible by the pivot d_j.  As q and d_j are
    powers of ell, with g = min(q, d_j) that needs g | r_j and fixes
    x_j = -r_j / g mod d_j / g.
    """
    states = [((), [0] * n)]
    for j, H in enumerate(lower, i + 1):
        g = min(q, H[j])
        step = H[j] // g
        grown = []
        for x, r in states:
            if r[j] % g == 0:
                for xj in range((-r[j] // g) % step, H[j], step):
                    c = (q * xj + r[j]) // H[j]
                    grown.append((x + (xj,), [a - c * b for a, b in zip(r, H)]))
        states = grown
    return [x for x, _ in states]


def _lattice_bases(n, ell, depth):
    """The canonical HNF bases of the lattices L with ell^depth Z^n <= L <= Z^n.

    They come in the order of the product over all HNF bases with diagonal
    exponents <= depth (diagonal first, then off-diagonal entries row-major),
    on which a sweep's first failing witness depends.  Rows are built from the
    bottom up; row i, with diagonal ell^(e_i), is admissible iff ell^depth e_i
    lies in L, that is iff ell^(depth - e_i) (0,..,0,x) is in the rows below.
    """
    for exps in product(range(depth + 1), repeat=n):
        bases = [()]
        for i in range(n - 1, -1, -1):
            head = (0,) * i + (ell ** exps[i],)
            q = ell ** (depth - exps[i])
            bases = [(head + x,) + lower for lower in bases
                     for x in _row_tails(lower, i, n, q)]
        bases.sort()
        yield from bases


def _is_canonical_hnf(basis, ell):
    n = len(basis)
    for i in range(n):
        d = basis[i][i]
        v = d
        while v % ell == 0:
            v //= ell
        if v != 1:
            return False
        for j in range(i):
            if not 0 <= basis[j][i] < d:
                return False
        if any(basis[i][j] != 0 for j in range(i)):
            return False
    return True


class _Sublattices:
    """The lattices between ell^depth Z^n and Z^n as canonical LatticeClass.

    Iterating builds them one diagonal at a time; len() is their number,
    Birkhoff's count of the subgroups of (Z/ell^depth)^n.
    """

    __slots__ = ("n", "ell", "depth")

    def __init__(self, n, ell, depth):
        self.n, self.ell, self.depth = n, ell, depth

    def __len__(self):
        # Macdonald, Symmetric Functions and Hall Polynomials, II (1.6): a sum
        # over the types mu <= (depth^n), here their conjugates c, of
        # prod_i ell^(c_{i+1} (n - c_i)) [n - c_{i+1}, c_i - c_{i+1}]_ell
        n, ell, total = self.n, self.ell, 0
        for conj in combinations_with_replacement(range(n, -1, -1), self.depth):
            c = conj + (0,)
            total += prod(ell ** (c[i + 1] * (n - c[i]))
                          * qcomb.q_binomial(n - c[i + 1], c[i] - c[i + 1], ell)
                          for i in range(self.depth))
        return total

    def __iter__(self):
        n, ell = self.n, self.ell
        for basis in _lattice_bases(n, ell, self.depth):
            assert _is_canonical_hnf(basis, ell)
            yield LatticeClass(ell, n, basis)


def sublattices_up_to_depth(n, ell, depth):
    """Every L with ell^depth Z^n <= L <= Z^n, that is every sublattice of Z^n
    whose invariant entries are <= depth, as a sized iterable that builds the
    canonical forms as it is iterated."""
    return _Sublattices(n, ell, depth)


# ---------------------------------------------------------------------------
# verification certificates

def _chain_weights(members, above):
    """w[k] = sum over chains with smallest lattice k of (-1)^length.

    Recurrence: w[k] = 1 - sum of w[a] over members a strictly containing k,
    read off the containment matrix `above` (above[a][k]: a contains k).
    Also returns the total number of chains for the certificate.
    """
    m = len(members)
    strictly_above = [[a for a in range(m) if a != k and above[a][k]] for k in range(m)]
    # members are ordered by weakly increasing index valuation, so every
    # strict container of k precedes k; compute in that order
    order = sorted(range(m), key=lambda i: members[i].index_valuation())
    w = [0] * m
    counts = [0] * m
    for k in order:
        w[k] = 1 - sum(w[a] for a in strictly_above[k])
        counts[k] = 1 + sum(counts[a] for a in strictly_above[k])
    return w, sum(counts)


def verify_inclusion_exclusion(n, ell, depth):
    """Chain-wise inclusion-exclusion over X_n^{>=1}, checked pointwise.

    For every sublattice L' of Z^n with invariant entries <= depth:
      [L' lies below some member of X_n^{>=1}]
        = sum over chains c of (-1)^len(c) [L' below the smallest member of c]
    and the semilattice compatibility in poset form: L' below join(L1, L2)
    iff L' below L1 and L' below L2, over all member pairs.

    Every member contains ell Z^n (checked first), so a member L is its
    subspace L / ell Z^n of F_ell^n, held as a bitset: a member contains
    another iff its subspace does, and the join of two members is the member
    whose subspace is the intersection of theirs.  For the same reason L'
    lies below a member iff L' + ell Z^n does: the set S of members above L',
    and every check made at L', depend only on the image of L' mod ell.  The
    checks run with real containments at the first L' of each image, so they
    test the bitset tables against the lattices, and are not repeated for the
    later ones, which pass or fail alike.
    """
    _check_request(n, ell, depth)
    M = sum(qcomb.q_binomial(n, d, ell) for d in range(n))  # |X_n^{>=1}|
    if M * (M + 1) // 2 > MAX_JOINS:
        raise BoundExceeded(f"rank {n}, ell = {ell}: {M} members need more than "
                            f"{MAX_JOINS} joins")
    members = enumerate_X_ge1(n, ell)
    ell_zn = LatticeClass.from_diag_exponents([1] * n, ell)
    for L in members:
        if not contains(L, ell_zn):
            return trc.check("inclusion_exclusion", False,
                             {"reason": "member does not contain ell Z^n",
                              "lattice": L.basis}, cases=0, n=n, ell=ell, depth=depth)
    masks = [_subspace_mask(L.basis, ell) for L in members]
    above = [[a & b == b for b in masks] for a in masks]
    w, n_chains = _chain_weights(members, above)

    join_idx, missing = _join_table(masks)
    if missing:
        i, j = missing
        return trc.check("inclusion_exclusion", False,
                         {"reason": "join left the generated semilattice",
                          "pair": [members[i].basis, members[j].basis]},
                         cases=0, n=n, ell=ell, depth=depth)

    pairs_by_join = [[] for _ in range(M)]
    for i in range(M):
        for j in range(M):
            pairs_by_join[join_idx[i][j]].append((i, j))

    cases = 0
    checked = set()   # images mod ell whose checks have passed
    for L in sublattices_up_to_depth(n, ell, depth):
        image = rref_mod(L.basis, ell)
        if image not in checked:
            failure = _check_pointwise(L, members, w, join_idx, pairs_by_join)
            if failure:
                return trc.check("inclusion_exclusion", False, failure, cases=cases,
                                 n=n, ell=ell, depth=depth)
            checked.add(image)
        cases += 1
    return trc.check("inclusion_exclusion", True, cases=cases, n=n, ell=ell, depth=depth,
                     members=M, chains=n_chains)


def _subspace_mask(basis, ell):
    """The span of the rows of `basis` mod ell as a bitset over F_ell^n: bit c
    is set iff the span holds the vector v of base-ell code sum_i v_i ell^i."""
    span = {(0,) * len(basis)}
    for row in basis:
        if tuple(x % ell for x in row) not in span:
            span = {tuple((a + c * b) % ell for a, b in zip(v, row))
                    for c in range(ell) for v in span}
    mask = 0
    for v in span:
        code = 0
        for a in reversed(v):
            code = code * ell + a
        mask |= 1 << code
    return mask


def _join_table(masks):
    """The member index of every join, read off the members' subspace
    bitsets: the join of members i and j is the member whose subspace is
    V_i cap V_j.  Returns (table, None), or (None, (i, j)) for the first pair
    i <= j whose intersection is no member's subspace."""
    index = {m: k for k, m in enumerate(masks)}
    table = []
    for i, a in enumerate(masks):
        row = [index.get(a & b) for b in masks]
        if None in row:
            # the rows before i have no gap, so by symmetry this one's first
            # gap lies at j >= i
            return None, (i, row.index(None))
        table.append(row)
    return table, None


def _check_pointwise(L, members, w, join_idx, pairs_by_join):
    """The first failing check of inclusion-exclusion at L, or None."""
    M = len(members)
    S = [k for k in range(M) if contains(members[k], L)]
    in_S = [False] * M
    for k in S:
        in_S[k] = True
    lhs = 1 if S else 0
    rhs = sum(w[k] for k in S)
    if lhs != rhs:
        return {"lattice": L.basis, "lhs": lhs, "rhs": rhs}
    # F(L1 v L2) = F(L1) cap F(L2), pointwise at L
    for i in S:
        for j in S:
            if not in_S[join_idx[i][j]]:
                return {"lattice": L.basis, "pair": [i, j],
                        "reason": "join containment missing"}
    for k in S:
        for (i, j) in pairs_by_join[k]:
            if not (in_S[i] and in_S[j]):
                return {"lattice": L.basis, "pair": [i, j],
                        "reason": "containment in join without both factors"}
    return None


def verify_measure_identity(n, ell, depth):
    """Per-invariant counting form of the measure identity.

    For every invariant nu != 0 with entries in [0, depth]:
      #{L <= Z^n : inv(L) = nu}
        = sum_m lambda_m #{L <= Lambda_{t_m} : inv(L) = nu}.
    This is the identity defining the lambda coefficients, applied to the
    bi-invariant test functions that span all right-invariant ones.
    """
    _check_request(n, ell, depth)
    lam = qcomb.lambda_coefficients(qcomb.QCombContext(n, ell))
    total, within = _invariant_counts(n, ell, depth)

    cases = 0
    for nu in sorted(total):
        if all(x == 0 for x in nu):
            continue
        lhs = total[nu]
        rhs = sum(lam[m] * within[m].get(nu, 0) for m in range(n))
        if lhs != rhs:
            return trc.check("measure_identity", False,
                             {"invariant": list(nu), "lhs": lhs, "rhs": rhs, "lambda": lam},
                             cases=cases, n=n, ell=ell, depth=depth)
        cases += 1
    return trc.check("measure_identity", True, cases=cases, n=n, ell=ell, depth=depth,
                     **{"lambda": lam})


def _invariant_counts(n, ell, depth):
    """One sweep of the L with ell^depth Z^n <= L <= Z^n, counted by invariant:
    total[nu] of them have inv(L) = nu, and within[m - 1][nu] of those lie in
    Lambda_{t_m}, for m = 1..n."""
    t_lattices = [LatticeClass.minimal_vector_lattice(m, n, ell) for m in range(1, n + 1)]
    total = {}
    within = [dict() for _ in range(n)]
    for L in sublattices_up_to_depth(n, ell, depth):
        nu = relative_position(L)
        total[nu] = total.get(nu, 0) + 1
        for m in range(n):
            if contains(t_lattices[m], L):
                within[m][nu] = within[m].get(nu, 0) + 1
    return total, within


def solve_lambda_from_counts(n, ell):
    """The unique lambda solving the counting identity at nu = t_1..t_n.

    Independent route to the lambda coefficients: the system is triangular
    because a sublattice of Lambda_{t_m} has index >= ell^m, so the stratum
    nu = t_j only sees m <= j.  Its counts are those of the depth-1 sweep.
    """
    total, within = _invariant_counts(n, ell, 1)
    lam = [0] * n
    for j in range(1, n + 1):
        nu = (1,) * j + (0,) * (n - j)
        count = [w.get(nu, 0) for w in within]
        rem = total[nu] - sum(lam[m] * count[m] for m in range(j - 1))
        if rem % count[j - 1]:
            raise ArithmeticError("counting system is not integrally solvable")
        lam[j - 1] = rem // count[j - 1]
    return lam


def _check_request(n, ell, depth):
    """Refuse a verification that checks nothing or exceeds desk scale, before
    anything is enumerated."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if ell < 2:
        raise ValueError(f"ell must be prime, got {ell}")
    if depth > MAX_DEPTH:
        raise BoundExceeded(f"depth {depth} exceeds bound {MAX_DEPTH}")
    if _candidate_count(n, ell, depth) > MAX_CANDIDATES:
        raise BoundExceeded(f"rank {n}, ell = {ell}, depth {depth}: more than "
                            f"{MAX_CANDIDATES} HNF candidates")


def _candidate_count(n, ell, depth):
    """prod_j sum_{e <= depth} ell^(j e), the number of HNF bases with diagonal
    exponents <= depth (column j has j entries in [0, ell^e) above its
    diagonal ell^e); the product stops once it is past MAX_CANDIDATES."""
    count = 1
    for j in range(n):
        count *= sum(ell ** (j * e) for e in range(depth + 1))
        if count > MAX_CANDIDATES:
            break
    return count
