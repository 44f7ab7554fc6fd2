"""Small concrete finite groups: permutations and matrices over Z/N.

A FiniteGroup is built once from concrete hashable, orderable elements and
their multiplication (Holt-Eick-O'Brien, Handbook of Computational Group
Theory, ch. 3-5): the elements are interned as 0..|G|-1 in sorted order of
the concrete elements, and products and inverses become lookups in a Cayley
table and an inverse table.  Only the columns of the identity and of the
greedy generators are concrete products; the rest are read off the closure
walk that finds the generators.  Every group operation, subgroup and coset
works on these indices; `labels[i]` is the concrete element behind index i
and `index` the map back.  The catalog provides the groups used by the
cohomology functor test battery: S_3, S_4, D_8, GL_2(F_3), each with a
distinguished "Borel-like" subgroup for coset models.
"""

from functools import partial

from .matrices import mat_mul_modq

# Largest group order accepted: the Cayley table holds |G|^2 entries.
MAX_ORDER = 1000


def _perm_mul(p, q):
    # (p*q)(i) = p(q(i))
    return tuple(p[q[i]] for i in range(len(p)))


def _perm_inv(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _closure(gens, mul, identity):
    """The set generated from `identity` by right multiplication with `gens`,
    as a parent tree {y: (w, g)} with y = w*g, parents inserted first."""
    tree = {identity: None}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = mul(x, g)
            if y not in tree:
                tree[y] = (x, g)
                if len(tree) > MAX_ORDER:
                    raise ValueError(f"generated group exceeds order {MAX_ORDER}")
                frontier.append(y)
    return tree


class FiniteGroup:
    """A finite group on the indices 0..|G|-1 with Cayley and inverse tables.

    `mul` multiplies concrete elements and must be associative.  It is called
    here only, for the column x -> x*y of the identity and of each greedy
    generator y (the least index outside the subgroup the earlier ones
    generate).  Every other y is reached as y = w*g by the closure walk, and
    its column is x*y = (x*w)*g, two lookups.  `inv`, if given, is the
    concrete inverse and is checked against the inverse table, which is read
    off the rows of the Cayley table.
    """

    def __init__(self, elements, mul, inv, identity, name=""):
        labels = tuple(sorted(set(elements)))
        n = len(labels)
        if n > MAX_ORDER:
            raise ValueError(f"group order {n} exceeds {MAX_ORDER}")
        index = {x: i for i, x in enumerate(labels)}
        if identity not in index:
            raise ValueError("the identity is not an element")
        e = index[identity]
        cols = [None] * n
        gens, tree = [], {e: None}
        try:
            cols[e] = [index[mul(x, identity)] for x in labels]
            for g in range(n):
                if g in tree:
                    continue
                cols[g] = [index[mul(x, labels[g])] for x in labels]
                gens.append(g)
                tree = _closure(gens, lambda x, s: cols[s][x], e)
                for y, parent in tree.items():
                    if cols[y] is None:
                        w, s = parent
                        cols[y] = list(map(cols[s].__getitem__, cols[w]))
        except KeyError:
            raise ValueError("the elements are not closed under multiplication") from None
        table = tuple(zip(*cols))
        if table[e] != tuple(range(n)) or cols[e] != list(range(n)):
            raise ValueError("the identity does not act trivially")
        try:
            inverse = tuple(row.index(e) for row in table)
        except ValueError:
            raise ValueError("an element has no inverse") from None
        if inv is not None and any(index.get(inv(x)) != inverse[i] for i, x in enumerate(labels)):
            raise ValueError("inv disagrees with the Cayley table")
        self.labels = labels
        self.index = index
        self.table = table
        self.inverse = inverse
        self.identity = e
        self.elements = range(n)
        self.name = name
        self._generators = tuple(gens)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, g):
        return g in self.elements

    def __iter__(self):
        return iter(self.elements)

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverse[a]

    # -- subgroup machinery --------------------------------------------------

    def generate(self, gens):
        """Subgroup generated by `gens`, as a frozenset."""
        return frozenset(_closure(list(gens), self.mul, self.identity))

    def generators(self):
        """The greedy generators found by the build, in index order."""
        return list(self._generators)

    def conjugate(self, g, H):
        """g H g^{-1}."""
        table = self.table
        row, ginv = table[g], self.inverse[g]
        return frozenset(table[row[h]][ginv] for h in H)

    def left_coset_reps(self, H, within=None):
        """Representatives of (within)/H, `within` a subgroup containing H."""
        pool = within if within is not None else self.elements
        seen = set()
        reps = []
        for g in sorted(pool):
            if g in seen:
                continue
            reps.append(g)
            row = self.table[g]
            seen.update(row[h] for h in H)
        return reps

    def double_coset_reps(self, A, B, within=None):
        pool = within if within is not None else self.elements
        seen = set()
        reps = []
        for g in sorted(pool):
            if g in seen:
                continue
            reps.append(g)
            seen.update(self.double_coset(A, g, B))
        return reps

    def double_coset(self, A, g, B):
        table = self.table
        return frozenset(table[table[a][g]][b] for a in A for b in B)

    def is_subgroup(self, H):
        if self.identity not in H:
            return False
        table, inverse = self.table, self.inverse
        return all(table[a][inverse[b]] in H for a in H for b in H)

    def is_normal(self, H, K):
        """H normal in K (both subgroups, H <= K)."""
        H = frozenset(H)
        return all(self.conjugate(k, H) == H for k in K)


def symmetric_group(n):
    from itertools import permutations

    elems = [tuple(p) for p in permutations(range(n))]
    ident = tuple(range(n))
    return FiniteGroup(elems, _perm_mul, _perm_inv, ident, f"S{n}")


def dihedral_8():
    """Symmetries of the square as permutations of its 4 vertices."""
    r = (1, 2, 3, 0)
    f = (1, 0, 3, 2)
    ident = (0, 1, 2, 3)
    return FiniteGroup(_closure([r, f], _perm_mul, ident), _perm_mul, _perm_inv, ident, "D8")


def matrix_group_mod(generators, N, name="matgrp"):
    """Closure of invertible square generator matrices over Z/N.

    Raises ValueError for a modulus below 2, generators that are not square
    integer matrices of one size, a non-invertible generator, or a group of
    order above MAX_ORDER.
    """
    if isinstance(N, bool) or not isinstance(N, int) or N < 2:
        raise ValueError("the modulus must be an integer >= 2")
    if not generators:
        raise ValueError("need at least one generator")
    n = len(generators[0])
    for g in generators:
        if n == 0 or len(g) != n or any(len(row) != n for row in g):
            raise ValueError("generators must be square matrices of one size")
        if any(isinstance(x, bool) or not isinstance(x, int) for row in g for x in row):
            raise ValueError("generator entries must be integers")
    mul = partial(mat_mul_modq, q=N)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    gens = [tuple(tuple(x % N for x in row) for row in g) for g in generators]
    return FiniteGroup(_closure(gens, mul, ident), mul, None, ident, name)


def gl2_f3():
    gens = [((1, 1), (0, 1)), ((2, 0), (0, 1)), ((0, 2), (1, 0))]
    G = matrix_group_mod(gens, 3, "GL2(F3)")
    assert len(G) == 48
    return G


def gl2_f3_borel(G):
    return frozenset(i for i, g in enumerate(G.labels) if g[1][0] == 0)


def _subgroup(G, *labels):
    """The subgroup generated by concrete elements, as a frozenset of indices."""
    return G.generate(G.index[x] for x in labels)


CATALOG = {}


def catalog_group(name):
    """Built-in groups with a distinguished subgroup for coset models."""
    if name in CATALOG:
        return CATALOG[name]
    if name == "S3":
        G = symmetric_group(3)
        B = _subgroup(G, (1, 0, 2))                 # <(12)>
    elif name == "S4":
        G = symmetric_group(4)
        B = _subgroup(G, (1, 0, 2, 3), (0, 2, 1, 3))  # S3 fixing the last point
    elif name == "D8":
        G = dihedral_8()
        B = _subgroup(G, (1, 2, 3, 0))              # rotation subgroup
    elif name == "GL2F3":
        G = gl2_f3()
        B = gl2_f3_borel(G)
    else:
        raise KeyError(f"unknown catalog group {name!r}")
    CATALOG[name] = (G, B)
    return G, B


CATALOG_NAMES = ("S3", "S4", "D8", "GL2F3")
