"""The index-based FiniteGroup against the concrete-element RefGroup oracle."""

import random
from itertools import permutations

import pytest

from oracles import ref_catalog_group, ref_matrix_group
from tamenorm.fingroup import (
    CATALOG_NAMES,
    MAX_ORDER,
    FiniteGroup,
    catalog_group,
    matrix_group_mod,
)
from tamenorm.mackey import FunctorModel, upsilon_closure

# a group as a --generator-file would give it: SL_2(Z/4), order 48
FILE_GENS = [((1, 1), (0, 1)), ((1, 0), (1, 1))]


def group_pair(name):
    if name == "SL2Z4":
        return matrix_group_mod(FILE_GENS, 4, name), ref_matrix_group(FILE_GENS, 4, name)
    return catalog_group(name)[0], ref_catalog_group(name)


@pytest.fixture(scope="module", params=[*CATALOG_NAMES, "SL2Z4"])
def groups(request):
    G, R = group_pair(request.param)
    rng = random.Random(f"fingroup:{request.param}")
    gen_sets = [[g] for g in G] + [rng.sample(range(len(G)), 2) for _ in range(15)]
    subgroups = sorted({G.generate(gens) for gens in gen_sets}, key=sorted)
    return G, R, gen_sets, subgroups, rng


def concrete(G, S):
    return frozenset(G.labels[i] for i in S)


def test_products_and_inverses(groups):
    G, R, *_ = groups
    lab = G.labels
    assert lab == R.elements                      # sorted concrete order
    assert all(G.index[x] == i for i, x in enumerate(lab))
    assert lab[G.identity] == R.identity
    for a in G:
        assert lab[G.inv(a)] == R.inv(lab[a])
        for b in G:
            assert lab[G.mul(a, b)] == R.mul(lab[a], lab[b])


def test_generate_and_conjugate(groups):
    G, R, gen_sets, subgroups, _ = groups
    for gens in gen_sets:
        assert concrete(G, G.generate(gens)) == R.generate(G.labels[g] for g in gens)
    for H in subgroups:
        for g in G:
            assert concrete(G, G.conjugate(g, H)) == R.conjugate(G.labels[g], concrete(G, H))


def test_coset_representatives(groups):
    G, R, _, subgroups, rng = groups
    lab = G.labels
    pairs = [(H, K) for K in subgroups for H in subgroups if H <= K]
    for H, K in pairs:
        assert [lab[g] for g in G.left_coset_reps(H, within=K)] == \
            R.left_coset_reps(concrete(G, H), within=concrete(G, K))
        assert G.is_normal(H, K) == R.is_normal(concrete(G, H), concrete(G, K))
    for H in subgroups:
        assert [lab[g] for g in G.left_coset_reps(H)] == R.left_coset_reps(concrete(G, H))
    for _ in range(60):
        A, B, K = (subgroups[rng.randrange(len(subgroups))] for _ in range(3))
        K = G.generate(sorted(A | B | K))
        g = rng.randrange(len(G))
        assert [lab[x] for x in G.double_coset_reps(A, B, within=K)] == \
            R.double_coset_reps(concrete(G, A), concrete(G, B), within=concrete(G, K))
        assert concrete(G, G.double_coset(A, g, B)) == \
            R.double_coset(concrete(G, A), lab[g], concrete(G, B))
    A, B = subgroups[0], subgroups[-1]
    assert [lab[x] for x in G.double_coset_reps(A, B)] == \
        R.double_coset_reps(concrete(G, A), concrete(G, B))


def test_is_subgroup(groups):
    G, R, _, subgroups, rng = groups
    for H in subgroups:
        assert G.is_subgroup(H) and R.is_subgroup(concrete(G, H))
    for _ in range(200):
        S = frozenset(rng.sample(range(len(G)), rng.randrange(1, len(G) + 1)))
        assert G.is_subgroup(S) == R.is_subgroup(concrete(G, S))


def test_generators_generate(groups):
    G, *_ = groups
    assert G.generate(G.generators()) == frozenset(G.elements)


def test_table_rejects_a_non_group():
    def mul(a, b):
        return (a * b) % 4

    with pytest.raises(ValueError, match="no inverse"):
        FiniteGroup([0, 1, 2, 3], mul, None, 1)
    with pytest.raises(ValueError, match="not closed"):
        FiniteGroup([1, 2], mul, None, 1)
    with pytest.raises(ValueError, match="identity"):
        FiniteGroup([1, 3], mul, None, 3)
    with pytest.raises(ValueError, match="identity"):   # e*g = g but x*e != x
        FiniteGroup([0, 1], lambda a, b: b, None, 0)
    with pytest.raises(ValueError, match="inv"):
        FiniteGroup([1, 3], mul, lambda a: 1, 1)
    assert len(FiniteGroup([1, 3], mul, lambda a: a, 1)) == 2


def test_order_cap():
    with pytest.raises(ValueError, match="exceeds"):
        matrix_group_mod([((1, 1), (0, 1))], MAX_ORDER + 1)
    with pytest.raises(ValueError, match="exceeds"):
        FiniteGroup(range(MAX_ORDER + 1), lambda a, b: (a + b) % (MAX_ORDER + 1), None, 0)
    assert len(FiniteGroup(range(MAX_ORDER), lambda a, b: (a + b) % MAX_ORDER, None, 0)) == MAX_ORDER


@pytest.mark.parametrize("elements,mul,identity", [
    (range(1000), lambda a, b: (a + b) % 1000, 0),
    (list(permutations(range(4))), lambda p, q: tuple(p[i] for i in q), (0, 1, 2, 3)),
], ids=["Z1000", "S4"])
def test_build_multiplies_one_column_per_generator(elements, mul, identity):
    # concrete products only for the identity column and each generator column
    calls = []

    def counted(a, b):
        calls.append(None)
        return mul(a, b)

    G = FiniteGroup(elements, counted, None, identity)
    assert len(calls) <= (len(G.generators()) + 1) * len(G)


def test_functor_model_rejects_a_left_action():
    G, B = catalog_group("S3")
    ups = upsilon_closure(G, [B])
    with pytest.raises(ValueError, match="right action"):
        FunctorModel(G, ups, G.elements, lambda x, g: G.mul(g, x))
    with pytest.raises(ValueError, match="identity"):
        FunctorModel(G, ups, G.elements, lambda x, g: G.mul(x, G.elements[1]))
