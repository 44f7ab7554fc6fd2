"""Groups from generator files, which come from outside the program: random
2x2 integer generators mod N against the concrete-element oracle."""

from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from oracles import ref_matrix_group
from tamenorm.fingroup import matrix_group_mod

entry = st.integers(-6, 6)
matrix = st.tuples(st.tuples(entry, entry), st.tuples(entry, entry))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(matrix, min_size=1, max_size=3), st.integers(2, 5), st.data())
def test_matrix_group_mod_matches_the_oracle(gens, N, data):
    # no group mod N <= 5 exceeds the order cap: only a singular generator fails
    invertible = all(gcd(a * d - b * c, N) == 1 for (a, b), (c, d) in gens)
    try:
        G = matrix_group_mod(gens, N)
    except ValueError:
        assert not invertible
        return  # the oracle would not terminate on a singular generator
    assert invertible
    R = ref_matrix_group(gens, N)
    lab = G.labels
    assert lab == R.elements
    assert lab[G.identity] == R.identity
    assert R.generate(lab[g] for g in G.generators()) == frozenset(lab)
    # every product a*b with b in a drawn sample: |G| reaches 480 at N = 5
    sample = data.draw(st.lists(st.sampled_from(G.elements), min_size=1, max_size=12))
    for a in G:
        assert lab[G.inv(a)] == R.inv(lab[a])
        for b in sample:
            assert lab[G.mul(a, b)] == R.mul(lab[a], lab[b])
