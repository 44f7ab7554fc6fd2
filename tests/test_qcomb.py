import pytest
from fractions import Fraction
from math import log10

from tamenorm.matrices import BoundExceeded
from tamenorm.qcomb import (
    MAX_DIGITS,
    QCombContext,
    b_coefficients,
    chain_count,
    congruence_certificates,
    lambda_coefficients,
    q_binomial,
    rank_count,
)

from oracles import count_chains, count_rank_matrices, count_subspaces, ref_chain_count


def test_q_binomial_trivial():
    assert q_binomial(2, 1, 2) == 3
    assert q_binomial(7, 0, 3) == 1
    assert q_binomial(5, 5, 2) == 1


def test_q_binomial_derived_130():
    # frozen from the brute-force subspace count of Gr(2, F_3^4)
    assert count_subspaces(4, 2, 3) == 130
    assert q_binomial(4, 2, 3) == 130


@pytest.mark.parametrize("q", [2, 3])
def test_q_binomial_matches_bruteforce(q):
    for a in range(5):
        for b in range(a + 1):
            assert q_binomial(a, b, q) == count_subspaces(a, b, q)


def test_q_binomial_rejects_bad_signature():
    with pytest.raises(ValueError):
        q_binomial(2, 3, 2)
    with pytest.raises(ValueError):
        q_binomial(2, -1, 2)


def test_rank_count_examples():
    assert rank_count(1, 2, QCombContext(2, 2)) == 9
    assert count_rank_matrices(1, 2, 2, 2) == 9
    assert rank_count(0, 2, QCombContext(3, 5)) == 1
    assert rank_count(1, 1, QCombContext(1, 3)) == 2
    assert count_rank_matrices(1, 1, 1, 3) == 2


@pytest.mark.parametrize("ell", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_rank_count_matches_bruteforce(n, ell):
    ctx = QCombContext(n, ell)
    for m in range(1, n + 1):
        for r in range(min(m, n) + 1):
            assert rank_count(r, m, ctx) == count_rank_matrices(r, m, n, ell)


def test_chain_count_examples():
    assert chain_count(1, 2, QCombContext(2, 3)) == 4          # lines in F_3^2
    assert chain_count(0, 3, QCombContext(3, 2)) == 1
    assert chain_count(1, 3, QCombContext(3, 2)) == 14         # 7 + 7 proper subspaces


@pytest.mark.parametrize("ell", [2, 3])
def test_chain_count_matches_bruteforce(ell):
    for m in range(1, 4):
        ctx = QCombContext(m, ell)
        for j in range(m):
            assert chain_count(j, m, ctx) == count_chains(j, m, ell)


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_chain_count_matches_sum_over_dimension_sets(ell):
    ctx = QCombContext(10, ell)
    for m in range(1, 11):
        for j in range(m):
            assert chain_count(j, m, ctx) == ref_chain_count(j, m, ell)


def test_lambda_n1():
    assert lambda_coefficients(QCombContext(1, 5)) == [1]


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_lambda_n2_matches_worked_example(ell):
    assert lambda_coefficients(QCombContext(2, ell)) == [ell + 1, -ell]


def test_b_coefficients_n1():
    t = b_coefficients(QCombContext(1, 3))
    assert t.b == [1, -1]
    assert t.certificates["all_b_integral"]


def test_b_coefficients_n2_ell2():
    t = b_coefficients(QCombContext(2, 2))
    assert t.b == [6, -18, 12]
    assert t.b_prime == [18, -12]
    assert t.certificates["all_b_integral"]


def test_strong_divisibility_fails_at_boundary():
    # n=1, ell=3: b'_1 = 2 while (ell-1) c_{1,1} = 4; reported, not corrected
    t = b_coefficients(QCombContext(1, 3))
    claim = t.certificates["strong_divisibility_claim"]["1"]
    assert claim["b_prime"] == 2
    assert claim["claim_divisor"] == 4
    assert claim["pass"] is False
    # the weaker integrality that the construction actually needs still holds
    assert t.certificates["b_r_integrality"]["1"] is True


def test_strong_divisibility_holds_below_boundary():
    for ell in (2, 3, 5):
        for n in (2, 3):
            t = b_coefficients(QCombContext(n, ell))
            for r in range(1, n):
                assert t.certificates["strong_divisibility_claim"][str(r)]["pass"], (n, ell, r)


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_b_integrality_sweep(n, ell):
    t = b_coefficients(QCombContext(n, ell))
    assert t.certificates["all_b_integral"]
    assert all(not isinstance(x, Fraction) for x in t.b)


def test_congruences_examples():
    rep = congruence_certificates(QCombContext(2, 3))
    assert rep["per_m"]["1"]["lambda"] == 4
    assert rep["per_m"]["2"]["lambda"] == -3
    assert rep["pass"]
    # ell = 2: congruences mod 1 are trivially true
    assert congruence_certificates(QCombContext(3, 2))["pass"]
    assert congruence_certificates(QCombContext(3, 5))["pass"]


def test_context_validation():
    with pytest.raises(ValueError):
        QCombContext(0, 3)
    with pytest.raises(ValueError):
        QCombContext(2, 4)


@pytest.mark.parametrize("n,ell", [(97, 2), (58, 7), (25, 2), (3, 24989)])
def test_context_admits_printable_tables(n, ell):
    QCombContext(n, ell)


@pytest.mark.parametrize("n,ell", [(98, 2), (59, 7), (1200, 2)])
def test_context_refuses_unprintable_tables(n, ell):
    # ell^(3 n^2) >= 10^(2 MAX_DIGITS): some table entry would exceed MAX_DIGITS
    assert 3 * n * n * log10(ell) >= 2 * MAX_DIGITS
    with pytest.raises(BoundExceeded):
        QCombContext(n, ell)


def test_table_json_roundtrippable():
    import json

    t = b_coefficients(QCombContext(2, 3))
    blob = json.dumps(t.to_json_dict(), sort_keys=True)
    assert json.loads(blob)["lambda"] == [4, -3]
