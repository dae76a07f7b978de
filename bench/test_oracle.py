"""Tests of the benchmark's oracle against facts that follow from the
definitions alone.  Run with: python3 -m pytest bench"""

import itertools

import numpy as np

import oracle


def test_enumeration_counts():
    # n nonzero elements: (n-1)^2 free table cells and n twist values,
    # each taking one of n+1 values.
    enum = oracle.Enumeration(3)
    assert enum.counts() == [2, 3 ** 3, 4 ** 7]
    assert sum(enum.counts()) == 16413


def test_enumeration_follows_the_search_order():
    for n in (1, 2, 3):
        tables, alphas = oracle.enumerate_size(n)
        keys = [oracle.magma_key(t, a, n) for t, a in zip(tables, alphas)]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert np.all(tables[:, 0, :n] == np.arange(n)) and np.all(tables[:, n, :] == n)


def test_identity_twist_on_associative_monoids_satisfies_all_ten():
    z5 = np.add.outer(np.arange(5), np.arange(5)) % 5
    square_zero, _ = oracle.parse_relations("elements: e1 e2")
    idempotent, _ = oracle.parse_relations("e2*e2=e2")
    for table in (z5, square_zero, idempotent):
        assert oracle.profile(table, np.arange(len(table))) == frozenset(oracle.NAMES)


def test_identity_twist_on_a_non_associative_magma_satisfies_none():
    # (e2*e2)*e2 = e3*e2 = e2 but e2*(e2*e2) = e2*e3 = 0.
    table, _ = oracle.parse_relations("e2*e2=e3; e3*e2=e2")
    assert oracle.profile(table, np.arange(len(table))) == frozenset()


def test_least_relabeling_is_invariant_under_relabeling():
    rng = np.random.default_rng(0)
    n = 4
    table = rng.integers(0, n + 1, size=(n + 1, n + 1))
    table[0, :], table[:, 0] = np.arange(n + 1), np.arange(n + 1)
    table[n, :], table[:, n] = n, n
    alpha = np.append(rng.integers(0, n + 1, size=n), n)
    least = oracle.least_relabeling(table, alpha)
    for order in itertools.permutations(range(1, n)):
        moved = oracle.relabel(table, alpha, [0, *order, n])
        again = oracle.least_relabeling(*moved)
        assert np.array_equal(again[0], least[0]) and np.array_equal(again[1], least[1])


def test_jacobi_on_sl2_and_its_twisted_sums():
    p = 7
    c = np.zeros((3, 3, 3), dtype=np.int64)
    for (i, j), vec in {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)}.items():
        c[i, j], c[j, i] = vec, -np.array(vec)
    assert oracle.is_lie(c % p, p)
    alpha = np.random.default_rng(1).integers(0, p, size=(3, 3))
    jac = oracle.twisted_jacobiators(c % p, alpha, p)
    assert not np.any((jac["I1"] + jac["I2"] + jac["I3"]) % p)
    assert not np.any((jac["II1"] + jac["II2"] + jac["II3"]) % p)
    broken = c.copy()
    broken[0, 1], broken[1, 0] = (0, 0, 1), (0, 0, -1)
    assert not oracle.is_lie(broken % p, p)
