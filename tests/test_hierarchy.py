import itertools
import json

import numpy as np
import pytest

from homlab import (
    AlphaNotInvertible,
    HypothesisNotMet,
    IMPLICATION_EDGES,
    LEMMAS,
    SUSPECT_EDGES,
    TypeTag,
    builtin,
    canonical_form,
    counterexample_fixtures,
    cyclic_group_magma,
    from_relations,
    holds,
    inverse_twist_check,
    lemma_equalities,
    linearize,
    model_key,
    new_algebra,
    new_magma,
    verify_fixture,
    verify_hierarchy,
    verify_implication,
)
from homlab.hierarchy import Fixture

FIXTURES = {f.num: f for f in counterexample_fixtures()}


def all_small_magmas(max_nonzero):
    """Complete enumeration of unital with-zero magmas, independent of the
    search module."""
    for n in range(1, max_nonzero + 1):
        size = n + 1
        zero = size - 1
        cells = [(i, j) for i in range(1, n) for j in range(1, n)]
        for combo in itertools.product(range(size), repeat=len(cells)):
            table = [[zero] * size for _ in range(size)]
            for x in range(size):
                table[0][x] = table[x][0] = x
                table[zero][x] = table[x][zero] = zero
            for (i, j), v in zip(cells, combo):
                table[i][j] = v
            for alphas in itertools.product(range(size), repeat=n):
                yield new_magma(size, table, list(alphas) + [zero], unit=0, zero=zero)


def test_catalog_is_complete():
    fixtures = counterexample_fixtures()
    assert [f.num for f in fixtures] == list(range(1, 17))
    assert FIXTURES[1].satisfied >= {"I2"} and FIXTURES[1].violated >= {"I3"}
    assert FIXTURES[10].relations == "e2*e2=e1; e3*e3=e2; alpha: e1->e3"
    assert FIXTURES[10].satisfied == {"II2", "II3"} and FIXTURES[10].violated == {"II1"}
    assert FIXTURES[16].satisfied == {"I3"} and FIXTURES[16].violated == {"III", "III'"}


@pytest.mark.parametrize("num", sorted(FIXTURES))
def test_every_fixture_verifies(num):
    report = verify_fixture(FIXTURES[num])
    assert report.passed, report.mismatches


def test_wrong_claim_is_reported():
    f = FIXTURES[4]
    doctored = Fixture(f.num, f.claim, f.relations, f.satisfied, f.violated | {"I3"})
    report = verify_fixture(doctored)
    assert not report.passed
    assert any("I3" in m for m in report.mismatches)
    doctored2 = Fixture(f.num, f.claim, f.relations, f.satisfied | {"I1"}, f.violated - {"I1"})
    assert not verify_fixture(doctored2).passed


def test_edge_set_is_exactly_the_hierarchy():
    edges = {(tuple(sorted(e.premises)), e.conclusion) for e in IMPLICATION_EDGES}
    assert edges == {
        (("I1",), "II"),
        (("II",), "I1"),
        (("I1",), "I3"),
        (("I3",), "I2"),
        (("I3",), "II2"),
        (("I3",), "II3"),
        (("I1",), "III"),
        (("I1",), "III'"),
        (("I1",), "III''"),
        (("I3",), "III''"),
        (("I2",), "III''"),
        (("II2",), "III''"),
        (("II1", "II3"), "III''"),
        (("I2", "II3"), "II1"),
        (("I2", "II1"), "II3"),
        (("I1",), "II1"),
    }
    assert {(tuple(sorted(e.premises)), e.conclusion) for e in SUSPECT_EDGES} == {
        (("III",), "I1"),
        (("III'",), "I1"),
        (("III''",), "I1"),
    }


def test_every_edge_holds_on_complete_small_enumeration():
    # equivalent formulation of exhaustion at bound 2, via the independent
    # enumeration: every magma satisfying the premises satisfies the
    # conclusion
    tags = {n: builtin(TypeTag("assoc", n)) for n in
            {n for e in IMPLICATION_EDGES for n in e.premises | {e.conclusion}}}
    for m in all_small_magmas(2):
        sat = {n for n, ident in tags.items() if holds(m, ident)}
        for e in IMPLICATION_EDGES:
            if e.premises <= sat:
                assert e.conclusion in sat


def test_i1_and_ii_equivalent_on_small_models():
    i1 = builtin(TypeTag("assoc", "I1"))
    ii = builtin(TypeTag("assoc", "II"))
    for m in all_small_magmas(2):
        assert holds(m, i1) == holds(m, ii)


def test_deliberately_wrong_edge_finds_countermodel():
    verdict = verify_implication({"II2"}, "I2", 3)
    assert verdict.found
    # fixture 6 witnesses the same refutation through the evaluator
    m6 = FIXTURES[6].magma()
    assert holds(m6, builtin(TypeTag("assoc", "II2")))
    assert not holds(m6, builtin(TypeTag("assoc", "I2")))


def test_degenerate_bound_exhausts_trivially():
    verdict = verify_implication({"II2"}, "I2", 1)
    assert not verdict.found
    assert verdict.bound == 1


def test_lemma_suites_on_complete_enumeration():
    counts = {lemma: 0 for lemma in LEMMAS}
    for m in all_small_magmas(2):
        for lemma in LEMMAS:
            try:
                ok = lemma_equalities(m, lemma)
            except HypothesisNotMet:
                continue
            counts[lemma] += 1
            assert ok, (lemma, m.table, m.alpha)
    # each lemma's hypothesis is met by at least the identity-twist monoids
    assert all(c > 0 for c in counts.values())


def test_lemma_hypothesis_gate():
    m6 = FIXTURES[6].magma()  # not of type I1 (nor II)
    with pytest.raises(HypothesisNotMet):
        lemma_equalities(m6, "I1-or-II")
    with pytest.raises(KeyError):
        lemma_equalities(m6, "nonexistent")


def test_lemma_i3_unit_on_enumerated_i3_magmas():
    i3 = builtin(TypeTag("assoc", "I3"))
    hits = 0
    for m in all_small_magmas(2):
        if holds(m, i3):
            hits += 1
            assert lemma_equalities(m, "I3-unit")
    assert hits > 0


def test_verify_hierarchy_report():
    report = verify_hierarchy(max_n=2)
    assert report.passed
    data = report.to_dict()
    assert data["passed"] is True
    assert len(data["edges"]) == len(IMPLICATION_EDGES)
    assert len(data["fixtures"]) == 16
    assert all(v["outcome"] == "exhausted" for v in data["edges"].values())
    # reverse probes are refuted by explicit countermodels
    assert all(v["outcome"] == "countermodel" for v in data["suspect_edges"].values())
    assert "overall: pass" in report.to_text()
    json.dumps(data)  # machine-readable form is serializable


def test_inverse_twist_group_algebra():
    algebra = linearize(cyclic_group_magma(3, twist_power=1), 7)
    report = inverse_twist_check(algebra)
    assert report.holds_i3 and report.holds_ii and report.passed
    g = np.array([0, 1, 0], dtype=np.int64)
    assert np.array_equal(report.weak_unit, g)
    # beta is the inverse rotation
    assert np.array_equal(
        (report.inverse_twist @ algebra.alpha) % 7, np.eye(3, dtype=np.int64)
    )


def test_inverse_twist_identity_twist():
    algebra = linearize(cyclic_group_magma(3, twist_power=0), 7)
    report = inverse_twist_check(algebra)
    assert report.passed
    assert np.array_equal(report.inverse_twist, np.eye(3, dtype=np.int64))


def test_inverse_twist_singular_alpha():
    base = linearize(cyclic_group_magma(3, twist_power=0), 7)
    singular = base.with_twist(np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(AlphaNotInvertible):
        inverse_twist_check(singular)


def test_inverse_twist_requires_type_i1():
    not_i1 = linearize(FIXTURES[4].magma(), 7)
    with pytest.raises(HypothesisNotMet):
        inverse_twist_check(not_i1)


def test_inverse_twist_requires_weak_unit():
    # zero product, identity twist: type I1 holds vacuously but alpha is
    # not left multiplication by anything
    from homlab import NotWeaklyUnital

    a = new_algebra(7, np.zeros((2, 2, 2)), np.eye(2), "general")
    with pytest.raises(NotWeaklyUnital):
        inverse_twist_check(a)


def test_hierarchy_fails_when_a_suspect_probe_finds_no_countermodel():
    # At bound 1 every edge is exhausted and every fixture verifies, but
    # none of the three reverse arrows meets its refuting countermodel.
    report = verify_hierarchy(max_n=1)
    assert all(e.confirmed for e in report.edges)
    assert all(f.passed for f in report.fixtures)
    assert not any(e.verdict.found for e in report.suspects)
    assert not report.passed
    assert report.to_dict()["passed"] is False
    text = report.to_text()
    assert "FAIL no countermodel" in text and "overall: FAIL" in text
