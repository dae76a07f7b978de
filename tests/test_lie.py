import tracemalloc

import numpy as np
import pytest

from homlab import (
    HypothesisNotMet,
    TypeTag,
    builtin,
    central_series,
    expansion_residuals,
    holds_multilinear,
    i1_not_i2_algebra,
    is_lie,
    jacobiator,
    lie_fixtures,
    new_algebra,
    nonlie_hom_iii_algebra,
    hom_iii_by_kernel_algebra,
    self_adjointness_probe,
    sl2_algebra,
    solvable2_algebra,
    solvable_morphism_algebra,
    abelian_algebra,
    sweep_jacobiator_sums,
    twisted_bracket,
    verify_jacobiator_sums,
    verify_lie_type_implications,
    verify_twisted_bracket_lie,
)
from homlab.evaluate import basis_grids
from homlab.liecheck import (
    _SWEEP_CELLS,
    _jacobiator_sums_vanish,
    _lie_type_verdicts,
    _sweep_blocks,
    _twisted_jacobiators,
    heisenberg_algebra,
    random_skew_constants,
    random_twist,
    sweep_lie_type_implications,
)
from homlab.modp import null_space, rref


def lie_tag(name):
    return TypeTag("lie", name)


# ------------------------------------------------------- named examples

def test_nonlie_hom_iii_example():
    a = nonlie_hom_iii_algebra(7)
    assert not is_lie(a)
    e = a.basis()
    plain = a.with_twist(np.eye(3, dtype=np.int64))
    assert jacobiator(plain, lie_tag("I1"), e[0], e[1], e[2]).tolist() == [1, 0, 0]
    assert holds_multilinear(a, builtin(lie_tag("III")))
    series = central_series(a, 2)
    assert np.array_equal(series[2], rref(np.array([[1, 0, 0], [0, 0, 1]]), 7))
    assert np.any(a.twist(series[2]))  # twist does not vanish on V^2
    # the twist kernel is one-dimensional
    assert null_space(a.alpha, 7).shape[0] == 1


def test_i1_not_i2_example():
    a = i1_not_i2_algebra(7)
    assert is_lie(a)
    assert holds_multilinear(a, builtin(lie_tag("I1")))
    assert not holds_multilinear(a, builtin(lie_tag("I2")))
    e = a.basis()
    inner = a.product(a.twist(e[1]), e[1])  # [a(e2), e2]
    assert np.any(inner)
    assert a.product(e[0], inner).tolist() == [0, 1]  # [e1, [a(e2), e2]] = e2


def test_kernel_construction_forces_type_iii():
    a = hom_iii_by_kernel_algebra(7)
    assert holds_multilinear(a, builtin(lie_tag("III")))
    assert not is_lie(a)


def test_random_brackets_with_twist_killing_v2_are_type_iii():
    rng = np.random.default_rng(20)
    found_nonlie = 0
    for _ in range(25):
        c = random_skew_constants(3, 7, rng)
        a = new_algebra(7, c, np.zeros((3, 3), dtype=np.int64), "skew")
        v2 = central_series(a, 2)[2]
        if v2.shape[0] == 0:
            continue
        # any twist of the form R @ K with K spanning the annihilator of
        # V^2 kills V^2
        k = null_space(v2, 7)
        if k.shape[0] == 0:
            continue
        r = rng.integers(0, 7, size=(3, k.shape[0]))
        alpha = (r @ k) % 7
        twisted = a.with_twist(alpha)
        assert not np.any(twisted.twist(v2))
        assert holds_multilinear(twisted, builtin(lie_tag("III")))
        if not is_lie(a):
            found_nonlie += 1
    assert found_nonlie > 0


def test_lie_fixtures_load_with_claims():
    names = [f.name for f in lie_fixtures(7)]
    assert names == [
        "dim3-nonlie-hom-iii",
        "dim2-i1-not-i2",
        "twist-kills-lower-central",
        "solvable-morphism",
    ]
    # other primes away from 2 and 3 work as well
    assert len(lie_fixtures(11)) == 4


# ------------------------------------------------------ jacobiator sums

def test_jacobiator_sums_on_lie_fixtures():
    rng = np.random.default_rng(0)
    for a in (abelian_algebra(3, 7), solvable2_algebra(7), sl2_algebra(7)):
        for _ in range(20):
            twisted = a.with_twist(random_twist(a.dim, a.p, rng))
            assert verify_jacobiator_sums(twisted)


def test_jacobiator_sums_reject_non_lie():
    with pytest.raises(HypothesisNotMet):
        verify_jacobiator_sums(nonlie_hom_iii_algebra(7))


def test_jacobiator_sum_sweeps_are_seeded():
    a = sl2_algebra(7)
    assert sweep_jacobiator_sums(a, samples=10, seed=4) is True
    assert sweep_jacobiator_sums(a, samples=10, seed=4) is True


@pytest.mark.parametrize("sweep", [sweep_jacobiator_sums, sweep_lie_type_implications])
def test_sweeps_check_the_lie_hypothesis_at_any_sample_count(sweep):
    for samples in (0, 3):
        with pytest.raises(HypothesisNotMet):
            sweep(nonlie_hom_iii_algebra(7), samples, 0)
    with pytest.raises(ValueError):
        sweep(sl2_algebra(7), -3, 0)
    assert sweep(sl2_algebra(7), 0, 0) is True


# -------------------------------------------------- stacked twist sweeps

DEGREE_ONE_AND_TWO = ("I1", "I2", "I3", "II1", "II2", "II3")
IMPLICATION_TYPES = ("I1", "I2", "II1", "II2")


def special_and_random_twists(d, seed):
    """The zero twist, the identity, a scalar, a shear and its transpose,
    then seeded random twists."""
    shear = np.eye(d, dtype=np.int64)
    shear[0, d - 1] = 1
    special = [np.zeros((d, d), dtype=np.int64), np.eye(d, dtype=np.int64),
               3 * np.eye(d, dtype=np.int64), shear, shear.T]
    rng = np.random.default_rng(seed)
    return np.array(special + [random_twist(d, 7, rng) for _ in range(8)])


@pytest.mark.parametrize("a", [
    abelian_algebra(3, 7), solvable2_algebra(7), sl2_algebra(7), heisenberg_algebra(7),
    i1_not_i2_algebra(7), solvable_morphism_algebra(7),
], ids=["abelian", "solvable2", "sl2", "heisenberg", "i1-not-i2", "solvable-morphism"])
def test_stacked_twists_agree_with_each_twist(a):
    # Every sum vanishes under every twist, so only a comparison twist by
    # twist, not the sweep's all(), shows a misaligned or transposed stack.
    twists = special_and_random_twists(a.dim, seed=a.dim)
    values = _twisted_jacobiators(a, twists, DEGREE_ONE_AND_TWO)
    verdicts = _lie_type_verdicts(a, twists)
    assert _jacobiator_sums_vanish(a, twists).all()
    for k, t in enumerate(twists):
        b = a.with_twist(t)
        for name in DEGREE_ONE_AND_TWO:
            expected = jacobiator(b, lie_tag(name), *basis_grids(b))
            assert np.array_equal(values[name][k], expected), (k, name)
        assert verdicts[k].tolist() == [
            holds_multilinear(b, builtin(lie_tag(name))) for name in IMPLICATION_TYPES
        ], k


@pytest.mark.parametrize("extra", [0, 5])
def test_sweep_blocks_match_one_twist_at_a_time(extra):
    # Two full blocks, then (with extra) a third, partial one.
    a = sl2_algebra(7)
    step = _SWEEP_CELLS // a.dim**4
    samples = 2 * step + extra

    def stacked(algebra, twists):
        values = _twisted_jacobiators(algebra, twists, ("I2", "II3"))
        return twists, values, _lie_type_verdicts(algebra, twists)

    results = list(_sweep_blocks(a, samples, 11, stacked))
    assert [len(t) for t, _, _ in results] == [step, step] + ([extra] if extra else [])
    rng = np.random.default_rng(11)
    k = 0
    for twists, values, verdicts in results:
        for row, t in enumerate(twists):
            assert np.array_equal(t, random_twist(a.dim, a.p, rng))
            one = _twisted_jacobiators(a, t[None], ("I2", "II3"))
            for name in ("I2", "II3"):
                assert np.array_equal(values[name][row], one[name][0]), (k, name)
            assert np.array_equal(verdicts[row], _lie_type_verdicts(a, t[None])[0]), k
            k += 1
    assert k == samples


def test_sweep_memory_is_bounded_by_a_block():
    # A block's working set is about ten (K, d, d, d, d) grids of at most
    # _SWEEP_CELLS int64 cells: the six sums and the partial values.  The
    # 2,000 twists stacked at once would need about ten times that.
    a = sl2_algebra(7)

    def peak(samples):
        tracemalloc.start()
        try:
            assert sweep_jacobiator_sums(a, samples, 0)
            assert sweep_lie_type_implications(a, samples, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2000) < peak(50) + 12 * _SWEEP_CELLS * 8


# ----------------------------------------------------- type implications

def test_type_implications_zero_twist():
    a = sl2_algebra(7).with_twist(np.zeros((3, 3), dtype=np.int64))
    report = verify_lie_type_implications(a)
    assert report.holds_i1 and report.holds_i2 and report.passed


def test_type_implications_shear_example():
    report = verify_lie_type_implications(i1_not_i2_algebra(7))
    # the converse direction genuinely fails: I1 without I2
    assert report.holds_i1 and not report.holds_i2
    assert report.passed


def test_type_implications_random_sweep_heisenberg():
    assert sweep_lie_type_implications(heisenberg_algebra(5), samples=300, seed=8)


def test_type_implications_need_lie():
    with pytest.raises(HypothesisNotMet):
        verify_lie_type_implications(nonlie_hom_iii_algebra(7))


# ------------------------------------------------------------ expansion

def test_expansion_zero_twist():
    a = sl2_algebra(7).with_twist(np.zeros((3, 3), dtype=np.int64))
    report = expansion_residuals(a)
    assert report.nine_term_matches
    assert report.residual_is_zero
    assert report.residual_equals_omitted


def test_expansion_identity_twist():
    report = expansion_residuals(sl2_algebra(7))
    assert report.nine_term_matches
    assert report.residual_equals_omitted


def test_expansion_on_random_skew_brackets():
    rng = np.random.default_rng(31)
    saw_nonzero_residual = False
    for _ in range(40):
        d = int(rng.integers(2, 4))
        a = new_algebra(
            7, random_skew_constants(d, 7, rng), random_twist(d, 7, rng), "skew"
        )
        report = expansion_residuals(a)
        assert report.nine_term_matches
        assert report.residual_equals_omitted
        saw_nonzero_residual = saw_nonzero_residual or not report.residual_is_zero
    # the six-term closed form genuinely differs from the direct expansion
    assert saw_nonzero_residual


# ------------------------------------------------------- twisted bracket

def test_twisted_bracket_morphism_route():
    report = verify_twisted_bracket_lie(solvable_morphism_algebra(7, scale=3))
    assert report.morphism and report.applicable and report.twisted_is_lie
    assert report.passed


def test_twisted_bracket_identity_twist():
    report = verify_twisted_bracket_lie(sl2_algebra(7))
    assert report.morphism
    assert report.twisted_is_lie  # three times a Lie bracket


def test_twisted_bracket_zero_twist_pair_route():
    a = sl2_algebra(7).with_twist(np.zeros((3, 3), dtype=np.int64))
    report = verify_twisted_bracket_lie(a)
    assert report.hom_pair
    assert report.twisted_is_lie


def test_twisted_bracket_inapplicable_cases_pass():
    alpha = np.array([[3, 3, 5], [6, 0, 1], [5, 6, 1]], dtype=np.int64)
    report = verify_twisted_bracket_lie(sl2_algebra(7).with_twist(alpha))
    assert not report.applicable
    assert report.passed and report.twisted_is_lie is None
    # the shear example, by contrast, satisfies both degree-two types and
    # its twisted bracket stays Lie
    shear = verify_twisted_bracket_lie(i1_not_i2_algebra(7))
    assert shear.hom_pair and shear.twisted_is_lie


def test_twisted_bracket_random_pair_witnesses():
    # random twists satisfying both degree-two types keep the twisted
    # bracket Lie on these carriers
    rng = np.random.default_rng(77)
    carriers = [sl2_algebra(7), heisenberg_algebra(7), solvable2_algebra(7)]
    found = 0
    for _ in range(400):
        base = carriers[int(rng.integers(0, len(carriers)))]
        a = base.with_twist(random_twist(base.dim, 7, rng))
        report = verify_twisted_bracket_lie(a)
        if report.hom_pair:
            found += 1
            assert report.twisted_is_lie
    assert found > 0


def test_twisted_bracket_output_is_validated_skew():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = new_algebra(
            7, random_skew_constants(3, 7, rng), random_twist(3, 7, rng), "skew"
        )
        tw = twisted_bracket(a)
        assert tw.kind == "skew"  # construction re-validates skewness


# -------------------------------------------------------- self-adjointness

def test_self_adjoint_scalar_twist():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = new_algebra(
            7,
            random_skew_constants(3, 7, rng),
            (int(rng.integers(1, 7)) * np.eye(3, dtype=np.int64)) % 7,
            "skew",
        )
        report = self_adjointness_probe(a, seed=1)
        assert report.self_adjoint
        assert report.passed
        assert report.bracket_with_twist_vanishes


def test_self_adjoint_zero_twist():
    a = sl2_algebra(7).with_twist(np.zeros((3, 3), dtype=np.int64))
    report = self_adjointness_probe(a)
    assert report.self_adjoint and report.sum_is_zero and report.each_is_zero
    assert report.passed


def test_shear_twist_is_not_self_adjoint():
    report = self_adjointness_probe(i1_not_i2_algebra(7))
    assert not report.self_adjoint
    assert report.passed  # nothing to check when the hypothesis fails


def test_probe_needs_odd_characteristic():
    a = new_algebra(2, np.zeros((2, 2, 2)), np.eye(2), "skew")
    with pytest.raises(HypothesisNotMet):
        self_adjointness_probe(a)
