import itertools
import multiprocessing
import multiprocessing.pool
import os

import numpy as np
import pytest

from homlab import (
    CyclicNotSupportedOnMagma,
    HomLabError,
    SearchSpec,
    TYPE_NAMES,
    builtin,
    canonical_form,
    counterexample_fixtures,
    enumerate_models,
    find_model,
    holds,
    model_key,
    new_magma,
    spec_from_dict,
    spec_to_dict,
    tag_from_string,
    verdict_to_dict,
    verify_hierarchy,
    verify_implication,
)
from homlab.search import _SizeSearch, _tasks

FIXTURES = {f.num: f for f in counterexample_fixtures()}


def brute_force_models(max_n, require, violate):
    """Independent oracle: enumerate every unital with-zero magma up to
    max_n nonzero elements by raw product iteration, filter through the
    public evaluator, no pruning anywhere."""
    req = [builtin(tag_from_string(t)) for t in require]
    vio = [builtin(tag_from_string(t)) for t in violate]
    out = []
    for n in range(1, max_n + 1):
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
                m = new_magma(size, table, list(alphas) + [zero], unit=0, zero=zero)
                if all(holds(m, r) for r in req) and not any(holds(m, v) for v in vio):
                    out.append(m)
    return out


def test_find_model_returns_least_item1_like_model():
    v = find_model(SearchSpec(max_n=2, require=("I2",), violate=("I3",)))
    assert v.found
    m = v.model
    assert m.nonzero_count() == 2
    assert m.alpha == (m.zero, 0, m.zero)  # alpha(e1)=0, alpha(e2)=e1
    assert all(
        m.table[i][j] == m.zero for i in (1,) for j in (1,)
    )  # the only free cell is zero
    # the first model found in lexicographic order is its own canonical form
    assert canonical_form(m) == m
    # and it is the overall least countermodel per the brute-force oracle
    oracle = brute_force_models(2, ["I2"], ["I3"])
    assert model_key(m) == min(model_key(o) for o in oracle)


def test_find_model_exhausts_true_implication():
    v = verify_implication({"I1"}, "I3", 3)
    assert not v.found
    assert v.bound == 3
    assert v.outcome == "exhausted"


def test_find_model_unconstrained_violation():
    v = find_model(SearchSpec(max_n=2, require=(), violate=("I1",)))
    assert v.found
    assert not holds(v.model, builtin(tag_from_string("I1")))


def test_workers_do_not_change_the_verdict():
    spec = SearchSpec(max_n=3, require=("II2", "II3"), violate=("II1",))
    verdicts = [find_model(spec, workers=w) for w in (1, 2, 8)]
    assert all(v.found for v in verdicts)
    assert verdicts[0].model == verdicts[1].model == verdicts[2].model
    dicts = [verdict_to_dict(v) for v in verdicts]
    assert dicts[0] == dicts[1] == dicts[2]

    spec2 = SearchSpec(max_n=3, require=("I1",), violate=("II",))
    exhausted = [find_model(spec2, workers=w) for w in (1, 2, 8)]
    assert all(not v.found for v in exhausted)
    assert len({str(verdict_to_dict(v)) for v in exhausted}) == 1


def test_enumerate_trivial_size_one():
    models = enumerate_models(SearchSpec(max_n=1, require=tuple(TYPE_NAMES)), limit=10)
    assert len(models) == 2  # alpha(e1) = 0 and alpha(e1) = e1 both satisfy all
    for m in models:
        assert m.nonzero_count() == 1


def test_enumerate_matches_unpruned_oracle():
    spec = SearchSpec(max_n=2, require=("I1",))
    mine = enumerate_models(spec, limit=10_000)
    oracle = brute_force_models(2, ["I1"], [])
    assert {model_key(canonical_form(m)) for m in mine} == {
        model_key(canonical_form(m)) for m in oracle
    }
    # pruning off keeps every representative, pruned keeps one per class
    unpruned = enumerate_models(
        SearchSpec(max_n=2, require=("I1",), prune_isomorphs=False), limit=10_000
    )
    assert len(unpruned) == len(oracle)
    assert len(mine) == len({model_key(canonical_form(m)) for m in oracle})


def test_enumerate_finds_fixture_shapes():
    spec = SearchSpec(max_n=3, require=("III''",), violate=("III",))
    models = enumerate_models(spec, limit=10_000)
    assert models
    keys = {model_key(canonical_form(m)) for m in models}
    assert model_key(canonical_form(FIXTURES[14].magma())) in keys

    spec10 = SearchSpec(max_n=3, require=("II2", "II3"), violate=("II1",))
    keys10 = {model_key(canonical_form(m)) for m in enumerate_models(spec10, limit=10_000)}
    assert model_key(canonical_form(FIXTURES[10].magma())) in keys10


def test_canonical_form_idempotent():
    for num in (1, 4, 7, 10, 15):
        c = canonical_form(FIXTURES[num].magma())
        assert canonical_form(c) == c


def test_canonical_form_invariant_under_relabeling():
    m = FIXTURES[7].magma()
    swapped = m.relabel([0, 2, 1, 3])
    assert canonical_form(m) == canonical_form(swapped)
    m11 = FIXTURES[11].magma()
    for perm in itertools.permutations([1, 2, 3]):
        full = [0] + list(perm) + [4]
        assert canonical_form(m11.relabel(full)) == canonical_form(m11)


def test_canonical_form_distinguishes_different_twists():
    assert canonical_form(FIXTURES[1].magma()) != canonical_form(FIXTURES[3].magma())
    # items 1 and 12 are literally the same structure refuting two claims
    assert canonical_form(FIXTURES[1].magma()) == canonical_form(FIXTURES[12].magma())


def test_spec_validation():
    with pytest.raises(HomLabError):
        SearchSpec(max_n=0)
    with pytest.raises(HomLabError):
        SearchSpec(max_n=2, require=("I1",), violate=("I1",))
    with pytest.raises(CyclicNotSupportedOnMagma):
        find_model(SearchSpec(max_n=1, require=("cyc [x,[y,z]] = 0",)))


def test_spec_dict_round_trip():
    spec = spec_from_dict(
        {"max_n": 2, "require": ["I2"], "violate": ["I3"], "custom": ["x*y = y*x"]}
    )
    assert spec.max_n == 2
    assert "x*y = y*x" in spec.require
    data = spec_to_dict(spec)
    assert data["require"] == ["I2", "x*y = y*x"]
    assert data["violate"] == ["I3"]


def test_custom_identity_constraints():
    # commutativity as a custom requirement plus a violated builtin
    spec = spec_from_dict(
        {"max_n": 2, "require": [], "violate": ["I1"], "custom": ["x*y = y*x"]}
    )
    v = find_model(spec)
    assert v.found
    assert holds(v.model, builtin(tag_from_string("I1"))) is False
    m = v.model
    for i in range(m.size):
        for j in range(m.size):
            assert m.table[i][j] == m.table[j][i]


def test_non_unital_search():
    spec = SearchSpec(max_n=1, require=("x*x = x",), with_zero=False, unital=False)
    v = find_model(spec)
    assert v.found
    assert v.model.unit is None
    assert v.model.table == ((0,),)


def test_soundness_on_random_specs():
    rng = np.random.default_rng(99)
    names = list(TYPE_NAMES)
    for _ in range(60):
        k = int(rng.integers(0, 3))
        require = tuple(rng.choice(names, size=k, replace=False))
        rest = [n for n in names if n not in require]
        violate = (rest[int(rng.integers(0, len(rest)))],)
        spec = SearchSpec(max_n=2, require=require, violate=violate)
        v = find_model(spec)
        if v.found:
            for r in require:
                assert holds(v.model, builtin(tag_from_string(r)))
            for s in violate:
                assert not holds(v.model, builtin(tag_from_string(s)))
        mine = {
            model_key(canonical_form(m))
            for m in enumerate_models(spec, limit=10_000)
        }
        oracle = {
            model_key(canonical_form(m))
            for m in brute_force_models(2, require, violate)
        }
        assert mine == oracle
        assert v.found == bool(oracle)


# Small specs for the split: with and without zero, unital and not.
SPLIT_SPECS = (
    SearchSpec(max_n=3, require=("I2", "II1"), violate=("I3",)),
    SearchSpec(max_n=3, require=("I1",), with_zero=False),
    SearchSpec(max_n=2, require=("x*y = y*x",), violate=("I1",), with_zero=False, unital=False),
    SearchSpec(max_n=2, require=("II2",), unital=False),
)


@pytest.mark.parametrize("spec", SPLIT_SPECS, ids=("zero-unit", "unit", "bare", "zero"))
def test_split_at_every_depth_matches_the_whole_search(spec):
    whole = _SizeSearch(spec, spec.max_n)
    serial = list(whole.run())
    assert serial
    for depth in range(len(whole.slots) + 1):
        cube = _SizeSearch(spec, spec.max_n)
        models, nodes, leaves = [], 0, 0
        for prefix in cube.prefixes(depth):
            assert len(prefix) == depth
            part = _SizeSearch(spec, spec.max_n)
            models += part.run(prefix)
            nodes += part.nodes
            leaves += part.models
        assert models == serial
        assert cube.nodes + nodes == whole.nodes
        assert leaves == whole.models


DEEP4 = SearchSpec(max_n=4, require=("I2", "II1", "II3"), violate=("II2",))


def test_deep4_model_is_the_same_for_every_worker_count():
    serial = find_model(DEEP4, workers=1)
    assert serial.found and serial.bound == 4
    assert (serial.stats.nodes, serial.stats.models) == (35_636, 8_583)
    for workers in (2, 3):
        verdict = find_model(DEEP4, workers=workers)
        assert verdict.model == serial.model and verdict.bound == 4
        # Beyond the serial search, only the tasks in flight when the
        # winner arrives are spent.
        assert verdict.stats.nodes < 1.1 * serial.stats.nodes
        assert multiprocessing.active_children() == []


def _task_outcomes(spec):
    """For each task of the stream, whether it holds a model."""
    return [next(_SizeSearch(spec, n).run(p), None) is not None for _, n, p in _tasks(spec, [])]


def test_exhausted_and_last_task_specs_agree_at_two_workers():
    exhausted = SearchSpec(max_n=3, require=("I1",), violate=("I3",))
    # The only model lies under the last split prefix of the last size.
    last = SearchSpec(max_n=2, require=("I1",), violate=("II2",), unital=False)
    outcomes = _task_outcomes(last)
    assert len(outcomes) > 2 and outcomes.index(True) == len(outcomes) - 1
    for spec in (exhausted, last):
        one, two = find_model(spec, workers=1), find_model(spec, workers=2)
        assert verdict_to_dict(one) == verdict_to_dict(two)
        assert (one.found, one.bound) == (spec is last, spec.max_n)


def test_no_worker_outlives_an_early_stop(monkeypatch):
    def refuse(pool):
        raise AssertionError("terminate() called on the normal path")

    monkeypatch.setattr(multiprocessing.pool.Pool, "terminate", refuse)
    spec = SearchSpec(max_n=3, require=("II2", "II3"), violate=("II1",))
    outcomes = _task_outcomes(spec)
    # More tasks follow the winner than the window of 2 x 2 holds.
    assert len(outcomes) - outcomes.index(True) > 5
    verdict = find_model(spec, workers=2)
    assert verdict.found and verdict.bound == 3
    assert multiprocessing.active_children() == []


def test_pool_starts_only_for_a_stream_longer_than_its_window(monkeypatch):
    context = multiprocessing.get_context("fork")
    started, real = [], context.Pool

    def counting(processes=None, *args, **kwargs):
        started.append(processes)
        return real(processes, *args, **kwargs)

    monkeypatch.setattr(context, "Pool", counting)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    short = SearchSpec(max_n=2, require=("I2",), violate=("I3",))
    assert verdict_to_dict(find_model(short, workers=2)) == verdict_to_dict(find_model(short))
    assert verify_hierarchy(max_n=2, workers=2).passed
    assert started == []
    assert find_model(DEEP4, workers=2).found
    assert started == [2]
    assert multiprocessing.active_children() == []


class _Refused(Exception):
    pass


def test_worker_count_is_capped_at_the_cpu_count(monkeypatch):
    # The stand-in pool records the size asked for and starts nothing.
    asked = []

    def record(processes=None, *args, **kwargs):
        asked.append(processes)
        raise _Refused

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", record)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    with pytest.raises(_Refused):
        find_model(DEEP4, workers=100_000)
    assert asked == [3]
    # Unknown CPU count: one worker, in this process.
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    exhausted = SearchSpec(max_n=3, require=("I1",), violate=("I3",))
    assert not find_model(exhausted, workers=100_000).found
    assert asked == [3]
