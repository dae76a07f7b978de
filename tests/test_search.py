import itertools
import math
import multiprocessing
import multiprocessing.pool
import os
import random
import tracemalloc
from dataclasses import fields, replace

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
    cyclic_group_magma,
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
from homlab.evaluate import magma_program, magma_sides
from homlab.search import SPEC_KEYS, _KERNEL_CELLS, _SizeSearch, _tasks, resolve_requirement

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


def test_enumerate_limit_zero_is_empty_and_negative_is_refused():
    spec = SearchSpec(max_n=1, require=tuple(TYPE_NAMES))
    assert enumerate_models(spec, limit=0) == []
    assert len(enumerate_models(spec, limit=1)) == 1
    with pytest.raises(ValueError, match="limit must not be negative, got -3"):
        enumerate_models(spec, limit=-3)


def test_enumerate_matches_unpruned_oracle():
    spec = SearchSpec(max_n=2, require=("I1",))
    mine = enumerate_models(spec, limit=10_000)
    oracle = brute_force_models(2, ["I1"], [])
    assert {model_key(canonical_form(m)) for m in mine} == {
        model_key(canonical_form(m)) for m in oracle
    }
    # the search keeps every representative, enumerate_models one per class
    unpruned = [m for n in (1, 2) for m in _SizeSearch(spec, n).run()]
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


def _brute_canonical(m):
    """Test-local canonical form: (table, alpha) least over every relabeling
    that sends the unit to index 0 and the zero to the last index, with
    values compared zero first, then by index."""
    n = m.size
    zero = None if m.zero is None else n - 1
    rank = [0 if v == zero else v + 1 for v in range(n)]
    best = None
    for perm in itertools.permutations(range(n)):
        if m.unit is not None and perm[m.unit] != 0:
            continue
        if m.zero is not None and perm[m.zero] != n - 1:
            continue
        old = {new: i for i, new in enumerate(perm)}
        table = tuple(
            tuple(perm[m.table[old[i]][old[j]]] for j in range(n)) for i in range(n)
        )
        alpha = tuple(perm[m.alpha[old[i]]] for i in range(n))
        key = ([rank[v] for row in table for v in row], [rank[v] for v in alpha])
        if best is None or key < best[0]:
            best = (key, table, alpha)
    return best[1], best[2]


def _random_magma(rng):
    """A magma of 1-5 elements whose unit and zero are each absent or at
    any index, with default or arbitrary names."""
    n = rng.randint(1, 5)
    unit = rng.choice([None] + list(range(n)))
    zero = rng.choice([None] + [i for i in range(n) if i != unit])
    table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    for x in range(n):
        if unit is not None:
            table[unit][x] = table[x][unit] = x
        if zero is not None:
            table[zero][x] = table[x][zero] = zero
    alpha = [rng.randrange(n) for _ in range(n)]
    if zero is not None:
        alpha[zero] = zero
    names = rng.choice([None, [f"x{i}" for i in range(n)]])
    return new_magma(n, table, alpha, unit=unit, zero=zero, names=names)


def test_canonical_form_is_the_brute_force_minimum():
    rng = random.Random(20260318)
    magmas = [_random_magma(rng) for _ in range(40)]
    # Unpointed copies of the larger ones: every ordering is a candidate.
    magmas += [replace(m, unit=None, zero=None) for m in magmas if m.size >= 3][:8]
    magmas += [cyclic_group_magma(4, 1), cyclic_group_magma(5, 2), FIXTURES[11].magma()]
    for m in magmas:
        c = canonical_form(m)
        assert (c.table, c.alpha) == _brute_canonical(m)
        assert c.unit == (None if m.unit is None else 0)
        assert c.zero == (None if m.zero is None else m.size - 1)
        nonzero = [f"e{k}" for k in range(1, m.nonzero_count() + 1)]
        assert c.names == tuple(nonzero + ([] if m.zero is None else ["0"]))


def test_canonical_form_edge_cases_and_many_blocks():
    # The 7! orderings of the non-unit elements of a group of order 8 span
    # several blocks.  The four automorphisms of Z/8 tie four of them on the
    # least table; the twist x -> x+3 breaks the tie, x -> x+4 does not.
    assert math.factorial(7) * (8 * 8 + 8) > 2 * _KERNEL_CELLS
    group = cyclic_group_magma(8, 3)
    relabeled = group.relabel([3, 0, 6, 1, 7, 2, 5, 4])
    assert relabeled.unit == 3 and relabeled.table != group.table
    magmas = [
        new_magma(1, [[0]], [0], unit=0),  # the unit alone
        new_magma(2, [[0, 1], [1, 1]], [1, 1], unit=0, zero=1),  # one empty ordering
        group,
        relabeled,
        cyclic_group_magma(8, 4),
    ]
    forms = [canonical_form(m) for m in magmas]
    for m, c in zip(magmas, forms):
        assert (c.table, c.alpha) == _brute_canonical(m)
        assert c.unit == 0 and c.zero == (None if m.zero is None else m.size - 1)
    assert forms[0].names == ("e1",) and forms[1].names == ("e1", "0")
    assert forms[3] == forms[2]


def test_canonical_form_memory_is_bounded_by_a_block():
    # Keying all 5,040 orderings of this magma at once would take more than
    # 5,040 * 72 int64 cells (2.9 MB); one block takes a small fraction.
    m = cyclic_group_magma(8, 3)
    tracemalloc.start()
    try:
        canonical_form(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5040 * 72 * 8 // 2


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


def test_spec_format_matches_the_spec_fields():
    # A field, a spec_to_dict key or a spec_from_dict key added to one of
    # the three and not the others breaks the spec file format.
    names = {f.name for f in fields(SearchSpec)}
    spec = SearchSpec(max_n=2, require=("I2",), violate=("I3",), with_zero=False, unital=False)
    assert set(spec_to_dict(spec)) == names
    assert set(SPEC_KEYS) == names | {"custom"}
    # every key is read, not only accepted
    assert spec_from_dict(spec_to_dict(spec)) == spec
    assert spec_from_dict({"custom": ["x*y = y*x"]}).require == ("x*y = y*x",)
    for key in ("prune_isomorphs", "violates", "maxn"):
        with pytest.raises(HomLabError, match=repr(key)):
            spec_from_dict({**spec_to_dict(spec), key: True})


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


def _reference_dfs(spec, nonzero, first_only):
    """Test-local reference walk: a DFS over one carrier size that tries one
    value per slot (table cells row-major, then alpha; zero first), filters
    each required identity's pending triples on a padded table through
    evaluate.magma_sides, and counts each child when it reaches it.
    Returns (models, nodes, leaves); with first_only it stops at the first
    model."""
    size = nonzero + (1 if spec.with_zero else 0)
    zero = nonzero if spec.with_zero else None
    unit = 0 if spec.unital else None
    table = np.full((size + 1, size + 1), size, dtype=np.intp)
    alpha = np.full(size + 1, size, dtype=np.intp)
    if unit is not None:
        table[unit, :size] = table[:size, unit] = np.arange(size)
    if zero is not None:
        table[zero, :size] = table[:size, zero] = zero
        alpha[zero] = zero
    lo = 0 if unit is None else 1
    cells = [(table, (i, j)) for i in range(lo, nonzero) for j in range(lo, nonzero)]
    cells += [(alpha, i) for i in range(nonzero)]
    domain = ([] if zero is None else [zero]) + list(range(nonzero))
    required = [magma_program(resolve_requirement(r)) for r in spec.require]
    forbidden = [magma_program(resolve_requirement(v)) for v in spec.violate]
    grid = np.indices((size,) * 3).reshape(3, -1)
    models, count = [], {"nodes": 0, "leaves": 0}

    def pending(pendings):
        """Each identity's triples still undecided, or None if one fails."""
        out = []
        for program, triples in zip(required, pendings):
            lhs, rhs = np.broadcast_arrays(*magma_sides(program, table, alpha, unit, triples))
            decided = (lhs != size) & (rhs != size)
            if (lhs != rhs)[decided].any():
                return None
            out.append(triples[:, ~decided])
        return out

    def dfs(pos, pendings):
        if pos == len(cells):
            count["leaves"] += 1
            if all((np.not_equal(*magma_sides(p, table, alpha, unit, grid))).any()
                   for p in forbidden):
                models.append(new_magma(size, table[:size, :size].tolist(),
                                        alpha[:size].tolist(), unit=unit, zero=zero))
                return first_only
            return False
        array, index = cells[pos]
        for value in domain:
            count["nodes"] += 1
            array[index] = value
            children = pending(pendings)
            if children is not None and dfs(pos + 1, children):
                return True
        array[index] = size
        return False

    root = pending([grid] * len(required))
    if root is not None:
        dfs(0, root)
    return models, count["nodes"], count["leaves"]


def _split_walk(spec, depth, first_only):
    """_SizeSearch cut at depth, read the way find_model reads it at one
    worker: (models, nodes, leaves)."""
    cube = _SizeSearch(spec, spec.max_n)
    models, nodes, leaves = [], 0, 0
    for prefix in cube.prefixes(depth):
        part = _SizeSearch(spec, spec.max_n)
        found = part.run(prefix)
        models += itertools.islice(found, 1) if first_only else found
        nodes += part.nodes
        leaves += part.models
        if first_only and models:
            break
    return models, cube.nodes + nodes, leaves


REFERENCE_SPECS = SPLIT_SPECS + (
    SearchSpec(max_n=3, require=("II2", "II3"), violate=("II1",)),
    SearchSpec(max_n=3, require=("I1", "II3"), violate=("II2",)),
    SearchSpec(max_n=3, require=("x*(y*z) = (x*y)*z",), violate=("x*y = y*x",), with_zero=False),
)


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=(
    "zero-unit", "unit", "bare", "zero", "II2-II3", "exhausted", "assoc-noncomm",
))
def test_window_walk_matches_the_one_value_dfs(spec):
    whole = _reference_dfs(spec, spec.max_n, first_only=False)
    first = _reference_dfs(spec, spec.max_n, first_only=True)
    assert first[0] == whole[0][:1]
    slots = len(_SizeSearch(spec, spec.max_n).slots)
    for depth in range(slots + 1):
        assert _split_walk(spec, depth, first_only=False) == whole
        assert _split_walk(spec, depth, first_only=True) == first


def _seen_set_dedupe(spec, limit):
    """Each isomorphism class's first model in search order, as
    enumerate_models once kept them with a set of canonical keys."""
    out, seen = [], set()
    for nonzero in range(1, spec.max_n + 1):
        for m in _SizeSearch(spec, nonzero).run():
            key = model_key(canonical_form(m))
            if key not in seen:
                seen.add(key)
                out.append(m)
                if len(out) >= limit:
                    return out
    return out


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=(
    "zero-unit", "unit", "bare", "zero", "II2-II3", "exhausted", "assoc-noncomm",
))
def test_enumerate_keeps_each_class_least_model(spec):
    models = enumerate_models(spec, limit=10_000)
    assert models == _seen_set_dedupe(spec, 10_000)
    assert all(canonical_form(m) == m for m in models)
    keys = [model_key(m) for m in models]
    assert keys == sorted(keys)
    for limit in (1, 5):
        assert enumerate_models(spec, limit) == models[:limit]


@pytest.mark.parametrize("with_zero, models, nodes", [
    (False, 2_187, 3_279),
    (True, 16_384, 21_844),
])
def test_unpruned_walk_spans_two_windows(with_zero, models, nodes):
    search = _SizeSearch(SearchSpec(max_n=3, with_zero=with_zero), 3)
    assert len(search.slots) == 7  # more than one window of _TASK_SLOTS
    assert search.table.dtype == search.alpha.dtype == np.uint8
    keys = [model_key(m) for m in search.run()]
    assert len(keys) == models
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert (search.nodes, search.models) == (nodes, models)


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


def test_find_model_refuses_fewer_than_one_worker():
    spec = SearchSpec(max_n=2, require=("I2",), violate=("I3",))
    for workers in (0, -3):
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            find_model(spec, workers=workers)


# The kernels read the selected rows of a stack in place through flat
# offsets, and the code lookup indexes pairs of sides.  With 16 nonzero
# elements and a zero the padded edge is 18, so a pair index (up to
# 17 * 18 + 17) outgrows the stacks' uint8: each row's codes must still be
# those of magma_sides on that row's own intp table.

def _wide_stacks(search, rng, rows):
    """uint8 stacks of partial tables: each free cell and twist of row r is
    assigned with probability r / rows, the rest left undefined."""
    undef = search.size
    table = np.repeat(search.table, rows, axis=0)
    alpha = np.repeat(search.alpha, rows, axis=0)
    for r in range(rows):
        for kind, i, j in search.slots:
            if rng.random() < r / rows:
                value = rng.integers(0, undef)
                if kind == "t":
                    table[r, i, j] = value
                else:
                    alpha[r, i] = value
    return table, alpha


def _reference_codes(program, table, alpha, unit, triples):
    undef = table.shape[-1] - 1
    lhs, rhs = magma_sides(program, table.astype(np.intp), alpha.astype(np.intp), unit, triples)
    return np.where((lhs == undef) | (rhs == undef), 1, np.where(lhs == rhs, 0, 2))


def test_codes_read_wide_uint8_stacks_in_place(monkeypatch):
    spec = SearchSpec(max_n=16, require=("I1", "II3"), violate=("I3",))
    search = _SizeSearch(spec, 16)
    rng = np.random.default_rng(11)
    table, alpha = _wide_stacks(search, rng, 8)
    assert table.dtype == np.uint8 and table.shape[-1] == 18
    triples = search._all_triples[:, rng.choice(search._all_triples.shape[1], 600, replace=False)]
    programs = [magma_program(resolve_requirement(r)) for r in spec.require + spec.violate]
    reference = {
        (p, r): _reference_codes(p, table[r], alpha[r], search.unit, triples)
        for p in programs for r in range(len(table))
    }
    assert any(2 in c for c in reference.values()) and any(1 in c for c in reference.values())
    for rows in (np.arange(len(table)), np.array([6, 1, 7, 3])):
        for program, kernel in zip(programs, search.require + search.violate):
            codes = search._codes(kernel, table, alpha, rows, triples)
            assert codes.shape == (len(rows), triples.shape[1])
            for i, r in enumerate(rows):
                assert np.array_equal(codes[i], reference[program, r]), (program, r)

    # _filter, cut into chunks of two rows so that every later chunk reads
    # rows away from the start of the stacks.
    monkeypatch.setattr("homlab.search._KERNEL_CELLS", 2 * triples.shape[1])
    kept, pendings = search._filter(table, alpha, [triples] * 2)
    required = programs[:2]
    alive = [r for r in range(len(table)) if all(2 not in reference[p, r] for p in required)]
    assert 0 < len(alive) < len(table)
    assert kept.tolist() == alive
    for program, pend in zip(required, pendings):
        undecided = np.any([reference[program, r] == 1 for r in alive], axis=0)
        assert np.array_equal(pend, triples[:, undecided])
