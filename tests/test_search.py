import itertools
import json
import math
import operator
import multiprocessing
import random
import re
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
from homlab import search as search_module
from homlab.evaluate import magma_program, magma_sides
from homlab.cli import main
from homlab.search import (
    SPEC_KEYS,
    _KERNEL_CELLS,
    _SizeSearch,
    _live_triples,
    _parts,
    _reduced_sides,
    resolve_requirement,
)

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
    # bool is an int subclass, and the others would fail later as TypeError.
    for max_n in (True, 2.5, "3"):
        with pytest.raises(HomLabError, match=f"max_n must be an integer, not {max_n!r}"):
            SearchSpec(max_n=max_n, violate=("I3",))
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


# Small specs with and without zero, unital and not.
SPLIT_SPECS = (
    SearchSpec(max_n=3, require=("I2", "II1"), violate=("I3",)),
    SearchSpec(max_n=3, require=("I1",), with_zero=False),
    SearchSpec(max_n=2, require=("x*y = y*x",), violate=("I1",), with_zero=False, unital=False),
    SearchSpec(max_n=2, require=("II2",), unital=False),
)


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


# Specs whose required identities the readiness schedule bounds in other
# ways: a twist of a product adds no bound (III, and III' beside its twists
# of x and z), a twist of the unit waits for the slot of a(1), and an
# identity without twists is always ready.
SCHEDULE_SPECS = (
    SearchSpec(max_n=3, require=("III", "III'"), violate=("I1",), with_zero=False),
    SearchSpec(max_n=3, require=("a(1)*x = x*a(1)", "II1"), violate=("II",)),
    SearchSpec(max_n=3, require=("x*y = y*x", "II1"), violate=("I2",)),
)
SCHEDULE_IDS = ("twisted-products", "twisted-unit", "untwisted")

REFERENCE_SPECS = SPLIT_SPECS + (
    SearchSpec(max_n=3, require=("II2", "II3"), violate=("II1",)),
    SearchSpec(max_n=3, require=("I1", "II3"), violate=("II2",)),
    SearchSpec(max_n=3, require=("x*(y*z) = (x*y)*z",), violate=("x*y = y*x",), with_zero=False),
) + SCHEDULE_SPECS
REFERENCE_IDS = (
    "zero-unit", "unit", "bare", "zero", "II2-II3", "exhausted", "assoc-noncomm",
) + SCHEDULE_IDS


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


def _watch_levels(monkeypatch, check):
    """Calls check(search, table, alpha, pendings, pos) before every
    _filter call, and returns the list of (slot, cells) of every run of a
    required kernel, where slot is the window level's slot, or None when the
    root (the fixed cells, from the live triple sets) is filtered."""
    real_root, real_filter = _SizeSearch._root, _SizeSearch._filter
    real_codes = _SizeSearch._codes
    rooting, level, runs = [], [], []

    def watched_root(self):
        rooting.append(True)
        try:
            return real_root(self)
        finally:
            rooting.pop()

    def watched_filter(self, table, alpha, pendings, pos):
        check(self, table, alpha, pendings, pos)
        level.append(None if rooting else self.slots[pos])
        try:
            return real_filter(self, table, alpha, pendings, pos)
        finally:
            level.pop()

    def watched_codes(self, kernel, table, alpha, rows, triples):
        if level:
            runs.append((level[-1], len(rows) * triples.shape[1]))
        return real_codes(self, kernel, table, alpha, rows, triples)

    monkeypatch.setattr(_SizeSearch, "_root", watched_root)
    monkeypatch.setattr(_SizeSearch, "_filter", watched_filter)
    monkeypatch.setattr(_SizeSearch, "_codes", watched_codes)
    return runs


def _skipped_triples_read_undecided(search, table, alpha, pendings, pos, skipped):
    """Runs each required kernel anyway on the triples the schedule skips
    at slot pos, over every row, and asserts that they read code 1."""
    for kernel, pend in zip(search.require, pendings):
        waiting = pend[:3, pend[3] > pos]
        if waiting.shape[1]:
            for part in _parts(len(table), waiting.shape[1]):
                rows = np.arange(len(table))[part]
                codes = _SizeSearch._codes(search, kernel, table, alpha, rows, waiting)
                assert (codes == 1).all(), pos
                skipped.append(codes.size)


@pytest.mark.parametrize("spec", SCHEDULE_SPECS, ids=SCHEDULE_IDS)
def test_skipped_triples_are_undecided_on_every_row(monkeypatch, spec):
    skipped = []
    _watch_levels(
        monkeypatch, lambda *level: _skipped_triples_read_undecided(*level, skipped)
    )
    probe = _SizeSearch(spec, spec.max_n)
    for w in range(1, len(probe.slots) + 1):
        monkeypatch.setattr("homlab.search._WINDOW_ROWS", len(probe.domain) ** w)
        list(_SizeSearch(spec, spec.max_n).run())
    assert sum(skipped) > 0


def test_deep4_runs_no_required_kernel_at_a_table_slot(monkeypatch):
    skipped = []
    runs = _watch_levels(
        monkeypatch, lambda *level: _skipped_triples_read_undecided(*level, skipped)
    )
    stats = find_model(DEEP4).stats
    assert sum(skipped) > 0
    assert {slot[0] for slot, _ in runs if slot is not None} == {"a"}
    assert stats.cells == sum(cells for _, cells in runs)


def test_deep4_cells_are_pinned():
    # Row-triple cells the required kernels and the leaf check evaluate at
    # 1 worker, on the live triples only.
    stats = find_model(DEEP4).stats
    assert (stats.cells, stats.leaf_cells) == (1_290_304, 397_298)


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=REFERENCE_IDS)
def test_enumerate_keeps_each_class_least_model(spec):
    models = enumerate_models(spec, limit=10_000)
    assert models == _seen_set_dedupe(spec, 10_000)
    assert all(canonical_form(m) == m for m in models)
    keys = [model_key(m) for m in models]
    assert keys == sorted(keys)
    for limit in (1, 5):
        assert enumerate_models(spec, limit) == models[:limit]


def _record_windows(monkeypatch):
    """The (pos, stop) of every window _SizeSearch walks, in order."""
    real, spans = _SizeSearch._window, []

    def recording(self, table, alpha, pendings, pos, stop):
        spans.append((pos, stop))
        return real(self, table, alpha, pendings, pos, stop)

    monkeypatch.setattr(_SizeSearch, "_window", recording)
    return spans


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=REFERENCE_IDS)
def test_run_windows_of_every_width_match_the_one_value_dfs(monkeypatch, spec):
    whole = _reference_dfs(spec, spec.max_n, first_only=False)
    first = _reference_dfs(spec, spec.max_n, first_only=True)
    probe = _SizeSearch(spec, spec.max_n)
    slots, width = len(probe.slots), len(probe.domain)
    spans = _record_windows(monkeypatch)
    for w in range(1, slots + 1):
        monkeypatch.setattr("homlab.search._WINDOW_ROWS", width ** w)
        for first_only, expected in ((False, whole), (True, first)):
            search = _SizeSearch(spec, spec.max_n)
            assert search.window_slots() == w
            spans.clear()
            found = search.run()
            models = list(itertools.islice(found, 1) if first_only else found)
            assert (models, search.nodes, search.models) == expected
            # The windows end at the leaves; the first takes the remainder.
            assert spans[0] == (0, slots % w or w)
            assert all(stop - pos == w for pos, stop in spans[1:])


@pytest.mark.parametrize("with_zero, models, nodes", [
    (False, 2_187, 3_279),
    (True, 16_384, 21_844),
])
def test_unpruned_walk_spans_two_windows(monkeypatch, with_zero, models, nodes):
    search = _SizeSearch(SearchSpec(max_n=3, with_zero=with_zero), 3)
    assert len(search.slots) == 7
    assert search.table.dtype == search.alpha.dtype == np.uint8
    # Windows of 5 slots: the first takes the 2 left over, and each of its
    # D**2 leaves is walked on in a window of its own.
    width = len(search.domain)
    monkeypatch.setattr("homlab.search._WINDOW_ROWS", width ** 5)
    spans = _record_windows(monkeypatch)
    widest = []
    _watch_levels(monkeypatch, lambda _, table, *rest: widest.append(len(table)))
    keys = [model_key(m) for m in search.run()]
    assert spans == [(0, 2)] + [(2, 7)] * width ** 2
    assert max(widest) == width ** 5
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


def test_deep4_levels_stay_within_the_window_rows(monkeypatch):
    widest = []
    _watch_levels(monkeypatch, lambda _, table, *rest: widest.append(len(table)))
    assert find_model(DEEP4).found
    assert max(widest) <= search_module._WINDOW_ROWS
    # Windows of 7 slots over 13: the first takes the 6 table cells left
    # over, where no kernel runs, so its last level keeps all 5**6 rows.
    assert max(widest) == 5 ** 6


def test_deep4_memory_stays_small_at_one_worker():
    find_model(DEEP4)  # kernels and schedules are built once, and cached
    tracemalloc.start()
    try:
        find_model(DEEP4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_exhausted_and_last_task_specs_agree_at_two_workers():
    exhausted = SearchSpec(max_n=3, require=("I1",), violate=("I3",))
    # Unit-free, with models only at the last carrier size.
    last = SearchSpec(max_n=2, require=("I1",), violate=("II2",), unital=False)
    for spec in (exhausted, last):
        one, two = find_model(spec, workers=1), find_model(spec, workers=2)
        assert verdict_to_dict(one) == verdict_to_dict(two)
        assert (one.found, one.bound) == (spec is last, spec.max_n)


def test_no_worker_count_changes_the_statistics_or_starts_a_process(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", refuse)
    exhausted = SearchSpec(max_n=3, require=("I1",), violate=("I3",))
    for spec in (DEEP4, exhausted):
        verdicts = [find_model(spec, workers=w) for w in (1, 2, 8, 100_000)]
        assert verdicts[0].found == (spec is DEEP4)
        assert len({str(verdict_to_dict(v)) for v in verdicts}) == 1
        assert len({(v.stats.nodes, v.stats.models, v.stats.cells) for v in verdicts}) == 1
    assert multiprocessing.active_children() == []


def test_find_model_refuses_fewer_than_one_worker():
    spec = SearchSpec(max_n=2, require=("I2",), violate=("I3",))
    for workers in (0, -3):
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            find_model(spec, workers=workers)


def test_worker_count_and_limit_must_be_integers():
    # bool is an int subclass; 2.5 would run, and "2" fail as a bare TypeError.
    spec = SearchSpec(max_n=2, require=("I2",), violate=("I3",))
    for value in (2.5, "2", True, None):
        with pytest.raises(ValueError, match=re.escape(f"workers must be an integer, not {value!r}")):
            find_model(spec, workers=value)
        with pytest.raises(ValueError, match=re.escape(f"limit must be an integer, not {value!r}")):
            enumerate_models(spec, limit=value)


def test_spec_refuses_a_bare_string_and_flags_that_are_not_bool():
    # tuple("I1") would be ("I", "1"); with_zero=0 would search without a
    # zero and print 0 in the spec file.
    for key in ("require", "violate"):
        with pytest.raises(HomLabError, match=f"{key} must be a sequence of entries, not the string 'I1'"):
            SearchSpec(max_n=2, **{key: "I1"})
    with pytest.raises(HomLabError, match="require must be a sequence"):
        verify_implication("I1", "I3", 2)
    for key in ("with_zero", "unital"):
        for value in (0, 1, "yes", None):
            with pytest.raises(HomLabError, match=re.escape(f"{key} must be true or false, not {value!r}")):
                SearchSpec(max_n=2, violate=("I3",), **{key: value})
            with pytest.raises(HomLabError, match=re.escape(f"{key} must be true or false")):
                spec_from_dict({"max_n": 2, "violate": ["I3"], key: value})
    assert SearchSpec(max_n=2, require=["I1"], violate={"I3"}).require == ("I1",)


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
    grid = np.indices((search.size,) * 3).reshape(3, -1)
    picked = rng.choice(grid.shape[1], 600, replace=False)
    triples = grid[:, picked]
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

    # _filter at slot 0, cut into chunks of two rows so that every later
    # chunk reads rows away from the start of the stacks.  The sampled
    # triples are ready there; 40 more wait for slot 1 and must come back
    # untouched, although the first of them reads 2 on a row that stays
    # alive.
    required = programs[:2]
    alive = [r for r in range(len(table)) if all(2 not in reference[p, r] for p in required)]
    rest = np.delete(grid, picked, axis=1)
    failing = np.any([
        _reference_codes(p, table[r], alpha[r], search.unit, rest) == 2
        for p in required for r in alive
    ], axis=0)
    assert failing.any()
    waiting = rest[:, np.argsort(~failing, kind="stable")[:40]]
    monkeypatch.setattr("homlab.search._KERNEL_CELLS", 2 * triples.shape[1])
    scheduled = np.hstack([
        np.vstack([triples, np.zeros(triples.shape[1], dtype=np.intp)]),
        np.vstack([waiting, np.ones(waiting.shape[1], dtype=np.intp)]),
    ])
    kept, pendings = search._filter(table, alpha, [scheduled] * 2, 0)
    assert 0 < len(alive) < len(table)
    assert kept.tolist() == alive
    for program, pend in zip(required, pendings):
        undecided = np.any([reference[program, r] == 1 for r in alive], axis=0)
        assert np.array_equal(pend[:3, :undecided.sum()], triples[:, undecided])
        assert np.array_equal(pend[:, undecided.sum():], scheduled[:, triples.shape[1]:])

    # Nothing ready: every row is kept and the pendings come back as they
    # are, with no kernel run.
    def refuse(*args):
        raise AssertionError("a kernel ran with no triple ready")

    monkeypatch.setattr(search, "_codes", refuse)
    late = [scheduled[:, triples.shape[1]:]] * 2
    kept, pendings = search._filter(table, alpha, late, 0)
    assert np.arange(len(table))[kept].tolist() == list(range(len(table)))
    assert all(p is q for p, q in zip(pendings, late))


# The fixed cells (the unit's row and column, the zero's row, column and
# twist) decide some triples alone: their two sides reduce to the same term
# by 1*t = t*1 = t, 0*t = t*0 = 0 and a(0) = 0.  The search drops them from
# the schedules and the leaf check, which must not change what it finds.

REDUCTION_ENTRIES = TYPE_NAMES + ("x*y = y", "x*y = y*x", "1 = a(1)", "x*1 = x", "x*y = x*y")


def _complete_stacks(search, rng, rows):
    """uint8 stacks of complete tables, every free cell and twist random."""
    table = np.repeat(search.table, rows, axis=0)
    alpha = np.repeat(search.alpha, rows, axis=0)
    for kind, i, j in search.slots:
        values = rng.integers(0, search.size, rows)
        if kind == "t":
            table[:, i, j] = values
        else:
            alpha[:, i] = values
    return table, alpha


def _reference_ready(program, search, triple):
    """The ready slot of one triple, read off the program step by step."""
    first_twist = len(search.slots) - search.n
    ready = -1
    for step in program.steps:
        if step[0] == "a" and program.steps[step[1]][0] in "xyz1":
            leaf = program.steps[step[1]][0]
            value = search.unit if leaf == "1" else triple["xyz".index(leaf)]
            if value != search.zero:
                ready = max(ready, first_twist + value)
    return ready


@pytest.mark.parametrize("entry", REDUCTION_ENTRIES)
def test_triples_the_fixed_cells_decide_never_read_unequal(entry):
    rng = np.random.default_rng(sum(map(ord, entry)))
    program = magma_program(resolve_requirement(entry))
    for nonzero, with_zero, unital in itertools.product((1, 2, 3, 4), (True, False), (True, False)):
        if program.uses_unit and not unital:
            continue
        spec = SearchSpec(max_n=nonzero, require=(entry,), with_zero=with_zero, unital=unital)
        search = _SizeSearch(spec, nonzero)
        grid = np.indices((search.size,) * 3).reshape(3, -1)
        # The reduction of every triple on its own, against the one per
        # pattern that the search uses.
        live = np.array([
            operator.ne(*_reduced_sides(program, t, search.unit, search.zero))
            for t in grid.T.tolist()
        ], dtype=bool)
        assert np.array_equal(_live_triples(program, search.size, search.unit, search.zero),
                              grid[:, live])
        dropped = grid[:, ~live]
        partial, complete = _wide_stacks(search, rng, 8), _complete_stacks(search, rng, 8)
        for (table, alpha), most in ((partial, 1), (complete, 0)):
            for r in range(len(table)):
                codes = _reference_codes(program, table[r], alpha[r], search.unit, dropped)
                assert codes.max(initial=0) <= most, (nonzero, with_zero, unital, r)
        # The schedule holds exactly the live triples, sorted by ready slot
        # and x-major among equals.
        ready = [_reference_ready(program, search, t) for t in grid[:, live].T.tolist()]
        order = np.argsort(ready, kind="stable")
        expected = np.vstack([grid[:, live], ready])[:, order]
        assert np.array_equal(search.scheduled[0], expected)


def test_fixed_cells_decide_the_pinned_share_of_each_catalog_type():
    # Of the 125 triples over 4 nonzero elements, the unit and the zero.
    dropped = {}
    for name in TYPE_NAMES:
        program = magma_program(resolve_requirement(name))
        dropped[name] = 125 - _live_triples(program, 5, 0, 4).shape[1]
    assert dropped == {
        "I1": 62, "I2": 89, "I3": 62, "II": 65, "II1": 62, "II2": 77, "II3": 62,
        "III": 98, "III'": 77, "III''": 61,
    }


def test_empty_triple_sets_run_through_every_step():
    search = _SizeSearch(SearchSpec(max_n=3, require=("x*1 = x",), violate=("1*x = x",)), 3)
    assert search.scheduled[0].shape == (4, 0) and search.leaf_triples[0].shape == (3, 0)
    assert _parts(5, 0) == [slice(0, _KERNEL_CELLS)]
    table, alpha = _complete_stacks(search, np.random.default_rng(3), 4)
    rows = np.arange(4)
    assert search._codes(search.violate[0], table, alpha, rows, np.empty((3, 0), np.intp)).shape == (4, 0)
    kept, pendings = search._filter(table, alpha, search.scheduled, len(search.slots))
    assert np.arange(4)[kept].tolist() == [0, 1, 2, 3] and pendings[0].shape == (4, 0)
    assert search._violating_rows(table, alpha).tolist() == [False] * 4
    assert (search.cells, search.leaf_cells) == (0, 0)


def test_a_forbidden_identity_the_fixed_cells_decide_exhausts(capsys, tmp_path):
    verdict = find_model(SearchSpec(max_n=3, violate=("x*1 = x",)))
    assert not verdict.found and verdict.stats.leaf_cells == 0
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"max_n": 3, "violate": ["x*1 = x"]}))
    assert main(["search", str(path)]) == 0
    assert "exhausted" in capsys.readouterr().out


def test_a_required_identity_the_fixed_cells_decide_runs_no_kernel(monkeypatch):
    runs = _watch_levels(monkeypatch, lambda *level: None)
    verdict = find_model(SearchSpec(max_n=3, require=("x*1 = x",), violate=("I1",)))
    free = find_model(SearchSpec(max_n=3, violate=("I1",)))
    assert runs == [] and verdict.stats.cells == 0
    assert verdict.model == free.model
    assert (verdict.stats.nodes, verdict.stats.models) == (free.stats.nodes, free.stats.models)


def test_a_spec_without_forbidden_identities_returns_its_least_model():
    spec = SearchSpec(max_n=2, require=("I1", "II2"))
    verdict = find_model(spec)
    models, nodes, leaves = _reference_dfs(spec, 1, first_only=True)
    assert verdict.model == models[0]
    assert (verdict.stats.nodes, verdict.stats.models, verdict.stats.leaf_cells) == (nodes, leaves, 0)
