"""Backtracking finite-model finder over hom-magmas.

Searches all unital hom-magmas with an adjoined zero (both optional) up to
a bound on the number of nonzero elements, looking for a structure that
satisfies every required identity and violates every forbidden one.

Fixed cells (unit row/column, zero row/column, alpha(0) = 0) are assigned
a priori; the remaining table cells are filled row-major, then the alpha
values.  Candidate values are tried zero-first, then e1, e2, ...; the first
complete model found is therefore the lexicographically least countermodel
under the key (size, flattened table, alpha map) with that value order,
and it equals its own canonical form.

Identities run as straight-line kernels generated from the compiled
programs of :mod:`homlab.evaluate`, over tables padded by one row and
column whose index ``size`` stands for an unassigned cell and absorbs every
product and twist.  The slots are walked in windows of a few slots: depth
first over windows, breadth first inside each.  A window holds its alive
partial tables as one stack in lexicographic order; each level gives every
row one child per domain value and runs each required identity's kernel
once over the union of the rows' pending triples, on the children the
identities before it kept (a level too large for one run is cut into chunks
of rows).  A fixed code table over the padded indices marks each triple of
each child decided and equal, undecided, or decided and unequal; a child
with an unequal triple is dropped, and so are the triples no kept child
leaves undecided.  When a window completes the table, one kernel run per
forbidden identity over the full grid checks all its leaves; a complete
table is accepted when every forbidden identity fails on some triple.
Nodes and leaves are counted as a search that tries one value at a time
would count them.

The search is split in the cube-and-conquer style: each carrier size is cut
at a fixed depth, so that each subtree below a surviving prefix is one
window.  The subtrees of all sizes form one lazy stream in lexicographic
order, run in this process at one worker, or when the stream is short, and
through one process pool (at most one process per CPU) with a bounded
window of tasks in flight otherwise.  Results are read in stream order and
the stream stops at its first model, so the verdict is identical for any
worker count.
"""

from __future__ import annotations

import collections
import itertools
import multiprocessing
import os
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from . import evaluate
from .carriers import FiniteHomMagma, _default_names, _refuse_unknown_keys, magma_to_dict, new_magma
from .errors import HomLabError, InvariantViolation, UnitRequired
from .terms import (
    Identity,
    TypeTag,
    TYPE_NAMES,
    builtin,
    parse_identity,
    render_identity,
)

Requirement = Union[str, TypeTag, Identity]


@dataclass(frozen=True)
class SearchSpec:
    """What to search for.

    require / violate entries may be assoc type names ("I2"), TypeTags, or
    equation-form Identity values (including parsed custom identities).
    The fields are the keys of a spec file, which adds ``custom``: more
    required identities.
    """

    max_n: int
    require: tuple = ()
    violate: tuple = ()
    with_zero: bool = True
    unital: bool = True

    def __post_init__(self):
        if self.max_n < 1:
            raise HomLabError("max_n must be at least 1")
        object.__setattr__(self, "require", tuple(self.require))
        object.__setattr__(self, "violate", tuple(self.violate))
        req = {requirement_label(r) for r in self.require}
        vio = {requirement_label(r) for r in self.violate}
        if req & vio:
            raise HomLabError(f"require and violate overlap: {sorted(req & vio)}")


@dataclass(frozen=True)
class SearchStats:
    nodes: int = 0
    models: int = 0
    seconds: float = 0.0


@dataclass(frozen=True)
class Verdict:
    """Countermodel, or a certificate that none exists up to the bound."""

    model: Optional[FiniteHomMagma]
    bound: int
    stats: SearchStats = field(default=SearchStats())

    @property
    def found(self) -> bool:
        return self.model is not None

    @property
    def outcome(self) -> str:
        return "countermodel" if self.found else "exhausted"


def requirement_label(entry: Requirement) -> str:
    if isinstance(entry, str):
        return entry
    if isinstance(entry, TypeTag):
        return entry.name if entry.family == "assoc" else str(entry)
    return render_identity(entry)


def resolve_requirement(entry: Requirement) -> Identity:
    if isinstance(entry, Identity):
        return entry
    if isinstance(entry, TypeTag):
        return builtin(entry)
    if entry in TYPE_NAMES:
        return builtin(TypeTag("assoc", entry))
    return parse_identity(entry)


# The keys of a spec file: the fields of SearchSpec, and custom.
SPEC_KEYS = ("max_n", "require", "violate", "custom", "with_zero", "unital")


def spec_from_dict(data: dict) -> SearchSpec:
    """The spec of a spec file's JSON object.  A key outside SPEC_KEYS, or a
    value of the wrong JSON type, raises HomLabError rather than being
    ignored or coerced."""
    if not isinstance(data, dict):
        raise HomLabError("a spec must be a JSON object")
    _refuse_unknown_keys(data, SPEC_KEYS, HomLabError, "spec")
    max_n = data.get("max_n", 3)
    if not isinstance(max_n, int) or isinstance(max_n, bool):
        raise HomLabError(f"max_n must be an integer, not {max_n!r}")
    lists = {}
    for key in ("require", "violate", "custom"):
        value = data.get(key, [])
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise HomLabError(f"{key} must be a list of strings, not {value!r}")
        lists[key] = value
    flags = {}
    for key in ("with_zero", "unital"):
        flags[key] = data.get(key, True)
        if not isinstance(flags[key], bool):
            raise HomLabError(f"{key} must be true or false, not {flags[key]!r}")
    return SearchSpec(
        max_n=max_n,
        require=tuple(lists["require"] + lists["custom"]),
        violate=tuple(lists["violate"]),
        **flags,
    )


def spec_to_dict(spec: SearchSpec) -> dict:
    return {
        "max_n": spec.max_n,
        "require": [requirement_label(r) for r in spec.require],
        "violate": [requirement_label(r) for r in spec.violate],
        "with_zero": spec.with_zero,
        "unital": spec.unital,
    }


# ------------------------------------------------------------------ search

# Most cells (rows x triples) one kernel run decides.  A larger level runs
# in chunks of rows, so that memory stays bounded where pruning is weak.
# canonical_form keys its relabelings in blocks of as many cells.
_KERNEL_CELLS = 1 << 14


def _parts(rows: int, triples: int):
    """Slices that cut rows into chunks of at most _KERNEL_CELLS cells."""
    step = max(_KERNEL_CELLS // max(triples, 1), 1)
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


class _SizeSearch:
    """Exhaustive search over one carrier size, in lexicographic order.

    The table and twist are numpy arrays padded by one row and column:
    index ``size`` is the undefined value.  It absorbs products and twists
    (its row, its column and its alpha entry are ``size``), so a side that
    reads an unassigned cell evaluates to ``size``.  A negative marker
    would not do: numpy reads a negative index as a real element.

    The slots are walked in windows of at most ``_TASK_SLOTS`` slots, depth
    first over windows and breadth first inside each one.  A window holds
    its alive rows as stacks (R, s+1, s+1) and (R, s+1) in lexicographic
    order, in the narrowest unsigned dtype that holds ``size``.  Each level
    repeats every row once per domain value, so row r*D + b is child b of
    row r.  Each required identity's kernel then runs once over the union
    of the rows' pending triples, on the rows the identities before it
    kept (in chunks of rows when the level holds more than
    ``_KERNEL_CELLS`` row-triple cells).  A kernel takes the indices of
    those rows and reads them in place, through flat offsets into the
    whole stacks; no row is copied.  ``code[lhs, rhs]`` reads 0 for a
    decided equal pair, 1 for an undecided one and 2 for a decided unequal
    one; it is looked up at the flat pair index ``lhs * (s+1) + rhs``,
    computed in ``intp``.
    """

    def __init__(self, spec: SearchSpec, nonzero: int):
        self.spec = spec
        self.n = nonzero
        self.size = nonzero + (1 if spec.with_zero else 0)
        self.zero = nonzero if spec.with_zero else None
        self.unit = 0 if spec.unital else None
        lo = 1 if spec.unital else 0
        self.slots = [("t", i, j) for i in range(lo, nonzero) for j in range(lo, nonzero)]
        self.slots += [("a", i, i) for i in range(nonzero)]
        self.domain = ([self.zero] if self.zero is not None else []) + list(range(nonzero))
        self.require = [self._kernel(r) for r in spec.require]
        self.violate = [self._kernel(v) for v in spec.violate]
        self.nodes = 0
        self.models = 0

        undef = self.size
        dtype = np.min_scalar_type(undef)
        self.table = np.full((1, undef + 1, undef + 1), undef, dtype=dtype)
        self.alpha = np.full((1, undef + 1), undef, dtype=dtype)
        if self.unit is not None:
            self.table[0, self.unit, :undef] = np.arange(undef)
            self.table[0, :undef, self.unit] = np.arange(undef)
        if self.zero is not None:
            self.table[0, self.zero, :undef] = self.zero
            self.table[0, :undef, self.zero] = self.zero
            self.alpha[0, self.zero] = self.zero
        self.values = np.array(self.domain, dtype=dtype)
        self.code = np.full((undef + 1, undef + 1), 2, dtype=np.int8)
        self.code[np.arange(undef), np.arange(undef)] = 0
        self.code[undef, :] = self.code[:, undef] = 1
        self._all_triples = np.indices((undef,) * 3).reshape(3, -1)

    def _kernel(self, entry: Requirement):
        program = evaluate.magma_program(resolve_requirement(entry))
        if self.unit is None and program.uses_unit:
            raise UnitRequired("identity uses the unit constant in a unit-free search")
        return evaluate.magma_kernel(program)

    def _codes(self, kernel, table, alpha, rows, triples):
        """(R, k) codes of the triples under the given rows of the stacks,
        read in place through flat offsets."""
        edge = table.shape[-1]
        lhs, rhs = kernel(
            table.reshape(-1), alpha.reshape(-1), rows[:, None] * edge, edge,
            *triples, self.unit,
        )
        # The sides hold the stacks' narrow dtype: widen before the pair
        # index, which outgrows it (16 * 17 + 16 wraps in uint8).
        pair = np.multiply(lhs, edge, dtype=np.intp)
        pair += rhs
        return self.code.reshape(-1)[pair]

    def _filter(self, table, alpha, pendings):
        """Indices of the rows of a non-empty stack that no required
        identity rejects, in order, and each identity's pending triples
        that some kept row leaves undecided.

        The pendings are the union over the rows: a triple outside a row's
        own pending set was decided equal in one of its ancestors and reads
        0 again, so every row gets the verdict of its own set.  Each
        identity runs only on the rows the ones before it kept."""
        kept = []
        undecided = [np.zeros(p.shape[1], dtype=bool) for p in pendings]
        for part in _parts(len(table), max((p.shape[1] for p in pendings), default=0)):
            rows = np.arange(len(table))[part]
            codes = []
            for kernel, pend in zip(self.require, pendings):
                code = self._codes(kernel, table, alpha, rows, pend)
                alive = code.max(axis=1, initial=0) < 2
                rows = rows[alive]
                codes = [c[alive] for c in codes] + [code[alive]]
            kept.append(rows)
            for mask, code in zip(undecided, codes):
                mask |= (code == 1).any(axis=0)
        return np.concatenate(kept), [p.compress(m, axis=1) for p, m in zip(pendings, undecided)]

    def _violating_rows(self, table, alpha):
        """Rows of complete tables in which every forbidden identity fails."""
        rows = np.ones(len(table), dtype=bool)
        for part in _parts(len(table), self._all_triples.shape[1]):
            selected = np.arange(len(table))[part]
            for kernel in self.violate:
                codes = self._codes(kernel, table, alpha, selected, self._all_triples)
                rows[part] &= (codes == 2).any(axis=1)
        return rows

    def _root(self, prefix):
        """One-row stacks holding the prefix, and each required identity's
        (3, k) undecided triples under them, or None if a decided triple
        fails."""
        table, alpha = self.table.copy(), self.alpha.copy()
        for pos, value in enumerate(prefix):
            self._assign(table, alpha, pos, value)
        rows, pendings = self._filter(table, alpha, [self._all_triples] * len(self.require))
        return table, alpha, (pendings if len(rows) else None)

    def _assign(self, table, alpha, pos, values):
        kind, i, j = self.slots[pos]
        if kind == "t":
            table[..., i, j] = values
        else:
            alpha[..., i] = values

    def prefixes(self, depth: int):
        """Yield, in lexicographic order, the assignments of the first
        depth slots that no required identity rejects, as value tuples."""
        table, alpha, pendings = self._root(())
        if pendings is None:
            return
        for table, alpha, row, _ in self._walk(table, alpha, pendings, 0, depth):
            yield tuple(
                int(table[row, i, j] if kind == "t" else alpha[row, i])
                for kind, i, j in self.slots[:depth]
            )

    def run(self, prefix: tuple = ()):
        """Yield the complete models (as FiniteHomMagma) that extend prefix,
        in lexicographic order.

        The prefix is assigned at once and the root pendings filtered once:
        a decided triple never changes, so this keeps the pending set and
        the rejections of filtering after each of its slots.
        """
        table, alpha, pendings = self._root(prefix)
        if pendings is None:
            return
        for table, alpha, row, verdicts in self._walk(
            table, alpha, pendings, len(prefix), len(self.slots)
        ):
            self.models += 1
            if verdicts[row]:
                yield self._snapshot(table, alpha, row)

    def _walk(self, table, alpha, pendings, pos, stop):
        """Yield (table, alpha, row, verdicts) for every assignment of
        slots pos..stop-1 below the one row of the stacks that no required
        identity rejects, in lexicographic order, while row ``row`` of the
        yielded stacks holds it.  When the table is then complete, verdicts
        holds the leaf check of every row; otherwise it is None.

        The first window is slots pos..pos+_TASK_SLOTS-1; each of its alive
        leaves is walked on from its own row.  Nodes are counted as a DFS
        that tries one value at a time counts them when it reaches the
        yielded assignment, so a consumer that stops early reads the same
        count.
        """
        end = min(pos + _TASK_SLOTS, stop)
        table, alpha, pendings, reached, total = self._window(table, alpha, pendings, pos, end)
        verdicts = self._violating_rows(table, alpha) if end == len(self.slots) else None
        counted = 0
        for row in range(len(table)):
            self.nodes += int(reached[row]) - counted
            counted = int(reached[row])
            if end == stop:
                yield table, alpha, row, verdicts
            else:
                yield from self._walk(
                    table[row:row + 1], alpha[row:row + 1], pendings, end, stop
                )
        self.nodes += total - counted

    def _window(self, table, alpha, pendings, pos, stop):
        """Breadth first over slots pos..stop-1 below the one row of the
        stacks.  Returns the alive rows that assign them all, in
        lexicographic order, the pending triples left, each row's node
        count (at each level, the position of its ancestor among that
        level's children plus 1, so every child the DFS reached before it,
        dead or alive), and the window's whole node count."""
        reached = np.zeros(len(table), dtype=np.intp)
        total = 0
        width = len(self.domain)
        for slot in range(pos, stop):
            rows = len(table)
            if not rows:
                break
            table = np.repeat(table, width, axis=0)
            alpha = np.repeat(alpha, width, axis=0)
            # Through (rows, D, ...) views, child b of each row takes value b.
            self._assign(
                table.reshape(rows, width, *table.shape[1:]),
                alpha.reshape(rows, width, -1), slot, self.values,
            )
            reached = np.repeat(reached, width) + np.arange(1, rows * width + 1)
            total += rows * width
            rows, pendings = self._filter(table, alpha, pendings)
            table, alpha, reached = table[rows], alpha[rows], reached[rows]
        return table, alpha, pendings, reached, total

    def _snapshot(self, table, alpha, row: int) -> FiniteHomMagma:
        s = self.size
        return new_magma(
            s, table[row, :s, :s].tolist(), alpha[row, :s].tolist(),
            unit=self.unit, zero=self.zero,
        )


def _value_key(value: int, zero: Optional[int]) -> int:
    return 0 if zero is not None and value == zero else value + 1


def model_key(m: FiniteHomMagma) -> tuple:
    """Sort key implementing the (size, table, alpha) lexicographic order,
    with the zero element ordered first among values."""
    flat = tuple(_value_key(v, m.zero) for row in m.table for v in row)
    al = tuple(_value_key(v, m.zero) for v in m.alpha)
    return (m.size, flat, al)


def _reverify(spec: SearchSpec, m: FiniteHomMagma) -> FiniteHomMagma:
    # Independent re-check through the public evaluator.
    for r in spec.require:
        if not evaluate.holds(m, resolve_requirement(r)):
            raise InvariantViolation(
                f"search returned a model violating required {requirement_label(r)}"
            )
    for v in spec.violate:
        if evaluate.holds(m, resolve_requirement(v)):
            raise InvariantViolation(
                f"search returned a model satisfying forbidden {requirement_label(v)}"
            )
    return m


# Slots a window decides: the split depth leaves one window below each prefix.
_TASK_SLOTS = 5


def _tasks(spec: SearchSpec, cubes: list):
    """(spec, nonzero, prefix) for every surviving split prefix of every
    carrier size, lazily and in the serial DFS's order.  The prefix search
    of each size goes to cubes, which keeps its node count."""
    for nonzero in range(1, spec.max_n + 1):
        cube = _SizeSearch(spec, nonzero)
        cubes.append(cube)
        for prefix in cube.prefixes(max(len(cube.slots) - _TASK_SLOTS, 0)):
            yield spec, nonzero, prefix


def _run_task(task):
    spec, nonzero, prefix = task
    search = _SizeSearch(spec, nonzero)
    return nonzero, next(search.run(prefix), None), search.nodes, search.models


def find_model(spec: SearchSpec, workers: int = 1) -> Verdict:
    """Smallest countermodel within the bound, or an exhaustion certificate.

    Every carrier size is cut at a fixed depth into subtrees of one window
    each, one per surviving prefix, and they form one lazy stream in
    lexicographic order.  At one worker each runs in this process in turn.
    At more (at most one per CPU), one process pool keeps up to two per
    worker in flight; it is started only if the stream holds more than
    that window, and a shorter stream runs in this process too.  Results
    are taken in stream order and the stream stops at its first model,
    which is the least model in lexicographic order, so the verdict is the
    same for every worker count.  The node and model counts are those of a
    search that tries one value at a time, up to the tasks in flight when
    the stream stops.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    start = time.perf_counter()
    # Verdicts do not depend on the worker count, so more processes than
    # CPUs would only cost forks.
    workers = min(workers, os.cpu_count() or 1)
    cubes = []
    stream = _tasks(spec, cubes)
    window = collections.deque()
    results = []
    pool = None
    if workers > 1:
        # A stream that ends within one window's worth of tasks is not
        # worth a pool: look that far ahead before forking.
        head = list(itertools.islice(stream, 2 * workers + 1))
        stream = itertools.chain(head, stream)
        if len(head) > 2 * workers:
            pool = multiprocessing.get_context("fork").Pool(workers)
    if pool is None:
        limit = 1

        def submit(task):
            result = _run_task(task)
            return lambda: result
    else:
        limit = 2 * workers

        def submit(task):
            return pool.apply_async(_run_task, (task,)).get

    try:
        while True:
            window.extend(submit(t) for t in itertools.islice(stream, limit - len(window)))
            if not window:
                break
            results.append(window.popleft()())
            if results[-1][1] is not None:
                break
        # Tasks already handed out are small: finish them rather than kill
        # busy workers, and count their nodes as spent.
        results += [pending() for pending in window]
    except BaseException:
        if pool is not None:
            pool.terminate()  # a worker may have died, and its task with it
        raise
    if pool is not None:
        pool.close()
        pool.join()
    nodes = sum(c.nodes for c in cubes) + sum(r[2] for r in results)
    models = sum(r[3] for r in results)
    stats = SearchStats(nodes, models, time.perf_counter() - start)
    winner = next((r for r in results if r[1] is not None), None)
    if winner is None:
        return Verdict(None, spec.max_n, stats)
    return Verdict(_reverify(spec, winner[1]), winner[0], stats)


def enumerate_models(spec: SearchSpec, limit: int) -> list:
    """The first `limit` models matching the spec that are their own
    canonical form: one per isomorphism class, each the least of its class,
    in lexicographic order (the lex-leader rule)."""
    if limit < 0:
        raise ValueError(f"limit must not be negative, got {limit}")
    models = (m for n in range(1, spec.max_n + 1) for m in _SizeSearch(spec, n).run())
    return list(itertools.islice((m for m in models if canonical_form(m) == m), limit))


def canonical_form(m: FiniteHomMagma) -> FiniteHomMagma:
    """Least relabeling of the magma, fixing the unit (index 0) and the
    zero (last index).  Two magmas are isomorphic as pointed structures
    iff their canonical forms are equal.

    The relabelings list the unit, an ordering of the other elements, then
    the zero.  They are keyed in blocks of at most ``_KERNEL_CELLS`` cells,
    so memory stays bounded whatever the size of the magma.
    """
    n = m.size
    head = [] if m.unit is None else [m.unit]
    tail = [] if m.zero is None else [m.zero]
    others = [i for i in range(n) if i not in (m.unit, m.zero)]
    table = np.array(m.table, dtype=np.intp)
    alpha = np.array(m.alpha, dtype=np.intp)
    zero = None if m.zero is None else n - 1
    rank = np.array([_value_key(v, zero) for v in range(n)])
    step = max(_KERNEL_CELLS // (n * n + n), 1)
    orderings = itertools.permutations(others)
    best = None
    while block := list(itertools.islice(orderings, step)):
        # order[b, new] is the old element relabeled new, perm its inverse.
        order = np.array([head + list(middle) + tail for middle in block], dtype=np.intp)
        rows = np.arange(len(order))[:, None]
        perm = np.empty_like(order)
        perm[rows, order] = np.arange(n)
        cells = table[order[:, :, None], order[:, None, :]].reshape(len(order), -1)
        keys = rank[np.hstack([perm[rows, cells], perm[rows, alpha[order]]])]
        least = np.lexsort(keys.T[::-1])[0]
        key = keys[least].tolist()
        if best is None or key < best[0]:
            best = (key, perm[least].tolist())
    # With the unit and the zero in place, equal keys mean equal tables and
    # twists, and the names are replaced below: a tie leaves nothing to choose.
    return replace(m.relabel(best[1]), names=_default_names(n, zero))


def verify_implication(premises, conclusion, max_n: int, workers: int = 1) -> Verdict:
    """Search for a structure with all the premise types but not the
    conclusion; exhaustion confirms the implication up to the bound."""
    spec = SearchSpec(max_n=max_n, require=tuple(premises), violate=(conclusion,))
    return find_model(spec, workers=workers)


def verdict_to_dict(v: Verdict) -> dict:
    # Volatile statistics (nodes, wall time) are deliberately excluded so
    # that output is byte-identical across worker counts.
    return {
        "outcome": v.outcome,
        "bound": v.bound,
        "model": None if v.model is None else magma_to_dict(v.model),
    }
